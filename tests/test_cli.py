import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from altgt import cli, geodesics, gt, tableaux, verify, yor
from altgt.cli import main
from altgt.gt import gt_basis
from altgt.labels import AltLabel, labels
from altgt.partitions import Partition, partitions_of
from altgt.scalars import I, Scalar
from altgt.tableaux import StandardTableau, syt_count
import oracles
from test_gt import recording
from test_verify import column_flip


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_syt(capsys):
    code, out, _ = run_cli(capsys, "syt", "2,1")
    assert code == 0
    assert out == "12/3\n13/2\n"


def test_syt_bad_shape(capsys):
    code, _, err = run_cli(capsys, "syt", "4,x")
    assert code == 2
    assert err == "error: invalid partition part 'x'\n"


@pytest.mark.parametrize("part", ["\uff13", "\u00b3", "\u0663"])
def test_syt_rejects_non_ascii_digits(capsys, part):
    # fullwidth three, superscript three, Arabic-Indic three
    code, out, err = run_cli(capsys, "syt", part)
    assert (code, out) == (2, "")
    assert err == f"error: invalid partition part {part!r}\n"


MAX_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not MAX_DIGITS, reason="int() converts any number of digits")
def test_syt_rejects_a_part_too_long_to_convert(capsys):
    code, out, err = run_cli(capsys, "syt", "9" * (MAX_DIGITS + 1))
    assert (code, out) == (2, "")
    assert err == f"error: invalid partition part '{'9' * 20}…'\n"


@pytest.mark.parametrize("command", ["gt", "paths"])
@pytest.mark.parametrize("label", ["1", "1^+", "1^-"])
def test_label_below_level_two(capsys, command, label):
    code, out, err = run_cli(capsys, command, label)
    assert (code, out) == (2, "")
    assert err == f"error: label {label!r} is at level 1; labels start at level 2\n"


def test_deep_labels(capsys):
    # 199 branching steps, the most a label at the box limit takes
    code, out, _ = run_cli(capsys, "paths", "200")
    assert code == 0
    assert out == ";".join(map(str, range(2, 201))) + "\t2\n"
    code, out, _ = run_cli(capsys, "gt", "200")
    assert code == 0
    assert out.startswith("u[2;3;4;") and out.count("\n") == 1


def test_shapes_over_the_box_limit_exit_2(capsys):
    code, out, err = run_cli(capsys, "syt", "200")
    assert (code, err) == (0, "")
    assert out == " ".join(map(str, range(1, 201))) + "\n"
    for command, shape in [("syt", "201"), ("paths", "1200")]:
        code, out, err = run_cli(capsys, command, shape)
        assert (code, out) == (2, "")
        assert err == f"error: partition {shape} has more than 200 boxes\n"


def _call_from_depth(depth, call):
    """call() with `depth` extra Python frames on the stack."""
    return call() if depth == 0 else _call_from_depth(depth - 1, call)


def test_recursions_at_the_box_limit_leave_stack_to_spare(capsys):
    # the lattice recursions are plain recursion, a few frames per box; from
    # 300 frames deep each must still walk a 200-box shape from cold
    recursions = [tableaux.enumerate_syt, geodesics.enumerate_paths,
                  geodesics.geodesic_representatives, verify._path_count]
    label = AltLabel.parse("200")
    calls = [lambda argv=argv: main(argv) == 0
             for argv in (["syt", "200"], ["paths", "200"], ["gt", "200"])]
    calls += [lambda: len(geodesics.enumerate_paths(label)) == 1,
              lambda: verify.verify_gt(label).ok]
    for call in calls:
        for recursion in recursions:
            recursion.cache_clear()
        assert _call_from_depth(300, call)
    capsys.readouterr()


_HUGE = "99999999999999999999"
_STAIRCASE = ",".join(str(k) for k in range(19, 0, -1))
# for each command, a shape just past its tableau ceiling
_PAST_CEILING = {"syt": "4,4,4,2,1,1", "yor": "8,2,1,1,1", "assoc": "11,1,1,1,1,1,1,1,1,1,1",
                 "paths": "4,4,4,2,1,1", "gt": "6,3,3,1,1,1^+"}
_HUGE_ARGV = [
    *[[command, shape, *extra]
      for command, extra in [("syt", []), ("yor", ["--gen", "1"]), ("assoc", []),
                             ("paths", []), ("gt", [])]
      for shape in (_HUGE, "201", _STAIRCASE + "^+" * (command in ("paths", "gt")),
                    _PAST_CEILING[command])],
    *[[command, "--max-n", value]
      for command, ceiling in [("verify", cli.MAX_VERIFY_N), ("bratteli", cli.MAX_BRATTELI_N)]
      for value in (_HUGE, str(ceiling + 1))],
]


def _run_limited(argv, megabytes, timeout):
    """Run the CLI in a child limited to `megabytes` of address space."""
    resource = pytest.importorskip("resource")

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (megabytes << 20, megabytes << 20))

    return subprocess.run(
        [sys.executable, "-m", "altgt.cli", *argv],
        capture_output=True, text=True, timeout=timeout, preexec_fn=limit_memory,
        env=_python_env(),
    )


@pytest.mark.parametrize("argv", _HUGE_ARGV, ids="-".join)
def test_huge_inputs_exit_2_under_a_memory_limit(argv):
    # each in a child limited to 400 MB of address space, so a walk that
    # starts anyway fails or times out instead of taking the machine's memory
    proc = _run_limited(argv, 400, timeout=10)
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    token = argv[-1] if argv[1] == "--max-n" else argv[1]
    assert token in proc.stderr


def test_tableau_ceiling_admits_the_staircase_of_15():
    # syt 5,4,3,2,1 lists 292,864 tableaux at a peak RSS of 95.7 MB (Python 3.11)
    shape = Partition((5, 4, 3, 2, 1))
    assert shape.n ** 2 * syt_count(shape) <= cli.MAX_SYT_ENTRIES


def test_thin_shape_lists_under_a_memory_limit():
    # syt 106,2 (5,670 tableaux of 108 boxes) keeps every shape (k,2), (k,1)
    # and (k) below it cached; with a tableau stored as an object holding a
    # tuple of its word, this ran out of 100 MB and exited 1
    proc = _run_limited(["syt", "106,2"], 100, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == (
        "83cc68862873a035393b18a19733013ddef47030f91f1ad873445ceee6901238")


@pytest.mark.parametrize("argv", [("gt", "4,3,2,1^+"), ("syt", "5,3,1")], ids="-".join)
def test_output_does_not_depend_on_the_hash_seed(argv):
    # tableaux hash like bytes, salted per process: no output may come from
    # the iteration order of a set or dict keyed by them
    outputs = {
        subprocess.run([sys.executable, "-m", "altgt.cli", *argv], capture_output=True,
                       check=True, env=dict(_python_env(), PYTHONHASHSEED=seed)).stdout
        for seed in ("0", "1")
    }
    assert len(outputs) == 1


def test_yor_ceiling_admits_dimensions_2079_and_2640():
    # with --gen 1 and --gen 5, their JSON (44 MB and 71 MB) prints in under
    # 25 MB of memory and 5 s on a 2-vCPU machine
    for shape, dim in [((7, 2, 2, 1), 2079), ((4, 4, 2, 2), 2640)]:
        assert syt_count(Partition(shape)) == dim <= cli.MAX_YOR_DIM


def test_yor_json_streams_under_a_memory_limit():
    # dim 990: one json.dumps of the dense payload ran out of 100 MB; written
    # a row at a time it gives the same 10,153,462 bytes, the sha256 of
    # oracles.dense_yor_output(Partition((5, 4, 2)), 5, "json")
    proc = _run_limited(["yor", "5,4,2", "--gen", "5", "--format", "json"], 100, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == (
        "125ba759a3b11914c102ad372154d6b04b2ea92710f96fcb3b1b66df0ee398ce")


def test_yor_and_assoc_match_the_dense_writers(capsys):
    # the row-at-a-time writers against the whole-matrix references
    for n in range(2, 7):
        for shape in partitions_of(n):
            for i in range(1, n):
                for fmt in ("text", "latex", "json"):
                    want = oracles.dense_yor_output(shape, i, fmt)
                    got = run_cli(capsys, "yor", str(shape), "--gen", str(i), "--format", fmt)
                    assert got == (0, want, ""), (shape, i, fmt)
    for n in range(1, 10):
        for shape in filter(Partition.is_self_conjugate, partitions_of(n)):
            for fmt in ("text", "json"):
                want = oracles.dense_assoc_output(shape, fmt)
                assert run_cli(capsys, "assoc", str(shape), "--format", fmt) == (0, want, ""), shape


GOLDEN_DIGESTS = json.loads(Path(__file__).with_name("golden_digests.json").read_text())


@pytest.mark.parametrize("command", sorted(GOLDEN_DIGESTS))
def test_golden_output(capsys, command):
    # sha256 of stdout, each recorded before a refactor of the layers it covers
    code, out, _ = run_cli(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_DIGESTS[command]


def test_yor_text(capsys):
    code, out, _ = run_cli(capsys, "yor", "2,1", "--gen", "2")
    assert code == 0
    assert out == (
        "-1/2         1/2*sqrt(3)\n"
        "1/2*sqrt(3)  1/2\n"
    )


def test_yor_latex(capsys):
    code, out, _ = run_cli(capsys, "yor", "2,1", "--gen", "2", "--format", "latex")
    assert code == 0
    assert out == (
        "\\begin{pmatrix}\n"
        "-\\frac{1}{2} & \\frac{1}{2}\\sqrt{3} \\\\\n"
        "\\frac{1}{2}\\sqrt{3} & \\frac{1}{2}\n"
        "\\end{pmatrix}\n"
    )


def test_yor_json(capsys):
    code, out, _ = run_cli(capsys, "yor", "2,1", "--gen", "1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["shape"] == [2, 1]
    assert data["generator"] == 1
    assert data["basis"] == [[[1, 2], [3]], [[1, 3], [2]]]
    assert data["rows"][0][0] == Scalar.rational(1).to_json()
    assert data["rows"][1][1] == Scalar.rational(-1).to_json()


def test_yor_generator_out_of_range(capsys):
    code, _, err = run_cli(capsys, "yor", "2,1", "--gen", "3")
    assert code == 2
    assert err.startswith("error: generator 3 out of range 1..2")


def test_assoc_text(capsys):
    code, out, _ = run_cli(capsys, "assoc", "2,2")
    assert code == 0
    assert out == (
        "12/34  i   13/24\n"
        "13/24  -i  12/34\n"
    )


def test_assoc_json(capsys):
    code, out, _ = run_cli(capsys, "assoc", "2,1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data[0]["tableau"] == [[1, 2], [3]]
    assert data[0]["conjugate"] == [[1, 3], [2]]
    assert data[0]["coeff"] == I.to_json()


def test_assoc_rejects_non_self_conjugate(capsys):
    code, _, err = run_cli(capsys, "assoc", "3,1")
    assert code == 2
    assert err == "error: shape 3,1 is not self-conjugate\n"


def test_bratteli_dot(capsys):
    code, out, _ = run_cli(capsys, "bratteli", "--max-n", "3")
    assert code == 0
    assert out.splitlines()[:9] == [
        "graph alternating {",
        "  rankdir=BT;",
        "  node [shape=box];",
        '  "2:2" [label="2"];',
        "  { rank=same; \"2:2\"; }",
        '  "3:3" [label="3"];',
        '  "3:2,1^+" [label="2,1^+", color=red, fontcolor=red];',
        '  "3:2,1^-" [label="2,1^-", color=green, fontcolor=green];',
        '  { rank=same; "3:3"; "3:2,1^+"; "3:2,1^-"; }',
    ]
    assert out.endswith("}\n")


def test_bratteli_json(capsys):
    code, out, _ = run_cli(capsys, "bratteli", "--max-n", "4", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["chain"] == "alternating"
    assert data["levels"]["4"] == ["4", "3,1", "2,2^+", "2,2^-"]
    assert ["4:2,2^+", "3:2,1^+"] in data["edges"]


def test_bratteli_symmetric_chain(capsys):
    code, out, _ = run_cli(capsys, "bratteli", "--chain", "symmetric", "--max-n", "3")
    assert code == 0
    assert out.startswith("graph symmetric {")
    assert '"3:2,1" -- "2:2";' in out


def test_paths_ignores_surrounding_whitespace(capsys):
    spaced, plain = run_cli(capsys, "paths", "2,1^- "), run_cli(capsys, "paths", "2,1^-")
    assert spaced == plain and plain[0] == 0


def test_paths(capsys):
    code, out, _ = run_cli(capsys, "paths", "4,1,1")
    assert code == 0
    assert out == (
        "2;3;4;4,1;4,1,1\t2\n"
        "2;3;3,1;4,1;4,1,1\t2\n"
        "2;3;3,1;3,1,1^+;4,1,1\t4\n"
        "2;3;3,1;3,1,1^-;4,1,1\t4\n"
        "2;2,1^+;3,1;4,1;4,1,1\t4\n"
        "2;2,1^+;3,1;3,1,1^+;4,1,1\t8\n"
        "2;2,1^+;3,1;3,1,1^-;4,1,1\t8\n"
        "2;2,1^-;3,1;4,1;4,1,1\t4\n"
        "2;2,1^-;3,1;3,1,1^+;4,1,1\t8\n"
        "2;2,1^-;3,1;3,1,1^-;4,1,1\t8\n"
    )


def test_gt_text(capsys):
    code, out, _ = run_cli(capsys, "gt", "2,1^+")
    assert code == 0
    assert out == "u[2;2,1^+] = (1)*v[12/3] + (i)*v[13/2]\n"


def test_gt_normalized(capsys):
    code, out, _ = run_cli(capsys, "gt", "2,1^-", "--normalize")
    assert code == 0
    assert out == "u[2;2,1^-] = (1/2*sqrt(2))*v[12/3] + (-1/2*i*sqrt(2))*v[13/2]\n"


def test_gt_latex(capsys):
    code, out, _ = run_cli(capsys, "gt", "2,1^+", "--format", "latex")
    assert code == 0
    assert out == "u_{(2),(2,1)^+} = v_{12,3} + i v_{13,2}\n"
    code, out, _ = run_cli(capsys, "gt", "2,1^-", "--normalize", "--format", "latex")
    assert code == 0
    assert out == "u_{(2),(2,1)^-} = \\frac{1}{2}\\sqrt{2}v_{12,3} + -\\frac{1}{2}i\\sqrt{2}v_{13,2}\n"


def test_gt_json(capsys):
    code, out, _ = run_cli(capsys, "gt", "2,1^+", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data) == 1
    assert data[0]["path"] == [
        {"partition": [2], "sign": None},
        {"partition": [2, 1], "sign": "+"},
    ]
    coeffs = {tuple(map(tuple, t["tableau"])): t["coeff"] for t in data[0]["terms"]}
    assert coeffs[((1, 3), (2,))] == I.to_json()


def _label_text(label):
    # written from the partition and sign, not from AltLabel's own text
    sign = {None: "", 1: "^+", -1: "^-"}[label.sign]
    parts = ",".join(map(str, label.partition))
    return f"{parts}{sign}", f"({parts}){sign}"


@pytest.mark.parametrize("normalize", [False, True])
@pytest.mark.parametrize("n", range(2, 8))
def test_gt_output_matches_whole_payload_rendering(capsys, n, normalize):
    # the writer streams each vector; it must give exactly what one
    # json.dumps(payload, indent=2) and the per-vector f-strings give
    flag = ["--normalize"] if normalize else []
    for label in labels(n):
        basis = tuple(gt_basis(label, normalize=normalize))
        payload = [
            {"path": path.to_json(),
             "terms": [{"tableau": t.to_json(), "coeff": c.to_json()} for t, c in vector.items()]}
            for path, vector in basis
        ]
        texts = [[_label_text(lb) for lb in path] for path, _ in basis]
        expected = {
            "json": json.dumps(payload, indent=2) + "\n",
            "text": "".join(f"u[{';'.join(t for t, _ in text)}] = {vector}\n"
                            for text, (_, vector) in zip(texts, basis)),
            "latex": "".join(f"u_{{{','.join(x for _, x in text)}}} = {vector.latex()}\n"
                             for text, (_, vector) in zip(texts, basis)),
        }
        for fmt, want in expected.items():
            assert run_cli(capsys, "gt", str(label), "--format", fmt, *flag) == (0, want, ""), (label, fmt)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_gt_writes_once_the_first_vector_is_built(monkeypatch, fmt):
    # output streams: the first byte leaves after one vector, not the basis
    built, at_first_write = [], []

    class Recorder(io.StringIO):
        def write(self, text):
            if not at_first_write:
                at_first_write.append(len(built))
            return super().write(text)

    monkeypatch.setattr(gt, "gt_vectors", recording(built))
    with contextlib.redirect_stdout(Recorder()):
        assert main(["gt", "4,1,1", "--format", fmt]) == 0
    assert (at_first_write, len(built)) == ([1], 10)


def counting_renders(monkeypatch) -> Counter:
    """Count each call of a tableau's __str__, latex and rows, by (method, tableau)."""
    counts = Counter()

    def counted(method, render):
        def wrapper(t, *args):
            counts[method, t] += 1
            return render(t, *args)
        return wrapper

    monkeypatch.setattr(StandardTableau, "__str__", counted("str", StandardTableau.__str__))
    monkeypatch.setattr(StandardTableau, "latex", counted("latex", StandardTableau.latex))
    monkeypatch.setattr(StandardTableau, "rows", property(counted("rows", StandardTableau.rows.fget)))
    return counts


@pytest.mark.parametrize("fmt, method", [("text", "str"), ("latex", "latex"), ("json", "rows")])
def test_gt_renders_each_tableau_once(capsys, monkeypatch, fmt, method):
    # the tableau memo is shared by the vectors of a shape, so each tableau
    # in the basis is rendered once, in its format's style only
    label = AltLabel.parse("4,3,2")
    support = {t for _, v in gt_basis(label) for t in v.support()}
    yor._tableau_memo.cache_clear()
    counts = counting_renders(monkeypatch)
    assert run_cli(capsys, "gt", str(label), "--format", fmt)[0] == 0
    assert counts == Counter({(method, t): 1 for t in support})


def test_gt_rejects_missing_sign(capsys):
    code, _, err = run_cli(capsys, "gt", "2,1")
    assert code == 2
    assert err == "error: self-conjugate partition 2,1 needs a sign\n"


def test_gt_rejects_unicode_sign(capsys):
    code, _, err = run_cli(capsys, "gt", "2,1^\u207a")
    assert code == 2
    assert err.startswith("error:")


def test_verify_text(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-n", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "PASS yor   shape 2"
    assert lines[5] == "PASS assoc shape 2,1"
    assert lines[-1] == "14 checks, 0 failures"


def test_verify_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "yor", "--max-n", "2",
                           "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert [c["subject"] for c in data["checks"]] == ["shape 2", "shape 1,1"]


def test_verify_skips_assoc_below_three(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-n", "2")
    assert code == 0
    assert "assoc" not in out


def test_verify_assoc_needs_three(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "assoc", "--max-n", "2")
    assert code == 2
    assert "max_n must be at least 3" in err


def test_verify_failure_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(yor, "act_simple", column_flip)
    code, out, _ = run_cli(capsys, "verify", "--suite", "yor", "--max-n", "4")
    assert code == 1
    assert "FAIL yor   shape 2,1" in out


def _python_env():
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))


def _read_first_line_then_close(*argv):
    """Run the CLI, close its stdout after one line; (first line, exit, stderr)."""
    with subprocess.Popen(
        [sys.executable, "-m", "altgt.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_python_env(),
    ) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        return first, proc.wait(timeout=60), err


def test_closed_stdout_exits_cleanly():
    # the output (about 110 kB) overflows the pipe buffer, so writing
    # continues after the reader has closed its end
    first, code, err = _read_first_line_then_close("gt", "4,3,2,1^+")
    assert first.startswith(b"u[2;")
    assert (code, err) == (0, b"")


def test_closed_stdout_exits_cleanly_from_json():
    # JSON is written a vector at a time, so later writes meet the closed pipe
    first, code, err = _read_first_line_then_close("gt", "4,3,2,1^+", "--format", "json")
    assert first == b"[\n"
    assert (code, err) == (0, b"")


def test_argparse_errors(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify"])  # missing required --max-n
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main([])  # missing subcommand
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["nonsense"])
    assert info.value.code == 2
    capsys.readouterr()


def test_parser_is_built_once_and_reused(capsys):
    # importing the module builds no parser; a fresh process gives the
    # reference output of the last command below
    fresh = subprocess.run(
        [sys.executable, "-c", "import altgt.cli as cli\n"
         "assert cli.build_parser.cache_info().currsize == 0\n"
         "raise SystemExit(cli.main(['gt', '4,1,1']))"],
        capture_output=True, text=True, env=_python_env(), timeout=60,
    )
    assert (fresh.returncode, fresh.stderr) == (0, "")
    cli.build_parser.cache_clear()
    with pytest.raises(SystemExit) as info:
        main(["gt", "4,1,1", "--format", "yaml"])
    assert info.value.code == 2
    assert run_cli(capsys, "gt", "2,1")[0] == 2  # a ValueError: no sign
    assert run_cli(capsys, "gt", "4,1,1", "--normalize", "--format", "json")[0] == 0
    # no option of an earlier call leaks into this one
    assert run_cli(capsys, "gt", "4,1,1") == (0, fresh.stdout, "")
    stats = cli.build_parser.cache_info()
    assert (stats.misses, stats.hits) == (1, 3)


def test_deterministic_output(capsys):
    first = run_cli(capsys, "gt", "4,1,1")
    second = run_cli(capsys, "gt", "4,1,1")
    assert first == second
    first = run_cli(capsys, "bratteli", "--max-n", "6")
    second = run_cli(capsys, "bratteli", "--max-n", "6")
    assert first == second


# Parse-boundary fuzzing: small shapes (n <= 7), half of them written
# cleanly, the rest with non-ASCII digits, mangled separators, empty tokens,
# shuffled or zero parts and stray signs.  No separator is empty, so digits of
# neighbouring parts never merge into a large part.
_DIGIT_FORMS = st.sampled_from([
    str, str, str, str,
    lambda d: "0" + str(d),
    lambda d: chr(0xFF10 + d),  # fullwidth
    lambda d: chr(0x0660 + d),  # Arabic-Indic
    lambda d: "\u2070\u00b9\u00b2\u00b3\u2074\u2075\u2076\u2077"[d],  # superscript
])
_SEPARATORS = st.sampled_from([",", ",", ",", ",", ", ", " ,", ",,", ";", ".", "\uff0c", " ", "^"])
_ENDS = st.sampled_from(["", "", "", "", ",", " ", "^", ";"])
_SIGNS = st.sampled_from(["", "^+", "^-", "^", "^+-", "^ +", "^\u2212", "^\uff0b", "+", "^^-", "^+ "])
_SMALL_SHAPES = st.sampled_from([p for n in range(1, 8) for p in partitions_of(n)])


@st.composite
def _shape_text(draw, label=False):
    shape = draw(_SMALL_SHAPES)
    if draw(st.booleans()):
        sign = draw(st.sampled_from(["^+", "^-"])) if shape.is_self_conjugate() else ""
        return str(shape) + (sign if label else "")
    parts = list(shape)
    if draw(st.booleans()):
        parts = draw(st.permutations(parts + draw(st.lists(st.just(0), max_size=1))))
    digits = [draw(_DIGIT_FORMS)(d) for d in parts]
    seps = [draw(_SEPARATORS) for _ in digits[1:]]
    body = digits[0] + "".join(sep + d for sep, d in zip(seps, digits[1:]))
    return draw(_ENDS) + body + draw(_ENDS) + (draw(_SIGNS) if label else "")


_GEN = st.one_of(
    st.integers(min_value=-2, max_value=9).map(str),
    st.sampled_from(["", "x", "\u0663", "\uff13", "\u00b3", "1.0", " 2"]),
)
_ARGV = st.one_of(
    st.tuples(st.just("syt"), _shape_text()),
    st.tuples(st.just("gt"), _shape_text(label=True), st.just("--format"),
              st.sampled_from(["text", "json", "latex"])),
    st.tuples(st.just("paths"), _shape_text(label=True)),
    st.tuples(st.just("assoc"), _shape_text()),
    st.tuples(st.just("yor"), _shape_text(), st.just("--gen"), _GEN),
)


@settings(max_examples=300, deadline=None)
@given(_ARGV)
def test_fuzzed_arguments_exit_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().rstrip("\n").splitlines()[-1].startswith(("error:", "altgt"))
