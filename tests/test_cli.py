import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from altgt import cli, gt, yor
from altgt.cli import main
from altgt.gt import gt_basis
from altgt.labels import labels
from altgt.partitions import partitions_of
from altgt.scalars import I, Scalar
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
    # 399 branching steps: each level of the walk costs one frame at most
    code, out, _ = run_cli(capsys, "paths", "400")
    assert code == 0
    assert out == ";".join(map(str, range(2, 401))) + "\t2\n"
    code, out, _ = run_cli(capsys, "gt", "400")
    assert code == 0
    assert out.startswith("u[2;3;4;") and out.count("\n") == 1


def test_labels_deeper_than_the_recursion_limit(capsys):
    # the caches fill from the bottom up, so depth costs no stack frames
    code, out, err = run_cli(capsys, "syt", "1200")
    assert (code, err) == (0, "")
    assert out == " ".join(map(str, range(1, 1201))) + "\n"
    code, out, err = run_cli(capsys, "paths", "1200")
    assert (code, err) == (0, "")
    assert out == ";".join(map(str, range(2, 1201))) + "\t2\n"


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
    parts = ",".join(map(str, label.partition.parts))
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
    parts = list(shape.parts)
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
