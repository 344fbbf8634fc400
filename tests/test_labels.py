import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from altgt import labels as labels_module
from altgt.labels import (
    AltLabel,
    bratteli,
    canonical_label,
    conjugate_label,
    dagger_down_set,
    dim_alt,
    labels,
    level_dimension_total,
    young_graph,
)
from altgt.partitions import Partition, revlex_key
from altgt.tableaux import syt_count
from oracles import brute_force_syt, equivalent, scanned_bratteli_edges


def lab(text):
    return AltLabel.parse(text)


def test_sign_rules():
    with pytest.raises(ValueError):
        AltLabel(Partition((2, 1)))  # self-conjugate needs a sign
    with pytest.raises(ValueError):
        AltLabel(Partition((3, 1)), 1)  # sign only on self-conjugate
    with pytest.raises(ValueError):
        AltLabel(Partition((2, 1)), 2)


def test_rejected_labels_are_not_interned(monkeypatch):
    # the valid labels of both partitions are stored
    lab("2,1^+")
    lab("3,1")
    rejected = [
        ((2, 1), None, "self-conjugate partition 2,1 needs a sign"),
        ((3, 1), 1, "partition 3,1 is not self-conjugate; no sign allowed"),
        ((2, 1), 2, "sign must be None, 1 or -1, got 2"),
        ((2, 1), True, "sign must be None, 1 or -1, got True"),
        ((2, 1), 1.0, "sign must be None, 1 or -1, got 1.0"),
    ]
    for parts, sign, message in rejected:
        before = dict(labels_module._INTERNED)
        for _ in range(2):  # a second try is validated again
            with pytest.raises(ValueError) as info:
                AltLabel(Partition(parts), sign)
            assert str(info.value) == message
        assert labels_module._INTERNED == before
        if isinstance(sign, (bool, float)):
            # the key equals that of 2,1^+, so look at the stored label instead
            stored = labels_module._INTERNED[Partition(parts), sign]
            assert stored.sign == 1 and type(stored.sign) is int
        else:
            assert (Partition(parts), sign) not in labels_module._INTERNED
    # a bool or a float is refused on first sight too, before any int label
    monkeypatch.setattr(labels_module, "_INTERNED", {})
    for sign in (True, 1.0):
        with pytest.raises(ValueError, match=f"got {sign}$"):
            AltLabel(Partition((2, 2)), sign)
    assert labels_module._INTERNED == {}


def test_hash_is_the_hash_of_the_content():
    for n in range(2, 8):
        for label in labels(n):
            # the sign code of an unsigned label is 0, as hash(None) is not content
            assert hash(label) == hash((label.partition, label.sign or 0))


def test_parse_and_render():
    assert str(lab("2,1^+")) == "2,1^+"
    assert str(lab("4,1,1")) == "4,1,1"
    assert lab("2,1^-").sign == -1
    assert lab(" 2,1^- ") is lab("2,1^-")  # surrounding whitespace is dropped
    assert lab("2,1^+ \n") is lab("2,1^+")
    for bad in ("2,1", "3,1^+", "2,1^x", "2,1^", "2,1⁺"):
        with pytest.raises(ValueError):
            lab(bad)


def test_stored_sort_key_matches_formula():
    for n in range(2, 10):
        for label in labels(n):
            sign_rank = 0 if label.sign in (None, 1) else 1
            assert label.sort_key() == (revlex_key(label.partition), sign_rank)


def test_json_form():
    assert lab("2,1^+").to_json() == {"partition": [2, 1], "sign": "+"}
    assert lab("3,1").to_json() == {"partition": [3, 1], "sign": None}


def test_labels_listing():
    assert [str(x) for x in labels(2)] == ["2", "1,1"]
    assert [str(x) for x in labels(3)] == ["3", "2,1^+", "2,1^-", "1,1,1"]
    assert [str(x) for x in labels(4)] == [
        "4", "3,1", "2,2^+", "2,2^-", "2,1,1", "1,1,1,1",
    ]
    with pytest.raises(ValueError):
        labels(1)


def test_equivalence():
    assert equivalent(lab("3"), lab("1,1,1"))
    assert equivalent(lab("3,1"), lab("3,1"))
    assert not equivalent(lab("2,1^+"), lab("2,1^-"))
    assert equivalent(lab("2,1^-"), lab("2,1^-"))
    assert not equivalent(lab("4"), lab("3,1"))
    with pytest.raises(ValueError):
        equivalent(lab("2"), lab("3"))


def test_dagger_down_sets():
    assert [str(x) for x in dagger_down_set(lab("3,1"))] == ["3", "2,1^+", "2,1^-"]
    assert [str(x) for x in dagger_down_set(lab("3,2,1^+"))] == ["3,2", "3,1,1^+", "2,2,1"]
    assert [str(x) for x in dagger_down_set(lab("2,1^-"))] == ["2", "1,1"]
    assert [str(x) for x in dagger_down_set(lab("2,2^-"))] == ["2,1^-"]
    with pytest.raises(ValueError):
        dagger_down_set(lab("2"))


def test_dagger_signed_keeps_sign():
    for n in range(3, 9):
        for above in labels(n):
            if not above.is_signed():
                continue
            for below in dagger_down_set(above):
                if below.is_signed():
                    assert below.sign == above.sign


def test_dim_alt_values():
    assert dim_alt(lab("2,1^+")) == 1
    assert dim_alt(lab("2,1^-")) == 1
    assert dim_alt(lab("4,1,1")) == 10
    assert dim_alt(lab("3,1")) == 3
    assert dim_alt(lab("2,2^+")) == 1


def test_dim_alt_against_brute_force():
    for n in range(2, 8):
        for label in labels(n):
            expected = len(brute_force_syt(label.partition))
            if label.is_signed():
                expected //= 2
            assert dim_alt(label) == expected


def test_level_dimension_totals():
    for n in range(2, 9):
        total, expected = level_dimension_total(n)
        assert total == expected == math.factorial(n) // 2


def test_canonical_label():
    cases = {"1,1,1": "3", "3,1": "3,1", "2,1,1": "3,1", "2,1^+": "2,1^+", "2,1^-": "2,1^-"}
    for text, expected in cases.items():
        assert canonical_label(lab(text)) == lab(expected)


def test_conjugate_label():
    for n in range(2, 9):
        for label in labels(n):
            conj = conjugate_label(label)
            assert conj.partition == label.partition.conjugate()
            assert conjugate_label(conj) == label
            if label.is_signed():
                assert conj == label


def test_bratteli_nodes_and_edges():
    graph = bratteli(4)
    levels = dict((n, list(names)) for n, names in graph.levels)
    assert levels[2] == ["2"]
    assert levels[3] == ["3", "2,1^+", "2,1^-"]
    assert levels[4] == ["4", "3,1", "2,2^+", "2,2^-"]
    edges = set(map(tuple, (tuple(a) for a in graph.edges)))
    assert ((3, "2,1^+"), (2, "2")) in edges
    assert ((3, "3"), (2, "2")) in edges
    assert ((4, "2,2^+"), (3, "2,1^+")) in edges
    assert ((4, "2,2^+"), (3, "2,1^-")) not in edges
    assert ((4, "3,1"), (3, "2,1^+")) in edges
    assert ((4, "3,1"), (3, "2,1^-")) in edges


def test_bratteli_conjugate_edge_normalization():
    # the level-8 class of (4,2,2) must connect to the class of (3,3,1)
    # through the conjugate raw label (3,3,1,1)
    graph = bratteli(8)
    edges = {(a, b) for a, b in graph.edges}
    assert ((8, "4,2,2"), (7, "3,3,1")) in edges


def test_bratteli_edges_match_a_scan_of_every_label():
    # bratteli visits one label per class, which relies on branching
    # commuting with conjugation; the oracle scans every label instead
    for max_n in range(2, 11):
        assert bratteli(max_n).edges == scanned_bratteli_edges(max_n)


def test_bratteli_dot_output():
    dot = bratteli(4).to_dot()
    assert dot.startswith("graph alternating {")
    assert '"3:2,1^+" [label="2,1^+", color=red, fontcolor=red];' in dot
    assert '"3:2,1^-" [label="2,1^-", color=green, fontcolor=green];' in dot
    assert '"3:3" -- "2:2";' in dot
    assert "rank=same" in dot


def test_bratteli_json_output():
    data = bratteli(3).to_json_dict()
    text = json.dumps(data)  # must be JSON-serializable
    assert json.loads(text) == data
    assert data["levels"]["3"] == ["3", "2,1^+", "2,1^-"]
    assert ["3:3", "2:2"] in data["edges"]


def test_young_graph():
    graph = young_graph(4)
    levels = dict((n, list(names)) for n, names in graph.levels)
    assert levels[1] == ["1"]
    assert levels[3] == ["3", "2,1", "1,1,1"]
    edges = {(a, b) for a, b in graph.edges}
    assert ((4, "2,2"), (3, "2,1")) in edges
    assert ((2, "2"), (1, "1")) in edges
    dot = graph.to_dot()
    assert "color" not in dot.replace("fontcolor", "")


def test_syt_count_parity_for_self_conjugate():
    for n in range(3, 10):
        for label in labels(n):
            if label.is_signed():
                assert syt_count(label.partition) % 2 == 0


def test_equal_labels_hash_alike_on_every_route():
    # the hash is stored at construction, so each route must store the same one
    for n in range(2, 9):
        routes = {str(label): [label, AltLabel.parse(str(label))] for label in labels(n)}
        for above in labels(n + 1):
            for below in dagger_down_set(above):
                routes[str(below)].append(below)
        for label in labels(n):
            for other in (conjugate_label(label), canonical_label(label)):
                routes[str(other)].append(other)
        for found in routes.values():
            first = found[0]
            direct = AltLabel(Partition(tuple(first.partition)), first.sign)
            assert len(found) > 3
            for label in found:
                # one object per label, whatever built it
                assert label is direct and hash(label) == hash(direct)
        assert len({label for found in routes.values() for label in found}) == len(labels(n))


GOLDEN_DIGESTS = json.loads(Path(__file__).with_name("golden_digests.json").read_text())

DIGESTS_AFTER_WARM_UP = """
import contextlib, hashlib, io, json, sys
from altgt.cli import main
digests = {}
for command in json.loads(sys.stdin.read()):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(command.split()) == 0
    digests[command] = hashlib.sha256(out.getvalue().encode()).hexdigest()
print(json.dumps(digests))
"""


def assert_digests_after(warm_up: str):
    """Every pinned paths and gt output keeps its digest in a fresh process
    that first runs the warm-up code."""
    commands = sorted(c for c in GOLDEN_DIGESTS if c.split()[0] in ("paths", "gt"))
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", warm_up + DIGESTS_AFTER_WARM_UP], input=json.dumps(commands),
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout) == {c: GOLDEN_DIGESTS[c] for c in commands}


def test_label_hash_is_the_same_in_every_run():
    # an unsigned label hashes a sign code, not None, whose hash is its address before 3.12
    code = "from altgt.labels import AltLabel\nprint([hash(AltLabel.parse(t)) for t in ('3,1', '2,1^+')])"
    src = str(Path(__file__).resolve().parents[1] / "src")
    runs = [subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           env=dict(os.environ, PYTHONPATH=src), timeout=60) for _ in range(2)]
    assert [(run.returncode, run.stderr) for run in runs] == [(0, "")] * 2
    assert runs[0].stdout == runs[1].stdout


def test_output_does_not_depend_on_which_label_is_built_first():
    # the labels of higher levels are interned first
    assert_digests_after(
        "from altgt.labels import labels\n"
        "for n in range(9, 1, -1):\n"
        "    labels(n)\n"
    )


def test_output_does_not_depend_on_which_partition_is_built_first():
    # before any label, the partitions of higher levels and their conjugates
    # are interned first
    assert_digests_after(
        "from altgt.partitions import partitions_of\n"
        "for n in range(10, 0, -1):\n"
        "    for p in partitions_of(n):\n"
        "        p.conjugate()\n"
    )
