import copy
import json
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from altgt.associator import assoc_coeff, reference_tableau
from altgt.geodesics import AltPath
from altgt.gt import gt_vector
from altgt.labels import AltLabel
from altgt.partitions import Partition, partitions_of
from altgt.scalars import I, ONE, sqrt_rational
from altgt.tableaux import StandardTableau, enumerate_syt, row_superstandard, syt_count
from oracles import brute_force_syt, tableau_facts_from_rows

small_shape = st.integers(min_value=1, max_value=7).flatmap(
    lambda n: st.sampled_from(partitions_of(n))
)


def test_constructor_validates():
    with pytest.raises(ValueError):
        StandardTableau([[1, 3], [2, 2]])  # duplicate
    with pytest.raises(ValueError):
        StandardTableau([[2, 1], [3]])  # row not increasing
    with pytest.raises(ValueError):
        StandardTableau([[1, 2], [4]])  # entries not 1..n
    StandardTableau([[1, 4], [2], [3]])  # standard, must construct
    # entries are integers: a float is not truncated and a string is not parsed
    for rows, bad in (([[1.9, 2.2], [3]], "1.9"), ([[1, 2.0], [3]], "2.0"), (["12", "3"], "'1'")):
        with pytest.raises(TypeError, match=f"^expected an integer, got {bad}$"):
            StandardTableau(rows)


def test_column_violation_rejected():
    with pytest.raises(ValueError):
        StandardTableau([[1, 2], [4, 3]])
    with pytest.raises(ValueError):
        StandardTableau([[2, 3], [1]])


def test_parse_and_render():
    t = StandardTableau.parse("124/3/5")
    assert t.rows == ((1, 2, 4), (3,), (5,))
    assert str(t) == "124/3/5"
    big = StandardTableau.parse("1 2 3 4 5 6 7 8 9/10")
    assert big.n == 10
    assert str(big) == "1 2 3 4 5 6 7 8 9/10"
    assert StandardTableau.parse(str(big)) == big
    # surrounding whitespace is dropped before the spaced form is decided
    assert StandardTableau.parse(" 12/3\n") == StandardTableau.parse("12/3")
    assert StandardTableau.parse("1 2 3 4 5 6 7 8 9/10\n") == big
    for bad in ("12/x", "12//3", ""):
        with pytest.raises(ValueError):
            StandardTableau.parse(bad)
    # digits outside ASCII are named, not read as 12/3 or passed on to int()
    for bad, token in (("１２/３", "１"), ("1²/3", "²")):
        with pytest.raises(ValueError, match=f"invalid tableau entry {token!r}"):
            StandardTableau.parse(bad)


def test_shape_and_positions():
    t = StandardTableau.parse("124/3/5")
    assert t.shape == Partition((3, 1, 1))
    assert t.position(4) == (0, 2)
    assert t.position(5) == (2, 0)
    with pytest.raises(ValueError):
        t.position(6)


def test_conjugate_examples():
    assert StandardTableau.parse("124/3/5").conjugate() == StandardTableau.parse("135/2/4")
    assert StandardTableau.parse("12/3").conjugate() == StandardTableau.parse("13/2")
    assert StandardTableau.parse("123/4/5").conjugate() == StandardTableau.parse("145/2/3")


def test_enumerate_small_shapes():
    assert [str(t) for t in enumerate_syt(Partition((3,)))] == ["123"]
    assert [str(t) for t in enumerate_syt(Partition((2, 1)))] == ["12/3", "13/2"]
    assert len(enumerate_syt(Partition((4, 1, 1)))) == 10


def test_enumerate_matches_brute_force():
    for n in range(1, 7):
        for shape in partitions_of(n):
            assert set(enumerate_syt(shape)) == brute_force_syt(shape)


def test_a_tableau_is_the_bytes_of_its_word():
    for n in range(1, 9):
        for shape in partitions_of(n):
            for t in enumerate_syt(shape):
                assert isinstance(t, bytes) and not hasattr(t, "__dict__")
                assert t == bytes(t) and hash(t) == hash(bytes(t))
                assert len(t) == t.n == n
                assert t.shape is StandardTableau(t.rows).shape is shape


def test_copy_and_pickle_rebuild_a_checked_tableau():
    t = StandardTableau.parse("124/3/5")
    for clone in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
        assert type(clone) is StandardTableau and clone == t and clone.shape is t.shape
    # a partition or a label comes back as the stored object, under every pickle protocol
    for value in (t.shape, AltLabel.parse("3,1"), AltLabel.parse("2,1^-")):
        pickled = [pickle.dumps(value, proto) for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
        for clone in [copy.copy(value), copy.deepcopy(value), *map(pickle.loads, pickled)]:
            assert clone is value
    # a path, a vector and a radical scalar come back equal, under every pickle protocol
    path = AltPath.parse("2;2,1^-;3,1")
    for value in (path, gt_vector(path), sqrt_rational(Fraction(3, 2)) * (ONE + I)):
        pickled = [pickle.dumps(value, proto) for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
        for clone in [copy.copy(value), copy.deepcopy(value), *map(pickle.loads, pickled)]:
            assert type(clone) is type(value) and clone == value


def test_enumeration_is_sorted_by_row_word():
    for shape in partitions_of(5):
        words = [t.row_word() for t in enumerate_syt(shape)]
        assert words == sorted(words)


def test_a_tuple_of_parts_enumerates_in_a_fresh_process():
    # a tuple equals and hashes like its partition, so a warm cache answers
    # it; a cold one must build the same tableaux
    code = ("from altgt.tableaux import enumerate_syt, syt_ranks\n"
            "print(*enumerate_syt((2, 1)), *syt_ranks((2, 1)).values())")
    src = str(Path(__file__).resolve().parents[1] / "src")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert (run.returncode, run.stderr, run.stdout) == (0, "", "12/3 13/2 0 1\n")
    assert enumerate_syt((2, 1)) is enumerate_syt(Partition((2, 1)))


def test_json_text_is_the_reindented_json_dump():
    for n in range(1, 9):
        for shape in partitions_of(n):
            for t in enumerate_syt(shape):
                for indent in (0, 8):
                    pad = "\n" + " " * indent
                    assert t.json_text(indent) == json.dumps(t.to_json(), indent=2).replace("\n", pad)


def test_syt_count_against_enumeration():
    for n in range(1, 11):
        for shape in partitions_of(n):
            assert syt_count(shape) == len(enumerate_syt(shape))


def test_syt_count_walks_nothing():
    # a shape no other test builds: counting it removes no corner anywhere
    misses = Partition._corners.cache_info().misses
    assert syt_count(Partition((31, 17, 4))) == 368152484687635375
    assert Partition._corners.cache_info().misses == misses
    # closed forms on shapes at the box limit, far beyond any walk
    assert syt_count(Partition((100, 100))) == comb(200, 100) // 101  # Catalan(100)
    assert syt_count(Partition((200,))) == 1
    assert syt_count(Partition((199, 1))) == 199


def test_row_superstandard():
    assert row_superstandard(Partition((3, 1, 1))) == StandardTableau.parse("123/4/5")
    assert row_superstandard(Partition((2, 2))) == StandardTableau.parse("12/34")


def test_reference_tableaux():
    assert reference_tableau(Partition((2, 1))) == StandardTableau.parse("12/3")
    assert reference_tableau(Partition((2, 2))) == StandardTableau.parse("12/34")
    assert reference_tableau(Partition((3, 1, 1))) == StandardTableau.parse("123/4/5")
    assert reference_tableau(Partition((3, 2, 1))) == StandardTableau.parse("123/46/5")
    assert reference_tableau(Partition((4, 2, 1, 1))) == StandardTableau.parse("1234/58/6/7")
    with pytest.raises(ValueError):
        reference_tableau(Partition((3, 1)))


def test_permutation_sign_examples():
    # The root of T is the anchor's root times the sign of the cellwise map
    # from the anchor to T.
    for text, sign in (("123/4/5", 1), ("124/3/5", -1), ("134/2/5", 1)):
        t = StandardTableau.parse(text)
        anchor_root = assoc_coeff(reference_tableau(t.shape))
        assert assoc_coeff(t) == (anchor_root if sign == 1 else -anchor_root)


def test_axial_distance():
    assert StandardTableau.parse("12/3").axial_distance(2) == -2
    assert StandardTableau.parse("13/2").axial_distance(2) == 2
    assert StandardTableau.parse("12/3").axial_distance(1) == 1
    assert StandardTableau.parse("1/2").axial_distance(1) == -1
    with pytest.raises(ValueError):
        StandardTableau.parse("12/3").axial_distance(3)


def test_swap_adjacent():
    t = StandardTableau.parse("12/3")
    assert t.swap_adjacent(2) == StandardTableau.parse("13/2")
    assert t.swap_adjacent(2).swap_adjacent(2) == t


def test_swap_flips_axial_distance():
    for shape in partitions_of(5):
        for t in enumerate_syt(shape):
            for i in range(1, 5):
                (r1, c1), (r2, c2) = t.position(i), t.position(i + 1)
                if r1 == r2 or c1 == c2:
                    continue
                assert t.swap_adjacent(i).axial_distance(i) == -t.axial_distance(i)


def test_prefix_shape():
    t = StandardTableau.parse("13/24/5/6")
    _, _, prefix_shapes = tableau_facts_from_rows(t.rows)
    assert prefix_shapes[3] == Partition((2, 2))
    assert prefix_shapes[0] == Partition((1,))
    assert prefix_shapes[5] == t.shape
    # one shape for each prefix size 1..n, none for size 0
    assert len(prefix_shapes) == t.n


def assert_same_as_validated(t, rows=None):
    """t is the validated tableau with these rows (by default its own), and
    what it reads off its stored word matches what the rows give."""
    rows = t.rows if rows is None else tuple(tuple(row) for row in rows)
    checked = StandardTableau(rows)
    assert t == checked
    assert t.shape == Partition(len(row) for row in rows) == checked.shape
    row_word, positions, prefix_shapes = tableau_facts_from_rows(rows)
    assert t.rows == rows
    assert t.row_word() == row_word
    assert [t.position(e) for e in range(1, t.n + 1)] == positions
    # the first k items of the word count the rows of the entries 1..k
    assert [
        Partition(t[:k].count(r) for r in range(max(t[:k]) + 1))
        for k in range(1, t.n + 1)
    ] == prefix_shapes


def test_derived_tableaux_match_validated_ones():
    # enumerate_syt builds every tableau by appending box n to one of a shape below
    for n in range(1, 8):
        for shape in partitions_of(n):
            for t in enumerate_syt(shape):
                rows = t.rows
                prefix_shapes = tableau_facts_from_rows(rows)[2]
                assert_same_as_validated(t)
                transposed = [
                    [row[c] for row in rows if c < len(row)] for c in range(len(rows[0]))
                ]
                assert_same_as_validated(t.conjugate(), transposed)
                for i in range(1, n):
                    (r1, c1), (r2, c2) = t.position(i), t.position(i + 1)
                    if r1 != r2 and c1 != c2:
                        swap = {i: i + 1, i + 1: i}
                        swapped = [[swap.get(e, e) for e in row] for row in rows]
                        assert_same_as_validated(t.swap_adjacent(i), swapped)
                if n > 1:
                    shrunk = [[e for e in row if e != n] for row in rows]
                    smaller = StandardTableau([row for row in shrunk if row])
                    assert smaller.shape == prefix_shapes[n - 2]
                    assert t[:-1] == smaller


def test_conjugating_the_enumeration_is_a_bijection():
    for shape in partitions_of(6):
        conj = {t.conjugate() for t in enumerate_syt(shape)}
        assert conj == set(enumerate_syt(shape.conjugate()))


@given(small_shape, st.data())
def test_prefix_chain_is_a_path(shape, data):
    tableaux = enumerate_syt(shape)
    t = data.draw(st.sampled_from(tableaux))
    _, _, prefix_shapes = tableau_facts_from_rows(t.rows)
    for k in range(1, t.n):
        assert prefix_shapes[k - 1] in prefix_shapes[k].down_set()
