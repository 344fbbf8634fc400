import pytest
from hypothesis import given, strategies as st

from altgt import partitions as partitions_module
from altgt.geodesics import AltPath
from altgt.labels import AltLabel, canonical_label
from altgt.partitions import (
    Partition,
    partitions_of,
    revlex_key,
    self_conjugate_partitions,
)
from altgt.tableaux import StandardTableau, row_superstandard
from oracles import brute_force_cover_rows, brute_force_down_set, transpose_cells

any_partition = st.integers(min_value=1, max_value=10).flatmap(
    lambda n: st.sampled_from(partitions_of(n))
)


def test_constructor_validates():
    with pytest.raises(ValueError):
        Partition(())
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))
    # parts are integers: a float is not truncated and a string is not parsed
    for parts, bad in (((2.7, 1), "2.7"), ((2.0, 1), "2.0"), (("2", "1"), "'2'")):
        with pytest.raises(TypeError, match=f"^expected an integer, got {bad}$"):
            Partition(parts)


def test_parse_and_str():
    assert Partition.parse("4,1,1") == Partition((4, 1, 1))
    assert str(Partition((4, 1, 1))) == "4,1,1"
    assert Partition.parse(" 3 , 2 ") == Partition((3, 2))
    for bad in ("4,x", "", "3,,1", "-2", "3,0"):
        with pytest.raises(ValueError):
            Partition.parse(bad)


def test_conjugate_values():
    assert Partition((2, 2, 1, 1)).conjugate() == Partition((4, 2))
    assert Partition((4,)).conjugate() == Partition((1, 1, 1, 1))
    assert Partition((3, 2, 1)).conjugate() == Partition((3, 2, 1))


def test_self_conjugate_detection():
    assert Partition((2, 1)).is_self_conjugate()
    assert Partition((4, 2, 1, 1)).is_self_conjugate()
    assert not Partition((3, 1)).is_self_conjugate()
    assert Partition((1,)).is_self_conjugate()


def test_diagonal_length():
    assert Partition((3, 1, 1)).diagonal_length() == 1
    assert Partition((2, 2)).diagonal_length() == 2
    assert Partition((3, 3, 3)).diagonal_length() == 3
    assert Partition((4, 2, 1, 1)).diagonal_length() == 2


def test_down_set():
    assert set(Partition((2, 1)).down_set()) == {Partition((2,)), Partition((1, 1))}
    assert set(Partition((4, 2, 2)).down_set()) == {
        Partition((3, 2, 2)),
        Partition((4, 2, 1)),
    }
    assert Partition((2,)).down_set() == (Partition((1,)),)
    with pytest.raises(ValueError):
        Partition((1,)).down_set()


def test_covers():
    assert Partition((2, 1)) in Partition((2, 2)).down_set()
    assert Partition((2,)) not in Partition((2, 2)).down_set()


def test_cached_down_set_matches_corner_removal():
    for n in range(1, 11):
        below = partitions_of(n - 1) if n > 1 else ()
        for shape in partitions_of(n):
            expected = brute_force_down_set(shape)
            if n == 1:
                with pytest.raises(ValueError):
                    shape.down_set()
            else:
                assert set(shape.down_set()) == expected
                assert len(shape.down_set()) == len(expected)
                rows = brute_force_cover_rows(shape)
                assert {small: shape.cover_row(small) for small in shape.down_set()} == rows
            downs = shape.down_set() if n > 1 else ()
            for small in below:
                assert (small in downs) == (small in expected)
            assert shape not in downs
            assert shape.n == sum(shape.parts)


def test_cover_partner_roles():
    # each self-conjugate cover pair, read from its larger member
    assert Partition((2, 2)).self_conjugate_below() == Partition((2, 1))
    assert Partition((3, 2, 1)).self_conjugate_below() == Partition((3, 1, 1))
    assert Partition((2, 1)).self_conjugate_below() is None
    assert Partition((3, 1, 1)).self_conjugate_below() is None
    assert Partition((1,)).self_conjugate_below() is None
    with pytest.raises(ValueError):
        Partition((3, 1)).self_conjugate_below()


def test_cover_partner_consistency():
    # every self-conjugate partition past the single cell lies in exactly one
    # pair, the larger one diagonal box above the smaller
    for n in range(1, 13):
        for shape in self_conjugate_partitions(n):
            small = shape.self_conjugate_below()
            above = [
                large for large in self_conjugate_partitions(n + 1)
                if large.self_conjugate_below() == shape
            ]
            if shape == Partition((1,)):
                assert (small, above) == (None, [])
                continue
            assert (small is None) == (len(above) == 1)
            assert len(above) <= 1
            if small is not None:
                assert small.is_self_conjugate()
                assert small.self_conjugate_below() is None
                assert small.n == shape.n - 1
                assert small.diagonal_length() == shape.diagonal_length() - 1
                assert small in shape.down_set()


def test_canonical_pair_rep():
    def rep(parts, sign=None):
        return canonical_label(AltLabel(Partition(parts), sign)).partition

    assert rep((1, 1, 1)) == Partition((3,))
    assert rep((3, 1)) == Partition((3, 1))
    assert rep((2, 1, 1)) == Partition((3, 1))
    assert rep((2, 1), 1) == rep((2, 1), -1) == Partition((2, 1))


def test_partitions_of_order():
    assert [str(p) for p in partitions_of(4)] == ["4", "3,1", "2,2", "2,1,1", "1,1,1,1"]
    assert len(partitions_of(8)) == 22
    with pytest.raises(ValueError):
        partitions_of(0)


def test_revlex_key_orders_larger_first():
    ordered = sorted(partitions_of(6), key=revlex_key)
    assert ordered[0] == Partition((6,))
    assert ordered[-1] == Partition((1,) * 6)


@given(any_partition)
def test_conjugate_involution(p):
    assert p.conjugate().conjugate() == p
    assert p.conjugate() == transpose_cells(p)
    assert p.conjugate().n == p.n


def test_down_set_conjugation_and_size():
    # removing a box commutes with conjugation; count = number of distinct parts
    for n in range(2, 9):
        for p in partitions_of(n):
            downs = p.down_set()
            assert len(downs) == len(set(p.parts))
            assert {q.conjugate() for q in downs} == set(p.conjugate().down_set())
            for q in downs:
                assert q.n == n - 1


def test_self_conjugate_counts():
    # distinct-odd-parts bijection: count self-conjugate partitions per level
    expected = {1: 1, 2: 0, 3: 1, 4: 1, 5: 1, 6: 1, 7: 1, 8: 2, 9: 2, 10: 2}
    for n, count in expected.items():
        assert len(self_conjugate_partitions(n)) == count


def test_rejected_partitions_are_not_interned():
    rejected = [
        ((), "a partition needs at least one part"),
        ((1, 2), "parts must be weakly decreasing, got (1, 2)"),
        ((2, 0), "parts must be positive, got (2, 0)"),
        ((201,), "partition 201 has more than 200 boxes"),
        ((100, 100, 1), "partition 100,100,1 has more than 200 boxes"),
    ]
    for parts, message in rejected:
        before = dict(partitions_module._INTERNED)
        for _ in range(2):  # a second try is validated again
            with pytest.raises(ValueError) as info:
                Partition(parts)
            assert str(info.value) == message
        assert partitions_module._INTERNED == before
        assert parts not in partitions_module._INTERNED


def test_every_parser_refuses_shapes_over_the_box_limit():
    for parse, text in [
        (Partition.parse, "201"),
        (AltLabel.parse, "101,100"),
        (AltPath.parse, ";".join(map(str, range(2, 202)))),
        (StandardTableau.parse, " ".join(map(str, range(1, 202)))),
    ]:
        with pytest.raises(ValueError, match="^partition [0-9,]+ has more than 200 boxes$"):
            parse(text)


def test_equal_partitions_hash_alike_on_every_route():
    # one object per partition, whatever built it, with the hash of its parts
    for n in range(1, 9):
        routes = {p.parts: [p] for p in partitions_of(n)}
        for p in partitions_of(n):
            routes[p.parts] += [
                Partition.parse(str(p)),
                Partition(list(p.parts)),
                p.conjugate().conjugate(),
                transpose_cells(p).conjugate(),
                StandardTableau.parse(str(row_superstandard(p))).shape,
            ]
            above = Partition((p[0] + 1,) + p.parts[1:])
            routes[p.parts].append(next(q for q in above.down_set() if q.parts == p.parts))
            if n > 1:
                sign = "^+" if p.parts == p.conjugate().parts else ""
                routes[p.parts].append(AltLabel.parse(f"{p}{sign}").partition)
        for large in self_conjugate_partitions(n + 1):
            small = large.self_conjugate_below()
            if small is not None:
                routes[small.parts].append(small)
        for parts, found in routes.items():
            direct = Partition(parts)
            assert len(found) > 5
            for q in found:
                assert q is direct and hash(q) == hash(parts)
        assert len({q for found in routes.values() for q in found}) == len(partitions_of(n))
    assert Partition((2, 1)) is Partition([2, 1])
