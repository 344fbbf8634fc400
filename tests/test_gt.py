import random

import pytest

from altgt import gt, verify
from altgt.associator import apply_phi
from altgt.geodesics import AltPath, enumerate_paths, geodesic_representatives
from altgt.gt import embed, gt_basis, gt_vector, gt_vectors
from altgt.labels import AltLabel, labels
from altgt.partitions import Partition, partitions_of
from altgt.scalars import I, I_POWERS, ONE, Scalar, sqrt_rational
from altgt.tableaux import StandardTableau
from altgt.yor import GTVector
from oracles import append_box_cover_map, restricted, scalar_walk


def vec(shape_text, terms):
    shape = Partition.parse(shape_text)
    out = {StandardTableau.parse(t): c for t, c in terms}
    return GTVector(shape, out)


def path(text):
    return AltPath.parse(text)


def units(p, terms):
    """The vector of a path from its exponent map rank -> k."""
    return GTVector._trusted(p.endpoint.partition, {r: I_POWERS[k] for r, k in terms.items()})


def test_base_vectors():
    assert gt_vector(path("2")) == vec("2", [("12", ONE)])
    assert gt_vector(path("1,1")) == vec("1,1", [("1/2", ONE)])


def test_level_three_vectors():
    assert gt_vector(path("2;2,1^+")) == vec("2,1", [("12/3", ONE), ("13/2", I)])
    assert gt_vector(path("2;2,1^-")) == vec("2,1", [("12/3", ONE), ("13/2", -I)])
    assert gt_vector(path("1,1;2,1^+")) == vec("2,1", [("12/3", -I), ("13/2", ONE)])
    assert gt_vector(path("2;3")) == vec("3", [("123", ONE)])
    assert gt_vector(path("1,1;1,1,1")) == vec("1,1,1", [("1/2/3", ONE)])


def test_proportional_vectors_on_equivalent_paths():
    a = gt_vector(path("1,1;2,1^+"))
    b = gt_vector(path("2;2,1^+"))
    assert a == b.scale(-I)


def test_worked_chain_expansions():
    # the four displayed levels of the chain 2;2,1^+;3,1;3,1,1^-;4,1,1
    assert gt_vector(path("2;2,1^+")) == vec(
        "2,1", [("12/3", ONE), ("13/2", I)]
    )
    assert gt_vector(path("2;2,1^+;3,1")) == vec(
        "3,1", [("124/3", ONE), ("134/2", I)]
    )
    assert gt_vector(path("2;2,1^+;3,1;3,1,1^-")) == vec(
        "3,1,1",
        [("124/3/5", ONE), ("134/2/5", I), ("135/2/4", -ONE), ("125/3/4", I)],
    )
    assert gt_vector(path("2;2,1^+;3,1;3,1,1^-;4,1,1")) == vec(
        "4,1,1",
        [("1246/3/5", ONE), ("1346/2/5", I), ("1356/2/4", -ONE), ("1256/3/4", I)],
    )


def test_embed():
    v = vec("2,1", [("12/3", ONE), ("13/2", I)])
    up = embed(v, Partition((3, 1)))
    assert up == vec("3,1", [("124/3", ONE), ("134/2", I)])
    # each message names both shapes
    with pytest.raises(ValueError, match="^shape 4,1 does not cover 2,1$"):
        embed(v, Partition((4, 1)))
    with pytest.raises(ValueError, match="^shape 2,1 does not cover 2,1$"):
        embed(v, Partition((2, 1)))
    # the single box covers nothing: its cover map is empty
    with pytest.raises(ValueError, match="^shape 1 does not cover 1$"):
        embed(vec("1", [("1", ONE)]), Partition((1,)))


def test_cover_map_matches_append_box_construction():
    for n in range(2, 9):
        for shape in partitions_of(n):
            cover = gt._cover_map(shape)
            expected = append_box_cover_map(shape)
            assert list(cover) == list(expected)  # down-set order
            assert {below: list(ranks) for below, ranks in cover.items()} == expected


def test_restrict_inverts_embed():
    for p in enumerate_paths(AltLabel.parse("4,1,1"))[:6]:
        v = gt_vector(p)
        below = p[-2].partition
        assert restricted(embed(v, Partition((5, 1, 1))), v.shape) == v
        assert restricted(v, below) == gt_vector(AltPath(p[:-1]))


def test_truncation_property_all_paths():
    for n in range(3, 7):
        for label in labels(n):
            for p in enumerate_paths(label):
                below = p[-2].partition
                assert restricted(gt_vector(p), below) == gt_vector(AltPath(p[:-1]))


def test_gt_vectors_in_any_order():
    # shuffled paths of mixed lengths, each also followed by its own prefix
    paths = []
    for n in range(2, 7):
        for label in labels(n):
            paths.extend(enumerate_paths(label))
    random.Random(0).shuffle(paths)
    paths = [q for p in paths[:150] for q in (p, AltPath(p[:2]))]
    assert [units(p, v) for p, v in zip(paths, gt_vectors(paths))] == [gt_vector(p) for p in paths]
    assert list(gt_vectors([])) == []


def test_gt_vectors_is_lazy():
    # the first vector arrives before the second path is asked for
    def paths():
        yield path("2;2,1^+")
        raise RuntimeError("read past the first path")

    vectors = gt_vectors(paths())
    assert units(path("2;2,1^+"), next(vectors)) == vec("2,1", [("12/3", ONE), ("13/2", I)])
    with pytest.raises(RuntimeError, match="read past"):
        next(vectors)


def test_eigenvector_for_signed_labels():
    for text, sign in (("2;2,1^+", 1), ("2;2,1^-", -1), ("2;2,1^+;3,1;3,1,1^-", -1)):
        p = path(text)
        u = gt_vector(p)
        mirrored = apply_phi(u)
        assert mirrored == (u if sign == 1 else u.scale(-ONE))


def test_normalization():
    [(rep, u)] = gt_basis(AltLabel.parse("2,1^+"), normalize=True)
    assert rep == path("2;2,1^+")
    half_sqrt2 = sqrt_rational(2).inverse()
    assert u.coefficient(StandardTableau.parse("12/3")) == half_sqrt2
    assert u.coefficient(StandardTableau.parse("13/2")) == I * half_sqrt2
    assert u.inner(u) == ONE
    assert list(gt_basis(AltLabel.parse("2"), normalize=True)) == [
        (path("2"), vec("2", [("12", ONE)]))
    ]


def test_walk_yields_exponents_and_basis_shares_units():
    # the walk holds i^k as k in 0..3, and gt_basis turns each k into one of
    # the four unit scalars, shared rather than rebuilt
    for n in range(2, 9):
        for label in labels(n):
            for terms in gt_vectors(geodesic_representatives(label)):
                assert all(type(k) is int and k in range(4) for k in terms.values())
            for _, u in gt_basis(label):
                assert all(any(c is unit for unit in I_POWERS) for c in u._terms.values())


def test_normalizing_units_once_per_term_count(monkeypatch):
    calls = []

    def counted(value):
        calls.append(value)
        return sqrt_rational(value)

    monkeypatch.setattr(gt, "sqrt_rational", counted)
    for text in ("4,3,2", "4,3,2,1^+", "3,3,1,1"):
        calls.clear()
        basis = tuple(gt_basis(AltLabel.parse(text), normalize=True))
        counts = {len(u._terms) for _, u in basis}
        assert len(counts) > 2
        assert sorted(calls) == sorted(counts), text


def test_walk_matches_scalar_arithmetic():
    # the exponent walk against the construction in Scalar arithmetic
    for n in range(2, 9):
        for label in labels(n):
            for p in geodesic_representatives(label):
                assert gt_vector(p) == scalar_walk(p), p
    # the exponent-count orthogonality rule against GTVector.inner, on every
    # pair of paths to one label that share a tableau; class mates are
    # proportional, so both outcomes occur
    outcomes = set()
    for n in range(2, 8):
        for label in labels(n):
            paths = enumerate_paths(label)
            exponents = list(gt_vectors(paths))
            vectors = [units(p, v) for p, v in zip(paths, exponents)]
            skew = set(verify._skew_pairs(exponents))
            for a, u in enumerate(vectors):
                for b in range(a + 1, len(vectors)):
                    if u._terms.keys() & vectors[b]._terms.keys():
                        orthogonal = u.inner(vectors[b]).is_zero()
                        assert ((a, b) not in skew) == orthogonal, (label, a, b)
                        outcomes.add(orthogonal)
            assert skew <= {(a, b) for a in range(len(paths)) for b in range(a + 1, len(paths))}
    assert outcomes == {True, False}


def test_coefficients_are_fourth_roots():
    for n in range(2, 7):
        for label in labels(n):
            for p in enumerate_paths(label):
                for _, c in gt_vector(p).items():
                    assert c in I_POWERS


def test_basis_shape_and_orthogonality():
    pairs = tuple(gt_basis(AltLabel.parse("2,1^+")))
    assert len(pairs) == 1
    rep, u = pairs[0]
    assert rep == path("2;2,1^+")
    assert u == vec("2,1", [("12/3", ONE), ("13/2", I)])

    [(_, plus)] = gt_basis(AltLabel.parse("2,1^+"))
    [(_, minus)] = gt_basis(AltLabel.parse("2,1^-"))
    assert plus.inner(minus) == Scalar.rational(0)

    for label_text in ("3,1", "4,1,1", "2,2^+"):
        label = AltLabel.parse(label_text)
        pairs = tuple(gt_basis(label))
        assert [p for p, _ in pairs] == list(geodesic_representatives(label))
        vectors = [u for _, u in pairs]
        for a in range(len(vectors)):
            for b in range(a + 1, len(vectors)):
                assert vectors[a].inner(vectors[b]) == Scalar.rational(0)


def test_normalized_basis_is_orthonormal():
    pairs = gt_basis(AltLabel.parse("4,1,1"), normalize=True)
    vectors = [u for _, u in pairs]
    for a, u in enumerate(vectors):
        assert u.inner(u) == ONE
        for w in vectors[a + 1:]:
            assert u.inner(w) == Scalar.rational(0)


def recording(built, _orig=gt.gt_vectors):
    """gt_vectors, appending each vector to `built` as it is yielded."""
    def recorded(paths):
        for vector in _orig(paths):
            built.append(vector)
            yield vector
    return recorded


def test_gt_basis_checks_the_class_count_before_building(monkeypatch):
    # a missing class is reported by the call itself, before any vector is built
    built = []
    reps = gt.geodesic_representatives
    monkeypatch.setattr(gt, "geodesic_representatives", lambda label: reps(label)[1:])
    monkeypatch.setattr(gt, "gt_vectors", recording(built))
    with pytest.raises(RuntimeError, match="^9 classes at 4,1,1, expected 10$"):
        gt_basis(AltLabel.parse("4,1,1"))
    assert built == []


def test_overlapping_halves_raise(monkeypatch):
    # an intertwiner that fixes the carried vector breaks the disjoint-support
    # invariant of the eigenspace completion
    monkeypatch.setattr(gt, "phi_exponents", lambda shape, terms: dict(terms))
    with pytest.raises(RuntimeError, match="overlap"):
        gt_vector(path("2;2,1^+"))
