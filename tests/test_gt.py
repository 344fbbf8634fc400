import random

import pytest

from altgt import gt
from altgt.associator import apply_phi
from altgt.geodesics import AltPath, enumerate_paths, geodesic_representatives
from altgt.gt import embed, gt_basis, gt_vector, gt_vectors, restrict
from altgt.labels import AltLabel, labels
from altgt.partitions import Partition
from altgt.scalars import I, ONE, Scalar, sqrt_rational
from altgt.tableaux import StandardTableau
from altgt.yor import GTVector


def vec(shape_text, terms):
    shape = Partition.parse(shape_text)
    out = {StandardTableau.parse(t): c for t, c in terms}
    return GTVector(shape, out)


def path(text):
    return AltPath.parse(text)


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


def test_restrict_keeps_matching_prefixes():
    u = gt_vector(path("2;2,1^+"))
    assert restrict(u, Partition((2,))) == vec("2", [("12", ONE)])
    assert restrict(u, Partition((1, 1))) == vec("1,1", [("1/2", I)])
    # each message names both shapes
    with pytest.raises(ValueError, match="^2,1 is not below 2,1$"):
        restrict(u, Partition((2, 1)))
    with pytest.raises(ValueError, match="^3 is not below 2,1$"):
        restrict(u, Partition((3,)))


def test_restrict_inverts_embed():
    for p in enumerate_paths(AltLabel.parse("4,1,1"))[:6]:
        v = gt_vector(p)
        below = p.labels[-2].partition
        assert restrict(embed(v, Partition((5, 1, 1))), v.shape) == v
        assert restrict(v, below) == gt_vector(AltPath(p.labels[:-1]))


def test_truncation_property_all_paths():
    for n in range(3, 7):
        for label in labels(n):
            for p in enumerate_paths(label):
                below = p.labels[-2].partition
                assert restrict(gt_vector(p), below) == gt_vector(AltPath(p.labels[:-1]))


def test_gt_vectors_in_any_order():
    # shuffled paths of mixed lengths, each also followed by its own prefix
    paths = []
    for n in range(2, 7):
        for label in labels(n):
            paths.extend(enumerate_paths(label))
    random.Random(0).shuffle(paths)
    paths = [q for p in paths[:150] for q in (p, AltPath(p.labels[:2]))]
    assert list(gt_vectors(paths)) == [gt_vector(p) for p in paths]
    assert list(gt_vectors(paths, normalize=True)) == [gt_vector(p, normalize=True) for p in paths]
    assert list(gt_vectors([])) == []


def test_gt_vectors_is_lazy():
    # the first vector arrives before the second path is asked for
    def paths():
        yield path("2;2,1^+")
        raise RuntimeError("read past the first path")

    vectors = gt_vectors(paths())
    assert next(vectors) == vec("2,1", [("12/3", ONE), ("13/2", I)])
    with pytest.raises(RuntimeError, match="read past"):
        next(vectors)


def test_eigenvector_for_signed_labels():
    for text, sign in (("2;2,1^+", 1), ("2;2,1^-", -1), ("2;2,1^+;3,1;3,1,1^-", -1)):
        p = path(text)
        u = gt_vector(p)
        mirrored = apply_phi(u)
        assert mirrored == (u if sign == 1 else u.scale(-ONE))


def test_normalization():
    u = gt_vector(path("2;2,1^+"), normalize=True)
    half_sqrt2 = sqrt_rational(2).inverse()
    assert u.coefficient(StandardTableau.parse("12/3")) == half_sqrt2
    assert u.coefficient(StandardTableau.parse("13/2")) == I * half_sqrt2
    assert u.norm_squared() == ONE
    assert gt_vector(path("2"), normalize=True) == vec("2", [("12", ONE)])


def test_coefficients_are_fourth_roots():
    for n in range(2, 7):
        for label in labels(n):
            for p in enumerate_paths(label):
                for _, c in gt_vector(p).items():
                    assert c.is_fourth_root()


def test_basis_shape_and_orthogonality():
    pairs = gt_basis(AltLabel.parse("2,1^+"))
    assert len(pairs) == 1
    rep, u = pairs[0]
    assert rep == path("2;2,1^+")
    assert u == vec("2,1", [("12/3", ONE), ("13/2", I)])

    plus = gt_basis(AltLabel.parse("2,1^+"))[0][1]
    minus = gt_basis(AltLabel.parse("2,1^-"))[0][1]
    assert plus.inner(minus) == Scalar.rational(0)

    for label_text in ("3,1", "4,1,1", "2,2^+"):
        label = AltLabel.parse(label_text)
        pairs = gt_basis(label)
        assert [p for p, _ in pairs] == list(geodesic_representatives(label))
        vectors = [u for _, u in pairs]
        for a in range(len(vectors)):
            for b in range(a + 1, len(vectors)):
                assert vectors[a].inner(vectors[b]) == Scalar.rational(0)


def test_normalized_basis_is_orthonormal():
    pairs = gt_basis(AltLabel.parse("4,1,1"), normalize=True)
    vectors = [u for _, u in pairs]
    for a, u in enumerate(vectors):
        assert u.norm_squared() == ONE
        for w in vectors[a + 1:]:
            assert u.inner(w) == Scalar.rational(0)


def test_overlapping_halves_raise(monkeypatch):
    # an intertwiner that fixes the carried vector breaks the disjoint-support
    # invariant of the eigenspace completion
    monkeypatch.setattr(gt, "apply_phi", lambda vec: vec)
    with pytest.raises(RuntimeError, match="overlap"):
        gt_vector(path("2;2,1^+"))
