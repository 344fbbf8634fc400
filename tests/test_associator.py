from collections import Counter

import pytest

from altgt import associator
from altgt.associator import apply_phi, assoc_coeff, reference_tableau
from altgt.gt import embed
from altgt.partitions import Partition, self_conjugate_partitions
from altgt.scalars import I, I_POWERS, ONE
from altgt.tableaux import StandardTableau, enumerate_syt
from altgt.verify import verify_gt_range
from altgt.yor import GTVector, act_simple, act_word
from oracles import canonical_terms, raw_product, raw_terms


def test_rejects_non_self_conjugate():
    with pytest.raises(ValueError):
        assoc_coeff(StandardTableau.parse("124/3"))


def test_apply_phi_rejects_every_vector_of_a_non_self_conjugate_shape():
    shape = Partition((3, 1))
    for vec in (GTVector.zero(shape), GTVector.basis(StandardTableau.parse("124/3"))):
        with pytest.raises(ValueError, match="3,1 is not self-conjugate"):
            apply_phi(vec)


def test_phi_table_computes_each_root_once(monkeypatch):
    # _exponent runs once per tableau of each shape phi reaches, never per term
    calls = Counter()

    def counted(tableau, shape, _orig=associator._exponent):
        calls[tableau] += 1
        return _orig(tableau, shape)

    associator._phi_table.cache_clear()
    monkeypatch.setattr(associator, "_exponent", counted)
    assert verify_gt_range(8).ok
    shapes = {t.shape for t in calls}
    assert len(shapes) == 7  # every self-conjugate shape with 3 <= n <= 8
    assert associator._phi_table.cache_info().currsize == len(shapes)
    assert calls == Counter(t for shape in shapes for t in enumerate_syt(shape))
    calls.clear()
    assert verify_gt_range(6).ok
    assert not calls


def test_coefficient_values():
    shape = Partition((3, 1, 1))
    assert assoc_coeff(StandardTableau.parse("123/4/5")) == -ONE
    assert assoc_coeff(StandardTableau.parse("124/3/5")) == ONE
    assert assoc_coeff(StandardTableau.parse("134/2/5")) == -ONE
    assert assoc_coeff(StandardTableau.parse("12/3")) == I


def test_apply_phi_worked_values():
    shape = Partition((2, 1))
    assert apply_phi(GTVector.basis(StandardTableau.parse("12/3"))) == \
        GTVector(shape, {StandardTableau.parse("13/2"): I})
    shape = Partition((3, 1, 1))
    assert apply_phi(GTVector.basis(StandardTableau.parse("124/3/5"))) == \
        GTVector(shape, {StandardTableau.parse("135/2/4"): ONE})
    assert apply_phi(GTVector.basis(StandardTableau.parse("134/2/5"))) == \
        GTVector(shape, {StandardTableau.parse("125/3/4"): -ONE})


def test_phi_smallest_case():
    shape = Partition((2, 1))
    t1, t2 = enumerate_syt(shape)
    assert apply_phi(GTVector.basis(t1)) == GTVector(shape, {t2: I})
    assert apply_phi(GTVector.basis(t2)) == GTVector(shape, {t1: -I})


def test_apply_phi_is_the_term_by_term_product():
    # act_simple gives radical coefficients, and scaling by I and by 1 + i
    # makes them imaginary and mixed Gaussian
    assert I_POWERS == (ONE, I, -ONE, -I)
    for n in range(3, 8):
        for shape in self_conjugate_partitions(n):
            for t in enumerate_syt(shape):
                assert any(assoc_coeff(t) is unit for unit in I_POWERS)
                for i in range(1, n):
                    v = act_simple(i, GTVector.basis(t))
                    for w in (v, v.scale(I), v.scale(ONE + I)):
                        image = apply_phi(w)
                        assert len(image.items()) == len(w.items())
                        for s, c in w.items():
                            expected = raw_product(raw_terms(c), raw_terms(assoc_coeff(s)))
                            assert image.coefficient(s.conjugate()).terms() == \
                                canonical_terms(expected)


def test_phi_is_an_involution():
    for n in range(3, 8):
        for shape in self_conjugate_partitions(n):
            for t in enumerate_syt(shape):
                v = GTVector.basis(t)
                assert apply_phi(apply_phi(v)) == v


def test_phi_anticommutes_with_generators():
    for n in range(3, 7):
        for shape in self_conjugate_partitions(n):
            for t in enumerate_syt(shape):
                v = GTVector.basis(t)
                for i in range(1, n):
                    one = act_word((i,), apply_phi(v))
                    other = apply_phi(act_word((i,), v))
                    assert (one + other).is_zero()


def test_coefficient_alternates_on_swaps():
    for shape in (Partition((2, 2)), Partition((3, 1, 1)), Partition((3, 2, 1))):
        n = shape.n
        for t in enumerate_syt(shape):
            for i in range(1, n):
                (r1, c1), (r2, c2) = t.position(i), t.position(i + 1)
                if r1 == r2 or c1 == c2:
                    continue
                assert assoc_coeff(t.swap_adjacent(i)) == -assoc_coeff(t)


def test_anchor_coefficients_along_covers_agree():
    # the smaller and larger member of each self-conjugate cover share the
    # anchor value; spot-check the pairs reachable below n = 9
    pairs = [
        (Partition((2, 1)), Partition((2, 2))),
        (Partition((3, 1, 1)), Partition((3, 2, 1))),
        (Partition((4, 1, 1, 1)), Partition((4, 2, 1, 1))),
        (Partition((3, 3, 2)), Partition((3, 3, 3))),
    ]
    for small, large in pairs:
        c_small = assoc_coeff(reference_tableau(small))
        c_large = assoc_coeff(reference_tableau(large))
        assert c_small == c_large


def test_cover_compatibility_with_embedding():
    # lifting a tableau vector and applying the intertwiner above equals
    # applying below and lifting, for every cover with the larger side <= 8
    pairs = [
        (Partition((2, 1)), Partition((2, 2))),
        (Partition((3, 1, 1)), Partition((3, 2, 1))),
        (Partition((4, 1, 1, 1)), Partition((4, 2, 1, 1))),
    ]
    for small, large in pairs:
        for t in enumerate_syt(small):
            v = GTVector.basis(t)
            assert apply_phi(embed(v, large)) == embed(apply_phi(v), large)


def test_eigenspace_split_is_balanced():
    # each transpose pair {T, T'} supplies one +1 and one -1 eigenvector
    for n in range(3, 8):
        for shape in self_conjugate_partitions(n):
            plus = []
            minus = []
            for t in enumerate_syt(shape):
                if t.row_word() > t.conjugate().row_word():
                    continue
                v = GTVector.basis(t)
                pair_plus = v + apply_phi(v)
                pair_minus = v - apply_phi(v)
                assert apply_phi(pair_plus) == pair_plus
                assert apply_phi(pair_minus) == -pair_minus
                plus.append(pair_plus)
                minus.append(pair_minus)
            dim = len(enumerate_syt(shape))
            assert len(plus) == len(minus) == dim // 2
