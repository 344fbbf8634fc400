"""Acceptance suite: one test per criterion, every equality exact.

Each test carries its runtime bound as an assertion, so a pass line in
pytest -v output certifies both the identity and the budget.
"""

import math
import time

from altgt import associator, yor
from altgt.associator import assoc_coeff, reference_tableau
from altgt.geodesics import (
    AltPath,
    class_members,
    class_size,
    enumerate_paths,
    path_equivalent,
)
from altgt.gt import gt_basis, gt_vector
from altgt.labels import AltLabel, canonical_label, labels
from altgt.partitions import Partition, self_conjugate_partitions
from altgt.scalars import I, ONE
from altgt.tableaux import StandardTableau
from altgt.verify import (
    FOURTH_ROOT_TABLE,
    verify_associator,
    verify_gt,
    verify_gt_range,
    verify_yor,
)
from altgt.yor import GTVector
from oracles import branch_count_r, brute_force_class_members, brute_force_syt, class_signature
from test_verify import column_flip, unsigned_exponent, unwarmed_phi_table


def vec(shape_text, terms):
    shape = Partition.parse(shape_text)
    return GTVector(shape, {StandardTableau.parse(t): c for t, c in terms})


def test_criterion_1_factor_table():
    # the one anchor table covers every self-conjugate shape with 3 <= n <= 9
    assert set(FOURTH_ROOT_TABLE) == {
        str(shape) for n in range(3, 10) for shape in self_conjugate_partitions(n)
    }
    start = time.perf_counter()
    for shape_text, root in FOURTH_ROOT_TABLE.items():
        shape = Partition.parse(shape_text)
        coeff = assoc_coeff(reference_tableau(shape))
        assert coeff == root, shape_text
    assert time.perf_counter() - start < 1.0


def test_criterion_2_worked_chain():
    start = time.perf_counter()
    assert gt_vector(AltPath.parse("2;2,1^+")) == vec(
        "2,1", [("12/3", ONE), ("13/2", I)]
    )
    assert gt_vector(AltPath.parse("2;2,1^+;3,1")) == vec(
        "3,1", [("124/3", ONE), ("134/2", I)]
    )
    assert gt_vector(AltPath.parse("2;2,1^+;3,1;3,1,1^-")) == vec(
        "3,1,1",
        [("124/3/5", ONE), ("134/2/5", I), ("135/2/4", -ONE), ("125/3/4", I)],
    )
    assert gt_vector(AltPath.parse("2;2,1^+;3,1;3,1,1^-;4,1,1")) == vec(
        "4,1,1",
        [("1246/3/5", ONE), ("1346/2/5", I), ("1356/2/4", -ONE), ("1256/3/4", I)],
    )
    assert time.perf_counter() - start < 1.0


# the published ten-vector table: one expansion per path class of 4,1,1
TEN_VECTOR_TABLE = [
    ("1,1;1,1,1;2,1,1;3,1,1^+;4,1,1",
     [("1456/2/3", ONE), ("1236/4/5", -ONE)]),
    ("1,1;2,1^+;2,1,1;3,1,1^+;4,1,1",
     [("1356/2/4", ONE), ("1246/3/5", ONE), ("1256/3/4", -I), ("1346/2/5", I)]),
    ("1,1;2,1^-;2,1,1;3,1,1^+;4,1,1",
     [("1356/2/4", ONE), ("1246/3/5", ONE), ("1256/3/4", I), ("1346/2/5", -I)]),
    ("1,1;1,1,1;2,1,1;3,1,1^-;4,1,1",
     [("1456/2/3", ONE), ("1236/4/5", ONE)]),
    ("1,1;2,1^+;2,1,1;3,1,1^-;4,1,1",
     [("1356/2/4", ONE), ("1246/3/5", -ONE), ("1256/3/4", -I), ("1346/2/5", -I)]),
    ("1,1;2,1^-;2,1,1;3,1,1^-;4,1,1",
     [("1356/2/4", ONE), ("1246/3/5", -ONE), ("1256/3/4", I), ("1346/2/5", I)]),
    ("1,1;2,1^+;3,1;4,1;4,1,1",
     [("1345/2/6", ONE), ("1245/3/6", -I)]),
    ("1,1;2,1^-;3,1;4,1;4,1,1",
     [("1345/2/6", ONE), ("1245/3/6", I)]),
    ("2;3;3,1;4,1;4,1,1",
     [("1235/4/6", ONE)]),
    ("2;3;4;4,1;4,1,1",
     [("1234/5/6", ONE)]),
]


def test_criterion_3_ten_vector_example():
    start = time.perf_counter()
    label = AltLabel.parse("4,1,1")

    published = []
    for path_text, terms in TEN_VECTOR_TABLE:
        path = AltPath.parse(path_text)
        assert gt_vector(path) == vec("4,1,1", terms), path_text
        published.append((path, vec("4,1,1", terms)))

    # same ten path classes, in some order
    basis = gt_basis(label)
    by_class = {class_signature(p): v for p, v in basis}
    assert len(by_class) == 10
    assert {class_signature(p) for p, _ in published} == set(by_class)

    # per class, the published vector is an exact unit multiple of ours
    ratios = []
    for path, vector in published:
        ours = by_class[class_signature(path)]
        t0 = ours.support()[0]
        ratio = vector.coefficient(t0) / ours.coefficient(t0)
        assert vector == ours.scale(ratio)
        ratios.append(ratio)
    assert ratios == [-ONE, ONE, ONE, ONE, -ONE, -ONE, -I, I, ONE, ONE]
    assert time.perf_counter() - start < 1.0


def test_criterion_4_proportional_vectors():
    left = gt_vector(AltPath.parse("1,1;2,1^+"))
    right = gt_vector(AltPath.parse("2;2,1^+"))
    assert left == right.scale(-I)


def test_criterion_5_class_sizes():
    start = time.perf_counter()
    example = AltPath.parse("2;2,1^+;3,1;3,1,1^+;4,1,1")
    assert branch_count_r(example) == 2
    assert class_size(example) == 8
    assert [str(p) for p in brute_force_class_members(example)] == [
        "2;2,1^+;3,1;3,1,1^+;4,1,1",
        "2;2,1^+;3,1;3,1,1^+;3,1,1,1",
        "2;2,1^+;2,1,1;3,1,1^+;4,1,1",
        "2;2,1^+;2,1,1;3,1,1^+;3,1,1,1",
        "1,1;2,1^+;3,1;3,1,1^+;4,1,1",
        "1,1;2,1^+;3,1;3,1,1^+;3,1,1,1",
        "1,1;2,1^+;2,1,1;3,1,1^+;4,1,1",
        "1,1;2,1^+;2,1,1;3,1,1^+;3,1,1,1",
    ]
    # class_members lists the members that end at the path's own endpoint
    assert [str(p) for p in class_members(example)] == [
        "2;2,1^+;3,1;3,1,1^+;4,1,1",
        "2;2,1^+;2,1,1;3,1,1^+;4,1,1",
        "1,1;2,1^+;3,1;3,1,1^+;4,1,1",
        "1,1;2,1^+;2,1,1;3,1,1^+;4,1,1",
    ]

    checked = 0
    for n in range(2, 9):
        for label in labels(n):
            pool = list(enumerate_paths(label))
            partner = AltLabel(label.partition.conjugate()) if not label.is_signed() else None
            if partner is not None and partner != label:
                pool += list(enumerate_paths(partner))
            for p in enumerate_paths(label):
                brute = sorted((q for q in pool if path_equivalent(p, q)), key=AltPath.sort_key)
                assert len(brute) == class_size(p) == 2 ** (branch_count_r(p) + 1)
                assert list(class_members(p)) == [q for q in brute if q.endpoint == label]
                checked += 1
    assert checked > 3000
    assert time.perf_counter() - start < 30.0


def test_criterion_6_representation_identities():
    start = time.perf_counter()
    report = verify_yor(7)
    assert report.ok, [c.line() for c in report.failures()]
    assert time.perf_counter() - start < 60.0


def test_criterion_7_associator_identities():
    start = time.perf_counter()
    report = verify_associator(7)
    assert report.ok, [c.line() for c in report.failures()]
    assert time.perf_counter() - start < 30.0


def test_criterion_8_gt_properties():
    start = time.perf_counter()
    report = verify_gt_range(7)
    assert report.ok, [c.line() for c in report.failures()]

    # dimension oracle: exhaustive tableau search, halved on signed labels
    for n in range(2, 8):
        for label in labels(n):
            expected = len(brute_force_syt(label.partition))
            if label.is_signed():
                expected //= 2
            assert len(tuple(gt_basis(label))) == expected, str(label)
        total = sum(
            len(tuple(gt_basis(label))) ** 2
            for label in labels(n)
            if canonical_label(label) == label
        )
        assert total == math.factorial(n) // 2
    assert time.perf_counter() - start < 60.0


def test_criterion_9_fault_injection(monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(yor, "act_simple", column_flip)
        assert not verify_yor(4).ok
    with monkeypatch.context() as patch:
        patch.setattr(associator, "_exponent", unsigned_exponent)
        unwarmed_phi_table(patch)
        assert not verify_associator(4).ok
        assert not verify_gt(AltLabel.parse("2,1^+")).ok
    # everything is healthy again once the mutations are lifted
    assert verify_yor(4).ok
    assert verify_associator(4).ok
    assert verify_gt(AltLabel.parse("2,1^+")).ok
