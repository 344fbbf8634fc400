import pytest

from altgt import associator, gt, verify, yor
from altgt.geodesics import enumerate_paths
from altgt.labels import AltLabel, labels
from altgt.scalars import I, ONE
from altgt.tableaux import StandardTableau, permutation_sign
from altgt.verify import (
    Check,
    Report,
    verify_associator,
    verify_gt,
    verify_gt_range,
    verify_yor,
)
from altgt.yor import GTVector


def test_yor_suite_passes():
    report = verify_yor(5)
    assert report.ok
    assert len(report.checks) == 2 + 3 + 5 + 7
    assert all(c.suite == "yor" and c.status == "pass" for c in report.checks)
    assert report.failures() == []


def test_associator_suite_passes():
    report = verify_associator(6)
    assert report.ok
    assert [c.subject for c in report.checks] == [
        "shape 2,1",
        "shape 2,2",
        "cover 2,1 up to 2,2",
        "shape 3,1,1",
        "shape 3,2,1",
        "cover 3,1,1 up to 3,2,1",
    ]


def test_gt_single_label_passes():
    report = verify_gt(AltLabel.parse("4,1,1"))
    assert report.ok
    assert len(report.checks) == 1
    assert report.checks[0].subject == "label 4,1,1"


def test_gt_range_passes():
    report = verify_gt_range(5)
    assert report.ok
    # four level counts plus one check per label
    assert len(report.checks) == 4 + 2 + 4 + 6 + 8


def test_argument_validation():
    with pytest.raises(ValueError):
        verify_yor(1)
    with pytest.raises(ValueError):
        verify_associator(2)
    with pytest.raises(ValueError):
        verify_gt_range(1)


def test_report_lines_and_json():
    report = verify_yor(3)
    lines = report.lines()
    assert lines[0] == "PASS yor   shape 2"
    assert lines[-1] == "5 checks, 0 failures"
    data = report.to_json_dict()
    assert data["ok"] is True
    assert data["checks"][0] == {
        "suite": "yor",
        "subject": "shape 2",
        "status": "pass",
        "witness": None,
    }


def test_check_line_with_witness():
    check = Check("yor", "shape 2,1", "fail", "braid at 1: entry (0,0) differs")
    assert check.line() == "FAIL yor   shape 2,1  [braid at 1: entry (0,0) differs]"
    report = Report([check])
    assert not report.ok
    assert report.lines()[-1] == "1 checks, 1 failures"


def column_flip(i, vec, _orig=yor.act_simple):
    # drop the sign in the same-column case
    out = GTVector.zero(vec.shape)
    for t, c in vec.items():
        r1, c1 = t.position(i)
        r2, c2 = t.position(i + 1)
        image = _orig(i, GTVector.basis(t))
        if c1 == c2 and r1 != r2:
            image = image.scale(-ONE)
        out = out + image.scale(c)
    return out


def unsigned_coeff(tableau, _orig=associator.assoc_coeff):
    # drop the permutation sign factor
    c = _orig(tableau)
    return -c if permutation_sign(tableau) == -1 else c


def rotated_coeff(tableau, _orig=associator.assoc_coeff):
    # phi squares to -1 but still anticommutes with every generator
    return _orig(tableau) * I


def doubled_axial_distance(self, i, _orig=StandardTableau.axial_distance):
    # each generator stays symmetric and involutive
    return 2 * _orig(self, i)


def skewed_mixing(i, vec, _orig=yor.act_simple):
    # negate the off-diagonal term when i sits in a higher row than i+1
    out = GTVector.zero(vec.shape)
    for t, c in vec.items():
        image = _orig(i, GTVector.basis(t))
        (r1, c1), (r2, c2) = t.position(i), t.position(i + 1)
        if r1 < r2 and c1 != c2:
            image = GTVector(vec.shape, {u: a if u == t else -a for u, a in image.items()})
        out = out + image.scale(c)
    return out


def test_fault_injection_yor(monkeypatch):
    monkeypatch.setattr(yor, "act_simple", column_flip)
    report = verify_yor(4)
    assert not report.ok
    bad = {c.subject for c in report.failures()}
    assert bad == {"shape 2,1", "shape 3,1", "shape 2,2", "shape 2,1,1"}
    assert all(c.witness for c in report.failures())


def unwarmed_phi_table(patch):
    # apply_phi reads each root from a cached table per shape; its uncached
    # builder sees a patched assoc_coeff even when a table of the same shape
    # was built before the patch
    patch.setattr(associator, "_phi_table", associator._phi_table.__wrapped__)


def test_fault_injection_associator(monkeypatch):
    monkeypatch.setattr(associator, "assoc_coeff", unsigned_coeff)
    unwarmed_phi_table(monkeypatch)
    report = verify_associator(4)
    assert not report.ok
    assert {c.subject for c in report.failures()} == {"shape 2,1", "shape 2,2"}


def test_fault_injection_anchor(monkeypatch):
    # a negated intertwiner keeps every identity but the anchor coefficients
    orig = associator.assoc_coeff
    monkeypatch.setattr(associator, "assoc_coeff", lambda t: -orig(t))
    unwarmed_phi_table(monkeypatch)
    bad = verify_associator(5).failures()
    assert [(c.subject, c.witness) for c in bad] == [
        ("shape 2,1", "anchor coefficient -i, expected i"),
        ("shape 2,2", "anchor coefficient -i, expected i"),
        ("shape 3,1,1", "anchor coefficient 1, expected -1"),
    ]


def test_fault_injection_gt(monkeypatch):
    monkeypatch.setattr(associator, "assoc_coeff", unsigned_coeff)
    unwarmed_phi_table(monkeypatch)
    report = verify_gt(AltLabel.parse("2,1^+"))
    assert not report.ok
    assert "eigenvector" in report.failures()[0].witness


def test_fault_injection_square(monkeypatch):
    monkeypatch.setattr(associator, "assoc_coeff", rotated_coeff)
    unwarmed_phi_table(monkeypatch)
    report = verify_associator(6)
    bad = report.failures()
    assert [c.subject for c in bad] == ["shape 2,1", "shape 2,2", "shape 3,1,1", "shape 3,2,1"]
    assert all("square" in c.witness for c in bad)


def unwarmed_generator_table(patch):
    # act_simple reads Young's rule from a cached table per shape; its
    # uncached builder sees a patched axial distance even when a table of
    # the same shape was built before the patch
    patch.setattr(yor, "_generator_table", yor._generator_table.__wrapped__)


def test_fault_injection_braid(monkeypatch):
    monkeypatch.setattr(StandardTableau, "axial_distance", doubled_axial_distance)
    unwarmed_generator_table(monkeypatch)
    bad = verify_yor(4).failures()
    assert {c.subject for c in bad} == {"shape 2,1", "shape 3,1", "shape 2,2", "shape 2,1,1"}
    assert all("braid" in c.witness for c in bad)


def test_fault_injection_symmetric(monkeypatch):
    monkeypatch.setattr(yor, "act_simple", skewed_mixing)
    bad = verify_yor(4).failures()
    assert {c.subject for c in bad} == {"shape 2,1", "shape 3,1", "shape 2,2", "shape 2,1,1"}
    assert all("symmetric" in c.witness for c in bad)


def test_fault_injection_class_members(monkeypatch):
    monkeypatch.setattr(verify, "path_equivalent", lambda p, q: False)
    report = verify_gt(AltLabel.parse("3,1"))
    assert "not equivalent" in report.failures()[0].witness


def negated_phi(vec, _orig=associator.apply_phi):
    # the completion w + e*phi(w) lands in the wrong eigenspace
    return -_orig(vec)


def test_fault_injection_walk(monkeypatch):
    # break only the walk's own binding of phi; the audit's stays intact
    monkeypatch.setattr(gt, "apply_phi", negated_phi)
    for text in ("2,1^+", "2,1^-", "2,2^+", "3,1,1^-"):
        report = verify_gt(AltLabel.parse(text))
        assert "eigenvector" in report.failures()[0].witness


def test_suites_clean_after_fault_tests():
    assert verify_yor(4).ok
    assert verify_associator(6).ok
    assert verify_gt(AltLabel.parse("2,1^+")).ok


def test_warm_caches_do_not_hide_faults(monkeypatch):
    # every cache these suites read is filled by the clean runs first
    def outcomes():
        return {
            "assoc": verify_associator(6).ok,
            "yor": verify_yor(5).ok,
            "gt 3,2,1^+": verify_gt(AltLabel.parse("3,2,1^+")).ok,
            "gt 4,2,1": verify_gt(AltLabel.parse("4,2,1")).ok,
        }

    assert all(outcomes().values())
    with monkeypatch.context() as patch:
        patch.setattr(associator, "assoc_coeff", unsigned_coeff)
        unwarmed_phi_table(patch)
        assert outcomes() == {"assoc": False, "yor": True, "gt 3,2,1^+": False, "gt 4,2,1": False}
    with monkeypatch.context() as patch:
        patch.setattr(StandardTableau, "axial_distance", doubled_axial_distance)
        unwarmed_generator_table(patch)
        assert not outcomes()["yor"]
    assert all(outcomes().values())


def gt_witnesses(*texts):
    return [verify_gt(AltLabel.parse(text)).checks[0].witness for text in texts]


def shifted_vectors(paths, normalize=False, _orig=gt.gt_vectors):
    # each path is paired with the vector of the path after it
    vectors = list(_orig(paths, normalize=normalize))
    return vectors[1:] + vectors[:1]


def test_fault_injection_stray_support(monkeypatch):
    monkeypatch.setattr(verify, "gt_vectors", shifted_vectors)
    assert gt_witnesses("3,1", "3,2", "4,1,1") == [
        "support of 2;3;3,1 strays at level 3",
        "support of 2;3;3,1;3,2 strays at level 3",
        "support of 2;3;4;4,1;4,1,1 strays at level 4",
    ]


def zero_first_vector(paths, normalize=False, _orig=gt.gt_vectors):
    # the first path of each call is paired with the zero vector
    vectors = list(_orig(paths, normalize=normalize))
    return [GTVector.zero(vectors[0].shape)] + vectors[1:]


def test_fault_injection_zero_vector(monkeypatch):
    # a vector with no terms has no coefficient to fail the unit check
    monkeypatch.setattr(verify, "gt_vectors", zero_first_vector)
    assert gt_witnesses("2", "1,1", "3", "3,1", "2,1^+") == [
        "zero vector on 2",
        "zero vector on 1,1",
        "zero vector on 2;3",
        "zero vector on 2;3;3,1",
        "zero vector on 2;2,1^+",
    ]


def mate_for_neighbour(label, _orig=verify.geodesic_representatives):
    # the representative before the first class with a second member at this
    # label is replaced by that member, so two vectors are proportional
    reps = list(_orig(label))
    for j, p in enumerate(reps):
        mates = [m for m in verify.class_members(p) if m != p]
        if mates:
            reps[j - 1] = mates[0]
            break
    return tuple(reps)


def test_fault_injection_orthogonality(monkeypatch):
    monkeypatch.setattr(verify, "geodesic_representatives", mate_for_neighbour)
    assert gt_witnesses("3,1", "4,1,1", "3,2,1^+") == [
        "vectors for 1,1;2,1^+;3,1 and 2;2,1^+;3,1 not orthogonal",
        "vectors for 1,1;1,1,1;2,1,1;3,1,1^+;4,1,1 and 2;3;3,1;3,1,1^+;4,1,1 not orthogonal",
        "vectors for 2;3;3,1;3,2;3,2,1^+ and 1,1;1,1,1;2,1,1;2,2,1;3,2,1^+ not orthogonal",
    ]


def test_fault_injection_earliest_skew_pair(monkeypatch):
    # without the eigenspace completion the + and - vectors of each signed
    # step coincide; several pairs fail and the witness names the first
    monkeypatch.setattr(gt, "apply_phi", lambda vec: GTVector.zero(vec.shape))
    assert gt_witnesses("4,1,1", "4,2") == [
        "vectors for 2;3;3,1;3,1,1^+;4,1,1 and 2;3;3,1;3,1,1^-;4,1,1 not orthogonal",
        "vectors for 2;2,1^+;3,1;4,1;4,2 and 2;2,1^-;3,1;4,1;4,2 not orthogonal",
    ]


def test_fault_injection_mismatched_supports(monkeypatch):
    # every path ending at the label passes as a member of every class
    monkeypatch.setattr(verify, "class_members", lambda p: enumerate_paths(p.endpoint))
    monkeypatch.setattr(verify, "path_equivalent", lambda p, q: True)
    assert gt_witnesses("3,1", "3,2", "4,1,1") == [
        "class of 2;3;3,1 has mismatched supports",
        "class of 2;3;3,1;3,2 has mismatched supports",
        "class of 2;3;4;4,1;4,1,1 has mismatched supports",
    ]


def test_path_count_matches_enumeration():
    for n in range(2, 9):
        for label in labels(n):
            assert verify._path_count(label) == len(enumerate_paths(label))


def last_mate_dropped(p, _orig=verify.class_members):
    # every class with a second mate loses its last one
    mates = _orig(p)
    return mates[:-1] if len(mates) > 1 else mates


def test_fault_injection_missing_mates(monkeypatch):
    monkeypatch.setattr(verify, "class_members", last_mate_dropped)
    assert gt_witnesses("3,1", "3,2", "4,1,1") == [
        "classes hold 3 mates of 5 paths",
        "classes hold 5 mates of 9 paths",
        "classes hold 18 mates of 26 paths",
    ]


def first_mate_repeated(p, _orig=verify.class_members):
    # every class with a second mate lists its first in place of its last,
    # so the count still matches
    mates = _orig(p)
    return mates[:-1] + mates[:1] if len(mates) > 1 else mates


def test_fault_injection_repeated_mate(monkeypatch):
    monkeypatch.setattr(verify, "class_members", first_mate_repeated)
    assert gt_witnesses("3,1", "3,2", "4,1,1") == [
        "classes list 2;2,1^+;3,1 twice",
        "classes list 2;2,1^+;3,1;3,2 twice",
        "classes list 2;3;3,1;3,1,1^+;4,1,1 twice",
    ]


def rotated_phi(vec, _orig=associator.apply_phi):
    # the walk completes w to w + i*phi(w), which is no eigenvector of phi
    return _orig(vec).scale(I)


def test_fault_injection_not_proportional(monkeypatch):
    monkeypatch.setattr(gt, "apply_phi", rotated_phi)
    assert gt_witnesses("3,1", "3,2", "4,1,1") == [
        "class of 2;2,1^+;3,1: members not proportional",
        "class of 2;2,1^+;3,1;3,2: members not proportional",
        "class of 2;3;3,1;3,1,1^+;4,1,1: members not proportional",
    ]


def doubled_first_coefficient(paths, normalize=False, _orig=gt.gt_vectors):
    # paths from (1,1) get their first coefficient, in row-word order, doubled
    paths = list(paths)
    out = []
    for p, v in zip(paths, _orig(paths, normalize=normalize)):
        if str(p.labels[0]) == "1,1":
            terms = dict(v.items())
            first = v.support()[0]
            v = GTVector(v.shape, {**terms, first: terms[first] * 2})
        out.append(v)
    return out


def test_fault_injection_ratio_not_a_unit(monkeypatch):
    # the ratio is read at the first tableau of the representative's vector
    monkeypatch.setattr(verify, "gt_vectors", doubled_first_coefficient)
    assert gt_witnesses("3,1", "3,2", "4,1,1") == [
        "class of 2;2,1^+;3,1: ratio -2*i is not a unit",
        "class of 2;2,1^+;3,1;3,2: ratio -2*i is not a unit",
        "class of 2;3;3,1;3,1,1^+;4,1,1: ratio -2 is not a unit",
    ]


def test_fault_injection_lowest_failing_class(monkeypatch):
    # only identical paths pass as equivalent, so every class with a second
    # member at the label fails; the witness names the earliest representative
    monkeypatch.setattr(verify, "path_equivalent", lambda p, q: p == q)
    assert gt_witnesses("3,1,1^+", "4,1,1") == [
        "class of 2;3;3,1;3,1,1^+: member 1,1;1,1,1;2,1,1;3,1,1^+ is not equivalent",
        "class of 2;3;3,1;3,1,1^+;4,1,1: member 1,1;1,1,1;2,1,1;3,1,1^+;4,1,1 is not equivalent",
    ]


def swapped_partners(shape, _orig=yor._generator_table):
    # at the first generator with two mixing tableaux, the first two trade
    # the ranks of their swap partners; the cached table is left intact
    table = list(_orig(shape))
    for i, (distances, partners) in enumerate(table):
        mixing = [k for k, r in enumerate(distances) if r not in (1, -1)]
        if len(mixing) >= 2:
            a, b = mixing[:2]
            partners = partners[:]
            partners[a], partners[b] = partners[b], partners[a]
            table[i] = (distances, partners)
            break
    return tuple(table)


def test_fault_injection_generator_table(monkeypatch):
    monkeypatch.setattr(yor, "_generator_table", swapped_partners)
    assert [(c.subject, c.witness) for c in verify_yor(4).failures()] == [
        ("shape 2,1", "square of generator 2 is not the identity on 12/3"),
        ("shape 3,1", "square of generator 2 is not the identity on 124/3"),
        ("shape 2,2", "square of generator 2 is not the identity on 12/34"),
        ("shape 2,1,1", "square of generator 2 is not the identity on 12/3/4"),
    ]


def test_fault_injection_conjugate_table(monkeypatch):
    # each tableau is paired with the transpose of the tableau after it
    orig = associator._phi_table

    def rotated_partners(shape):
        partners, roots = orig(shape)
        return partners[1:] + partners[:1], roots

    monkeypatch.setattr(associator, "_phi_table", rotated_partners)
    assert [(c.subject, c.witness) for c in verify_associator(6).failures()] == [
        ("shape 2,1", "not a monomial pairing at 12/3"),
        ("shape 2,2", "not a monomial pairing at 12/34"),
        ("shape 3,1,1", "not a monomial pairing at 123/4/5"),
        ("shape 3,2,1", "not a monomial pairing at 123/45/6"),
        ("cover 3,1,1 up to 3,2,1", "disagrees at 123/4/5"),
    ]


def swapped_cover(shape, _orig=gt._cover_map):
    # the first two tableaux of each smaller shape land on each other's rank
    out = {}
    for below, ranks in _orig(shape).items():
        ranks = list(ranks)
        if len(ranks) >= 2:
            ranks[0], ranks[1] = ranks[1], ranks[0]
        out[below] = tuple(ranks)
    return out


def test_fault_injection_cover_map(monkeypatch):
    monkeypatch.setattr(gt, "_cover_map", swapped_cover)
    assert [(c.subject, c.witness) for c in verify_associator(6).failures()] == [
        ("cover 2,1 up to 2,2", "disagrees at 12/3"),
        ("cover 3,1,1 up to 3,2,1", "disagrees at 123/4/5"),
    ]
    assert gt_witnesses("2,2^+", "3,1,1^+", "4,1,1") == [
        "not a +1 eigenvector on 2;2,1^+;2,2^+",
        "support of 2;3;3,1;3,1,1^+ strays at level 3",
        "support of 2;3;4;4,1;4,1,1 strays at level 4",
    ]
