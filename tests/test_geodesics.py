import pytest

from altgt import geodesics
from altgt.geodesics import (
    AltPath,
    class_members,
    class_size,
    enumerate_paths,
    geodesic_representatives,
    path_equivalent,
)
from altgt.labels import AltLabel, dagger_down_set, dim_alt, labels
from oracles import branch_count_r, brute_force_class_members, class_signature, equivalent


def path(text):
    return AltPath.parse(text)


def test_parse_and_render():
    p = path("1,1;2,1^+;2,1,1;3,1,1^+;4,1,1")
    assert str(p) == "1,1;2,1^+;2,1,1;3,1,1^+;4,1,1"
    assert p.n == 6
    assert str(p.endpoint) == "4,1,1"
    assert len(p) == 5
    assert [str(x) for x in p] == ["1,1", "2,1^+", "2,1,1", "3,1,1^+", "4,1,1"]
    # each label drops its own surrounding whitespace
    assert path(" 1,1 ; 2,1^+\n") == path("1,1;2,1^+")


def test_validation():
    with pytest.raises(ValueError):
        path("2;4")  # level gap
    with pytest.raises(ValueError):
        path("2;3;3,1;2,1,1,1")  # not a branching step
    with pytest.raises(ValueError):
        path("2;2,1^+;2,2^-")  # sign flip along self-conjugate covers
    with pytest.raises(ValueError):
        path("3;3,1")  # must start at level 2
    with pytest.raises(ValueError):
        path("")
    with pytest.raises(ValueError):
        AltPath(())


def test_truncated_and_extended():
    p = path("2;3;3,1;4,1;4,1,1")
    shorter = AltPath(p[:-1])
    assert str(shorter) == "2;3;3,1;4,1"
    assert AltPath(shorter + (AltLabel.parse("4,1,1"),)) == p
    with pytest.raises(ValueError):
        AltPath(path("2")[:-1])
    with pytest.raises(ValueError):
        AltPath(p + (AltLabel.parse("4,1,1"),))  # wrong size for the next level
    with pytest.raises(ValueError):
        AltPath(shorter + (AltLabel.parse("3,3"),))  # not a branching step


def test_path_links_are_dagger_down_set_membership():
    # a checked path takes one more label exactly when its endpoint is in
    # that label's down set
    for n in range(3, 8):
        for below in labels(n - 1):
            prefix = geodesic_representatives(below)[0]
            for above in labels(n):
                if below in dagger_down_set(above):
                    assert AltPath(prefix + (above,)).endpoint is above
                else:
                    with pytest.raises(ValueError, match="does not branch from"):
                        AltPath(prefix + (above,))


def test_enumerate_small():
    assert [str(p) for p in enumerate_paths(AltLabel.parse("2,1^+"))] == [
        "2;2,1^+",
        "1,1;2,1^+",
    ]
    assert [str(p) for p in enumerate_paths(AltLabel.parse("3,1"))] == [
        "2;3;3,1",
        "2;2,1^+;3,1",
        "2;2,1^-;3,1",
        "1,1;2,1^+;3,1",
        "1,1;2,1^-;3,1",
    ]


def test_path_equivalence():
    a = path("1,1;2,1^+;2,1,1;3,1,1^+;4,1,1")
    b = path("2;2,1^+;3,1;3,1,1^+;4,1,1")
    c = path("1,1;2,1^-;2,1,1;3,1,1^+;4,1,1")
    assert path_equivalent(a, b)
    assert not path_equivalent(a, c)  # signs must match exactly
    assert path_equivalent(a, a)
    with pytest.raises(ValueError):
        path_equivalent(a, path("2;3;3,1"))


def test_path_equivalence_matches_componentwise_oracle():
    for n in range(2, 8):
        for label in labels(n):
            found = enumerate_paths(label)
            for p in found:
                for q in found:
                    expected = all(equivalent(x, y) for x, y in zip(p, q))
                    assert path_equivalent(p, q) == expected
                if n > 2:
                    with pytest.raises(ValueError, match="paths of different lengths"):
                        path_equivalent(p, AltPath(p[:-1]))


def test_class_signature_constant_on_members():
    p = path("1,1;2,1^+;2,1,1;3,1,1^+;4,1,1")
    sig = class_signature(p)
    for member in class_members(p):
        assert class_signature(member) == sig


def test_frozen_eight_member_class():
    p = path("1,1;2,1^+;2,1,1;3,1,1^+;4,1,1")
    assert branch_count_r(p) == 2
    members = [str(q) for q in brute_force_class_members(p)]
    assert members == [
        "2;2,1^+;3,1;3,1,1^+;4,1,1",
        "2;2,1^+;3,1;3,1,1^+;3,1,1,1",
        "2;2,1^+;2,1,1;3,1,1^+;4,1,1",
        "2;2,1^+;2,1,1;3,1,1^+;3,1,1,1",
        "1,1;2,1^+;3,1;3,1,1^+;4,1,1",
        "1,1;2,1^+;3,1;3,1,1^+;3,1,1,1",
        "1,1;2,1^+;2,1,1;3,1,1^+;4,1,1",
        "1,1;2,1^+;2,1,1;3,1,1^+;3,1,1,1",
    ]
    assert class_size(p) == 8
    # the run holding the unsigned endpoint stays, so half end at 4,1,1
    assert [str(q) for q in class_members(p)] == [
        "2;2,1^+;3,1;3,1,1^+;4,1,1",
        "2;2,1^+;2,1,1;3,1,1^+;4,1,1",
        "1,1;2,1^+;3,1;3,1,1^+;4,1,1",
        "1,1;2,1^+;2,1,1;3,1,1^+;4,1,1",
    ]


def test_class_members_cover_enumeration():
    for n in range(2, 7):
        for label in labels(n):
            for p in enumerate_paths(label):
                members = class_members(p)
                assert p in members
                for q in members:
                    assert q.endpoint == label
                    assert path_equivalent(p, q)


def test_class_size_power_of_two():
    for n in range(2, 7):
        for label in labels(n):
            for p in enumerate_paths(label):
                r = branch_count_r(p)
                assert class_size(p) == len(brute_force_class_members(p)) == 2 ** (r + 1)


def test_class_size_counts_the_members():
    for n in range(2, 9):
        for label in labels(n):
            for p in geodesic_representatives(label):
                assert class_size(p) == len(brute_force_class_members(p))


def test_class_members_are_half_the_class_at_unsigned_endpoints():
    # a signed endpoint closes the last run, so every member ends there;
    # an unsigned one keeps its run, so half of the class does
    for n in range(2, 10):
        for label in labels(n):
            for p in geodesic_representatives(label):
                expected = class_size(p) if label.is_signed() else class_size(p) // 2
                assert len(class_members(p)) == expected


def test_class_size_matches_brute_force():
    for n in range(2, 7):
        for label in labels(n):
            for p in enumerate_paths(label):
                assert class_size(p) == len(brute_force_class_members(p))


def test_representative_counts_match_dimension():
    for n in range(2, 8):
        for label in labels(n):
            assert len(geodesic_representatives(label)) == dim_alt(label)


def test_a_path_is_the_tuple_of_its_labels():
    for n in range(2, 9):
        for label in labels(n):
            for p in geodesic_representatives(label):
                assert type(p) is AltPath and not hasattr(p, "__dict__")
                assert p == tuple(p) and hash(p) == hash(tuple(p))
                assert p.endpoint is label and p.n == n


def test_geodesic_representatives_are_minimal():
    assert len(geodesic_representatives(AltLabel.parse("4,1,1"))) == 10
    for n in range(2, 10):
        for label in labels(n):
            reps = geodesic_representatives(label)
            assert len({class_signature(p) for p in reps}) == len(reps)
            for p in reps:
                assert p.endpoint == label
                assert p == class_members(p)[0]


def test_representatives_small_frozen():
    reps = [str(p) for p in geodesic_representatives(AltLabel.parse("2,1,1"))]
    assert reps == [
        "2;2,1^+;2,1,1",
        "2;2,1^-;2,1,1",
        "1,1;1,1,1;2,1,1",
    ]


def first_of_class_mismatches(max_n):
    """Labels with n <= max_n whose representatives differ from the first
    member of each class among all paths ending there."""
    mismatched = []
    for n in range(2, max_n + 1):
        for label in labels(n):
            expected, seen = [], set()
            for p in enumerate_paths(label):
                if class_signature(p) not in seen:
                    seen.add(class_signature(p))
                    expected.append(p)
            if list(geodesic_representatives(label)) != expected:
                mismatched.append(label)
    return mismatched


def test_representatives_match_first_of_class_filter():
    assert first_of_class_mismatches(10) == []


def test_first_of_class_filter_catches_a_rule_on_run_ends(monkeypatch):
    # testing the last label of each closed run instead of its first still
    # keeps one member per class, so only the representative oracles and
    # the golden digests see it; it first picks another member at n = 10
    def last_run_end(path_labels):
        return [
            k for k, below in enumerate(path_labels)
            if not below.is_signed()
            and (k + 1 == len(path_labels) or path_labels[k + 1].is_signed())
        ][-1]

    geodesics.geodesic_representatives.cache_clear()
    monkeypatch.setattr(geodesics, "_last_run_start", last_run_end)
    try:
        mismatched = first_of_class_mismatches(10)
        assert [str(label) for label in mismatched] == ["4,3,2,1^+", "4,3,2,1^-"]
        for label in mismatched:
            assert len(geodesic_representatives(label)) == dim_alt(label)
    finally:
        geodesics.geodesic_representatives.cache_clear()


def test_last_run_start_reads_the_last_run_start():
    for n in range(2, 9):
        for label in labels(n):
            for p in enumerate_paths(label):
                assert geodesics._last_run_start(p) == geodesics._run_starts(p)[-1]


def test_class_members_match_product_filter():
    for n in range(2, 9):
        for label in labels(n):
            for p in geodesic_representatives(label):
                brute = [q for q in brute_force_class_members(p) if q.endpoint == label]
                assert list(class_members(p)) == brute


def test_class_members_match_validated_paths():
    for n in range(2, 8):
        for label in labels(n):
            for p in geodesic_representatives(label):
                for member in class_members(p):
                    assert member == AltPath(member)
