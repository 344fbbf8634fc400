"""Exhaustive exact verification suites.

Every check is an exact structural equality; there are no tolerances
anywhere.  Each suite walks its shapes in deterministic order, stops at the
first failure within a shape, and keeps going across shapes so a report
collects every counterexample.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import asdict, dataclass

from . import associator, yor
from .geodesics import AltPath, class_members, geodesic_representatives, path_equivalent
from .gt import embed, gt_vectors, restrict
from .labels import AltLabel, dagger_down_set, dim_alt, labels, level_dimension_total
from .partitions import Partition, cached_upward, partitions_of, self_conjugate_partitions
from .scalars import I, ONE, ZERO, Scalar
from .tableaux import enumerate_syt, reference_tableau
from .yor import GTVector


@dataclass(frozen=True)
class Check:
    suite: str
    subject: str
    status: str  # "pass" or "fail"
    witness: str | None = None

    def line(self) -> str:
        text = f"{self.status.upper():4s} {self.suite:5s} {self.subject}"
        if self.witness:
            text += f"  [{self.witness}]"
        return text

    def to_json_dict(self) -> dict:
        return asdict(self)


def _check(suite: str, subject: str, failure: str | None) -> Check:
    """A passing check, or a failing one whose witness is the failure."""
    return Check(suite, subject, "pass" if failure is None else "fail", failure)


@dataclass
class Report:
    checks: list[Check]

    @property
    def ok(self) -> bool:
        return all(c.status == "pass" for c in self.checks)

    def failures(self) -> list[Check]:
        return [c for c in self.checks if c.status != "pass"]

    def extend(self, other: "Report") -> None:
        self.checks.extend(other.checks)

    def lines(self) -> list[str]:
        out = [c.line() for c in self.checks]
        bad = len(self.failures())
        out.append(f"{len(self.checks)} checks, {bad} failures")
        return out

    def to_json_dict(self) -> dict:
        return {"ok": self.ok, "checks": [c.to_json_dict() for c in self.checks]}


# the anchor-tableau coefficients for every self-conjugate shape with n < 10
FOURTH_ROOT_TABLE = {
    "2,1": I,
    "2,2": I,
    "3,1,1": -ONE,
    "3,2,1": -ONE,
    "4,1,1,1": -I,
    "4,2,1,1": -I,
    "3,3,2": -I,
    "3,3,3": -I,
    "5,1,1,1,1": ONE,
}


def _yor_failure(shape: Partition) -> str | None:
    """First broken defining identity of the orthogonal representation,
    checked on every tableau basis vector, or None."""
    n = shape.n
    basis = enumerate_syt(shape)
    units = [GTVector._trusted(shape, {k: ONE}) for k in range(len(basis))]
    # columns[i][k] is the image of the k-th basis vector under generator i
    columns = {i: [yor.act_simple(i, e) for e in units] for i in range(1, n)}
    for i, column in columns.items():
        for k, image in enumerate(column):
            for u, c in sorted(image._terms.items()):
                if c != c.conjugate() or column[u]._terms.get(k, ZERO) != c:
                    return f"generator {i} is not real symmetric at entry ({basis[u]}, {basis[k]})"
    for i, column in columns.items():
        for k, image in enumerate(column):
            if yor.act_simple(i, image) != units[k]:
                return f"square of generator {i} is not the identity on {basis[k]}"
    for i in range(1, n - 1):
        for k, t in enumerate(basis):
            lhs = yor.act_word((i, i + 1), columns[i][k])
            if lhs != yor.act_word((i + 1, i), columns[i + 1][k]):
                return f"braid at {i} fails on {t}"
    for i in range(1, n):
        for j in range(i + 2, n):
            for k, t in enumerate(basis):
                lhs = yor.act_simple(i, columns[j][k])
                if lhs != yor.act_simple(j, columns[i][k]):
                    return f"commutation ({i},{j}) fails on {t}"
    return None


def verify_yor(max_n: int) -> Report:
    """Defining identities of the orthogonal representation for all shapes
    with 2 <= n <= max_n: symmetry, involution, braid, distant commutation."""
    if max_n < 2:
        raise ValueError(f"max_n must be at least 2, got {max_n}")
    checks: list[Check] = []
    for n in range(2, max_n + 1):
        for shape in partitions_of(n):
            checks.append(_check("yor", f"shape {shape}", _yor_failure(shape)))
    return Report(checks)


def _phi_failure(shape: Partition) -> str | None:
    """First broken identity of the intertwiner on a self-conjugate shape,
    checked on every tableau basis vector, or None.

    A map that sends each e_t to a multiple of e_(t transposed) and squares
    to the identity has one +1 and one -1 eigenvector per transpose pair, so
    the pairing and square checks already force the even eigenspace split.
    """
    basis = enumerate_syt(shape)
    units = [GTVector._trusted(shape, {k: ONE}) for k in range(len(basis))]
    images = [associator.apply_phi(e) for e in units]
    for t, image in zip(basis, images):
        if image.support() != (t.conjugate(),):
            return f"not a monomial pairing at {t}"
    for t, e, image in zip(basis, units, images):
        if associator.apply_phi(image) != e:
            return f"square is not the identity on {t}"
    for i in range(1, shape.n):
        for t, e, image in zip(basis, units, images):
            one = yor.act_simple(i, image)
            other = associator.apply_phi(yor.act_simple(i, e))
            if not (one + other).is_zero():
                return f"generator {i} does not anticommute with phi on {t}"
    expected = FOURTH_ROOT_TABLE.get(str(shape))
    if expected is not None:
        got = associator.assoc_coeff(reference_tableau(shape))
        if got != expected:
            return f"anchor coefficient {got}, expected {expected}"
    return None


def verify_associator(max_n: int) -> Report:
    """Identities of the intertwiner for self-conjugate shapes with n <= max_n:
    monomial pairing, involution, anticommutation, anchor coefficients, and
    compatibility along self-conjugate covers."""
    if max_n < 3:
        raise ValueError(f"max_n must be at least 3, got {max_n}")
    checks: list[Check] = []
    for n in range(3, max_n + 1):
        for shape in self_conjugate_partitions(n):
            checks.append(_check("assoc", f"shape {shape}", _phi_failure(shape)))
        # cover compatibility: the intertwiner commutes with adding the
        # final diagonal box
        for shape in self_conjugate_partitions(n):
            small = shape.self_conjugate_below()
            if small is None:
                continue
            failure = None
            for k, t in enumerate(enumerate_syt(small)):
                e = GTVector._trusted(small, {k: ONE})
                one = associator.apply_phi(embed(e, shape))
                other = embed(associator.apply_phi(e), shape)
                if one != other:
                    failure = f"disagrees at {t}"
                    break
            checks.append(_check("assoc", f"cover {small} up to {shape}", failure))
    return Report(checks)


def _mate_failure(
    p: AltPath, base: GTVector, first: int, mate: AltPath, other: GTVector
) -> str | None:
    """First failed check of one class mate against its representative, or
    None.  first is the lowest rank of base, whose coefficients are units,
    so conjugating inverts them."""
    if not path_equivalent(p, mate):
        return f"class of {p}: member {mate} is not equivalent"
    if other._terms.keys() != base._terms.keys():
        return f"class of {p} has mismatched supports"
    ratio = other._terms[first] * base._terms[first].conjugate()
    if not ratio.is_fourth_root():
        return f"class of {p}: ratio {ratio} is not a unit"
    if any(other._terms[t] != c.times_fourth_root(ratio) for t, c in base._terms.items()):
        return f"class of {p}: members not proportional"
    return None


@cached_upward(dagger_down_set, 2)
def _path_count(label: AltLabel) -> int:
    """The number of paths ending at a label, counted without building them."""
    return 1 if label.n == 2 else sum(map(_path_count, dagger_down_set(label)))


def _gt_failure(label: AltLabel) -> str | None:
    """First failed check of the basis attached to one label, or None."""
    paths = geodesic_representatives(label)
    vectors = list(gt_vectors(paths))
    if len(paths) != dim_alt(label):
        return f"{len(paths)} classes, expected dimension {dim_alt(label)}"
    for p, v in zip(paths, vectors):
        if not v._terms:
            return f"zero vector on {p}"
        if not all(c.is_fourth_root() for c in v._terms.values()):
            return f"non-unit coefficient on {p}"
    # every term's partial shapes must follow the path up to conjugation;
    # one walk of each tableau's word keeps the row counts of its prefix
    for p, v in zip(paths, vectors):
        steps = [(step.n, step.partition.parts, step.partition.conjugate().parts) for step in p]
        for t in v.support():
            counts = [1]
            for (n, parts, conjugate), row in zip(steps, t.word[1:]):
                if row < len(counts):
                    counts[row] += 1
                else:
                    counts.append(1)
                prefix = tuple(counts)
                if prefix != parts and prefix != conjugate:
                    return f"support of {p} strays at level {n}"
    if label.is_signed():
        for p, v in zip(paths, vectors):
            expected = v if label.sign == 1 else -v
            if associator.apply_phi(v) != expected:
                return f"not a {label.sign:+d} eigenvector on {p}"
    # two vectors that share no tableau are orthogonal, so sum conj(c_a) c_b
    # only over the pairs of vectors that hold each tableau
    holders = defaultdict(list)
    for a, v in enumerate(vectors):
        for t, c in v._terms.items():
            holders[t].append((a, c))
    inner = defaultdict(Scalar)
    for held in holders.values():
        for k, (a, ca) in enumerate(held):
            for b, cb in held[k + 1:]:
                inner[a, b] += ca.conjugate() * cb
    skew = [pair for pair, total in inner.items() if not total.is_zero()]
    if skew:
        a, b = min(skew)
        return f"vectors for {paths[a]} and {paths[b]} not orthogonal"
    if label.n < 3:
        return None
    # equivalent paths ending here must give the same vector up to a fourth
    # root of unity.  The members of each class that end here are built in
    # one sorted pass, so classes share their prefixes; the witness is the
    # first failure of the earliest failing class.
    tagged = sorted(
        ((mate, r) for r, p in enumerate(paths) for mate in class_members(p)),
        key=lambda pair: pair[0].sort_key(),
    )
    firsts = [min(v._terms) for v in vectors]
    failed, witness = len(paths), None
    for (mate, r), other in zip(tagged, gt_vectors(mate for mate, _ in tagged)):
        if r < failed:
            failure = _mate_failure(paths[r], vectors[r], firsts[r], mate, other)
            if failure is not None:
                failed, witness = r, failure
    if witness is not None:
        return witness
    # the classes split the paths ending here: as many mates, none twice
    mates = [mate for mate, _ in tagged]
    if len(mates) != _path_count(label):
        return f"classes hold {len(mates)} mates of {_path_count(label)} paths"
    for mate, after in zip(mates, mates[1:]):
        if mate == after:
            return f"classes list {mate} twice"
    # walking one step back down the path must recover the shorter vector
    truncations = gt_vectors(AltPath._trusted(p.labels[:-1]) for p in paths)
    for p, v, shorter in zip(paths, vectors, truncations):
        head, prev = p.labels[-1], p.labels[-2]
        if not head.is_signed() or prev.is_signed():
            if v != embed(shorter, head.partition):
                return f"{p} does not extend its truncation"
        else:
            if restrict(v, prev.partition) != shorter:
                return f"{p} does not restrict to its truncation"
            carried = embed(shorter, head.partition)
            mirrored = associator.apply_phi(carried)
            rebuilt = carried + mirrored if head.sign == 1 else carried - mirrored
            if v != rebuilt:
                return f"{p} is not the eigenspace completion"
    return None


def verify_gt(label: AltLabel) -> Report:
    """Full exact audit of the basis attached to one label."""
    return Report([_check("gt", f"label {label}", _gt_failure(label))])


def verify_gt_range(max_n: int) -> Report:
    """verify_gt over every label with 2 <= n <= max_n, plus the level
    dimension count sum(dim^2) = n!/2."""
    if max_n < 2:
        raise ValueError(f"max_n must be at least 2, got {max_n}")
    report = Report([])
    for n in range(2, max_n + 1):
        total, expected = level_dimension_total(n)
        failure = None if total == expected else f"sum of squares {total}, expected {expected}"
        report.checks.append(_check("gt", f"level {n} dimension count", failure))
        for label in labels(n):
            report.extend(verify_gt(label))
    return report
