"""Exhaustive exact verification suites.

Every check is an exact structural equality; there are no tolerances
anywhere.  Each suite walks its shapes in deterministic order and stops at
the first failure within a shape.  The yor suite checks each shape's own
level and trusts the levels below, so a shape above a failure fails with a
witness that names it.  The other suites judge each subject on its own.

The gt suite reads each vector as the walk yields it, a map rank -> k for
the sum of i^k v_rank, so every coefficient is a unit by construction and
no check builds a Scalar: the phi eigenvector, class-mate, orthogonality
and truncation checks compare and count exponents.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import asdict, dataclass
from functools import lru_cache
from itertools import combinations

from . import associator, yor
from .geodesics import AltPath, class_members, geodesic_representatives, path_equivalent
from .gt import carry, embed, gt_vectors
from .labels import AltLabel, dagger_down_set, dim_alt, labels, level_dimension_total
from .partitions import Partition, partitions_of, self_conjugate_partitions
from .scalars import I, ONE, ZERO
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
    """First broken identity of Young's form at the shape's own level, or None.
    The shapes one box below are taken as checked: once s_1..s_(n-2) act on each
    embedded one as they do there, only s = s_(n-1) and X_n = s X_(n-1) s + s are left."""
    n, s, basis = shape.n, shape.n - 1, enumerate_syt(shape)
    for below in shape.down_set():
        for k in range(len(enumerate_syt(below))):
            e = GTVector._trusted(below, {k: ONE})
            up = embed(e, shape)
            for i in range(1, s):
                if yor.act_simple(i, up) != embed(yor.act_simple(i, e), shape):
                    return f"generator {i} does not restrict to shape {below} on {up.support()[0]}"
    units = [GTVector._trusted(shape, {k: ONE}) for k in range(len(basis))]
    images = [yor.act_simple(s, e) for e in units]
    # X_(n-1) scales v_u by the content (column - row) of n - 1 in u, as
    # checked one level down; X_n must scale v_T by the content of n in T
    contents = [[col - row for row, col in map(t.position, (s, n))] for t in basis]
    for k, (t, e, image) in enumerate(zip(basis, units, images)):
        for u, c in sorted(image._terms.items()):
            if c != c.conjugate() or images[u]._terms.get(k, ZERO) != c:
                return f"generator {s} is not real symmetric at entry ({basis[u]}, {t})"
        if yor.act_simple(s, image) != e:
            return f"square of generator {s} is not the identity on {t}"
        if n > 2 and yor.act_word((s - 1, s, s - 1), e) != yor.act_word((s, s - 1), image):
            return f"braid at {s - 1} fails on {t}"
        for i in range(1, s - 1):
            if yor.act_simple(i, image) != yor.act_word((s, i), e):
                return f"commutation ({i},{s}) fails on {t}"
        terms = {u: c * contents[u][0] for u, c in image._terms.items() if contents[u][0]}
        top = yor.act_simple(s, GTVector._trusted(shape, terms)) + image
        if top != e.scale(contents[k][1]):
            return f"Jucys-Murphy element X_{n} does not act by {contents[k][1]} on {t}"
    return None


def verify_yor(max_n: int) -> Report:
    """Young's form on every shape with 2 <= n <= max_n, one level at a time.
    A shape passes only if every shape below it passed; otherwise its
    witness names a failed one."""
    if max_n < 2:
        raise ValueError(f"max_n must be at least 2, got {max_n}")
    checks, failed = [], set()
    for n in range(2, max_n + 1):
        for shape in partitions_of(n):
            below = next((p for p in shape.down_set() if p in failed), None)
            failure = _yor_failure(shape) if below is None else f"shape {below} below fails"
            if failure is not None:
                failed.add(shape)
            checks.append(_check("yor", f"shape {shape}", failure))
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
    p: AltPath, base: dict[int, int], mate: AltPath, other: dict[int, int]
) -> str | None:
    """First failed check of one class mate against its representative, or
    None.  Both vectors are exponent maps rank -> k for i^k, so the mate is
    a unit multiple i^j of the representative exactly when every exponent
    moves by the same j."""
    if not path_equivalent(p, mate):
        return f"class of {p}: member {mate} is not equivalent"
    if other.keys() != base.keys():
        return f"class of {p} has mismatched supports"
    first = next(iter(base))
    ratio = (other[first] - base[first]) & 3
    if other != ({r: (k + ratio) & 3 for r, k in base.items()} if ratio else base):
        return f"class of {p}: members not proportional"
    return None


def _skew_pairs(vectors: list[dict[int, int]]) -> list[tuple[int, int]]:
    """The index pairs a < b of exponent maps that are not orthogonal.  Two
    vectors that share no rank are orthogonal, so only the pairs that do are
    counted: their inner product is the sum of i^(kb - ka) over the shared
    ranks, zero exactly when the differences 0 and 2 are equally many, and
    so are 1 and 3."""
    holders = defaultdict(list)
    for a, v in enumerate(vectors):
        for r, k in v.items():
            holders[r].append((a, k))
    counts = defaultdict(lambda: [0, 0, 0, 0])
    for held in holders.values():
        for (a, ka), (b, kb) in combinations(held, 2):
            counts[a, b][(kb - ka) & 3] += 1
    return [pair for pair, (c0, c1, c2, c3) in counts.items() if c0 != c2 or c1 != c3]


@lru_cache(maxsize=None)
def _path_count(label: AltLabel) -> int:
    """The number of paths ending at a label, counted without building them."""
    return 1 if label.n == 2 else sum(map(_path_count, dagger_down_set(label)))


def _gt_failure(label: AltLabel) -> str | None:
    """First failed check of the basis attached to one label, or None."""
    paths = geodesic_representatives(label)
    if len(paths) != dim_alt(label):
        return f"{len(paths)} classes, expected dimension {dim_alt(label)}"
    shape = label.partition
    vectors = list(gt_vectors(paths))
    for p, v in zip(paths, vectors):
        if not v:
            return f"zero vector on {p}"
    # every term's partial shapes must follow the path up to conjugation;
    # one walk of each tableau's word keeps the row counts of its prefix
    basis = enumerate_syt(shape)
    for p, v in zip(paths, vectors):
        steps = [(step.n, step.partition.parts, step.partition.conjugate().parts) for step in p]
        for r in v:
            counts = [1]
            for (n, parts, conjugate), row in zip(steps, basis[r].word[1:]):
                if row < len(counts):
                    counts[row] += 1
                else:
                    counts.append(1)
                prefix = tuple(counts)
                if prefix != parts and prefix != conjugate:
                    return f"support of {p} strays at level {n}"
    if label.is_signed():
        for p, v in zip(paths, vectors):
            # phi(v) = -v adds 2 to every exponent
            expected = v if label.sign == 1 else {r: (k + 2) & 3 for r, k in v.items()}
            if associator.phi_exponents(shape, v) != expected:
                return f"not a {label.sign:+d} eigenvector on {p}"
    skew = _skew_pairs(vectors)
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
    failed, witness = len(paths), None
    for (mate, r), other in zip(tagged, gt_vectors(mate for mate, _ in tagged)):
        if r < failed:
            failure = _mate_failure(paths[r], vectors[r], mate, other)
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
        up = carry(shorter, prev.partition, shape)
        if not head.is_signed() or prev.is_signed():
            if v != up:
                return f"{p} does not extend its truncation"
        # the support check puts v on the blocks over prev and over its conjugate,
        # and the eigenvector check pairs them through phi, so each holds half of v:
        # v restricts to shorter, its block over prev being up, exactly when up's
        # terms are among v's and number half of them
        elif len(v) != 2 * len(up) or not up.items() <= v.items():
            return f"{p} does not restrict to its truncation"
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
