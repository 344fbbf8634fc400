"""Seeded op lists for the three benchmark workloads.

This module does not import altgt: it builds labels, dimensions and argv
lists with its own partition arithmetic, so the program under test sees only
the generated inputs.

Labels are drawn in twin pairs: {lam, lam'} for a partition that differs from
its conjugate, {lam^+, lam^-} for a self-conjugate one.  The members of a
pair have the same level and dimension and cost about the same to build, so
the seed can choose between them without moving the amount of work in a run.
Which pairs a workload uses, each op's kind and format, and the op order
(ascending level, then dimension) are fixed, so that the cold-cache cost of
a round lands on the same ops for every seed (see README.md).
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("label-basis", "rep-audit", "basis-audit")
GT_FORMATS = ("text", "json", "latex")

# (level, stride, offset): take every stride-th twin pair of that level,
# in order of dimension, starting at offset.
LABEL_BASIS_PAIRS = ((8, 2, 1), (9, 2, 1), (10, 4, 2))
BASIS_AUDIT_PAIRS = ((7, 1, 0), (8, 2, 1), (9, 4, 2))
# rep-audit runs the yor suite to n = 7, not 8: the n = 8 audit takes 10-15 s,
# so a run fits only 2 or 3 rounds of it, and its run-to-run spread on a
# shared 2-core machine came close to the bound (see README.md).
REP_AUDIT_MAX_N = {"yor": 7, "assoc": 8}


def partitions_of(n: int) -> list[tuple[int, ...]]:
    """Partitions of n in reverse lexicographic order."""
    out = []

    def gen(total, cap, prefix):
        if total == 0:
            out.append(tuple(prefix))
            return
        for first in range(min(total, cap), 0, -1):
            gen(total - first, first, prefix + [first])

    gen(n, n, [])
    return out


def conjugate(parts: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sum(1 for p in parts if p > j) for j in range(parts[0]))


def syt_count(parts: tuple[int, ...]) -> int:
    """Number of standard tableaux, by the hook-length formula."""
    conj = conjugate(parts)
    hooks = 1
    for r, length in enumerate(parts):
        for c in range(length):
            hooks *= (length - c - 1) + (conj[c] - r - 1) + 1
    return math.factorial(sum(parts)) // hooks


def parse_label(text: str) -> tuple[tuple[int, ...], str | None]:
    head, _, sign = text.partition("^")
    return tuple(int(p) for p in head.split(",")), sign or None


def label_dim(text: str) -> int:
    """Dimension of the A_n irreducible a label names (halved when signed)."""
    parts, sign = parse_label(text)
    count = syt_count(parts)
    return count // 2 if sign else count


def _text(parts) -> str:
    return ",".join(str(p) for p in parts)


def twin_pairs(n: int) -> list[tuple[str, str]]:
    """The twin label pairs at level n, ordered by dimension then text."""
    pairs = []
    for parts in partitions_of(n):
        conj = conjugate(parts)
        if conj == parts:
            pairs.append((f"{_text(parts)}^+", f"{_text(parts)}^-"))
        elif parts > conj:  # rev-lex earlier member first
            pairs.append((_text(parts), _text(conj)))
    pairs.sort(key=lambda pair: (label_dim(pair[0]), pair[0]))
    return pairs


def _chosen_pairs(spec) -> list[list[tuple[str, str]]]:
    return [twin_pairs(n)[offset::stride] for n, stride, offset in spec]


def _op(kind: str, label: str, argv: list[str] | None = None) -> dict:
    op = {"kind": kind, "label": label, "dim": label_dim(label)}
    if argv is not None:
        op["argv"] = argv
    return op


def _label_basis_plan(level) -> list[tuple[str, str, bool]]:
    """(kind, format, normalize) for each pair of a level: gt and paths
    alternate along the level, gt formats cycle text, json, latex, and the
    middle gt op is normalized."""
    plan = []
    gt_slots = range(0, len(level), 2)
    middle = gt_slots[len(gt_slots) // 2]
    for k in range(len(level)):
        if k % 2:
            plan.append(("paths", "text", False))
        else:
            plan.append(("gt", GT_FORMATS[k // 2 % 3], k == middle))
    return plan


def _label_basis_argv(label: str, kind: str, fmt: str, normalize: bool) -> list[str]:
    if kind == "paths":
        return ["paths", label]
    argv = ["gt", label]
    if normalize:
        argv.append("--normalize")
    if fmt != "text":
        argv += ["--format", fmt]
    return argv


def label_basis_ops(rng: random.Random) -> list[dict]:
    ops = []
    for level in _chosen_pairs(LABEL_BASIS_PAIRS):
        for pair, step in zip(level, _label_basis_plan(level)):
            label = rng.choice(pair)
            ops.append(_op("cli", label, _label_basis_argv(label, *step)))
    return ops


def basis_audit_ops(rng: random.Random) -> list[dict]:
    return [
        _op("verify_gt", rng.choice(pair))
        for level in _chosen_pairs(BASIS_AUDIT_PAIRS)
        for pair in level
    ]


def audited_tableaux(max_n: int, self_conjugate_only: bool) -> int:
    """Total tableau count of the shapes a verify suite audits."""
    first = 3 if self_conjugate_only else 2
    return sum(
        syt_count(p)
        for n in range(first, max_n + 1)
        for p in partitions_of(n)
        if not self_conjugate_only or conjugate(p) == p
    )


def rep_audit_ops() -> list[dict]:
    """The fixed exhaustive audit; it has no free inputs."""
    return [
        {"kind": "cli", "label": None,
         "argv": ["verify", "--suite", suite, "--max-n", str(max_n)],
         "dim": audited_tableaux(max_n, suite == "assoc")}
        for suite, max_n in REP_AUDIT_MAX_N.items()
    ]


def make_ops(workload: str, seed: int) -> list[dict]:
    """The op list one round of a run executes; the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "label-basis":
        return label_basis_ops(rng)
    if workload == "basis-audit":
        return basis_audit_ops(rng)
    if workload == "rep-audit":
        return rep_audit_ops()
    raise ValueError(f"unknown workload {workload!r}")


def op_key(op: dict) -> str:
    """Stable name of an op, used to look up its recorded output digest."""
    if op["kind"] == "verify_gt":
        return f"verify_gt {op['label']}"
    return " ".join(op["argv"])


def op_universe(workload: str) -> list[dict]:
    """Every op any seed can generate for a workload."""
    if workload == "rep-audit":
        return rep_audit_ops()
    if workload == "basis-audit":
        return [_op("verify_gt", label) for level in _chosen_pairs(BASIS_AUDIT_PAIRS)
                for pair in level for label in pair]
    return [_op("cli", label, _label_basis_argv(label, *step))
            for level in _chosen_pairs(LABEL_BASIS_PAIRS)
            for pair, step in zip(level, _label_basis_plan(level))
            for label in pair]
