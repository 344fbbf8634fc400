"""Labels for irreducible representations of alternating groups, and the
branching relation between consecutive levels.

A partition that differs from its conjugate labels one representation and is
written plain; a self-conjugate partition splits into two, written with a
sign tag ("2,1^+", "2,1^-").  Two labels at the same level are equivalent
when equal or conjugate; conjugation fixes each signed label.

There is one object per label, so equality is identity.  Hash, sort key and
text are read from content, never from ids: a label hashes its partition's
parts and an integer sign code, not None, whose hash is its address before
Python 3.12.  So no hash order, sort or output depends on which object came
first or on the run.

Branching from level n to n-1 (the dagger relation) follows containment of
the underlying partitions:

* unsigned alpha over unsigned beta: beta is alpha with one box removed;
* unsigned alpha over a self-conjugate mu in its down set: both mu^+ and mu^-;
* signed lambda^e over unsigned beta: beta in the down set of lambda;
* signed lambda^e over signed mu^e: (mu, lambda) a self-conjugate cover,
  same sign only.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .partitions import Partition, partitions_of, revlex_key
from .tableaux import syt_count

_SIGN_CHARS = {1: "+", -1: "-"}
_SIGN_COLORS = {1: "red", -1: "green"}
_INTERNED: dict[tuple[Partition, int | None], "AltLabel"] = {}


class AltLabel:
    """A partition plus an optional sign; signed iff self-conjugate.

    One object per label: the constructor checks the sign's type (True == 1),
    returns the stored object for each (partition, sign) and validates the
    rest only on first sight, so `==` is identity.  Computed once, from
    content: the sort key (rev-lex partition, then + before -), the hash of
    the partition and the sign code (0 when unsigned) and the text ("2,1^+").
    Copy and pickle rebuild a label through the constructor, so they give
    back the stored object.
    """

    __slots__ = ("_partition", "_sign", "_sort_key", "_hash", "_text")

    def __new__(cls, partition: Partition, sign: int | None = None) -> "AltLabel":
        if not (sign is None or (type(sign) is int and sign in (1, -1))):
            raise ValueError(f"sign must be None, 1 or -1, got {sign!r}")
        label = _INTERNED.get((partition, sign))
        if label is not None:
            return label
        if partition.is_self_conjugate():
            if sign is None:
                raise ValueError(f"self-conjugate partition {partition} needs a sign")
        elif sign is not None:
            raise ValueError(f"partition {partition} is not self-conjugate; no sign allowed")
        label = super().__new__(cls)
        label._partition = partition
        label._sign = sign
        label._sort_key = (revlex_key(partition), 0 if sign in (None, 1) else 1)
        label._hash = hash((partition, sign or 0))
        label._text = str(partition) if sign is None else f"{partition}^{_SIGN_CHARS[sign]}"
        _INTERNED[partition, sign] = label
        return label

    def __reduce__(self):
        return AltLabel, (self._partition, self._sign)

    @classmethod
    def parse(cls, text: str) -> "AltLabel":
        text = text.strip()
        if not text.isascii():
            raise ValueError(f"label {text!r} contains non-ASCII characters; "
                             "write signs as ^+ or ^-")
        head, sep, tail = text.partition("^")
        partition = Partition.parse(head)
        if partition.n < 2:
            raise ValueError(f"label {text!r} is at level {partition.n}; labels start at level 2")
        if not sep:
            return cls(partition)
        if tail == "+":
            return cls(partition, 1)
        if tail == "-":
            return cls(partition, -1)
        raise ValueError(f"invalid sign {tail!r} in label {text!r}")

    @property
    def partition(self) -> Partition:
        return self._partition

    @property
    def sign(self) -> int | None:
        return self._sign

    @property
    def n(self) -> int:
        return self._partition.n

    def is_signed(self) -> bool:
        return self._sign is not None

    def sort_key(self):
        return self._sort_key

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return self._text

    def __repr__(self) -> str:
        return f"AltLabel.parse({str(self)!r})"

    def to_json(self) -> dict:
        return {
            "partition": self._partition.to_json(),
            "sign": None if self._sign is None else _SIGN_CHARS[self._sign],
        }

    def latex(self) -> str:
        head, sep, sign = self._text.partition("^")
        return f"({head}){sep}{sign}"


def _labels_of(partition: Partition, signs: tuple[int, ...]) -> tuple[AltLabel, ...]:
    """The partition's label if it is not self-conjugate, else one per sign."""
    if partition.is_self_conjugate():
        return tuple(AltLabel(partition, sign) for sign in signs)
    return (AltLabel(partition),)


@lru_cache(maxsize=None)
def labels(n: int) -> tuple[AltLabel, ...]:
    """All labels at level n >= 2, partitions in rev-lex order, + before -."""
    if n < 2:
        raise ValueError(f"labels are defined for n >= 2, got {n}")
    return tuple(label for p in partitions_of(n) for label in _labels_of(p, (1, -1)))


@lru_cache(maxsize=None)
def dagger_down_set(label: AltLabel) -> tuple[AltLabel, ...]:
    """Labels at level n-1 lying under this one, in deterministic order."""
    if label.n < 3:
        raise ValueError(f"branching needs level >= 3, got {label.n}")
    signs = (label.sign,) if label.is_signed() else (1, -1)
    out = [below for p in label.partition.down_set() for below in _labels_of(p, signs)]
    return tuple(sorted(out, key=AltLabel.sort_key))


def dim_alt(label: AltLabel) -> int:
    """Dimension: the tableau count of the partition, halved when signed."""
    count = syt_count(label.partition)
    if label.is_signed():
        if count % 2:
            raise RuntimeError(f"odd tableau count {count} for signed label {label}")
        return count // 2
    return count


@lru_cache(maxsize=None)
def conjugate_label(label: AltLabel) -> AltLabel:
    """The label of the conjugate partition; signed labels are fixed."""
    return label if label.is_signed() else AltLabel(label.partition.conjugate())


@lru_cache(maxsize=None)
def canonical_label(label: AltLabel) -> AltLabel:
    """The member of the label's equivalence class that sorts first."""
    return min(label, conjugate_label(label), key=AltLabel.sort_key)


class BranchingGraph:
    """Levelled graph used for DOT and JSON emission, built from the nodes of
    each level (lowest first) and `down`, which maps a node to the nodes one
    level below it.  Edges ((n, name), (n - 1, name)) are deduplicated and
    sorted; a node with a sign is colored red for + and green for -."""

    def __init__(self, chain: str, levels, down):
        self.chain = chain
        self.levels = [(n, tuple(map(str, nodes))) for n, nodes in levels]
        self.edges = tuple(sorted({((n, str(hi)), (n - 1, str(lo)))
                                   for n, nodes in levels[1:] for hi in nodes for lo in down(hi)}))
        self.colors = {(n, str(node)): _SIGN_COLORS[node.sign]
                       for n, nodes in levels for node in nodes if getattr(node, "sign", None)}

    @staticmethod
    def node_id(n: int, name: str) -> str:
        return f"{n}:{name}"

    def to_dot(self) -> str:
        lines = [f"graph {self.chain} {{", "  rankdir=BT;", "  node [shape=box];"]
        for n, names in self.levels:
            for name in names:
                nid = self.node_id(n, name)
                color = self.colors.get((n, name))
                attrs = f'label="{name}"'
                if color:
                    attrs += f", color={color}, fontcolor={color}"
                lines.append(f'  "{nid}" [{attrs}];')
            same = "; ".join(f'"{self.node_id(n, name)}"' for name in names)
            lines.append(f"  {{ rank=same; {same}; }}")
        for (n_hi, hi), (n_lo, lo) in self.edges:
            lines.append(f'  "{self.node_id(n_hi, hi)}" -- "{self.node_id(n_lo, lo)}";')
        lines.append("}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "chain": self.chain,
            "levels": {str(n): list(names) for n, names in self.levels},
            "edges": [
                [self.node_id(n_hi, hi), self.node_id(n_lo, lo)]
                for (n_hi, hi), (n_lo, lo) in self.edges
            ],
        }


def bratteli(max_n: int) -> BranchingGraph:
    """Branching graph of the alternating chain on levels 2..max_n: passes the
    canonical labels, one per class, each mapped to the canonical images of its
    dagger down set, since branching commutes with conjugation."""
    if max_n < 2:
        raise ValueError(f"max_n must be at least 2, got {max_n}")
    levels = [(n, [label for label in labels(n) if canonical_label(label) == label])
              for n in range(2, max_n + 1)]
    return BranchingGraph("alternating", levels,
                          lambda label: map(canonical_label, dagger_down_set(label)))


def young_graph(max_n: int) -> BranchingGraph:
    """Branching graph of the symmetric chain on levels 1..max_n: passes the
    partitions of each level and maps each to its down set."""
    if max_n < 1:
        raise ValueError(f"max_n must be at least 1, got {max_n}")
    levels = [(n, partitions_of(n)) for n in range(1, max_n + 1)]
    return BranchingGraph("symmetric", levels, Partition.down_set)


def level_dimension_total(n: int) -> tuple[int, int]:
    """(sum of dim^2 over equivalence classes at level n, n!/2)."""
    total = 0
    for label in labels(n):
        if canonical_label(label) == label:
            total += dim_alt(label) ** 2
    return total, math.factorial(n) // 2
