"""Command line front end.

Exit codes: 0 on success, 1 when a verification suite reports a failure,
2 on unusable input or a shape past its command's tableau ceiling (a
one-line diagnostic names the offending token).  A reader that closes
stdout early, as `head` does, ends the run with exit 0.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache

from .associator import assoc_coeff
from .geodesics import class_size, geodesic_representatives
from .gt import gt_basis
from .labels import AltLabel, bratteli, young_graph
from .partitions import Partition
from .tableaux import enumerate_syt, syt_count
from .verify import Report, verify_associator, verify_gt_range, verify_yor
from .yor import rep_matrix

# --max-n ceilings: verify takes minutes at 12, bratteli 0.5 GB at 40
MAX_VERIFY_N = 13
MAX_BRATTELI_N = 30
# Tableau ceilings, measured so that each admitted command runs in 400 MB of
# address space.  enumerate_syt caches every level below a shape of n boxes,
# each level at most syt_count(shape) tableaux of at most n entries, so syt
# and paths are bounded on n^2 * syt_count(shape).  gt and assoc also keep a
# vector or an output row per tableau, so their ceiling on the same product
# is lower.  yor holds a dense matrix of dim^2 entries, dim = syt_count(shape).
MAX_SYT_ENTRIES = 70_000_000
MAX_GT_ENTRIES = 30_000_000
MAX_YOR_DIM = 1_500


def _check_max_n(max_n: int, ceiling: int) -> None:
    if max_n > ceiling:
        raise ValueError(f"--max-n {max_n} is above the ceiling {ceiling}")


def _check_entries(shape: Partition, name, ceiling: int) -> None:
    """Refuse the shape, named `name` in the message, when n^2 times its
    tableau count is above the ceiling; nothing is walked."""
    if shape.n ** 2 * syt_count(shape) > ceiling:
        raise ValueError(f"{name}: n^2 times the tableau count is above the ceiling {ceiling}")


def _matrix_text(mat) -> str:
    cells = [[str(x) for x in row] for row in mat]
    widths = [max(len(cells[r][c]) for r in range(len(cells))) for c in range(len(cells[0]))]
    lines = []
    for row in cells:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


def _matrix_latex(mat) -> str:
    body = " \\\\\n".join(" & ".join(x.latex() for x in row) for row in mat)
    return f"\\begin{{pmatrix}}\n{body}\n\\end{{pmatrix}}"


def _cmd_syt(args) -> int:
    shape = Partition.parse(args.shape)
    _check_entries(shape, shape, MAX_SYT_ENTRIES)
    for tableau in enumerate_syt(shape):
        print(tableau)
    return 0


def _cmd_yor(args) -> int:
    shape = Partition.parse(args.shape)
    if syt_count(shape) > MAX_YOR_DIM:
        raise ValueError(f"{shape}: the dimension is above the ceiling {MAX_YOR_DIM}")
    if not 1 <= args.gen <= shape.n - 1:
        raise ValueError(
            f"generator {args.gen} out of range 1..{shape.n - 1} for shape {shape}"
        )
    mat = rep_matrix(shape, args.gen)
    if args.format == "json":
        payload = {
            "shape": shape.to_json(),
            "generator": args.gen,
            "basis": [t.to_json() for t in enumerate_syt(shape)],
            "rows": [[x.to_json() for x in row] for row in mat],
        }
        print(json.dumps(payload, indent=2))
    elif args.format == "latex":
        print(_matrix_latex(mat))
    else:
        print(_matrix_text(mat))
    return 0


def _cmd_assoc(args) -> int:
    shape = Partition.parse(args.shape)
    _check_entries(shape, shape, MAX_GT_ENTRIES)
    if not shape.is_self_conjugate():
        raise ValueError(f"shape {shape} is not self-conjugate")
    rows = [(t, assoc_coeff(t), t.conjugate()) for t in enumerate_syt(shape)]
    if args.format == "json":
        # json.dumps(payload, indent=2) of the list of rows, a row at a time
        write, sep = sys.stdout.write, "[\n  "
        for t, c, tc in rows:
            row = {"tableau": t.to_json(), "coeff": c.to_json(), "conjugate": tc.to_json()}
            write(sep + json.dumps(row, indent=2).replace("\n", "\n  "))
            sep = ",\n  "
        write("\n]\n")
    else:
        print(_matrix_text(rows))
    return 0


def _cmd_bratteli(args) -> int:
    _check_max_n(args.max_n, MAX_BRATTELI_N)
    graph = bratteli(args.max_n) if args.chain == "alternating" else young_graph(args.max_n)
    if args.format == "json":
        print(json.dumps(graph.to_json_dict(), indent=2))
    else:
        print(graph.to_dot(), end="")
    return 0


def _cmd_paths(args) -> int:
    label = AltLabel.parse(args.label)
    _check_entries(label.partition, label, MAX_SYT_ENTRIES)
    for path in geodesic_representatives(label):
        print(f"{path}\t{class_size(path)}")
    return 0


def _cmd_gt(args) -> int:
    label = AltLabel.parse(args.label)
    _check_entries(label.partition, label, MAX_GT_ENTRIES)
    basis = gt_basis(label, normalize=args.normalize)
    if args.format == "json":
        _write_gt_json(basis)
    elif args.format == "latex":
        for path, vector in basis:
            subscript = ",".join([label_part.latex() for label_part in path])
            print(f"u_{{{subscript}}} = {vector.latex()}")
    else:
        for path, vector in basis:
            print(f"u[{path}] = {vector}")
    return 0


def _nested_json(memo: dict, obj, indent: int) -> str:
    """json.dumps(obj.to_json(), indent=2) `indent` spaces deep, once per object."""
    text = memo.get(obj)
    if text is None:
        text = memo[obj] = json.dumps(obj.to_json(), indent=2).replace("\n", "\n" + " " * indent)
    return text


def _write_gt_json(basis) -> None:
    """Print json.dumps(payload, indent=2) of the gt payload a vector at a time."""
    labels, tableaux, coeffs, write = {}, {}, {}, sys.stdout.write
    sep = "[\n"
    for path, vector in basis:
        path_json = ",\n      ".join([_nested_json(labels, lb, 6) for lb in path])
        terms_json = ",\n      ".join([
            f'{{\n        "tableau": {_nested_json(tableaux, t, 8)},'
            f'\n        "coeff": {_nested_json(coeffs, c, 8)}\n      }}'
            for t, c in vector.items()
        ])
        write(f'{sep}  {{\n    "path": [\n      {path_json}\n    ],'
              f'\n    "terms": [\n      {terms_json}\n    ]\n  }}')
        sep = ",\n"
    write("\n]\n")


def _cmd_verify(args) -> int:
    _check_max_n(args.max_n, MAX_VERIFY_N)
    report = Report([])
    if args.suite in ("yor", "all"):
        report.extend(verify_yor(args.max_n))
    if args.suite == "assoc" or (args.suite == "all" and args.max_n >= 3):
        report.extend(verify_associator(args.max_n))
    if args.suite in ("gt", "all"):
        report.extend(verify_gt_range(args.max_n))
    if args.format == "json":
        print(json.dumps(report.to_json_dict(), indent=2))
    else:
        for line in report.lines():
            print(line)
    return 0 if report.ok else 1


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built by the first main() call."""
    parser = argparse.ArgumentParser(
        prog="altgt",
        description="Exact Gelfand-Tsetlin bases for alternating groups in "
        "Young's orthogonal tableau bases.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("syt", help="list the standard tableaux of a shape")
    p.add_argument("shape", help='partition, e.g. "4,1,1"')
    p.set_defaults(func=_cmd_syt)

    p = sub.add_parser("yor", help="matrix of one adjacent transposition")
    p.add_argument("shape")
    p.add_argument("--gen", type=int, required=True, metavar="I",
                   help="generator index i for the transposition (i, i+1)")
    p.add_argument("--format", choices=("text", "json", "latex"), default="text")
    p.set_defaults(func=_cmd_yor)

    p = sub.add_parser("assoc", help="intertwiner coefficients of a self-conjugate shape")
    p.add_argument("shape")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_assoc)

    p = sub.add_parser("bratteli", help="branching graph as DOT or JSON")
    p.add_argument("--chain", choices=("symmetric", "alternating"), default="alternating")
    p.add_argument("--max-n", type=int, required=True, dest="max_n")
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    p.set_defaults(func=_cmd_bratteli)

    p = sub.add_parser("paths", help="class representatives ending at a label")
    p.add_argument("label", help='label, e.g. "4,1,1" or "2,1^+"')
    p.set_defaults(func=_cmd_paths)

    p = sub.add_parser("gt", help="basis vectors for a label")
    p.add_argument("label")
    p.add_argument("--normalize", action="store_true")
    p.add_argument("--format", choices=("text", "json", "latex"), default="text")
    p.set_defaults(func=_cmd_gt)

    p = sub.add_parser("verify", help="run the exact verification suites")
    p.add_argument("--suite", choices=("yor", "assoc", "gt", "all"), default="all")
    p.add_argument("--max-n", type=int, required=True, dest="max_n")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (`altgt ... | head`); send the rest
        # to devnull so the flush at interpreter exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 0
    sys.exit(code)


if __name__ == "__main__":
    run()
