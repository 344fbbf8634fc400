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
from .scalars import ZERO, Scalar
from .tableaux import enumerate_syt, syt_count
from .verify import Report, verify_associator, verify_gt_range, verify_yor
from .yor import rep_matrix

# --max-n ceilings: verify takes minutes at 12, bratteli 0.5 GB at 40
MAX_VERIFY_N = 13
MAX_BRATTELI_N = 30
# Tableau ceilings, measured so that each admitted command runs in 400 MB of
# address space.  enumerate_syt caches every level below a shape of n boxes,
# each of at most syt_count(shape) tableaux of n entries, so syt, paths and
# assoc are bounded on n^2 * syt_count(shape), and gt, which keeps more per
# tableau, lower.  yor keeps O(dim) entries but prints dim^2 cells, dim =
# syt_count(shape), so its ceiling bounds the output (dim 2,640: 70 MB).
MAX_SYT_ENTRIES = 70_000_000
MAX_GT_ENTRIES = 30_000_000
MAX_YOR_DIM = 3_000


def _check_max_n(max_n: int, ceiling: int) -> None:
    if max_n > ceiling:
        raise ValueError(f"--max-n {max_n} is above the ceiling {ceiling}")


def _check_entries(shape: Partition, name, ceiling: int) -> None:
    """Refuse the shape, named `name`, when n^2 times its tableau count is above the ceiling."""
    if shape.n ** 2 * syt_count(shape) > ceiling:
        raise ValueError(f"{name}: n^2 times the tableau count is above the ceiling {ceiling}")


def _write_table(rows, widths) -> None:
    """Print each row of cells left-justified to the column widths."""
    for cells in rows:
        sys.stdout.write("  ".join([c.ljust(w) for c, w in zip(cells, widths)]).rstrip() + "\n")


def _write_json_list(fragments, indent: int = 0) -> None:
    """Print a JSON list `indent` spaces deep, one item at a time, in the
    json.dumps(..., indent=2) layout; each fragment is an item's JSON text,
    already `indent + 2` spaces deep."""
    pad = "\n" + " " * (indent + 2)
    sys.stdout.writelines(("," if k else "[") + pad + fragment for k, fragment in enumerate(fragments))
    sys.stdout.write("\n" + " " * indent + "]\n")


def _nested(obj, indent: int) -> str:
    """json.dumps(obj, indent=2) `indent` spaces deep."""
    return json.dumps(obj, indent=2).replace("\n", "\n" + " " * indent)


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
        raise ValueError(f"generator {args.gen} out of range 1..{shape.n - 1} for shape {shape}")
    rows, out, cells = rep_matrix(shape, args.gen), sys.stdout, {}
    # each distinct entry rendered once; JSON cells sit 6 spaces deep, in a row of the rows list
    render = {"json": lambda x: _nested_json(cells, x, 6), "latex": Scalar.latex, "text": str}[args.format]
    zero, columns = render(ZERO), range(len(rows))
    dense = ([render(row[c]) if c in row else zero for c in columns] for row in rows)
    if args.format == "json":
        header = {"shape": shape.to_json(), "generator": args.gen,
                  "basis": [t.to_json() for t in enumerate_syt(shape)]}
        out.write(json.dumps(header, indent=2).removesuffix("\n}") + ',\n  "rows": ')
        _write_json_list(("[\n      " + ",\n      ".join(row) + "\n    ]" for row in dense), 2)
        out.write("}\n")
    elif args.format == "latex":
        out.write("\\begin{pmatrix}\n" + " & ".join(next(dense)))
        out.writelines(" \\\\\n" + " & ".join(cells) for cells in dense)
        out.write("\n\\end{pmatrix}\n")
    else:
        widths = [1] * len(rows)  # len("0"); a column with no 0 (dim <= 2) has none narrower
        for row in rows:
            for c, x in row.items():
                widths[c] = max(widths[c], len(str(x)))
        _write_table(dense, widths)
    return 0


def _cmd_assoc(args) -> int:
    shape = Partition.parse(args.shape)
    _check_entries(shape, shape, MAX_SYT_ENTRIES)
    if not shape.is_self_conjugate():
        raise ValueError(f"shape {shape} is not self-conjugate")
    basis = enumerate_syt(shape)
    coeffs = [assoc_coeff(t) for t in basis]
    if args.format == "json":
        _write_json_list(_nested({"tableau": t.to_json(), "coeff": c.to_json(),
                                  "conjugate": t.conjugate().to_json()}, 2)
                         for t, c in zip(basis, coeffs))
    else:
        width = len(str(basis[0]))  # that of every tableau of the shape, t' among them
        widths = (width, max(len(str(c)) for c in set(coeffs)), width)
        _write_table(([str(t), str(c), str(t.conjugate())] for t, c in zip(basis, coeffs)), widths)
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
        text = memo[obj] = _nested(obj.to_json(), indent)
    return text


def _write_gt_json(basis) -> None:
    """Print json.dumps(payload, indent=2) of the gt payload a vector at a
    time; the tableaux come from the shape's memo, 8 spaces deep."""
    labels, coeffs, write = {}, {}, sys.stdout.write
    sep = "[\n"
    for path, vector in basis:
        path_json = ",\n      ".join([_nested_json(labels, lb, 6) for lb in path])
        terms_json = ",\n      ".join([
            f'{{\n        "tableau": {t},'
            f'\n        "coeff": {_nested_json(coeffs, c, 8)}\n      }}'
            for t, c in vector.rendered_terms("json")
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
