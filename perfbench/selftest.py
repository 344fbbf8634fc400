"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py

Run from the root of a checkout.  It shows that:

1. error_rate can move: an op whose output loses a line and an op that
   raises are each counted as failed, and the round still completes;
2. two traced rounds with the same seed give identical counts and ratios;
3. the tracer wraps every binding of each function it wraps (including
   copies made by "from .x import f"), restores every original afterwards,
   and an untraced round runs with no wrapper installed;
4. every per-layer metric is nonzero on at least one workload (a ratio:
   its base is), and the trace separates the workloads as README.md says.

Exits 0 when every check passes.  Takes about a minute and a half.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import altgt  # noqa: E402
import altgt.cli  # noqa: E402

import oracle  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
from worker import run_ops  # noqa: E402
from workloads import WORKLOADS, make_ops  # noqa: E402

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def small_ops(count: int) -> list[dict]:
    """The cheapest label-basis ops of seed 0."""
    return sorted(make_ops("label-basis", 0), key=lambda op: op["dim"])[:count]


def check_error_rate() -> None:
    ops = small_ops(4)
    dropped, raising = ops[1]["argv"], ops[2]["argv"]
    real = altgt.cli.main

    def stub(argv):
        if argv == raising:
            raise RuntimeError("stub failure")
        if argv != dropped:
            return real(argv)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = real(argv)
        print("".join(buf.getvalue().splitlines(True)[:-1]), end="")
        return code

    records = run_ops(ops, oracle.load_digests(), stub, altgt.verify_gt, altgt.AltLabel.parse)
    failed = [k for k, rec in enumerate(records) if rec["error"]]
    expect(len(records) == len(ops), "a round with failing ops still runs every op")
    expect(failed == [1, 2], f"the dropped-line and raising ops fail, no other ({failed})")
    attempted, failures, _ = run.count_failures([{"records": records}])
    expect(failures / attempted == 0.5, f"error_rate reads {failures}/{attempted}")


def check_bindings() -> None:
    gt_mod, cli_mod = sys.modules["altgt.gt"], sys.modules["altgt.cli"]
    apply_phi, gt_basis = gt_mod.apply_phi, cli_mod.gt_basis
    tracer = tracing.Tracer()
    tracer.install()
    copies = (gt_mod.apply_phi, cli_mod.gt_basis, altgt.apply_phi, altgt.gt_basis)
    expect(all(hasattr(f, tracing.MARK) for f in copies),
           "copies bound by 'from .x import f' (gt.apply_phi, cli.gt_basis) are wrapped")
    tracer.uninstall()
    expect(gt_mod.apply_phi is apply_phi and cli_mod.gt_basis is gt_basis
           and not tracing.installed_wrappers(), "every original is restored")


def layer_values(rnd: dict) -> dict:
    return {name: value for name, (value, unit) in rnd["layers"].items() if unit != "s"}


def check_determinism() -> None:
    ops = small_ops(8)
    first = run.run_round(ROOT, ops, trace=True)
    second = run.run_round(ROOT, ops, trace=True)
    expect(layer_values(first) == layer_values(second),
           "two traced rounds of the same ops give identical counts and ratios")


def check_coverage() -> None:
    traced = {}
    for workload in WORKLOADS:
        ops = make_ops(workload, 0)
        plain = run.run_round(ROOT, ops)
        expect(plain.get("wrappers_left") == [], f"{workload}: untraced round has no wrapper")
        traced[workload] = run.run_round(ROOT, ops, trace=True)
        expect("layers" in traced[workload], f"{workload}: traced round completes")
    if not all("layers" in rnd for rnd in traced.values()):
        return
    for name, (_, unit) in traced["rep-audit"]["layers"].items():
        base = tracing.RATIO_BASES.get(name)
        if base is None:
            seen = any(rnd["layers"][name][0] for rnd in traced.values())
        else:
            seen = any(rnd["functions"].get(base, [0])[0] for rnd in traced.values())
        expect(seen, f"{name} ({'base ' + base if base else unit}) is nonzero on some workload")

    def share(workload, layers):
        values = traced[workload]["layers"]
        total = sum(values[f"{layer}.self_s"][0] for layer in tracing.LAYERS)
        return sum(values[f"{layer}.self_s"][0] for layer in layers) / total

    scal = {w: share(w, ["scalars"]) for w in WORKLOADS}
    path = {w: share(w, ["partitions", "labels", "geodesics"]) for w in WORKLOADS}
    expect(scal["rep-audit"] > scal["label-basis"],
           f"scalars share of traced time: rep-audit {scal['rep-audit']:.3f} "
           f"> label-basis {scal['label-basis']:.3f}")
    expect(path["label-basis"] > path["rep-audit"],
           f"partitions+labels+geodesics share: label-basis {path['label-basis']:.3f} "
           f"> rep-audit {path['rep-audit']:.3f}")


def main() -> int:
    if not (ROOT / "src" / "altgt").is_dir():
        print("run from the root of a checkout", file=sys.stderr)
        return 2
    check_error_rate()
    check_bindings()
    check_determinism()
    check_coverage()
    print(f"{len(FAILURES)} failures")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
