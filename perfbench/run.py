"""Benchmark runner for altgt.

    python3 perfbench/run.py --workload label-basis --seed 0 --seconds 40 --trace 0

Run from the root of a checkout.  Each round is a fresh worker process
(worker.py) that imports altgt.cli from ./src, runs the workload's seeded op
list once, one op at a time (a closed loop with one client), and checks every
output.  Rounds repeat, one at a time, until --seconds is used up; the
end-to-end metrics are medians over the rounds, in reference seconds (see
calibrate below).  With --trace 1 the run makes
one untraced and one traced round instead and reports the per-layer metrics,
with the tracing overhead beside them.  The last line of stdout is the result
as one JSON object.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, make_ops  # noqa: E402

SETUP_SAMPLES = 20  # set-up-only workers per run, besides each round's own import
CALIBRATION_REPEATS = 5
# Median calibrate() time of the machine the first baseline was taken on
# (2 Xeon vCPUs).  A time scaled by REFERENCE_CALIBRATION_S / calibrate() is
# in reference seconds: what it would read at that machine's speed.
REFERENCE_CALIBRATION_S = 0.024
WORKER_TIMEOUT_S = 150
OUT_DIR = ".perfbench"

END_TO_END_UNITS = {
    "wall_s": "s",
    "dim_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def run_worker(root: Path, ops: list, trace: bool = False, spans_path: str | None = None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    # set-up is timed with altgt's bytecode cached, as in an installed package,
    # whatever the caller's environment says
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    request = json.dumps({"ops": ops, "trace": trace, "spans_path": spans_path})
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")],
        input=request, capture_output=True, text=True, cwd=root, env=env,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout)


def run_round(root: Path, ops: list, trace: bool = False, spans_path: str | None = None) -> dict:
    """One worker round; a worker that dies fails every op of its round."""
    try:
        return run_worker(root, ops, trace, spans_path)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"round failed: {exc}", file=sys.stderr)
        return {"records": [{"s": None, "error": "worker failed"} for _ in ops]}


def measure_setup(root: Path) -> list[float]:
    try:
        return [run_worker(root, [])["setup_s"] for _ in range(SETUP_SAMPLES)]
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        raise RuntimeError(f"cannot import altgt.cli from {root / 'src'}: {exc}") from None


def count_failures(rounds: list[dict]) -> tuple[int, int, list[str]]:
    """(ops attempted, ops failed, what went wrong) over the rounds."""
    attempted = failed = 0
    problems = []
    for rnd in rounds:
        for rec in rnd["records"]:
            attempted += 1
            if rec["error"] is not None:
                failed += 1
                problems.append(rec["error"])
        if rnd.get("wrappers_left"):
            problems.append(f"an untraced round ran with wrappers: {rnd['wrappers_left']}")
    return attempted, failed, problems


def round_wall(rnd: dict) -> float:
    return sum(rec["s"] for rec in rnd["records"])


def calibrate() -> float:
    """Median time of a fixed pure-Python loop: a meter of the machine's speed.

    On a CPU shared with other tenants, identical work runs up to 40% slower
    for minutes at a time.  This loop (exact fractions, tuples, dicts, sorting:
    the instruction mix of altgt) slows with it; run beside each round, it
    correlated 0.90 with the round's wall time.  It runs in this process,
    which never imports altgt, so no change to the program can move it.
    """

    def once():
        start = time.perf_counter()
        acc, table = Fraction(0), {}
        for i in range(1, 3000):
            acc += Fraction(i % 97 + 1, i % 89 + 2)
            key = tuple(sorted((i % 7, i % 11, i % 13)))
            table[key] = table.get(key, 0) + 1
        sorted(str(i * 7919 % 10007) for i in range(20000))
        return time.perf_counter() - start

    return statistics.median(once() for _ in range(CALIBRATION_REPEATS))


def end_to_end(ops: list, rounds: list[dict], scales: list[float],
               setup: list[float]) -> dict:
    """The end-to-end metrics; rounds[k]'s times are multiplied by scales[k]."""
    timed = [(r, f) for r, f in zip(rounds, scales) if "rss_mb" in r]
    if not timed:
        raise RuntimeError("no round completed")
    # each op's median over the rounds resists a slow stretch of the shared
    # CPU better than the median of whole-round sums does
    per_op = [statistics.median(r["records"][k]["s"] * f for r, f in timed)
              for k in range(len(ops))]
    wall = sum(per_op)
    deciles = statistics.quantiles(per_op, n=10, method="inclusive")
    values = {
        "wall_s": wall,
        "dim_per_s": sum(op["dim"] for op in ops) / wall,
        "op_p50_ms": deciles[4] * 1000,
        "op_p90_ms": deciles[8] * 1000,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r, _ in timed),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def src_line_count(root: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((root / "src").rglob("*.py")))


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    load_start = os.getloadavg()
    ops = make_ops(workload, seed)
    meta = {"workload": workload, "seed": seed, "trace": int(trace), "run_seconds": seconds,
            "ops_per_round": len(ops)}
    if trace:
        (root / OUT_DIR).mkdir(exist_ok=True)
        spans_path = str(root / OUT_DIR / f"spans-{workload}-seed{seed}.json")
        plain = run_round(root, ops)
        traced = run_round(root, ops, trace=True, spans_path=spans_path)
        rounds = [plain, traced]
        if "rss_mb" not in plain or "layers" not in traced:
            raise RuntimeError("the untraced or the traced round did not complete")
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in traced["layers"].items()}
        meta["tracing_overhead"] = round_wall(traced) / round_wall(plain)
        meta["bindings_patched"] = traced["bindings_patched"]
        meta["spans_file"] = os.path.relpath(spans_path, root)
    else:
        # calibrations bracket the set-up batch and every round; each is
        # scaled by the mean of the two calibrations around it
        start = time.perf_counter()
        cal = [calibrate()]
        setup = measure_setup(root)
        cal.append(calibrate())
        rounds, durations = [], []
        while True:
            began = time.perf_counter()
            rounds.append(run_round(root, ops))
            durations.append(time.perf_counter() - began)
            cal.append(calibrate())
            if time.perf_counter() - start + statistics.median(durations) > seconds:
                break
        scales = [2 * REFERENCE_CALIBRATION_S / (a + b) for a, b in zip(cal, cal[1:])]
        setup_scaled = [x * scales[0] for x in setup]
        setup_scaled += [r["setup_s"] * f for r, f in zip(rounds, scales[1:]) if "setup_s" in r]
        metrics = end_to_end(ops, rounds, scales[1:], setup_scaled)
        meta["setup_samples"] = len(setup_scaled)
        meta["speed"] = statistics.median(scales)
        meta["raw"] = end_to_end(ops, rounds, [1.0] * len(rounds),
                                 setup + [r["setup_s"] for r in rounds if "setup_s" in r])
        meta["round_walls"] = [round_wall(r) for r in rounds if "rss_mb" in r]
        meta["tracing_overhead"] = None
    attempted, failed, problems = count_failures(rounds)
    meta.update({
        "rounds": len(rounds), "attempted": attempted, "failed": failed,
        "error_rate": failed / attempted, "problems": problems[:10],
        "python": platform.python_version(), "commit": git_commit(root),
        "nproc": os.cpu_count(), "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
        "src_lines": src_line_count(root),
    })
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics, "meta": meta}


def report(result: dict) -> None:
    meta = result["meta"]
    print(f"# {meta['workload']}  seed {meta['seed']}  rounds {meta['rounds']}  "
          f"ops/round {meta['ops_per_round']}")
    for name, m in result["metrics"].items():
        print(f"{name:38s} {m['value']:.6g} {m['unit']}")
    print(f"{'error_rate':38s} {meta['error_rate']:.6g} ratio "
          f"({meta['failed']}/{meta['attempted']} ops failed)")
    if "speed" in meta:
        print(f"{'speed':38s} {meta['speed']:.6g} x (reference calibration / measured; "
              f"unscaled wall_s {meta['raw']['wall_s']['value']:.6g} s, "
              f"setup_s {meta['raw']['setup_s']['value']:.6g} s)")
    if meta["tracing_overhead"] is not None:
        print(f"{'tracing_overhead':38s} {meta['tracing_overhead']:.6g} x (traced / untraced wall)")
    print("meta " + json.dumps(meta))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # exit through Python on SIGTERM, so a running worker is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = Path.cwd()
    if not (root / "src" / "altgt" / "cli.py").is_file():
        print(f"error: no altgt sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for workload in workloads:
            results[workload] = run_workload(root, workload, args.seed, args.seconds,
                                             bool(args.trace))
            report(results[workload])
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        (final,) = results.values()
        metrics = final["metrics"]
    else:
        metrics = {f"{w}.{name}": m for w, r in results.items() for name, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
