"""One round of a benchmark run, in a fresh process.

Reads a request from stdin: {"ops": [...], "trace": bool, "spans_path": str
or null}.  It times `import altgt.cli` (the set-up), runs
the ops one after another with their stdout captured in memory, checks every
output with oracle.py, and prints one JSON object on stdout.  The lru caches
start cold because the process is new, and carry across the ops of the round
as they would in a library session.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import resource
import sys
import time

import oracle
import tracer as tracing


def perform(op, cli_main, verify_gt, parse_label) -> int:
    """Run one op, printing its output; returns its exit code."""
    if op["kind"] == "verify_gt":
        report = verify_gt(parse_label(op["label"]))
        print("\n".join(report.lines()))
        return 0 if report.ok else 1
    return cli_main(list(op["argv"]))


def run_ops(ops, digests, cli_main, verify_gt, parse_label, tracer=None) -> list[dict]:
    """Run each op, timing it; a failing op is recorded and never stops the round."""
    records = []
    for op_id, op in enumerate(ops):
        buf = io.StringIO()
        code, error = 1, None
        if tracer is not None:
            tracer.begin_op(op_id)
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = perform(op, cli_main, verify_gt, parse_label)
        except SystemExit as exc:  # argparse rejects bad argv this way
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.end_op()
        text = buf.getvalue()
        if tracer is not None and op["kind"] == "cli":
            tracer.output_bytes += len(text.encode())
        if error is None:
            try:
                error = oracle.check(op, code, text, digests)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                error = f"unreadable output: {type(exc).__name__}: {exc}"
        records.append({"s": elapsed, "error": error})
    return records


def main() -> int:
    request = json.load(sys.stdin)
    start = time.perf_counter()
    cli = importlib.import_module("altgt.cli")
    setup_s = time.perf_counter() - start
    result = {"setup_s": setup_s}
    ops = request["ops"]
    if ops:
        altgt = sys.modules["altgt"]
        tracer = tracing.Tracer() if request["trace"] else None
        if tracer is not None:
            tracer.install()
            result["bindings_patched"] = tracer.binding_count()
        records = run_ops(ops, oracle.load_digests(), cli.main, altgt.verify_gt,
                          altgt.AltLabel.parse, tracer)
        if tracer is not None:
            result["layers"] = tracer.metrics()
            result["functions"] = tracer.function_stats()
            tracer.uninstall()
            if request.get("spans_path"):
                with open(request["spans_path"], "w") as fh:
                    json.dump({"ops": ops, "spans": tracer.spans}, fh)
        result["records"] = records
        result["wrappers_left"] = tracing.installed_wrappers()
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
