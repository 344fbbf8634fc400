"""Record the sha256 of every op's output into digests.json.

    PYTHONPATH=src python3 perfbench/record_digests.py

Runs every op that any seed can generate, in one process, and keeps the
digest of each output that passes every other check in oracle.py.  Rerun it
only when an output is meant to change, and say so in the change.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import altgt
import altgt.cli

import oracle
from worker import perform
from workloads import WORKLOADS, op_key, op_universe


def output_of(op: dict) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = perform(op, altgt.cli.main, altgt.verify_gt, altgt.AltLabel.parse)
    return code, buf.getvalue()


def main() -> int:
    digests = {}
    for workload in WORKLOADS:
        for op in op_universe(workload):
            code, text = output_of(op)
            key = op_key(op)
            problem = oracle.check(op, code, text, {key: oracle.digest(text)})
            if problem:
                print(f"{key}: {problem}", file=sys.stderr)
                return 1
            digests[key] = oracle.digest(text)
            print(key, flush=True)
    with open(oracle.DIGESTS, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
