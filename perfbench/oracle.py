"""Output checks that do not depend on altgt.

Every check here reads only the op and the text the op printed.  Dimensions
come from the hook-length formula in workloads.py, and each op's output must
also match the sha256 digest recorded in digests.json.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

from workloads import op_key, partitions_of

_UNIT_COEFFS = {"1", "-1", "i", "-i"}
_TEXT_COEFF = re.compile(r"\(([^()]*)\)\*v\[")
_SUMMARY = re.compile(r"^(\d+) checks, 0 failures$")


DIGESTS = Path(__file__).with_name("digests.json")


def load_digests() -> dict:
    with open(DIGESTS) as fh:
        return json.load(fh)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _ends_at(path_text: str, label: str) -> bool:
    return path_text.rsplit(";", 1)[-1] == label


def _json_label(entry: dict) -> str:
    text = ",".join(str(p) for p in entry["partition"])
    return text if entry["sign"] is None else f"{text}^{entry['sign']}"


def _check_gt(op: dict, text: str) -> str | None:
    argv, label, dim = op["argv"], op["label"], op["dim"]
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "text"
    normalized = "--normalize" in argv
    if fmt == "json":
        vectors = json.loads(text)
        if len(vectors) != dim:
            return f"{len(vectors)} vectors, expected {dim}"
        for vec in vectors:
            if _json_label(vec["path"][-1]) != label or not vec["terms"]:
                return "vector with a wrong endpoint or no terms"
        return None
    lines = text.splitlines()
    if len(lines) != dim:
        return f"{len(lines)} lines, expected {dim}"
    prefix = "u_{" if fmt == "latex" else "u["
    if not all(line.startswith(prefix) for line in lines):
        return f"a line does not start with {prefix!r}"
    if fmt == "text":
        for line in lines:
            if not _ends_at(line[2:line.index("] = ")], label):
                return f"path does not end at {label}: {line[:60]}"
            if not normalized and not set(_TEXT_COEFF.findall(line)) <= _UNIT_COEFFS:
                return f"coefficient that is not a fourth root of unity: {line[:60]}"
    return None


def _check_paths(op: dict, text: str) -> str | None:
    lines = text.splitlines()
    if len(lines) != op["dim"]:
        return f"{len(lines)} paths, expected {op['dim']}"
    for line in lines:
        path, _, size = line.partition("\t")
        if not _ends_at(path, op["label"]):
            return f"path does not end at {op['label']}: {path}"
        if not size.isdigit() or int(size) & (int(size) - 1):
            return f"class size {size!r} is not a power of two"
    return None


def _check_verify(op: dict, text: str) -> str | None:
    lines = text.splitlines()
    match = _SUMMARY.match(lines[-1]) if lines else None
    if match is None:
        return f"summary line reports failures: {lines[-1] if lines else ''!r}"
    checks = int(match.group(1))
    if sum(1 for line in lines if line.startswith("PASS ")) != checks:
        return "PASS lines do not match the summary count"
    if op["kind"] == "verify_gt":
        return None if checks == 1 else f"{checks} checks for one label"
    argv = op["argv"]
    if "yor" in argv:
        max_n = int(argv[argv.index("--max-n") + 1])
        shapes = sum(len(partitions_of(n)) for n in range(2, max_n + 1))
        if checks != shapes:
            return f"{checks} yor checks, expected one per shape ({shapes})"
    return None


def check(op: dict, code: int, text: str, digests: dict) -> str | None:
    """Why an op's output is wrong, or None when it passes every check."""
    if code != 0:
        return f"exit code {code}"
    if op["kind"] == "verify_gt" or op["argv"][0] == "verify":
        problem = _check_verify(op, text)
    elif op["argv"][0] == "paths":
        problem = _check_paths(op, text)
    else:
        problem = _check_gt(op, text)
    if problem:
        return problem
    want = digests.get(op_key(op))
    if want is None:
        return "no recorded digest for this op"
    if digest(text) != want:
        return "output differs from the recorded digest"
    return None
