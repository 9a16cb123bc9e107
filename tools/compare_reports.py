"""Compare two report trees of `tools/write_reports.py` within a tolerance.

    python3 tools/compare_reports.py DIR_A DIR_B

Use it between checkouts that may change the numerics of the tracker: a
change of kernel can move the last bits of every path, so `diff -r` shows
differences that mean nothing.  It compares the JSON reports and skips
the `.svg` files.  A difference fails when:

- a file or a JSON key is in one tree only, or a list changes length (so a
  witness count must stay);
- a string, boolean or null differs (verdicts, statuses, inputs);
- a float in A and its counterpart b differ by more than 1e-8 * max(1, |a|).

A changed integer, such as `paths_converged` or a path's step count, is
printed but does not fail.  The exit code is 1 on any failing difference
and 0 otherwise.  For a change that must keep every bit, compare the
digests of `tools/track_digest.py` instead.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

REL_TOL = 1e-8


def _reports(root: Path) -> set:
    return {str(p.relative_to(root)) for p in root.rglob("*.json")}


def _compare(a, b, where: str, failures: list, changes: list) -> None:
    """Walk a and b together; append failing differences and integer
    changes, one line each."""
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            failures.append(f"{where}: keys {sorted(a.keys() ^ b.keys())} "
                            "are in one report only")
            return
        for key in a:
            _compare(a[key], b[key], f"{where}.{key}", failures, changes)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            failures.append(f"{where}: {len(a)} -> {len(b)} entries")
            return
        for k, (x, y) in enumerate(zip(a, b)):
            _compare(x, y, f"{where}[{k}]", failures, changes)
    elif _is_int(a) and _is_int(b):
        if a != b:
            changes.append(f"{where}: {a} -> {b}")
    elif _is_number(a) and _is_number(b):
        if not (a == b or (math.isnan(a) and math.isnan(b))
                or abs(a - b) <= REL_TOL * max(1.0, abs(a))):
            failures.append(f"{where}: {a!r} -> {b!r}")
    elif type(a) is not type(b) or a != b:
        failures.append(f"{where}: {a!r} -> {b!r}")


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def compare_trees(dir_a: Path, dir_b: Path) -> tuple:
    """(failing differences, integer changes) between two report trees."""
    failures, changes = [], []
    files_a, files_b = _reports(dir_a), _reports(dir_b)
    failures += [f"{name}: only in {dir_a}" for name in sorted(files_a - files_b)]
    failures += [f"{name}: only in {dir_b}" for name in sorted(files_b - files_a)]
    for name in sorted(files_a & files_b):
        _compare(json.loads((dir_a / name).read_text()),
                 json.loads((dir_b / name).read_text()), name, failures, changes)
    return failures, changes


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/compare_reports.py DIR_A DIR_B", file=sys.stderr)
        return 2
    failures, changes = compare_trees(Path(argv[0]), Path(argv[1]))
    for line in changes:
        print(f"changed: {line}")
    for line in failures:
        print(f"FAIL: {line}")
    print(f"{len(failures)} failing differences, {len(changes)} integer changes")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
