#!/usr/bin/env python3
"""Golden test for turtlint.

Three checks, all against the fixture mini-repo in fixtures/:

  1. the full fixture tree produces byte-for-byte the diagnostics in
     fixtures/expected.txt and exits 1;
  2. the known-clean fixtures alone produce zero findings and exit 0;
  3. an unknown rule name exits 2.

Run directly or via ctest (`turtlint_fixtures`). After an intentional rule
change, regenerate the golden as described in fixtures/README.md and review
the diff.
"""

import difflib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "fixtures")
SCRIPT = os.path.join(HERE, "turtlint.py")

CLEAN_PATHS = [
    "src/report/clean_d1.cc",
    "src/util/thread_pool.cc",
    "src/daemon/wall_clock.cc",
    "src/core/clean_d3.cc",
    "src/core/clean_d4.cc",
    "src/core/clean_d7.cc",
    "src/core/clean_h1.h",
    "src/core/clean_h2.h",
    "src/analysis/clean_d5.cc",
    "src/serve/clean_d6.cc",
    "src/serve/snapshot_format.cc",
]


def run_turtlint(*args):
    proc = subprocess.run(
        [sys.executable, SCRIPT, "--root", FIXTURES, *args],
        capture_output=True, text=True, check=False)
    return proc.returncode, proc.stdout, proc.stderr


def main() -> int:
    failures = []

    # 1. Whole fixture tree vs golden.
    rc, out, err = run_turtlint()
    with open(os.path.join(FIXTURES, "expected.txt"), encoding="utf-8") as fh:
        want = fh.read()
    if out != want:
        diff = "".join(difflib.unified_diff(
            want.splitlines(keepends=True), out.splitlines(keepends=True),
            fromfile="expected.txt", tofile="actual"))
        failures.append(f"fixture output diverges from golden:\n{diff}")
    if rc != 1:
        failures.append(f"fixture run exited {rc}, want 1 (stderr: {err!r})")

    # 2. Clean fixtures alone: silent, exit 0.
    rc, out, err = run_turtlint("-q", *CLEAN_PATHS)
    if rc != 0 or out:
        failures.append(
            f"clean fixtures not clean: exit {rc}, output:\n{out}{err}")

    # 3. Unknown rule: exit 2.
    rc, _out, _err = run_turtlint("--rules", "D9")
    if rc != 2:
        failures.append(f"unknown rule exited {rc}, want 2")

    if failures:
        print("turtlint_test: FAIL", file=sys.stderr)
        for failure in failures:
            print(f"--- {failure}", file=sys.stderr)
        return 1
    print("turtlint_test: OK (golden match, clean subset, rule validation)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
