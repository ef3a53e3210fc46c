"""Tier-1 gate: the tier-1 tests fail exactly where the known failures say.

    python3 tools/tier1.py

Run from anywhere inside the repository.  Runs the tier-1 command of
ROADMAP.md from the repository root,

    PYTHONPATH=src python -m pytest -q --continue-on-collection-errors \\
        -rfE -p no:cacheprovider

and collects every FAILED and ERROR node id from pytest's short test
summary, cutting any " - message" suffix.  Exits 0 only when that set is
KNOWN_FAILURES (the published-cell failures under ROADMAP "Known
failures") and pytest exited 0 or 1, that is, its tests ran.  Otherwise
it prints each unexpected failure and each known failure that passed,
and exits 1.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMAND = [sys.executable, "-m", "pytest", "-q",
           "--continue-on-collection-errors", "-rfE", "-p", "no:cacheprovider"]
#: exact mean thetas that differ from a published cell by more than CELL_TOL
KNOWN_FAILURES = frozenset(
    f"tests/test_acceptance.py::{test}" for test in (
        "TestCriterion2Table3::test_cell[2-H,H,H]",
        "TestCriterion3Table5::test_cell[1-H,H,H,H]",
        "TestCriterion3Table5::test_cell[1-H,H,C2]",
        "TestCriterion3Table5::test_cell[1-H,C2,H]",
        "TestCriterion3Table5::test_cell[1-C2,H,H]",
        "TestCriterion3Table5::test_cell[5-H,H,H,H]",
        "TestCriterion3Table5::test_cell[7-H,H,H,H]",
    ))


def failures(output: str) -> set[str]:
    """The node ids of the FAILED and ERROR lines of pytest's short test
    summary in `output`."""
    found = set()
    in_summary = False
    for line in output.splitlines():
        if "short test summary info" in line:
            in_summary = True
        elif in_summary and line.startswith(("FAILED ", "ERROR ")):
            found.add(line.split(" ", 1)[1].split(" - ", 1)[0].strip())
    return found


def verdict(exit_code: int, failed: set[str]) -> list[str]:
    """What is wrong with a run that exited `exit_code` and failed the
    tests `failed`; an empty list when it matches the known failures."""
    problems = []
    if exit_code not in (0, 1):
        problems.append(f"pytest exited {exit_code}: its tests did not run")
    problems += [f"unexpected failure: {test}"
                 for test in sorted(failed - KNOWN_FAILURES)]
    problems += [f"known failure passed: {test}"
                 for test in sorted(KNOWN_FAILURES - failed)]
    return problems


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run(COMMAND, cwd=ROOT, env=env, capture_output=True,
                         text=True)
    output = run.stdout + run.stderr
    problems = verdict(run.returncode, failures(output))
    print(*output.strip().splitlines()[-1:])  # pytest's count line
    for problem in problems:
        print(problem)
    print("tier-1: FAIL" if problems else
          f"tier-1: OK, {len(KNOWN_FAILURES)} known failures")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
