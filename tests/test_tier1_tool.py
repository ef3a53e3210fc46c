"""tools/tier1.py's summary parser and verdict on synthetic pytest output:
a run passes only when it fails exactly the known failures."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "tier1.py"


@pytest.fixture(scope="module")
def tier1():
    spec = importlib.util.spec_from_file_location("tier1", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def summary(*lines):
    """pytest -q -rfE output whose short test summary holds `lines`."""
    return "\n".join([
        "....F..F", "",
        "=================================== FAILURES ===================",
        "FAILED tests/test_cli.py::test_not_in_the_summary",
        "=========================== short test summary info ============",
        *lines,
        "7 failed, 758 passed in 9.70s", ""])


def known_lines(tier1):
    return [f"FAILED {test}" for test in sorted(tier1.KNOWN_FAILURES)]


def test_the_known_failures_pass(tier1):
    failed = tier1.failures(summary(*known_lines(tier1)))
    assert failed == tier1.KNOWN_FAILURES and len(failed) == 7
    assert tier1.verdict(1, failed) == []


def test_an_extra_failure_fails(tier1):
    failed = tier1.failures(summary(*known_lines(tier1),
                                    "FAILED tests/test_cli.py::test_x"))
    assert tier1.verdict(1, failed) == [
        "unexpected failure: tests/test_cli.py::test_x"]


def test_a_collection_error_fails(tier1):
    failed = tier1.failures(summary("ERROR tests/x.py",
                                    *known_lines(tier1)))
    assert failed == tier1.KNOWN_FAILURES | {"tests/x.py"}
    assert tier1.verdict(1, failed) == ["unexpected failure: tests/x.py"]


def test_a_known_failure_that_passes_fails(tier1):
    lines = known_lines(tier1)
    failed = tier1.failures(summary(*lines[1:]))
    assert tier1.verdict(1, failed) == [
        f"known failure passed: {lines[0].removeprefix('FAILED ')}"]


def test_a_message_suffix_is_cut(tier1):
    test = "tests/test_acceptance.py::TestCriterion2Table3::test_cell[2-H,H,H]"
    assert tier1.failures(summary(f"FAILED {test} - assert 0.5 == 0.54")) \
        == {test}


def test_an_interrupted_run_fails(tier1):
    assert tier1.verdict(2, tier1.KNOWN_FAILURES) == [
        "pytest exited 2: its tests did not run"]
