"""The names perfbench/tracing.py rebinds stay where it looks for them.

The traced benchmark wraps module attributes by name (its ENTRY_POINTS)
and reads positional arguments in its work counters, so a rename or a
signature change in basisket breaks it without breaking any other test.
This runs a small enumerate, sample and game under its Tracer, in
process, and checks the counts it takes and that uninstall restores
every original.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import basisket.cli  # imports every module the tracer wraps
import basisket.game

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
TRIALS = 600


@pytest.fixture
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _target(entry):
    _, module, cls, attr, _ = entry
    owner = sys.modules[module]
    return getattr(owner if cls is None else getattr(owner, cls), attr)


def test_traced_run_counts_and_restores(tracing, tmp_path, capsys):
    originals = [_target(entry) for entry in tracing.ENTRY_POINTS]
    sample_attempts = basisket.game._sample_attempts
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(hasattr(_target(entry), "__wrapped__")
                   for entry in tracing.ENTRY_POINTS)
        assert basisket.game._sample_attempts.__wrapped__ is sample_attempts
        for argv in (
                ["enumerate", "--recipe", "H,C2", "--out",
                 str(tmp_path / "e.csv")],
                ["sample", "--recipe", "C2,C2,H", "--seed", "1",
                 "--quota", "1=10", "--quota", "9=10",
                 "--out", str(tmp_path / "s.csv")],
                ["game", "--recipe", "C2,C2", "--bob", "pivot",
                 "--trials", str(TRIALS), "--seed", "1"]):
            assert basisket.cli.cli_dispatch(argv) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()

    metrics = tracer.pass_metrics(None)
    assert metrics["cli.cli_dispatch.calls"] == 3
    assert metrics["game.estimate_win_rate.rounds"] == TRIALS
    assert metrics["experiment.sample_attempts.attempts"] > 0
    assert metrics["experiment.exhaustive_profile.functions"] == 1 << 8
    # the work-count identity of a traced census pass: every exhaustive
    # value and every sampled attempt goes through the kernel and into
    # the profile exactly once
    assert (metrics["experiment.batch_thetas.functions"]
            == metrics["experiment.add_batch.rows"]
            == (1 << 8) + metrics["sampler.d1.attempts"]
            + metrics["sampler.d9.attempts"])
    assert [_target(entry) for entry in tracing.ENTRY_POINTS] == originals
    assert basisket.game._sample_attempts is sample_attempts
