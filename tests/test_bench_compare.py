"""tools/bench_compare.py's per-metric verdicts on synthetic runs: a
metric whose base runs spread wider than its bound is `unresolved`
unless every run of the change beats every run of the base; and the
record's `bytecode_caching`, read off an environment mapping."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_compare.py"


@pytest.fixture(scope="module")
def bench_compare():
    spec = importlib.util.spec_from_file_location("bench_compare", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPEC = {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}
#: ten base runs whose quartiles, 0.151-0.215 s around a 0.172 s median,
#: span 37% of it, as the census setup_s of BENCH_25.json did
WIDE = [0.140, 0.145, 0.151, 0.151, 0.170, 0.174, 0.215, 0.215, 0.220, 0.230]
NARROW = [0.170, 0.171, 0.171, 0.172, 0.172, 0.172, 0.173, 0.173, 0.174,
          0.175]


def verdict(bench_compare, before, after):
    entry = {side: bench_compare.summarize(
                 [{"attempted": 1, "failed": 0,
                   "metrics": {SPEC["name"]: {"value": value}}}
                  for value in values], [SPEC])
             for side, values in (("before", before), ("after", after))}
    return bench_compare.compare(entry, [SPEC])[SPEC["name"]]


def test_wide_spread_inside_the_bound_is_unresolved(bench_compare):
    result = verdict(bench_compare, WIDE, [value * 1.2 for value in WIDE])
    assert result["spread"] == pytest.approx(0.064 / 0.172)
    assert result["within_bound"]
    assert result["unresolved"]


def test_wide_spread_with_every_change_run_better_is_resolved(bench_compare):
    result = verdict(bench_compare, WIDE, [value - 0.095 for value in WIDE])
    assert result["spread"] > SPEC["bound"]
    assert not result["unresolved"]
    assert result["gain_holds"]


def test_narrow_spread_is_resolved(bench_compare):
    result = verdict(bench_compare, NARROW,
                     [value * 1.2 for value in NARROW])
    assert result["spread"] < SPEC["bound"]
    assert not result["unresolved"]
    assert result["within_bound"]


@pytest.mark.parametrize("environ, caching", [
    ({"PYTHONDONTWRITEBYTECODE": "1", "PATH": "/usr/bin"}, "off"),
    ({"PATH": "/usr/bin"}, "on"),
])
def test_bytecode_caching(bench_compare, environ, caching):
    assert bench_compare.bytecode_caching(environ) == caching
