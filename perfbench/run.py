"""basisket benchmark.

    python3 perfbench/run.py --workload census|sampled32|game --seed S \
        --seconds N --trace 0|1

Run from the repository root.  Starts fresh single-threaded worker
processes (see worker.py): a few that only set up, to time set-up, and
one that measures the workload's passes and checks their outputs.
Writes the full result, with the run environment, to
perfbench/out/<workload>-seed<S>-trace<T>.json and prints one JSON
line last: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

#: Fresh workers started only to time set-up; set-up is their median.
SETUP_PROBES = 7
#: A run must end within 180 s; the worker gets this long.
WORKER_TIMEOUT_S = 170


def worker_env() -> dict[str, str]:
    """Single-threaded numerics, this checkout's sources, no seed override."""
    env = dict(os.environ)
    env.pop("BASISKET_SEED", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def time_setup(workload: str, env: dict[str, str]) -> float:
    """Seconds from starting a fresh worker until it reports ready."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--setup-only"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        _, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up failed: {err.strip()[-2000:]}")
    return elapsed


def run_worker(args, env: dict[str, str]) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment(result: dict) -> dict:
    """Git commit, CPU model, core count, Python and numpy versions."""
    sha = "unknown"
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        if git.returncode == 0:
            sha = git.stdout.strip()
    try:
        import cpuinfo
        cpu = cpuinfo.get_cpu_info().get("brand_raw", "unknown")
    except ImportError:
        cpu = platform.processor() or "unknown"
    return {"git_sha": sha, "cpu": cpu, "nproc": os.cpu_count(),
            "python": result.get("python"), "numpy": result.get("numpy"),
            "platform": platform.platform()}


def metric_specs(trace: int) -> list[dict]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return bench["per_layer" if trace else "end_to_end"]


def main() -> int:
    parser = argparse.ArgumentParser(description="basisket benchmark")
    parser.add_argument("--workload", required=True,
                        choices=("census", "sampled32", "game"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "basisket" / "__init__.py").is_file():
        print(f"error: no basisket sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 1
    env = worker_env()
    try:
        setups = [time_setup(args.workload, env) for _ in range(SETUP_PROBES)]
        result = run_worker(args, env)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    pass_s = result["pass_s_median"]
    values = {
        "setup_s": statistics.median(setups),
        "pass_s": pass_s,
        "items_per_s": result["items_per_pass"] / pass_s,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    if args.trace:
        values = result["per_layer"]
    specs = metric_specs(args.trace)
    missing = [s["name"] for s in specs if s["name"] not in values]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    metrics = {s["name"]: {"value": values[s["name"]], "unit": s["unit"]}
               for s in specs}

    result["setup_s"] = setups
    result["environment"] = environment(result)
    result["arguments"] = vars(args)
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")

    for failure in result["failures"]:
        print(f"FAIL {failure}")
    print(f"{args.workload}: {len(result['pass_s'])} passes, median "
          f"{pass_s:.4f} s; setup {values.get('setup_s', setups)}; "
          f"{result.get('rationale', '')}; full result in "
          f"{out.relative_to(ROOT)}")
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
