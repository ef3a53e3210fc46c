"""Before/after benchmark record of a base revision against the working tree.

    python3 tools/bench_compare.py --base REV --out BENCH_<n>.json

Run from anywhere inside the repository.  Unpacks REV with
``git archive REV | tar -x`` into a temporary directory, and the working
tree the same way into another: its tracked files as ``git stash create``
commits them, or HEAD when the tree is clean.  Untracked files are not
measured.  It then runs ``perfbench/run.py`` on both trees for every
workload of BENCHMARK.json and for seeds 1 to 10, each run as long as
its run_seconds, alternating which side runs first, and then once more
per workload and side with --trace 1 (seed 1).  The record keeps, per
workload and end-to-end metric of BENCHMARK.json, every run's value, the
best of the runs (the minimum of a lower-is-better metric, the maximum of
a higher-is-better one), the median and quartiles before and after, how
many seeds the working tree won, whether a gain holds (it won at least
9 of 10 pairs and its median is better by more than the base's quartile
spread), whether the median ratio is within the metric's bound in
BENCHMARK.json, the base's quartile spread over its median (`spread`)
and whether the metric is `unresolved` (that spread exceeds the bound
and not every working-tree run beats every base run); next to them each
run's attempted/failed check counts, the traced run's attempted/failed
counts and failures, both commit SHAs, the run environment (CPU, nproc,
Python and numpy versions) that perfbench/run.py wrote on each side, and
whether bytecode caching was off (`bytecode_caching`): the perfbench runs
inherit this process's environment, so with it off every setup_s
includes compiling src.
Exits 1 if any run, traced or not, failed a check.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Mapping

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)
TRACE_SEED = 1


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def bytecode_caching(environ: Mapping[str, str]) -> str:
    """Whether `environ` turns bytecode caching off: "off" when it sets
    PYTHONDONTWRITEBYTECODE to a non-empty string, as Python reads it,
    else "on"."""
    return "off" if environ.get("PYTHONDONTWRITEBYTECODE") else "on"


def unpack(rev: str, target: Path) -> None:
    archive = subprocess.Popen(["git", "archive", rev], cwd=ROOT,
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(target)], stdin=archive.stdout,
                   check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {rev} failed")


def bench(tree: Path, workload: str, seed: int, seconds: int,
          trace: int = 0) -> tuple[dict, dict]:
    """The last stdout line of one perfbench/run.py run in `tree` and
    the full result that run.py wrote."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: {workload} seed {seed} trace {trace} "
                           f"failed: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    full = (tree / "perfbench" / "out"
            / f"{workload}-seed{seed}-trace{trace}.json")
    return result, json.loads(full.read_text())


def summarize(runs: list[dict], specs: list[dict]) -> dict:
    out = {"attempted": [r["attempted"] for r in runs],
           "failed": [r["failed"] for r in runs]}
    for spec in specs:
        values = [r["metrics"][spec["name"]]["value"] for r in runs]
        best = min if spec["better"] == "lower" else max
        q1, median, q3 = np.percentile(values, [25, 50, 75]).tolist()
        out[spec["name"]] = {"best": best(values), "median": median,
                             "quartiles": [q1, q3], "runs": values,
                             "unit": spec["unit"]}
    return out


def compare(entry: dict, specs: list[dict]) -> dict:
    """Per metric: after/before of the bests and of the medians, the
    number of seeds on which the working tree beat the base, whether
    that is a gain (`gain_holds`: at least 9 pairs in 10 won, and the
    median better by more than the base's quartile spread), whether the
    median ratio is within the metric's bound (`within_bound`), the
    base's quartile spread over its median (`spread`), and whether the
    runs cannot tell the change from noise (`unresolved`: the spread
    exceeds the bound and not every working-tree run beats every base
    run), in which case `within_bound` says little either way."""
    out = {}
    for spec in specs:
        before, after = entry["before"][spec["name"]], entry["after"][spec["name"]]
        sign = 1 if spec["better"] == "lower" else -1
        won = sum(sign * (b - a) > 0 for a, b in
                  zip(after["runs"], before["runs"]))
        pairs = len(after["runs"])
        q1, q3 = before["quartiles"]
        ratio = after["median"] / before["median"]
        spread = (q3 - q1) / before["median"]
        separated = all(sign * (b - a) > 0 for a in after["runs"]
                        for b in before["runs"])
        out[spec["name"]] = {
            "best_ratio": after["best"] / before["best"],
            "median_ratio": ratio,
            "pairs_won": won,
            "pairs": pairs,
            "gain_holds": 10 * won >= 9 * pairs
            and sign * (before["median"] - after["median"]) > q3 - q1,
            "within_bound": sign * (ratio - 1) <= spec["bound"],
            "spread": spread,
            "unresolved": spread > spec["bound"] and not separated}
    return out


def main() -> int:
    bench_spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision before")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args()
    specs = bench_spec["end_to_end"]
    seconds = bench_spec["run_seconds"]
    workloads = [w["name"] for w in bench_spec["workloads"]]

    record = {
        "before": {"rev": args.base, "sha": git("rev-parse", args.base)},
        "after": {"sha": git("rev-parse", "HEAD"),
                  "dirty": bool(git("status", "--porcelain", "--", "src",
                                    "perfbench"))},
        "seeds": list(SEEDS), "seconds": seconds,
        "bytecode_caching": bytecode_caching(os.environ),
        "best": "min of the runs for lower-is-better metrics, max for "
                "higher-is-better ones",
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-base-") as before, \
            tempfile.TemporaryDirectory(prefix="bench-change-") as after:
        unpack(args.base, Path(before))
        unpack(git("stash", "create") or "HEAD", Path(after))
        sides = [("before", Path(before)), ("after", Path(after))]
        for workload in workloads:
            runs = {"before": [], "after": []}
            for i, seed in enumerate(SEEDS):
                for side, tree in sides[::-1] if i % 2 else sides:
                    result, full = bench(tree, workload, seed, seconds)
                    record[side]["environment"] = full["environment"]
                    runs[side].append(result)
                    metrics = result["metrics"]
                    print(f"{workload} seed {seed} {side}: "
                          f"{metrics['pass_s']['value']:.4f} s/pass, "
                          f"{metrics['peak_rss_mb']['value']:.2f} MB peak "
                          f"RSS", file=sys.stderr)
            entry = {side: summarize(r, specs) for side, r in runs.items()}
            entry["after_vs_before"] = compare(entry, specs)
            entry["traced"] = {"seed": TRACE_SEED}
            for side, tree in sides:
                _, full = bench(tree, workload, TRACE_SEED, seconds, trace=1)
                entry["traced"][side] = {key: full[key] for key in
                                         ("attempted", "failed", "failures")}
                print(f"{workload} traced {side}: {full['failed']} failed",
                      file=sys.stderr)
            record["workloads"][workload] = entry
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    failed = sum(sum(e[side]["failed"]) + e["traced"][side]["failed"]
                 for e in record["workloads"].values()
                 for side in ("before", "after"))
    print(f"wrote {args.out}; {failed} failed checks", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
