"""One benchmark worker: a fresh, single-threaded process per workload.

    python3 perfbench/worker.py --workload W --seed S [--seconds N --trace 0|1]
    python3 perfbench/worker.py --workload W --setup-only

Set-up imports basisket and builds the basis of every recipe the
workload uses, then prints "ready".  A measuring worker then runs
passes of the workload's CLI commands (in process, output captured) for
--seconds, checks every output untimed, checks that passes with the
same seed reproduce each other, and with --trace 1 runs traced passes.
The last stdout line is a JSON summary for run.py.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

from tracing import LAYER_MAP, Tracer, combine_passes, integer_counts
from workloads import WORKLOADS, Checks, Output

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

#: A run's median needs a few passes even when one pass outlasts --seconds.
MIN_PASSES = 3
#: Traced passes per traced run; their work counts must agree exactly.
TRACED_PASSES = 2


def set_up(recipes) -> dict:
    """Import the package from this checkout and build each basis."""
    import basisket
    import basisket.cli
    from basisket.classifier import ClassifierSpec

    source = Path(basisket.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise RuntimeError(f"basisket imported from {source}, not from "
                           f"{ROOT / 'src'}")
    for recipe in recipes:
        ClassifierSpec.parse(recipe).basis()
    import numpy
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "basisket": basisket.__version__}


def run_pass(workload, pass_seed: int, workdir: Path, cli):
    """Run one pass; returns (wall seconds of the commands, outputs)."""
    commands = workload.commands(pass_seed, workdir)
    for path in workdir.iterdir():
        path.unlink()
    raw = []
    start = time.perf_counter()
    for cmd in commands:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.cli_dispatch(list(cmd.argv))
            except Exception:  # a crash is a failed command, not a lost run
                code = None
                traceback.print_exc(file=err)
        raw.append((cmd, code, out, err))
    elapsed = time.perf_counter() - start

    outputs = {}
    for cmd, code, out, err in raw:
        files = {}
        if cmd.out is not None:
            for path in (Path(cmd.out), Path(cmd.out + ".manifest.json")):
                if path.is_file():
                    files[path.name] = path.read_text(encoding="utf-8")
        outputs[cmd.key] = Output(code, out.getvalue(), err.getvalue(), files)
    return elapsed, commands, outputs


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def check_pass(workload, commands, outputs, pass_seed, report, checks) -> None:
    for cmd in commands:
        got = outputs[cmd.key]
        checks.expect(got.exit_code == cmd.exit_code,
                      f"{workload.name} {cmd.key} seed {pass_seed}: exit "
                      f"{got.exit_code}, expected {cmd.exit_code}: "
                      f"{got.stderr.strip()[-300:]}")
    try:
        workload.check(outputs, pass_seed, report, checks)
    except Exception:  # malformed output fails its check, not the run
        checks.expect(False, f"{workload.name} seed {pass_seed}: checking "
                             f"raised {traceback.format_exc(limit=-1)}")


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    from basisket import cli, report

    workdir = OUT_DIR / f"work-{workload.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    checks = Checks()
    try:
        passes = []   # (pass seed, seconds, commands, outputs)
        rss = []
        start = time.perf_counter()
        while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
            pass_seed = workload.pass_seed(seed, len(passes))
            passes.append((pass_seed,
                           *run_pass(workload, pass_seed, workdir, cli)))
            rss.append(peak_rss_mb())

        for pass_seed, _, commands, outputs in passes:
            check_pass(workload, commands, outputs, pass_seed, report, checks)
        # every workload repeats the first pass's seed at least once
        first_seed = passes[0][0]
        reference = workload.fingerprint(passes[0][3])
        repeats = [p for p in passes[1:] if p[0] == first_seed]
        checks.expect(bool(repeats), f"{workload.name}: no pass repeated "
                                     f"seed {first_seed}")
        for p in repeats:
            checks.expect(workload.fingerprint(p[3]) == reference,
                          f"{workload.name}: seed {first_seed} did not "
                          f"reproduce the first pass's outputs")

        times = [p[1] for p in passes]
        result = {
            "pass_seeds": [p[0] for p in passes],
            "pass_s": times,
            "pass_s_median": statistics.median(times),
            "items_per_pass": workload.items_per_pass,
            # set-up plus one pass, as one CLI invocation per command sees
            # it; later passes can raise the peak through heap reuse
            "peak_rss_mb": rss[0],
            "peak_rss_mb_by_pass": rss,
        }
        if trace:
            result.update(traced(workload, seed, workdir, cli, report,
                                 checks, reference, result["pass_s_median"]))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["attempted"] = checks.attempted
    result["failed"] = len(checks.failures)
    result["failures"] = checks.failures
    return result


def traced(workload, seed, workdir, cli, report, checks, reference,
           plain_median) -> dict:
    pass_seed = workload.pass_seed(seed, 0)
    tracer = Tracer()
    tracer.install()
    per_pass, times = [], []
    try:
        for i in range(TRACED_PASSES):
            tracer.pass_id = i
            elapsed, commands, outputs = run_pass(workload, pass_seed,
                                                  workdir, cli)
            times.append(elapsed)
            check_pass(workload, commands, outputs, pass_seed, report, checks)
            checks.expect(workload.fingerprint(outputs) == reference,
                          f"{workload.name}: traced pass {i} changed the "
                          f"outputs of seed {pass_seed}")
            tracer.pass_id = None
            per_pass.append(tracer.pass_metrics(i))
    finally:
        tracer.uninstall()
    first = integer_counts(per_pass[0])
    for i, metrics in enumerate(per_pass[1:], start=1):
        differ = {k: (first[k], v) for k, v in integer_counts(metrics).items()
                  if first[k] != v}
        checks.expect(not differ, f"{workload.name}: traced pass {i} work "
                                  f"counts differ from pass 0: {differ}")
    layer = combine_passes(per_pass)
    for key, want in workload.expected_counts.items():
        checks.expect(layer[key] == want,
                      f"{workload.name}: {key} is {layer[key]}, expected {want}")
    traced_median = statistics.median(times)
    layer["trace.overhead_ratio"] = traced_median / plain_median
    spans_file = OUT_DIR / f"spans-{workload.name}-seed{seed}.jsonl"
    tracer.write_spans(spans_file)
    return {"per_layer": layer, "traced_pass_s": times, "layer_map": LAYER_MAP,
            "rationale": rationale(workload.name, layer, traced_median),
            "spans_file": str(spans_file.relative_to(ROOT))}


def rationale(name: str, layer: dict, pass_s: float) -> dict:
    """The traced facts each workload was chosen for."""
    def self_s(prefix):
        return sum(v for k, v in layer.items()
                   if k.startswith(prefix) and k.endswith(".self_s"))

    if name == "census":
        # the kernel's butterfly is its child span classifier.apply_classifier
        busy = (layer["experiment.batch_thetas.busy_s"]
                + layer["experiment.add_batch.busy_s"]) / pass_s
        own = (layer["experiment.batch_thetas.self_s"]
               + layer["experiment.add_batch.self_s"]) / pass_s
        return {"kernel_and_aggregation_busy_share": busy,
                "kernel_and_aggregation_self_share": own, "holds": busy > 0.5}
    if name == "sampled32":
        attempts = layer["experiment.sample_attempts.attempts"]
        share = layer["sampler.d15.attempts"] / attempts if attempts else 0.0
        return {"d15_attempt_share": share, "holds": share >= 0.9}
    share = (self_s("game.")
             + layer["classifier.outcome_distribution.busy_s"]) / pass_s
    calls = layer["experiment.batch_thetas.calls"]
    return {"game_and_outcome_distribution_share": share,
            "batch_thetas_calls": calls, "holds": share > 0.5 and calls == 0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]()
    versions = set_up(workload.recipes)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    result = measure(workload, args.seed, args.seconds, bool(args.trace))
    result.update(versions)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
