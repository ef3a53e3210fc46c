"""Spans and work counts around the entry points of each basisket module.

The traced run rebinds module attributes to timing wrappers, so every
caller inside basisket that looked a function up by name (including
``from .x import f`` copies such as ``game._sample_attempts``) goes
through the wrapper.  Spans are kept in memory and written when the
benchmark ends; a span's self time is its duration minus the durations
of the spans it caused.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

#: Sampler buckets reported one by one (table 7 targets d = 1..15).
SAMPLER_BUCKETS = range(1, 16)


def _rows(args, kwargs, result):
    v = args[1]
    return {"rows": int(np.prod(v.shape[:-1], dtype=np.int64))}


def _functions_in(args, kwargs, result):
    return {"functions": len(args[2])}


def _add_batch_rows(args, kwargs, result):
    return {"rows": len(args[1])}


def _profile_functions(args, kwargs, result):
    return {"functions": result.total()}


def _attempts(args, kwargs, result):
    return {"attempts": int(args[4])}


def _rounds(args, kwargs, result):
    return {"rounds": args[0].trials}


def _json_bytes(args, kwargs, result):
    return {"bytes": len(args[0].encode("utf-8"))}


#: (span name, module, class or None, attribute, work counter).
ENTRY_POINTS = (
    ("patterns.build_basis_from_recipe", "basisket.patterns", None,
     "build_basis_from_recipe", None),
    ("patterns.distance_from_class", "basisket.patterns", None,
     "distance_from_class", None),
    ("classifier.apply_classifier", "basisket.classifier", None,
     "apply_classifier", _rows),
    ("classifier.outcome_distribution", "basisket.classifier", None,
     "outcome_distribution", None),
    ("classifier.classification_threshold", "basisket.classifier", None,
     "classification_threshold", None),
    ("experiment.batch_thetas", "basisket.experiment", None,
     "_batch_thetas", _functions_in),
    ("experiment.add_batch", "basisket.experiment", "DistanceProfile",
     "add_batch", _add_batch_rows),
    ("experiment.exhaustive_profile", "basisket.experiment", None,
     "exhaustive_profile", _profile_functions),
    ("experiment.sample_attempts", "basisket.experiment", None,
     "_sample_attempts", _attempts),
    ("experiment.stratified_sample_profile", "basisket.experiment", None,
     "stratified_sample_profile", None),
    ("experiment.probe_suite", "basisket.experiment", None,
     "probe_suite", None),
    ("game.bob_pick", "basisket.game", None, "bob_pick", None),
    ("game.play_round", "basisket.game", None, "play_round", None),
    ("game.estimate_win_rate", "basisket.game", None,
     "estimate_win_rate", _rounds),
    ("report.profile_to_json", "basisket.report", None,
     "profile_to_json", None),
    ("report.profile_to_csv", "basisket.report", None,
     "profile_to_csv", None),
    ("report.profile_from_json", "basisket.report", None,
     "profile_from_json", _json_bytes),
    ("cli.cli_dispatch", "basisket.cli", None, "cli_dispatch", None),
)

#: Work counters named by ENTRY_POINTS, as "<span>.<counter>".
WORK_COUNTERS = (
    "classifier.apply_classifier.rows",
    "experiment.batch_thetas.functions",
    "experiment.add_batch.rows",
    "experiment.exhaustive_profile.functions",
    "experiment.sample_attempts.attempts",
    "game.bob_pick.flip_attempts",
    "game.estimate_win_rate.rounds",
    "report.profile_from_json.bytes",
)


#: Layer -> end-to-end metric -> workload: which per-layer spans should
#: move which end-to-end metric on which workload.  Written into every
#: traced result so later changes can cite the names.
LAYER_MAP = {
    "patterns.build_basis_from_recipe": "setup_s on all; pass_s on game",
    "patterns.distance_from_class": "setup_s on all; pass_s on game",
    "classifier.apply_classifier": "items_per_s on game (single rows); "
                                   "pass_s on census (batched)",
    "classifier.outcome_distribution": "items_per_s on game",
    "classifier.classification_threshold": "pass_s on census (probes)",
    "experiment.batch_thetas": "pass_s on census, partly sampled32; "
                               "not game",
    "experiment.add_batch": "pass_s on census, partly sampled32; not game",
    "experiment.sample_attempts": "pass_s and peak_rss_mb on sampled32; "
                                  "game only through bob_pick",
    "experiment.stratified_sample_profile": "pass_s on sampled32",
    "experiment.exhaustive_profile": "pass_s on census",
    "experiment.probe_suite": "pass_s on sampled32 and census",
    "sampler.d<k>": "pass_s and peak_rss_mb on sampled32",
    "game.*": "items_per_s on game; nothing on census or sampled32",
    "report.*, cli.cli_dispatch": "small share of pass_s on census",
}


class Tracer:
    """Records spans and counts while installed; restores on uninstall."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._names: list[str] = []
        self.counts: dict = defaultdict(lambda: defaultdict(int))
        self.pass_id = None
        self._rebound: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "basisket" or name.startswith("basisket.")]
        for span, module, cls, attr, counter in ENTRY_POINTS:
            owner = sys.modules[module]
            if cls is not None:
                owner = getattr(owner, cls)
            original = getattr(owner, attr)
            wrapped = self._wrap(span, original, counter)
            self._rebind(owner, attr, original, wrapped)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, name, original, wrapped)
        if not hasattr(sys.modules["basisket.game"]._sample_attempts,
                       "__wrapped__"):
            raise RuntimeError("game._sample_attempts was not rebound")

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._rebound):
            setattr(owner, name, original)
        self._rebound.clear()

    def _rebind(self, owner, name, original, wrapped) -> None:
        if getattr(owner, name) is wrapped:
            return
        self._rebound.append((owner, name, original))
        setattr(owner, name, wrapped)

    def _wrap(self, span, fn, counter):
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append(index)
            self._names.append(span)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self._names.pop()
                self.spans[index] = (span, start, end, parent, self.pass_id)
            if counter is not None:
                self._count(span, counter(args, kwargs, result))
            if span == "experiment.sample_attempts":
                self._count_sampler(args, result)
            return result
        traced.__wrapped__ = fn
        return traced

    # -- counting -------------------------------------------------------

    def _count(self, span, increments) -> None:
        bucket = self.counts[self.pass_id]
        for key, n in increments.items():
            bucket[f"{span}.{key}"] += n

    def _count_sampler(self, args, values) -> None:
        """Attempts and hits of one flip batch: a hit is a function whose
        true class distance equals the flip distance."""
        members, d, count = args[1], int(args[3]), int(args[4])
        dmin = np.bitwise_count(values[:, None] ^ members[None, :]).min(axis=1)
        bucket = self.counts[self.pass_id]
        bucket[f"sampler.d{d}.attempts"] += count
        bucket[f"sampler.d{d}.hits"] += int(np.count_nonzero(dmin == d))
        if "game.bob_pick" in self._names:
            bucket["game.bob_pick.flip_attempts"] += count

    # -- reporting ------------------------------------------------------

    def pass_metrics(self, pass_id) -> dict[str, float]:
        """calls / busy_s / self_s per entry point plus the work counts of
        one traced pass.  busy_s counts only the outermost span of a name,
        so recursion is not counted twice."""
        child_time: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span[4] == pass_id and span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        out: dict[str, float] = {}
        for name, *_ in ENTRY_POINTS:
            out[f"{name}.calls"] = 0
            out[f"{name}.busy_s"] = 0.0
            out[f"{name}.self_s"] = 0.0
        for index, (name, start, end, parent, pid) in enumerate(self.spans):
            if pid != pass_id:
                continue
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += (end - start) - child_time[index]
            if not self._has_ancestor(index, name):
                out[f"{name}.busy_s"] += end - start
        counts = self.counts[pass_id]
        for key in WORK_COUNTERS:
            out[key] = counts[key]
        for d in SAMPLER_BUCKETS:
            for kind in ("attempts", "hits"):
                out[f"sampler.d{d}.{kind}"] = counts[f"sampler.d{d}.{kind}"]
        # totals include buckets beyond SAMPLER_BUCKETS
        attempts = sum(n for k, n in counts.items()
                       if k.startswith("sampler.d") and k.endswith(".attempts"))
        hits = sum(n for k, n in counts.items()
                   if k.startswith("sampler.d") and k.endswith(".hits"))
        out["sampler.hit_ratio"] = hits / attempts if attempts else 0.0
        return out

    def _has_ancestor(self, index: int, name: str) -> bool:
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def write_spans(self, path) -> None:
        """One JSON array per line: name, start, end, parent index, pass."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def integer_counts(metrics: dict[str, float]) -> dict[str, int]:
    """The exact, seed-determined part of one pass's metrics.  Byte counts
    are left out: profile JSON carries its runtime, whose digits vary."""
    return {k: v for k, v in metrics.items()
            if not k.endswith(("_s", ".bytes")) and k != "sampler.hit_ratio"}


def combine_passes(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Counts of the first pass, median times over all traced passes."""
    out = dict(per_pass[0])
    for key in out:
        if key.endswith("_s"):
            out[key] = statistics.median(p[key] for p in per_pass)
    return out
