"""The benchmark's workloads: the CLI commands of one pass and the checks
of their outputs.

Each workload drives the public command line in process.  Why each one
exists is recorded in BENCHMARK.json; which layer it should show is
tracing.LAYER_MAP.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: Recipes of reference tables 3 (length 8) and 5 (length 16).
CENSUS_RECIPES = ("H,H,H", "H,C2", "C2,H", "H,H,H,H", "H,H,C2", "H,C2,H",
                  "C2,H,H", "C2,C2")
#: Recipes of reference table 8, built by `tables --which 8`.
TABLE_8_RECIPES = ("C2", "C2,C2", "C2,C2,C2")
#: Published cells that the exhaustive census reproducibly misses; the
#: `tables` command must report exactly these, and nothing else.
KNOWN_DIFFS = {
    3: {("H,H,H", 2)},
    5: {("H,H,H,H", 1), ("H,H,H,H", 5), ("H,H,H,H", 7), ("H,H,C2", 1),
        ("H,C2,H", 1), ("C2,H,H", 1)},
}
MEAN_TOL = 1e-12

#: Table 7's recipe, per-bucket quota and attempt cap.
SAMPLE_RECIPE = "C2,C2,H"
SAMPLE_LENGTH = 32
SAMPLE_QUOTA = 200
SAMPLE_DISTANCES = range(1, 16)
SAMPLE_ATTEMPT_FACTOR = 100_000

GAME_TRIALS = 2000
WILSON_Z = 5.0
#: (key, recipe, Bob's arguments, Alice's exact win probability).  The
#: uniform value is sum_d count_d * (mean theta_d if yes(d) else
#: 1 - mean theta_d) / 65520 over the C2,C2 census.
GAMES = (
    ("at_distance_1", "C2,C2", ("--bob", "at_distance", "--distance", "1"),
     0.765625),
    ("pivot", "C2,C2,C2", ("--bob", "pivot"), 0.5625),
    ("uniform", "C2,C2", ("--bob", "uniform_random"), 0.6591346153846154),
)

_DIFF_LINE = re.compile(
    r"^DIFF table (\d+) recipe (\S+) d=(\d+): expected \S+ got (\S+)")


@dataclass(frozen=True)
class Command:
    key: str                 # names the command's output across passes
    argv: tuple[str, ...]
    exit_code: int           # what a correct program returns
    out: str | None = None   # file written through --out


@dataclass
class Output:
    exit_code: int | None    # None when the command raised
    stdout: str
    stderr: str
    files: dict[str, str]    # --out file and its manifest, by name


class Checks:
    """Counts attempted checks and keeps a message per failed one."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(message)
        return ok


def _load_json(out: Output, name: str, checks: Checks, what: str):
    text = out.files.get(name)
    if not checks.expect(text is not None, f"{what}: {name} not written"):
        return None, None
    try:
        return text, json.loads(text)
    except ValueError as exc:
        checks.expect(False, f"{what}: {name} is not JSON ({exc})")
        return None, None


def _round_trip(text: str, rows: list[dict], report, checks: Checks,
                what: str) -> None:
    """report.profile_from_json must give back the written counts."""
    profile = report.profile_from_json(text)
    written = {row["distance"]: row["count"] for row in rows}
    checks.expect(
        all(int(profile.counts[d]) == written.get(d, 0)
            for d in range(profile.length + 1)),
        f"{what}: profile_from_json counts differ from the written rows")


def _without_runtime(text: str):
    doc = json.loads(text)
    doc.pop("runtime_seconds", None)
    return doc


class Workload:
    name: str
    recipes: tuple[str, ...]     # bases built during set-up
    items_per_pass: int
    expected_counts: dict[str, int] = {}   # exact work per traced pass

    def pass_seed(self, seed: int, index: int) -> int:
        """Seed given to the CLI in pass `index` of a run with `seed`."""
        return seed

    def commands(self, pass_seed: int, workdir: Path) -> list[Command]:
        raise NotImplementedError

    def check(self, outputs: dict[str, Output], pass_seed: int, report,
              checks: Checks) -> None:
        raise NotImplementedError

    @staticmethod
    def fingerprint(outputs: dict[str, Output]) -> dict:
        """What two passes with the same seed must reproduce exactly:
        exit codes, stdout and written files, minus runtime fields."""
        return {key: (o.exit_code, o.stdout,
                      {name: _without_runtime(text)
                       for name, text in sorted(o.files.items())})
                for key, o in outputs.items()}


class Census(Workload):
    """Exhaustive tables 3, 5 and 8; the seed only orders the commands."""

    name = "census"
    recipes = CENSUS_RECIPES + tuple(
        r for r in TABLE_8_RECIPES if r not in CENSUS_RECIPES)

    def __init__(self) -> None:
        self.expected = json.loads(
            (HERE / "expected_census.json").read_text(encoding="utf-8"))
        # every recipe is enumerated once and again by its `tables` diff
        functions = 2 * sum(row["count"] for doc in self.expected.values()
                            for row in doc["rows"])
        self.items_per_pass = functions
        self.expected_counts = {
            "experiment.exhaustive_profile.functions": functions,
            "experiment.batch_thetas.functions": functions,
            "experiment.add_batch.rows": functions,
        }

    def commands(self, pass_seed, workdir):
        cmds = [Command(f"enumerate {r}",
                        ("enumerate", "--recipe", r, "--format", "json",
                         "--out", str(workdir / f"census-{r}.json")),
                        0, str(workdir / f"census-{r}.json"))
                for r in CENSUS_RECIPES]
        cmds += [Command(f"tables {w}", ("tables", "--which", str(w)),
                         2 if w in KNOWN_DIFFS else 0)
                 for w in (3, 5, 8)]
        random.Random(pass_seed).shuffle(cmds)
        return cmds

    def _mean(self, recipe: str, d: int) -> float | None:
        doc = self.expected[recipe]
        for row in doc["rows"]:
            if row["distance"] == d:
                return row["theta_sum"] / (row["count"] * doc["denominator"])
        return None

    def check(self, outputs, pass_seed, report, checks):
        for r in CENSUS_RECIPES:
            what = f"census enumerate {r}"
            out = outputs[f"enumerate {r}"]
            text, doc = _load_json(out, f"census-{r}.json", checks, what)
            if doc is None:
                continue
            exp = self.expected[r]
            den = exp["denominator"]
            got = {row["distance"]: row for row in doc["rows"]}
            want = {row["distance"]: row for row in exp["rows"]}
            checks.expect(
                doc["length"] == exp["length"] and got.keys() == want.keys()
                and all(got[d]["count"] == want[d]["count"] for d in want),
                f"{what}: counts differ from the expected census")
            for d in sorted(want.keys() & got.keys()):
                w, g = want[d], got[d]
                checks.expect(
                    abs(g["mean_theta"] - w["theta_sum"] / (w["count"] * den))
                    <= MEAN_TOL
                    and abs(g["min_theta"] - w["theta_min"] / den) <= MEAN_TOL
                    and abs(g["max_theta"] - w["theta_max"] / den) <= MEAN_TOL,
                    f"{what}: d={d} mean/min/max differ from the census")
            _round_trip(text, doc["rows"], report, checks, what)
        for which, known in sorted(KNOWN_DIFFS.items()):
            stdout = outputs[f"tables {which}"].stdout
            found = {}
            for line in stdout.splitlines():
                m = _DIFF_LINE.match(line)
                if m and int(m.group(1)) == which:
                    found[(m.group(2), int(m.group(3)))] = float(m.group(4))
            checks.expect(found.keys() == known,
                          f"tables {which}: DIFF cells {sorted(found)} are "
                          f"not the known {sorted(known)}")
            for (recipe, d), value in sorted(found.items()):
                mean = self._mean(recipe, d) if recipe in self.expected else None
                checks.expect(mean is not None and abs(value - mean) <= 1e-6,
                              f"tables {which}: {recipe} d={d} reports "
                              f"{value}, census mean is {mean}")


class Sampled32(Workload):
    """Table 7's stratified profile.  Attempts per pass vary with the seed,
    so passes after the second draw new seeds and a run's median averages
    over several sampler draws; pass 1 repeats pass 0's seed to check
    reproducibility on a timed pass."""

    name = "sampled32"
    recipes = (SAMPLE_RECIPE,)
    items_per_pass = SAMPLE_QUOTA * len(SAMPLE_DISTANCES)

    def pass_seed(self, seed, index):
        return 1000 * seed + max(index - 1, 0)

    def commands(self, pass_seed, workdir):
        out = str(workdir / "sampled32.json")
        quotas = []
        for d in SAMPLE_DISTANCES:
            quotas += ["--quota", f"{d}={SAMPLE_QUOTA}"]
        argv = ("sample", "--recipe", SAMPLE_RECIPE, "--seed", str(pass_seed),
                *quotas, "--attempt-factor", str(SAMPLE_ATTEMPT_FACTOR),
                "--format", "json", "--out", out)
        return [Command("sample", argv, 0, out)]

    def check(self, outputs, pass_seed, report, checks):
        what = f"sampled32 seed {pass_seed}"
        out = outputs["sample"]
        text, doc = _load_json(out, "sampled32.json", checks, what)
        if doc is None:
            return
        checks.expect(not doc["short_buckets"]
                      and "short buckets" not in out.stdout,
                      f"{what}: short buckets {doc['short_buckets']}")
        rows = {row["distance"]: row for row in doc["rows"]}
        checks.expect(
            set(rows) == set(SAMPLE_DISTANCES)
            and all(rows[d]["count"] >= SAMPLE_QUOTA for d in SAMPLE_DISTANCES),
            f"{what}: buckets {sorted(rows)} do not all meet the quota")
        for d, row in sorted(rows.items()):
            base = (1 - 2 * d / SAMPLE_LENGTH) ** 2
            for key in ("min_theta", "max_theta"):
                k = round(row[key] / base) if base else 0
                # below L/4 the nearest member is unique, so k must be 1
                ok = abs(row[key] - k * base) <= MEAN_TOL and (
                    k == 1 if d < SAMPLE_LENGTH // 4 else k >= 0)
                checks.expect(ok, f"{what}: d={d} {key} {row[key]!r} is not "
                                  f"a multiple of (1-2d/L)^2 = {base!r}")
            checks.expect(
                row["min_theta"] - MEAN_TOL <= row["mean_theta"]
                <= row["max_theta"] + MEAN_TOL,
                f"{what}: d={d} mean outside [min, max]")
        _round_trip(text, doc["rows"], report, checks, what)


class Game(Workload):
    """Three games; the seed varies every round's draws."""

    name = "game"
    recipes = ("C2,C2", "C2,C2,C2")
    items_per_pass = GAME_TRIALS * len(GAMES)
    expected_counts = {"game.estimate_win_rate.rounds": GAME_TRIALS * len(GAMES)}

    def commands(self, pass_seed, workdir):
        return [Command(key, ("game", "--recipe", recipe, *bob,
                              "--alice", "interval_threshold",
                              "--seed", str(pass_seed),
                              "--trials", str(GAME_TRIALS)), 0)
                for key, recipe, bob, _ in GAMES]

    def check(self, outputs, pass_seed, report, checks):
        for key, _, _, exact in GAMES:
            what = f"game {key} seed {pass_seed}"
            try:
                doc = json.loads(outputs[key].stdout)
            except ValueError as exc:
                checks.expect(False, f"{what}: stdout is not JSON ({exc})")
                continue
            n = doc["trials"]
            rate = doc["alice_win_rate"]
            checks.expect(n == GAME_TRIALS and doc["seed"] == pass_seed
                          and abs(rate * n - round(rate * n)) < 1e-6,
                          f"{what}: trials/seed/rate inconsistent: {doc}")
            low, high = wilson_interval(rate, n, WILSON_Z)
            checks.expect(low <= exact <= high,
                          f"{what}: exact win rate {exact} outside the z=5 "
                          f"Wilson interval [{low:.4f}, {high:.4f}] of {rate}")


def wilson_interval(rate: float, n: int, z: float) -> tuple[float, float]:
    z2 = z * z
    centre = (rate + z2 / (2 * n)) / (1 + z2 / n)
    half = z / (1 + z2 / n) * math.sqrt(rate * (1 - rate) / n + z2 / (4 * n * n))
    return centre - half, centre + half


WORKLOADS = {w.name: w for w in (Census, Sampled32, Game)}
