"""Published reference tables as data, and the one checker that diffs them.

Tables 3 and 5 (exhaustive means, lengths 8 and 16) are (recipes sharing
a column, column) pairs; table 7 (length 32) is a sampler recipe, seed and
quota with open mean intervals over distance regions; table 8 is the
uniform zero count rho of each pure-C2 class, where the all-ones probe
must spike to threshold 1.  `check_table` turns a table into its cells
(recipe, d, expected, actual, tolerance) and returns those not strictly
within tolerance: +/- 0.005 for two-decimal cells, 1e-9 for exact claims.
A table 3/5 distance that no function reaches reads 0.0: the 50 published
0.0 cells beyond each recipe's covering radius (4 at length 8, 8 for the
mixed length-16 recipes, 10 for C2,C2) check an empty distance.
A table 7 region becomes its midpoint and half-width, so its bounds stay
open: a mean exactly on a bound fails, and so does an empty bucket (NaN).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .classifier import ClassifierSpec, classification_threshold
from .experiment import (exhaustive_profile, probe_suite,
                         stratified_sample_profile)
from .patterns import PatternVector, class_rho, rho_recurrence

#: Comparison tolerance for two-decimal reference cells.
CELL_TOL = 0.005
#: Tolerance for exact claims.
EXACT_TOL = 1e-9


@dataclass(frozen=True)
class CellDiff:
    table: int
    recipe: str
    distance: int
    expected: float
    actual: float
    tolerance: float

    def __str__(self) -> str:
        return (f"table {self.table} recipe {self.recipe} d={self.distance}: "
                f"expected {self.expected} got {self.actual:.6f} "
                f"(tol {self.tolerance})")


# Reference table 3: length-8 exhaustive thresholds, reported as one
# shared column for all three length-8 recipes.  Distances 4..8 are 0.
TABLE_3_RECIPES = (("H", "H", "H"), ("H", "C2"), ("C2", "H"))
TABLE_3 = {1: 0.56, 2: 0.54, 3: 0.22, 4: 0.0, 5: 0.0, 6: 0.0, 7: 0.0, 8: 0.0}

# Reference table 5: length-16 exhaustive thresholds.  One column for
# the four mixed recipes, a separate column for the pure-C2 recipe with
# its nonzero cells at distances 9 and 10.
TABLE_5_GENERIC_RECIPES = (
    ("H", "H", "H", "H"), ("H", "H", "C2"), ("H", "C2", "H"), ("C2", "H", "H"))
TABLE_5_GENERIC = {
    1: 0.76, 2: 0.56, 3: 0.39, 4: 0.34, 5: 0.36, 6: 0.27, 7: 0.10,
    **{d: 0.0 for d in range(8, 17)},
}
TABLE_5_C2C2 = {
    1: 0.77, 2: 0.56, 3: 0.39, 4: 0.34, 5: 0.36, 6: 0.27, 7: 0.09,
    8: 0.0, 9: 0.16, 10: 1.0, **{d: 0.0 for d in range(11, 17)},
}

#: Tables 3 and 5 as (recipes sharing a column, column) pairs.
EXHAUSTIVE_TABLES = {
    3: ((TABLE_3_RECIPES, TABLE_3),),
    5: ((TABLE_5_GENERIC_RECIPES, TABLE_5_GENERIC),
        ((("C2", "C2"),), TABLE_5_C2C2)),
}

# Reference table 7: length-32 sampled thresholds, reported as interval
# membership only.  (low d, high d, low mean, high mean) with open mean
# bounds; the 16..32 region is exactly 0 and covered by member-complement
# probes.
TABLE_7_RECIPE = ("C2", "C2", "H")
TABLE_7_REGIONS = (
    (1, 4, 0.5, 1.0),
    (5, 15, 0.0, 0.5),
)
TABLE_7_SEED = 42
TABLE_7_QUOTA = 200
#: Sampling attempt cap per bucket, as a multiple of the quota.
TABLE_7_ATTEMPT_FACTOR = 100_000

# Reference table 8: uniform zero counts of the pure-C2 classes and the
# threshold-1 spike of the all-ones probe at that distance.
TABLE_8_RHO = {
    ("C2",): 3,
    ("C2", "C2"): 10,
    ("C2", "C2", "C2"): 36,
}


def cell_tolerance(expected: float) -> float:
    """Exact claims (0.0 and 1.0) get the tight tolerance."""
    return EXACT_TOL if expected in (0.0, 1.0) else CELL_TOL


def check_table(which: int) -> list[CellDiff]:
    """The cells of table `which` that are not strictly within tolerance."""
    return [CellDiff(which, *cell) for cell in _cells(which)
            if not abs(cell[3] - cell[2]) < cell[4]]


def _cells(which: int):
    """Yield (recipe, d, expected, actual, tolerance) per cell of a table."""
    if which == 7:
        name = ",".join(TABLE_7_RECIPE)
        profile = stratified_sample_profile(
            TABLE_7_RECIPE, {d: TABLE_7_QUOTA for d in range(1, 16)},
            TABLE_7_SEED, attempt_factor=TABLE_7_ATTEMPT_FACTOR)
        rows = profile.rows()
        for low, high, lo, hi in TABLE_7_REGIONS:
            for d in range(low, high + 1):
                mean = rows[d].mean if d in rows else math.nan
                yield name, d, (lo + hi) / 2, mean, (hi - lo) / 2
        for probe, report in probe_suite(TABLE_7_RECIPE):
            if probe.startswith("complement_of_member"):
                yield (name, report.nearest.distance, 0.0, report.theta,
                       EXACT_TOL)
    elif which == 8:
        for recipe, rho in TABLE_8_RHO.items():
            name = ",".join(recipe)
            spec = ClassifierSpec(recipe)
            all_ones = classification_threshold(
                spec, PatternVector((1 << spec.dim) - 1, spec.dim))
            yield name, 0, rho, class_rho(spec.basis()), EXACT_TOL
            yield name, 0, rho, rho_recurrence(len(recipe)), EXACT_TOL
            yield name, rho, rho, all_ones.nearest.distance, EXACT_TOL
            yield name, rho, 1.0, all_ones.theta, EXACT_TOL
    else:
        for recipes, column in EXHAUSTIVE_TABLES[which]:
            for recipe in recipes:
                rows = exhaustive_profile(recipe).rows()
                for d, want in column.items():
                    actual = rows[d].mean if d in rows else 0.0
                    yield ",".join(recipe), d, want, actual, cell_tolerance(want)
