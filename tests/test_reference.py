"""The published-table checker: cells, open bounds and enumeration counts."""

import math

import numpy as np
import pytest

from basisket import exhaustive_profile, reference
from basisket.classifier import ClassifierSpec, member_array, member_distances
from basisket.experiment import DistanceProfile

#: each table 3/5 recipe with its published column
EXHAUSTIVE_COLUMNS = [(recipe, column)
                      for pairs in reference.EXHAUSTIVE_TABLES.values()
                      for recipes, column in pairs for recipe in recipes]


def test_exhaustive_tables_enumerate_each_recipe_once(monkeypatch):
    seen = []

    def counting(recipe):
        seen.append(tuple(recipe))
        return exhaustive_profile(recipe)

    monkeypatch.setattr(reference, "exhaustive_profile", counting)
    assert len(reference.check_table(3)) == 1
    assert seen == list(reference.TABLE_3_RECIPES)
    seen.clear()
    assert len(reference.check_table(5)) == 6
    assert seen == [*reference.TABLE_5_GENERIC_RECIPES, ("C2", "C2")]


def test_table_7_bounds_are_open_and_empty_buckets_fail(monkeypatch):
    # every bucket strictly inside its region except d=8, whose mean is
    # 2 * (1 - 16/32)**2 = 0.5 exactly (the upper bound), and d=9, empty
    profile = DistanceProfile.empty(reference.TABLE_7_RECIPE, "sampled")
    for d in range(1, 16):
        profile.nearest[d, 1] = 1
    profile.nearest[8] = 0
    profile.nearest[8, 2] = 1
    profile.nearest[9] = 0
    monkeypatch.setattr(reference, "stratified_sample_profile",
                        lambda *args, **kwargs: profile)
    on_bound, empty = reference.check_table(7)
    assert (on_bound.distance, on_bound.expected, on_bound.actual,
            on_bound.tolerance) == (8, 0.25, 0.5, 0.25)
    assert empty.distance == 9 and math.isnan(empty.actual)


def test_table_8_rho_follows_the_class_length_not_its_position(monkeypatch):
    monkeypatch.setattr(reference, "TABLE_8_RHO", {("C2", "C2"): 10})
    assert reference.check_table(8) == []
    monkeypatch.setattr(reference, "TABLE_8_RHO", {("C2", "C2"): 11})
    # the zero count, its recurrence and the all-ones distance all differ
    assert [(d.distance, d.expected, d.actual)
            for d in reference.check_table(8)] == [
        (0, 11, 10), (0, 11, 10), (11, 11, 10)]


@pytest.mark.parametrize("recipe,column", EXHAUSTIVE_COLUMNS,
                         ids=[",".join(r) for r, _ in EXHAUSTIVE_COLUMNS])
def test_published_zeros_beyond_the_covering_radius_are_empty(recipe, column):
    # the covering radius by word popcount over every function, not by
    # the half-word tables of exhaustive_profile: the published cells
    # beyond it are all 0.0 and check an empty distance, and every cell
    # up to it has functions
    spec = ClassifierSpec(recipe)
    radius = int(member_distances(member_array(spec),
                                  np.arange(1 << spec.dim))[1].max())
    rows = exhaustive_profile(recipe).rows()
    assert radius == max(rows)
    assert all(column[d] == 0.0 for d in column if d > radius)
    assert all(d in rows for d in column if d <= radius)
