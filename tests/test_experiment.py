import dataclasses
import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from basisket import (
    ClassifierSpec,
    DistanceProfile,
    PatternVector,
    classification_threshold,
    distance_from_class,
    exhaustive_profile,
    interval_summary,
    merge_profiles,
    class_rho,
    probe_suite,
    stratified_sample_profile,
)
from basisket.classifier import member_array, member_distances
from basisket.experiment import (
    BLOCK,
    GUIDE_BITS,
    _batch_thetas,
    _compositions,
    _popcount_sorted_words,
    _sample_attempts,
    _unrank_subsets,
    regions,
)
from basisket.report import profile_from_json, profile_to_json
from conftest import all_recipes

# frozen exhaustive aggregates for the pure rank-4 recipe:
# distance -> (function count, exact mean threshold)
C2C2_EXPECTED = {
    0: (16, 1.0),
    1: (256, 49 / 64),
    2: (1920, 9 / 16),
    3: (8960, 25 / 64),
    4: (21200, 0.3433962264150943),
    5: (21760, 0.36479779411764707),
    6: (9415, 0.27063197026022306),
    7: (1776, 0.0929054054054054),
    8: (216, 0.0),
    9: (16, 5 / 32),
    10: (1, 1.0),
}

SAMPLED_RECIPE = ("C2", "C2", "H")  # length 32, the smallest sampled rank


def quota_unmet(counts, quotas):
    """The distances whose count is below their quota, ascending."""
    return tuple(d for d, q in sorted(quotas.items()) if counts[d] < q)


class TestExhaustiveProfile:
    def test_rank4_full_census(self):
        profile = exhaustive_profile(("C2", "C2"))
        assert profile.total() == 1 << 16
        rows = profile.rows()
        assert list(rows) == sorted(C2C2_EXPECTED)
        for d, (count, mean) in C2C2_EXPECTED.items():
            assert profile.counts[d] == rows[d].count == count
            # exact: the mean is the correctly rounded rational
            assert rows[d].mean == mean

    def test_rank3_counts_and_means(self):
        profile = exhaustive_profile(("H", "C2"))
        assert [int(profile.counts[d]) for d in range(5)] == [8, 64, 104, 64, 16]
        rows = profile.rows()
        assert rows[1].mean == pytest.approx(0.5625, abs=1e-12)
        assert rows[2].mean == pytest.approx(7 / 13, abs=1e-12)
        assert rows[3].mean == pytest.approx(0.21875, abs=1e-12)
        assert rows[4].mean == pytest.approx(0.0, abs=1e-9)
        # distance 2 spans a wide threshold range, up to a perfect score
        assert rows[2].min_theta == 0.25
        assert rows[2].max_theta == 1.0
        # no length-8 function is 5 or more from this class
        assert list(rows) == [0, 1, 2, 3, 4]

    def test_batch_thetas_is_independent_of_blocking(self):
        # the kernel walks its values BLOCK at a time; any split of a
        # batch, on or off the block edges, must give the same rows
        spec = ClassifierSpec(("C2", "C2", "C2"))
        basis, members, length = spec.basis(), member_array(spec), spec.dim
        rng = np.random.default_rng(8)
        values = rng.integers(0, 1 << length, size=2 * BLOCK + 17,
                              dtype=np.uint64)
        dmin, sizes = _batch_thetas(spec, members, values)
        assert dmin.dtype == sizes.dtype == np.int64
        parts = [_batch_thetas(spec, members, part) for part in
                 np.split(values, [1, BLOCK - 1, BLOCK + 1])]
        assert np.array_equal(dmin, np.concatenate([p[0] for p in parts]))
        assert np.array_equal(sizes, np.concatenate([p[1] for p in parts]))
        for i in rng.choice(len(values), size=256, replace=False):
            h = PatternVector(int(values[i]), length)
            nearest = distance_from_class(basis, h)
            d, k = int(dmin[i]), int(sizes[i])
            assert (d, k) == (nearest.distance, len(nearest.indices))
            assert classification_threshold(spec, h).theta == \
                k * ((length - 2 * d) / length) ** 2

    def test_progress_callback(self):
        seen = []
        exhaustive_profile(("H", "H"), progress=lambda done, total: seen.append((done, total)))
        assert seen == [(16, 16)]
        # a census reports once per BLOCK of values
        seen.clear()
        exhaustive_profile(("C2", "C2"), progress=lambda done, total: seen.append((done, total)))
        total = 1 << 16
        assert seen == [(min(start + BLOCK, total), total)
                        for start in range(0, total, BLOCK)]

    def test_rank_cap(self):
        with pytest.raises(ValueError, match="exhaustive cap"):
            exhaustive_profile(SAMPLED_RECIPE)

    def test_spot_check_against_scalar_path(self):
        # batch aggregation must agree with the scalar nearest-set oracle
        # and the closed form theta = |N| ((L - 2d) / L)**2
        spec = ClassifierSpec(("C2", "H"))
        basis = spec.basis()
        profile = exhaustive_profile(spec.factors)
        check = DistanceProfile.empty(spec.factors, "exhaustive")
        thetas: dict[int, list[float]] = {}
        for value in range(256):
            nearest = distance_from_class(basis, PatternVector(value, 8))
            d, k = nearest.distance, len(nearest.indices)
            check.add_batch(np.array([d]), np.array([k]))
            thetas.setdefault(d, []).append(k * ((8 - 2 * d) / 8) ** 2)
        assert np.array_equal(profile.nearest, check.nearest)
        rows = profile.rows()
        assert sorted(thetas) == list(rows)
        for d, ts in thetas.items():
            # the thetas are dyadic, so their sum is exact
            assert rows[d].mean == math.fsum(ts) / len(ts)
            assert rows[d].min_theta == min(ts)
            assert rows[d].max_theta == max(ts)


#: every recipe short enough to enumerate, L <= 16
EXHAUSTIVE_RECIPES = [",".join(recipe) for recipe in all_recipes(4)]


def test_one_exhaustive_table_per_factor_multiset():
    # swapping two factors transposes the bit positions and relabels the
    # members the same way, an isometry that keeps every (d, |N|)
    tables: dict[tuple[str, ...], list[np.ndarray]] = {}
    for recipe in all_recipes(4):
        tables.setdefault(tuple(sorted(recipe)), []).append(
            exhaustive_profile(recipe).nearest)
    assert len(EXHAUSTIVE_RECIPES) == 11 and len(tables) == 8
    for first, *rest in tables.values():
        assert all(np.array_equal(table, first) for table in rest)
    firsts = [group[0] for group in tables.values()]
    for i, a in enumerate(firsts):
        for b in firsts[i + 1:]:
            assert not np.array_equal(a, b)


#: |G| for each recipe with L <= 16, G = {t : S xor t = S} the translation
#: group of its member set S
TRANSLATION_GROUP_ORDERS = {
    "H": 2, "C2": 1, "H,H": 4, "H,C2": 2, "C2,H": 2, "H,H,H": 8,
    "C2,C2": 1, "H,H,C2": 4, "H,C2,H": 4, "C2,H,H": 4, "H,H,H,H": 16}


@pytest.mark.parametrize("recipe", EXHAUSTIVE_RECIPES)
def test_class_distance_is_constant_on_cosets(recipe):
    # h xor t is as far from m xor t as h is from m, and t in G permutes
    # the members, so every function of h xor G has h's (d, |N|)
    members = member_array(ClassifierSpec(recipe.split(",")))
    group = [t for t in members ^ members[0]
             if set((members ^ t).tolist()) == set(members.tolist())]
    assert len(group) == TRANSLATION_GROUP_ORDERS[recipe]
    values = np.arange(1 << len(members), dtype=members.dtype)
    dist, dmin = member_distances(members, values)
    cells = (dmin.astype(np.int64) * (len(members) + 1)
             + (dist == dmin).sum(axis=0))  # (d, |N|) as one int
    for t in group:
        assert np.array_equal(cells[values ^ t], cells)


@pytest.fixture(scope="module")
def sampled_shards():
    quotas = {1: 20, 4: 20, 9: 20, 13: 5}
    return [stratified_sample_profile(SAMPLED_RECIPE, quotas, seed=seed)
            for seed in (1, 2)]


class TestRows:
    @pytest.mark.parametrize("case",
                             [*EXHAUSTIVE_RECIPES, "sampled", "merged"])
    def test_rows_are_the_exact_rationals(self, sampled_shards, case):
        if case == "sampled":
            profile = sampled_shards[0]
        elif case == "merged":
            profile = merge_profiles(*sampled_shards)
        else:
            profile = exhaustive_profile(case.split(","))
        # theta = k (L - 2d)**2 / L**2 for each of the n_k functions with
        # k nearest members; each statistic is its rational, rounded once
        length, rows = profile.length, profile.rows()
        populated = [d for d in range(length + 1) if profile.nearest[d].any()]
        assert list(rows) == populated  # ascending, every populated row
        for d, bucket in rows.items():
            row = {k: int(n) for k, n in enumerate(profile.nearest[d]) if n}
            count = sum(row.values())
            scale = (length - 2 * d) ** 2
            assert bucket.nearest == row
            assert bucket.count == count == profile.counts[d]
            assert bucket.mean == float(Fraction(
                sum(k * n * scale for k, n in row.items()),
                count * length ** 2))
            assert bucket.min_theta == float(
                Fraction(min(row) * scale, length ** 2))
            assert bucket.max_theta == float(
                Fraction(max(row) * scale, length ** 2))
            # the mean is exact, so it never leaves [min, max]
            assert bucket.min_theta <= bucket.mean <= bucket.max_theta

    def test_empty_profile_has_no_rows(self):
        assert DistanceProfile.empty(("H",), "exhaustive").rows() == {}


def _exhaustive_unrank_cases():
    for length, ds in ((8, range(9)), (16, range(17)), (32, range(4)),
                       (64, (1, 2, 63, 64))):
        for d in ds:
            yield length, d


class TestSubsetDraw:
    @pytest.mark.parametrize("length,d", list(_exhaustive_unrank_cases()))
    def test_unranking_is_a_bijection_onto_popcount_d(self, length, d):
        masks = _unrank_subsets(
            np.arange(math.comb(length, d), dtype=np.int64), length, d)
        assert masks.dtype == (np.uint32 if length <= 32 else np.uint64)
        assert np.all(np.bitwise_count(masks) == d)
        assert np.unique(masks).size == math.comb(length, d)
        if length < 64:
            assert masks.max() < 1 << length

    @pytest.mark.parametrize("length", [8, 16, 32, 64])
    def test_guide_gives_the_searched_row_at_composition_edges(self, length):
        # a composition's first rank, the rank before it and the last
        # rank are where a guide cell one row off would show
        for d in range(length + 1):
            table = _compositions(length, d)
            total = math.comb(length, d)
            edges = np.unique(np.concatenate(
                [table.starts - 1, table.starts, [total - 1]]))
            edges = edges[edges >= 0]
            assert np.array_equal(
                table.rows(edges),
                np.searchsorted(table.starts, edges, side="right") - 1)
            # each cell names the composition of its first rank, and the
            # cells cover every rank with at most 2**GUIDE_BITS of them
            first = np.arange(table.guide.size, dtype=np.int64) << table.shift
            assert np.all(table.starts[table.guide] <= first)
            assert np.all(first < table.ends[table.guide])
            assert first[-1] < total <= (table.guide.size << table.shift)
            assert table.guide.size <= 1 << GUIDE_BITS

    def test_top_ranks_of_long_words(self):
        # the ranks near C(64, 32) ~ 1.8e18 stay exact in int64
        top = math.comb(64, 32)
        ranks = np.array([0, 1, top // 2, top - 2, top - 1], dtype=np.int64)
        masks = _unrank_subsets(ranks, 64, 32)
        assert np.all(np.bitwise_count(masks) == 32)
        assert np.unique(masks).size == ranks.size

    @pytest.mark.parametrize("length", [2, 4, 8, 16, 32, 64])
    def test_attempts_flip_exactly_d_bits(self, length):
        rng = np.random.default_rng(5)
        members = np.zeros(1, dtype=np.uint64)
        for d in sorted({1, length // 2, length}):
            values = _sample_attempts(rng, members, length, d, 300)
            assert np.all(np.bitwise_count(values) == d)

    @pytest.mark.parametrize("recipe,d", [(("C2", "C2", "H"), 15),
                                          (("C2", "C2", "C2"), 8),
                                          (("C2", "C2", "C2"), 30)])
    def test_blocked_flips_equal_the_whole_batch(self, recipe, d):
        # three blocks, the last one partial, against one unranking of
        # the same two draws made by a twin generator; the rank ranges
        # take numpy's 32-bit (C(32, 15)) and 64-bit bounded draws
        spec = ClassifierSpec(recipe)
        members, length, count = member_array(spec), spec.dim, 2 * BLOCK + 17
        twin = np.random.default_rng(11)
        picks = twin.integers(0, len(members), size=count)
        ranks = twin.integers(0, math.comb(length, d), size=count,
                              dtype=np.int64)
        values = _sample_attempts(np.random.default_rng(11), members,
                                  length, d, count)
        assert values.dtype == members.dtype
        assert np.array_equal(
            values, members.take(picks) ^ _unrank_subsets(ranks, length, d))

    def test_attempts_working_set_is_the_batch_words(self, heap_peak):
        # a 131,072-attempt L = 32 batch at d = 15: its uint32 words are
        # 512 KB and its int64 picks and ranks would be 1 MB each.  Bound:
        # the words plus eight int64 BLOCK arrays, 512 KB (measured 0.91
        # MB; 2.85 MB when both draws covered the whole batch)
        members = member_array(ClassifierSpec(SAMPLED_RECIPE))
        _sample_attempts(np.random.default_rng(1), members, 32, 15, 64)
        count = 1 << 17
        peak, values = heap_peak(lambda: _sample_attempts(
            np.random.default_rng(1), members, 32, 15, count))
        assert values.nbytes == 4 * count
        assert peak <= values.nbytes + 8 * 8 * BLOCK

    def test_word_table_is_small(self):
        table = _popcount_sorted_words(16)
        assert table.dtype == np.uint16 and table.nbytes == 1 << 17
        assert np.all(np.diff(np.bitwise_count(table).astype(int)) >= 0)

    @pytest.mark.parametrize("length,d", [(8, 3), (32, 2)])
    def test_subsets_are_uniform(self, length, d):
        # 200 draws per subset on average: every subset turns up, each
        # count within z=5 of 200 (the L=32 case spans two chunks)
        subsets = math.comb(length, d)
        rng = np.random.default_rng(2)
        values = _sample_attempts(rng, np.zeros(1, dtype=np.uint64), length,
                                  d, 200 * subsets)
        masks, counts = np.unique(values, return_counts=True)
        assert masks.size == subsets
        sigma = math.sqrt(200 * (1 - 1 / subsets))
        assert np.all(np.abs(counts - 200) < 5 * sigma)


class TestStratifiedSampleProfile:
    def test_meets_quota_and_is_deterministic(self):
        quotas = {1: 20, 2: 20, 3: 20, 8: 20}
        a = stratified_sample_profile(SAMPLED_RECIPE, quotas, seed=7)
        b = stratified_sample_profile(SAMPLED_RECIPE, quotas, seed=7)
        for d in quotas:
            assert a.counts[d] >= quotas[d]
        assert a.short_buckets == ()
        assert np.array_equal(a.nearest, b.nearest)
        c = stratified_sample_profile(SAMPLED_RECIPE, quotas, seed=8)
        assert not np.array_equal(a.nearest, c.nearest)

    def test_same_seed_gives_the_same_json(self):
        quotas = {1: 30, 6: 30, 12: 10}
        a, b = (profile_to_json(stratified_sample_profile(
            SAMPLED_RECIPE, quotas, seed=11)) for _ in range(2))
        assert a == b

    def test_sampled_thetas_are_exact_per_function(self):
        # re-derive one low-distance bucket analytically: every distance-1
        # function of this recipe scores the same exact threshold
        profile = stratified_sample_profile(SAMPLED_RECIPE, {1: 50}, seed=3)
        spec = ClassifierSpec(SAMPLED_RECIPE)
        basis = spec.basis()
        h = PatternVector(basis.members[0].value ^ 1, 32)
        nearest = distance_from_class(basis, h)
        assert nearest.distance == 1
        want = len(nearest.indices) * ((32 - 2) / 32) ** 2
        assert profile.rows()[1].min_theta == want
        assert profile.rows()[1].max_theta == want

    def test_unreachable_bucket_is_flagged_not_fatal(self):
        # distance-15 hits are ~5e-5 of attempts; a factor-2 cap must
        # come up short and say so
        profile = stratified_sample_profile(
            SAMPLED_RECIPE, {15: 50}, seed=1, attempt_factor=2)
        assert 15 in profile.short_buckets
        assert profile.counts[15] < 50

    def test_short_buckets_are_read_off_the_table(self):
        # a flip at target 13..16 often lands nearer: the rows at 10 and
        # 11 end with 61 and 35 functions, over their quota of 20
        profile = stratified_sample_profile(
            SAMPLED_RECIPE, {d: 20 for d in range(10, 17)}, seed=0,
            attempt_factor=1)
        assert profile.short_buckets == (12, 13, 14, 15, 16)
        assert profile.short_buckets == quota_unmet(profile.counts,
                                                    profile.quotas)

    def test_short_buckets_is_not_a_field(self):
        profile = stratified_sample_profile(SAMPLED_RECIPE, {1: 5}, seed=0)
        assert "short_buckets" not in {
            f.name for f in dataclasses.fields(DistanceProfile)}
        with pytest.raises(AttributeError):
            profile.short_buckets = (1,)

    def test_quota_distance_range(self):
        with pytest.raises(ValueError, match="outside"):
            stratified_sample_profile(SAMPLED_RECIPE, {17: 10}, seed=0)
        with pytest.raises(ValueError, match="outside"):
            stratified_sample_profile(SAMPLED_RECIPE, {0: 10}, seed=0)

    @pytest.mark.parametrize("quota", [0, -3])
    def test_quota_must_be_positive(self, quota):
        with pytest.raises(ValueError, match="quota at distance 1"):
            stratified_sample_profile(SAMPLED_RECIPE, {2: 5, 1: quota}, seed=0)

    @pytest.mark.parametrize("factor", [0, -1])
    def test_attempt_factor_must_be_positive(self, factor):
        with pytest.raises(ValueError, match="attempt_factor"):
            stratified_sample_profile(SAMPLED_RECIPE, {1: 5}, seed=0,
                                      attempt_factor=factor)

    @pytest.mark.parametrize("recipe", [("C2", "C2"), ("H", "H", "H", "H")],
                             ids=",".join)
    def test_flips_below_a_quarter_land_at_their_distance(self, recipe):
        # below L/4 a flip of d bits of a member is d from it and at least
        # L/2 - d > d from every other member: |N| = 1 at distance d
        length = ClassifierSpec(recipe).dim
        quotas = {d: 30 for d in range(1, length // 4)}
        profile = stratified_sample_profile(recipe, quotas, seed=2)
        rows = profile.rows()
        assert list(rows) == list(quotas)
        assert profile.short_buckets == ()
        for d, bucket in rows.items():
            assert bucket.nearest == {1: bucket.count}
            assert bucket.min_theta == bucket.max_theta == \
                (1 - 2 * d / length) ** 2

    @pytest.mark.parametrize("recipe", EXHAUSTIVE_RECIPES)
    def test_sampled_cells_are_exhaustive_cells(self, recipe):
        # every (d, |N|) cell a flip reaches holds functions in the census
        recipe = recipe.split(",")
        half = ClassifierSpec(recipe).dim // 2
        profile = stratified_sample_profile(
            recipe, {d: 40 for d in range(1, half + 1)}, seed=5)
        exact = exhaustive_profile(recipe)
        assert profile.total() >= 40 * half
        assert not np.any((profile.nearest > 0) & (exact.nearest == 0))


class TestProbeSuite:
    def test_pure_rank4_probes(self):
        probes = dict(probe_suite(("C2", "C2")))
        assert probes["all_ones"].nearest.distance == 10
        assert probes["all_ones"].theta == pytest.approx(1.0, abs=1e-9)
        assert probes["all_zeros"].nearest.distance == 6
        assert probes["all_zeros"].theta == pytest.approx(1.0, abs=1e-9)
        for k in range(16):
            report = probes[f"complement_of_member_{k}"]
            assert report.nearest.distance == 8
            assert report.theta == pytest.approx(0.0, abs=1e-9)

    def test_rank6_all_ones_spike(self):
        probes = dict(probe_suite(("C2", "C2", "C2")))
        assert probes["all_ones"].nearest.distance == 36
        assert probes["all_ones"].theta == pytest.approx(1.0, abs=1e-9)
        assert probes["complement_of_member_0"].nearest.distance == 32

    def test_mixed_recipe_complements_cover_the_far_half(self):
        probes = dict(probe_suite(SAMPLED_RECIPE))
        for k in range(32):
            report = probes[f"complement_of_member_{k}"]
            assert report.nearest.distance == 16
            assert report.theta == pytest.approx(0.0, abs=1e-9)


def exact_mean(profile, d):
    """E[theta | d] as a Fraction, from the profile's table row at d."""
    length, row = profile.length, profile.nearest[d].tolist()
    return Fraction(sum(k * n for k, n in enumerate(row))
                    * (length - 2 * d) ** 2, sum(row) * length ** 2)


HALF = Fraction(1, 2)
L8_VERDICTS = ((1, 1, "above_half", ()), (2, 3, "below_half", (2,)),
               (4, 8, "zero", ()))
L16_PASS = ((1, 2, "above_half", ()), (3, 7, "below_half", ()),
            (8, 16, "zero", ()))
H2C2 = (L16_PASS, {}, {5: (Fraction(35, 102), Fraction(1323, 3680))})
#: recipe -> (low, high, expectation, offending) of each nonempty region,
#: the exact mean at each offending distance, and each distance whose
#: mean rises above the previous populated one's, with both means
EXACT_VERDICTS = {
    "H": (((1, 2, "zero", ()),), {}, {}),
    "H,H": (((1, 1, "below_half", (1,)), (2, 4, "zero", ())), {1: HALF}, {}),
    "C2": (((1, 1, "below_half", (1,)), (2, 4, "zero", ())),
           {1: Fraction(4, 7)}, {3: (0, 1)}),
    "H,H,H": (L8_VERDICTS, {2: HALF}, {}),
    "H,C2": (L8_VERDICTS, {2: Fraction(7, 13)}, {}),
    "C2,H": (L8_VERDICTS, {2: Fraction(7, 13)}, {}),
    "H,H,H,H": (L16_PASS, {}, {5: (Fraction(13, 38), Fraction(189, 544))}),
    "H,H,C2": H2C2, "H,C2,H": H2C2, "C2,H,H": H2C2,
    "C2,C2": (((1, 2, "above_half", ()), (3, 7, "below_half", ()),
               (8, 16, "zero", (9,))), {9: Fraction(5, 32)},
              {5: (Fraction(91, 265), Fraction(3969, 10880)),
               9: (0, Fraction(5, 32)), 10: (Fraction(5, 32), 1)}),
}
#: the d = L/4 row {|N|: function count} of each recipe with L = 8 or 16
QUARTER_ROWS = {
    "H,H,H": {1: 56, 3: 56},
    **dict.fromkeys(("H,C2", "C2,H"), {1: 24, 2: 48, 3: 24, 4: 8}),
    "H,H,H,H": {1: 14000, 2: 6720, 3: 560},
    **dict.fromkeys(("H,H,C2", "H,C2,H", "C2,H,H"),
                    {1: 13744, 2: 7104, 3: 304, 4: 64}),
    "C2,C2": {1: 13680, 2: 7200, 3: 240, 4: 80},
}
#: c_k, k = 1..4, of the L/4 rows' law (see
#: TestIntervalSummary.test_quarter_rows_differ_by_the_c2_count)
QUARTER_LAW = (Fraction(1, 12), Fraction(-1, 8), Fraction(1, 12),
               Fraction(-1, 48))


class TestIntervalSummary:
    def test_rank4_exhaustive_regions(self):
        profile = exhaustive_profile(("C2", "C2"))
        summary = interval_summary(profile)
        r1, r2, r3 = summary.regions
        assert (r1.low, r1.high, r1.consistent) == (1, 2, True)
        assert (r2.low, r2.high, r2.consistent) == (3, 7, True)
        # the far region holds except the documented distance-9 bump;
        # the rho = 10 spike itself is exempted
        assert (r3.low, r3.high) == (8, 16)
        assert r3.offending == (9,)
        assert not summary.consistent
        assert ClassifierSpec(("C2", "C2")).rho() == 10
        assert profile.rows()[10].mean == 1.0
        assert 5 in summary.monotonicity_violations
        assert 10 in summary.monotonicity_violations

    @pytest.mark.parametrize("length,bounds", [
        (8, ((1, 1), (2, 3), (4, 8))),
        (16, ((1, 2), (3, 7), (8, 16))),
        (32, ((1, 4), (5, 15), (16, 32))),
        (64, ((1, 8), (9, 31), (32, 64))),
    ])
    def test_regions_tile_the_distance_axis(self, length, bounds):
        assert regions(length) == bounds

    def test_empty_profile_rejected(self):
        empty = DistanceProfile.empty(("H",), "exhaustive")
        with pytest.raises(ValueError, match="empty"):
            interval_summary(empty)

    @pytest.mark.parametrize("recipe", EXHAUSTIVE_RECIPES)
    def test_exact_verdicts_and_rises(self, recipe):
        # the empty regions [1, 0] at L = 2 and 4 are left out
        verdicts, offending_means, rises = EXACT_VERDICTS[recipe]
        profile = exhaustive_profile(recipe.split(","))
        summary = interval_summary(profile)
        assert [(r.low, r.high, r.expectation, r.offending)
                for r in summary.regions] == list(verdicts)
        assert {d for r in summary.regions for d in r.offending} == \
            set(offending_means)
        for d, mean in offending_means.items():
            assert exact_mean(profile, d) == mean
        assert summary.monotonicity_violations == tuple(rises)
        populated = list(profile.rows())
        for d, means in rises.items():
            before = populated[populated.index(d) - 1]
            assert (exact_mean(profile, before), exact_mean(profile, d)) == \
                means

    @pytest.mark.parametrize("length", [8, 16])
    def test_quarter_rows_differ_by_the_c2_count(self, length):
        # at d = L/4 every flip of a member is a hit, so the row counts
        # each of the M C(L, L/4) flips once per nearest member; two
        # recipes with r and r' C2 factors differ by c_k (Q - Q') there,
        # Q = L**3 / 4**r
        rows = {recipe: exhaustive_profile(recipe.split(",")).rows()[
                    length // 4].nearest
                for recipe in EXHAUSTIVE_RECIPES
                if ClassifierSpec(recipe.split(",")).dim == length}
        assert rows == {recipe: QUARTER_ROWS[recipe] for recipe in rows}
        for row in rows.values():
            assert sum(k * n for k, n in row.items()) == \
                length * math.comb(length, length // 4)
        for a, b in itertools.combinations(rows, 2):
            q = (Fraction(length ** 3, 4 ** a.count("C2"))
                 - Fraction(length ** 3, 4 ** b.count("C2")))
            for k, c in enumerate(QUARTER_LAW, 1):
                assert rows[a].get(k, 0) - rows[b].get(k, 0) == c * q


class TestMergeProfiles:
    def test_counts_and_sums_add(self):
        quotas = {1: 10, 2: 10}
        a = stratified_sample_profile(SAMPLED_RECIPE, quotas, seed=1)
        b = stratified_sample_profile(SAMPLED_RECIPE, quotas, seed=2)
        merged = merge_profiles(a, b)
        assert np.array_equal(merged.counts, a.counts + b.counts)
        assert np.array_equal(merged.nearest, a.nearest + b.nearest)
        rows, a_rows, b_rows = merged.rows(), a.rows(), b.rows()
        for d in (1, 2):
            assert rows[d].min_theta == min(a_rows[d].min_theta,
                                            b_rows[d].min_theta)
            assert rows[d].max_theta == max(a_rows[d].max_theta,
                                            b_rows[d].max_theta)

    def test_merge_is_independent_of_order_and_grouping(self):
        quotas = {1: 10, 2: 10}
        a, b, c, d = (stratified_sample_profile(SAMPLED_RECIPE, quotas, seed=s)
                      for s in (1, 2, 3, 4))
        ab = profile_to_json(merge_profiles(a, b))
        assert ab == profile_to_json(merge_profiles(b, a))
        left = profile_to_json(merge_profiles(merge_profiles(a, b), c))
        right = profile_to_json(merge_profiles(a, merge_profiles(b, c)))
        assert left == right
        doc = json.loads(left)
        # no one seed reproduces a merge; each shard keeps its own
        assert doc["seed"] is None
        assert doc["quotas"] == {"1": 30, "2": 30}
        # two merges, both without a seed, still merge
        pairs = merge_profiles(merge_profiles(a, b), merge_profiles(c, d))
        chain = merge_profiles(merge_profiles(merge_profiles(a, b), c), d)
        assert profile_to_json(pairs) == profile_to_json(chain)

    def test_short_buckets_follow_the_summed_counts(self):
        # 2 + 55 functions at d=12 meet the summed quota of 40, though
        # the seed-1 shard alone is short there
        a = stratified_sample_profile(SAMPLED_RECIPE, {12: 20}, seed=1,
                                      attempt_factor=1)
        b = stratified_sample_profile(SAMPLED_RECIPE, {12: 20}, seed=3,
                                      attempt_factor=1000)
        assert a.short_buckets == (12,)
        assert merge_profiles(a, b).short_buckets == ()

    def test_metadata_mismatch(self):
        a = exhaustive_profile(("H", "H"))
        b = exhaustive_profile(("H", "C2"))
        with pytest.raises(ValueError, match="different metadata"):
            merge_profiles(a, b)

    def test_sampled_shards_with_one_seed_rejected(self):
        # equal seeds draw identical samples: merging would count them twice
        a = stratified_sample_profile(SAMPLED_RECIPE, {1: 5}, seed=1)
        b = stratified_sample_profile(SAMPLED_RECIPE, {1: 5}, seed=1)
        with pytest.raises(ValueError, match="seed 1"):
            merge_profiles(a, b)

    def test_exhaustive_shards_merge(self):
        a = exhaustive_profile(("H", "C2"))
        merged = merge_profiles(a, a)
        assert np.array_equal(merged.counts, 2 * a.counts)


class TestRecipeRho:
    def test_values(self):
        def rho(recipe):
            return class_rho(ClassifierSpec(recipe).basis())
        assert rho(("C2",)) == 3
        assert rho(("C2", "C2")) == 10
        assert rho(("H", "C2")) is None


@st.composite
def sample_requests(draw):
    """Small quotas at L = 32 with an attempt factor of 1 to 5, so that
    some buckets come up short and later targets fill earlier ones."""
    quotas = draw(st.dictionaries(st.integers(1, 16), st.integers(1, 12),
                                  min_size=1, max_size=5))
    return quotas, draw(st.integers(1, 5))


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(sample_requests(), sample_requests())
def test_short_buckets_are_the_unmet_quotas(first, second):
    """The short buckets of a sample, of its JSON round trip and of a
    merge are the distances whose count is below their quota."""
    shards = [stratified_sample_profile(SAMPLED_RECIPE, quotas, seed=seed,
                                        attempt_factor=factor)
              for seed, (quotas, factor) in enumerate((first, second))]
    for profile in shards:
        short = quota_unmet(profile.counts, profile.quotas)
        assert profile.short_buckets == short
        assert profile_from_json(profile_to_json(profile)).short_buckets == \
            short
    a, b = shards
    quotas = {d: a.quotas.get(d, 0) + b.quotas.get(d, 0)
              for d in a.quotas.keys() | b.quotas.keys()}
    assert merge_profiles(a, b).short_buckets == quota_unmet(
        a.counts + b.counts, quotas)
