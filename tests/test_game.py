import io
import json
from dataclasses import fields
from fractions import Fraction
from math import sqrt
from statistics import NormalDist

import numpy as np
import pytest

from basisket import (
    ClassifierSpec,
    GameConfig,
    PatternVector,
    alice_interval_decide,
    bob_pick,
    class_rho,
    distance_from_class,
    estimate_win_rate,
    exhaustive_profile,
    play_round,
)
from basisket.classifier import FACTOR_BITS, member_array, member_distances
from basisket.experiment import BLOCK, _sample_attempts, regions
from basisket.game import (
    PICK_ATTEMPT_CAP,
    ROUND_BLOCK,
    _Block,
    _blocks,
    _classify,
    _draw,
    _outcome_cdf,
    _pick,
    write_rounds,
)
from basisket.game import wilson_interval as wilson_95
from conftest import all_recipes

RANK4 = ("C2", "C2")  # rho = 10, pivot distance 2
#: every recipe of rank 1 to 6, 32 of them
ALL_RECIPES = all_recipes(6)
Z95 = NormalDist().inv_cdf(0.975)
#: a game block's per-round columns, in field order
COLUMNS = [column.name for column in fields(_Block)]


def joined_columns(groups):
    """Each block column over all the groups, one entry per round."""
    return {column: np.concatenate([getattr(group, column)
                                    for group in groups])
            for column in COLUMNS}


def assert_block_replays(config, rounds, b):
    """Block b, drawn on its own from (seed, b), equals its rounds in
    `rounds`, column by column."""
    seed = np.random.SeedSequence(config.seed, spawn_key=(b,))
    size = min(ROUND_BLOCK, config.trials - b * ROUND_BLOCK)
    block = _classify(config, *_draw(config, np.random.default_rng(seed),
                                     size))
    for column in COLUMNS:
        assert np.array_equal(getattr(block, column),
                              rounds[column][b * ROUND_BLOCK:][:size])


def wilson_interval(rate, n, z):
    z2 = z * z
    centre = (rate + z2 / (2 * n)) / (1 + z2 / n)
    half = z / (1 + z2 / n) * sqrt(rate * (1 - rate) / n + z2 / (4 * n * n))
    return centre - half, centre + half


class TestGameConfig:
    def test_valid(self):
        GameConfig(RANK4, "pivot", "interval_threshold", trials=10, seed=0)

    def test_unknown_strategies(self):
        with pytest.raises(ValueError, match="unknown Bob strategy"):
            GameConfig(RANK4, "psychic", "interval_threshold", 10, 0)
        with pytest.raises(ValueError, match="unknown Alice strategy"):
            GameConfig(RANK4, "pivot", "psychic", 10, 0)

    def test_at_distance_needs_distance(self):
        with pytest.raises(ValueError, match="needs a positive distance"):
            GameConfig(RANK4, "at_distance", "always_yes", 10, 0)

    @pytest.mark.parametrize("bob", ["pivot", "uniform_random"])
    def test_distance_only_for_at_distance(self, bob):
        with pytest.raises(ValueError, match="distance 3 applies only"):
            GameConfig(RANK4, bob, "always_yes", 10, 0, bob_distance=3)

    def test_trials_positive(self):
        with pytest.raises(ValueError, match="trials"):
            GameConfig(RANK4, "pivot", "always_yes", 0, 0)

    @pytest.mark.parametrize("recipe,bob,distance", [
        (RANK4, "psychic", None), (RANK4, "pivot", 3),
        (RANK4, "uniform_random", 3), (RANK4, "at_distance", None),
        (RANK4, "at_distance", 0), (RANK4, "at_distance", -1),
        (RANK4, "at_distance", 17), (("H", "H"), "pivot", None)],
        ids=["unknown", "pivot-3", "uniform-3", "none", "zero", "negative",
             "beyond-L", "pivot-L4"])
    def test_bob_pick_rejects_the_same_input(self, recipe, bob, distance):
        # one check serves both entry points, with one message
        with pytest.raises(ValueError) as config_error:
            GameConfig(recipe, bob, "always_yes", 10, 0, bob_distance=distance)
        with pytest.raises(ValueError) as pick_error:
            bob_pick(recipe, bob, seed=0, distance=distance)
        assert str(config_error.value) == str(pick_error.value)

    def test_bob_target(self):
        targets = [GameConfig(RANK4, bob, "always_yes", 10, 0, distance)
                   .bob_target for bob, distance in (
                       ("uniform_random", None), ("pivot", None),
                       ("at_distance", 5))]
        assert targets == [None, 16 // 8, 5]


class TestAliceIntervalDecide:
    def test_confident_yes_region(self):
        # length 16: yes for d <= 2
        assert alice_interval_decide(1, 4) is True
        assert alice_interval_decide(2, 4) is True
        assert alice_interval_decide(3, 4) is False

    def test_rho_spike(self):
        assert alice_interval_decide(10, 4, rho=10) is True
        assert alice_interval_decide(10, 4, rho=None) is False
        assert alice_interval_decide(9, 4, rho=10) is False

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_yes_region_is_the_first_interval_region(self, n):
        low, high = regions(1 << n)[0]
        assert [d for d in range(1, (1 << n) + 1)
                if alice_interval_decide(d, n)] == list(range(low, high + 1))

    def test_members_excluded(self):
        with pytest.raises(ValueError, match="distance 0"):
            alice_interval_decide(0, 4)


class TestBobPick:
    def test_at_distance_hits_the_exact_distance(self):
        for d in (1, 2, 3, 5):
            h, nearest = bob_pick(RANK4, "at_distance", seed=11, distance=d)
            assert nearest.distance == d
            assert h.length == 16

    def test_deterministic_given_seed(self):
        a = bob_pick(RANK4, "at_distance", seed=4, distance=3)
        b = bob_pick(RANK4, "at_distance", seed=4, distance=3)
        assert a == b

    def test_pivot_targets_an_eighth_of_the_length(self):
        _, nearest = bob_pick(RANK4, "pivot", seed=5)
        assert nearest.distance == 16 // 8

    def test_pivot_rejects_lengths_below_eight(self):
        with pytest.raises(ValueError, match="length 4: pivot needs L >= 8"):
            bob_pick(("H", "H"), "pivot", seed=5)

    def test_uniform_random_avoids_the_class(self):
        basis = ClassifierSpec(RANK4).basis()
        for seed in range(5):
            h, nearest = bob_pick(RANK4, "uniform_random", seed=seed)
            assert nearest.distance >= 1
            assert nearest == distance_from_class(basis, h)

    @pytest.mark.parametrize("recipe", [("H",), ("C2",), ("H", "H")])
    def test_uniform_random_redraws_every_member(self, recipe):
        # members are half or a quarter of all values at L = 2 and 4, so
        # most first draws of a block hit one and are redrawn
        spec = ClassifierSpec(recipe)
        members = member_array(spec)
        values = _pick(np.random.default_rng(8), recipe, None, ROUND_BLOCK)
        assert not np.isin(values, members).any()
        assert len(np.unique(values)) == (1 << spec.dim) - len(members)

    def test_probe_fallback_reaches_the_rho_singleton(self):
        # only the all-ones function sits at distance 10; random flips
        # almost never find it, the probe list always does
        _, nearest = bob_pick(RANK4, "at_distance", seed=0, distance=10)
        assert nearest.distance == 10

    def test_unreachable_distance_raises(self):
        with pytest.raises(ValueError, match="no function at distance 12"):
            bob_pick(RANK4, "at_distance", seed=0, distance=12)

    def test_distance_bounds(self):
        with pytest.raises(ValueError, match="distance >= 1"):
            bob_pick(RANK4, "at_distance", seed=0, distance=0)
        with pytest.raises(ValueError, match="exceeds"):
            bob_pick(RANK4, "at_distance", seed=0, distance=17)


class TestPickWithinAQuarter:
    """A flip of d <= L/4 bits of a member is at class distance d, so
    _pick takes its tries without a distance check there."""

    @pytest.mark.parametrize("recipe", ALL_RECIPES, ids=",".join)
    def test_every_try_within_a_quarter_hits(self, recipe):
        spec = ClassifierSpec(recipe)
        members = member_array(spec)
        rng = np.random.default_rng(5)
        for d in range(1, spec.dim // 4 + 1):
            tries = _sample_attempts(rng, members, spec.dim, d, 512)
            assert (member_distances(members, tries)[1] == d).all(), d

    @pytest.mark.parametrize("recipe", ALL_RECIPES, ids=",".join)
    def test_one_flip_beyond_a_quarter_can_miss(self, recipe):
        # d = L/4 + 1 of the L/2 bits where members 0 and 1 differ,
        # flipped in member 0, leave L/2 - d < d to member 1: the bound
        # is tight
        members = member_array(ClassifierSpec(recipe))
        length = ClassifierSpec(recipe).dim
        d = length // 4 + 1
        differ = members[0] ^ members[1]
        flips = [1 << i for i in range(length) if differ >> i & 1]
        h = members[0] ^ sum(flips[:d])
        assert member_distances(members, h)[1] == length // 2 - d < d

    @pytest.mark.parametrize(
        "recipe", [r for r in ALL_RECIPES
                   if sum(FACTOR_BITS[f] for f in r) <= 5], ids=",".join)
    def test_sampled_tries_beyond_a_quarter_miss(self, recipe):
        # a miss needs all L/4 + 1 flips among the L/2 bits where another
        # member differs: about 1 try in 80 at L = 32, but only about 1
        # in 10**8 at L = 64, which is left out
        spec = ClassifierSpec(recipe)
        members = member_array(spec)
        d = spec.dim // 4 + 1
        tries = _sample_attempts(np.random.default_rng(5), members, spec.dim,
                                 d, 512)
        assert (member_distances(members, tries)[1] < d).any()

    @pytest.mark.parametrize("recipe,distance", [
        (RANK4, 1), (RANK4, 4), (("C2", "C2", "C2"), 8),
        (("C2", "C2", "C2"), 16)], ids=["L16-d1", "L16-d4", "L64-d8",
                                        "L64-d16"])
    @pytest.mark.parametrize("size", [1, 7, 300, ROUND_BLOCK])
    def test_pick_takes_each_first_try(self, recipe, distance, size):
        # the first try of each pick's row is its first hit, as the hit
        # test would find, and the draws are those of the one batch
        spec = ClassifierSpec(recipe)
        per_pick = min(max(1, ROUND_BLOCK // size), PICK_ATTEMPT_CAP)
        rng, replay = np.random.default_rng(9), np.random.default_rng(9)
        values = _pick(rng, recipe, distance, size)
        tries = _sample_attempts(replay, member_array(spec), spec.dim,
                                 distance, size * per_pick)
        assert np.array_equal(values, tries[::per_pick])
        assert values.flags.c_contiguous
        assert rng.random() == replay.random()


class TestPlayRound:
    def test_reproducible_round(self):
        config = GameConfig(RANK4, "uniform_random", "interval_threshold",
                            trials=1, seed=0)
        a = play_round(config, 123)
        b = play_round(config, 123)
        assert a == b

    def test_ground_truth_is_exact(self):
        basis = ClassifierSpec(RANK4).basis()
        config = GameConfig(RANK4, "at_distance", "interval_threshold",
                            trials=1, seed=0, bob_distance=2)
        for round_seed in range(10):
            record = play_round(config, round_seed)
            nearest = distance_from_class(basis, record.function)
            assert record.distance == nearest.distance == 2
            assert record.in_nearest == (record.outcome in nearest.indices)
            assert record.alice_yes is True  # 2 <= 16/8
            assert record.alice_wins == (record.alice_yes == record.in_nearest)

    def test_fixed_alice_strategies(self):
        yes = GameConfig(RANK4, "pivot", "always_yes", trials=1, seed=0)
        no = GameConfig(RANK4, "pivot", "always_no", trials=1, seed=0)
        assert play_round(yes, 7).alice_yes is True
        assert play_round(no, 7).alice_yes is False


class TestEstimateWinRate:
    def test_zero_threshold_distance_is_a_sure_win(self):
        # at distance 8 the nearest kets carry zero probability and Alice
        # says no, so she wins every round
        config = GameConfig(RANK4, "at_distance", "interval_threshold",
                            trials=200, seed=1, bob_distance=8)
        result = estimate_win_rate(config)
        assert result.rate == 1.0
        assert result.wins == 200
        assert result.standard_error == 0.0
        # the Wilson interval stays informative where the Wald error is 0:
        # at rate 1 it is [n / (n + z**2), 1]
        low, high = result.wilson_95
        assert low == pytest.approx(200 / (200 + Z95 ** 2), rel=1e-12)
        assert low < high == 1.0

    def test_rho_spike_is_a_sure_win(self):
        config = GameConfig(RANK4, "at_distance", "interval_threshold",
                            trials=50, seed=2, bob_distance=10)
        assert estimate_win_rate(config).rate == 1.0

    def test_distance_one_win_rate_matches_exact_threshold(self):
        # every distance-1 function scores theta = 49/64 and Alice says
        # yes, so her win rate is a Bernoulli(49/64) mean
        config = GameConfig(RANK4, "at_distance", "interval_threshold",
                            trials=1500, seed=3, bob_distance=1)
        result = estimate_win_rate(config)
        p = 49 / 64
        se = np.sqrt(p * (1 - p) / config.trials)
        assert abs(result.rate - p) < 4 * se

    @pytest.mark.parametrize("wins,trials", [(0, 50), (25, 50), (37, 50),
                                             (1, 1), (999, 1000)])
    def test_wilson_interval(self, wins, trials):
        rate = wins / trials
        low, high = wilson_95(rate, trials)
        assert 0.0 <= low <= rate <= high <= 1.0 and low < high
        expected_low, expected_high = wilson_interval(rate, trials, Z95)
        assert (low, high) == pytest.approx(
            (max(0.0, expected_low), min(1.0, expected_high)), abs=1e-12)
        mirror = wilson_95(1 - rate, trials)
        assert mirror == pytest.approx((1 - high, 1 - low), abs=1e-15)

    def test_reproducible_aggregate(self):
        config = GameConfig(RANK4, "uniform_random", "interval_threshold",
                            trials=60, seed=9)
        assert estimate_win_rate(config) == estimate_win_rate(config)

    def test_recipe_may_be_a_list(self):
        # the spec stores its factors as a tuple, so a list recipe hashes
        as_list, as_tuple = (
            GameConfig(recipe, "pivot", "interval_threshold", trials=60, seed=9)
            for recipe in (list(RANK4), RANK4))
        assert estimate_win_rate(as_list) == estimate_win_rate(as_tuple)


class TestBlockEngine:
    @pytest.mark.parametrize("recipe,bob,distance", [
        (RANK4, "at_distance", 7),  # ~6% of flips hit: most picks retry
        (RANK4, "at_distance", 10),  # every pick falls back to all-ones
        (RANK4, "pivot", None),
        (RANK4, "uniform_random", None),
        (("C2", "C2", "C2"), "pivot", None),
    ], ids=["at_distance_7", "rho_fallback", "pivot", "uniform", "pivot_64"])
    def test_records_match_the_exact_nearest_set(self, recipe, bob, distance):
        spec = ClassifierSpec(recipe)
        basis = spec.basis()
        rho = class_rho(basis)
        config = GameConfig(recipe, bob, "interval_threshold", trials=600,
                            seed=21, bob_distance=distance)
        length = spec.dim
        log = io.StringIO()
        write_rounds(config, log)
        lines = iter(log.getvalue().splitlines())
        for block in _blocks(config):
            for value, d, outcome, in_nearest, yes, theta in zip(
                    *(getattr(block, column).tolist() for column in COLUMNS)):
                h = PatternVector(value, length)
                nearest = distance_from_class(basis, h)
                assert d == nearest.distance >= 1
                assert in_nearest == (outcome in nearest.indices)
                assert theta == (len(nearest.indices)
                                 * ((length - 2 * nearest.distance)
                                    / length) ** 2)
                assert yes is alice_interval_decide(
                    nearest.distance, spec.total_bits, rho)
                line = json.loads(next(lines))
                assert line["alice_wins"] == (yes == in_nearest)
                assert line == {"distance": d, "outcome": outcome,
                                "in_nearest": in_nearest, "alice_yes": yes,
                                "alice_wins": yes == in_nearest,
                                "function": str(h)}
                if distance is not None:
                    assert d == distance
                if bob == "pivot":
                    assert d == spec.dim // 8
        assert next(lines, None) is None

    def test_block_replays_from_seed_and_index(self):
        config = GameConfig(RANK4, "pivot", "interval_threshold",
                            trials=1500, seed=13)
        rounds = joined_columns(list(_blocks(config)))
        for b in range(3):
            assert_block_replays(config, rounds, b)
        # a game of more than BLOCK rounds is classified a group of
        # blocks at a time; blocks on both sides of the group boundary
        # still replay on their own
        config = GameConfig(RANK4, "uniform_random", "interval_threshold",
                            trials=BLOCK + 600, seed=13)
        groups = list(_blocks(config))
        assert [len(group.values) for group in groups] == [BLOCK, 600]
        rounds = joined_columns(groups)
        first = BLOCK // ROUND_BLOCK  # the first block of the second group
        for b in (first - 1, first, first + 1):
            assert_block_replays(config, rounds, b)

    def test_game_working_set_is_one_group(self, heap_peak):
        # 40,000 L = 64 rounds classified BLOCK at a time: the group's
        # uint8 distances (512 KB), int16 CDF (1 MB), CDF-below-threshold
        # mask (512 KB) and one XOR chunk (256 KB).  Bound: 4 MiB
        # (measured 2.5 MiB; 0.4 MiB for one block, 11.2 MiB when the
        # whole game was one group)
        config = GameConfig(("C2", "C2", "C2"), "pivot", "interval_threshold",
                            trials=40_000, seed=1)
        estimate_win_rate(GameConfig(config.recipe, config.bob, config.alice,
                                     trials=1, seed=1))
        peak, result = heap_peak(lambda: estimate_win_rate(config))
        assert result.trials == config.trials
        assert peak <= 4 << 20

    def test_game_heap_does_not_grow_with_its_length(self, heap_peak):
        # block b seeds itself from (seed, b) when it is drawn, so a game
        # holds no seed per block: 50 times the rounds, the same peak
        # (it rose 0.87 -> 2.17 MiB when every block seed was spawned
        # up front)
        def peak(trials):
            config = GameConfig(RANK4, "uniform_random", "interval_threshold",
                                trials=trials, seed=1)
            return heap_peak(lambda: estimate_win_rate(config))[0]

        peak(1)
        assert peak(2_000_000) <= peak(40_000) + (1 << 18)

    def test_pivot_win_rate_at_length_64(self):
        # at d = 8 of length 64 the nearest member is unique, so every
        # round has theta = (48/64)**2 and Alice says yes
        config = GameConfig(("C2", "C2", "C2"), "pivot", "interval_threshold",
                            trials=20_000, seed=17)
        result = estimate_win_rate(config)
        low, high = wilson_interval(result.rate, config.trials, 5.0)
        assert low <= 0.5625 <= high
        assert result.exact_rate == 0.5625

    def test_unreachable_distance_raises(self):
        config = GameConfig(RANK4, "at_distance", "interval_threshold",
                            trials=600, seed=0, bob_distance=12)
        with pytest.raises(ValueError, match="no function at distance 12"):
            estimate_win_rate(config)

    def test_distance_bounds(self):
        for distance, message in ((-1, "distance >= 1"), (17, "exceeds")):
            with pytest.raises(ValueError, match=message):
                GameConfig(RANK4, "at_distance", "always_yes",
                           trials=3, seed=0, bob_distance=distance)


class TestOutcomeCdf:
    @pytest.mark.parametrize("recipe", [("C2",), ("C2", "H"), RANK4,
                                        ("C2", "C2", "H"), ("C2", "C2", "C2")])
    def test_member_distances(self, recipe):
        spec = ClassifierSpec(recipe)
        members = member_array(spec)
        values = np.random.default_rng(2).integers(
            0, 1 << spec.dim, size=ROUND_BLOCK, dtype=np.uint64)
        dist, _ = member_distances(members, values)
        w = spec.dim - 2 * dist.astype(np.int16)
        assert np.array_equal(_outcome_cdf(dist, spec.dim),
                              np.cumsum(w * w, axis=0, dtype=np.int16))

    def test_every_member_count_from_4_to_64(self):
        # distances 24..40 at L = 64 keep every weight <= 256, so no sum
        # of up to 64 of them leaves int16
        rng = np.random.default_rng(3)
        for count in range(4, 65):
            dist = rng.integers(24, 41, size=(count, 37), dtype=np.uint8)
            w = 64 - 2 * dist.astype(np.int16)
            assert np.array_equal(_outcome_cdf(dist, 64),
                                  np.cumsum(w * w, axis=0, dtype=np.int16))


class TestExactRate:
    def test_distance_one_is_exact(self):
        config = GameConfig(RANK4, "at_distance", "interval_threshold",
                            trials=700, seed=3, bob_distance=1)
        assert estimate_win_rate(config).exact_rate == 49 / 64

    def test_uniform_random_matches_the_census(self):
        # sum over the C2,C2 census of count_d * (mean theta_d if Alice
        # says yes at d else 1 - mean theta_d), over 65520 non-members
        config = GameConfig(RANK4, "uniform_random", "interval_threshold",
                            trials=20_000, seed=23)
        assert abs(estimate_win_rate(config).exact_rate
                   - 0.6591346153846154) < 0.005

    def test_game_constants_from_the_table(self):
        # uniform_random: the C2,C2 table against interval Alice, rho = 10,
        # each bucket's theta sum won on yes and its complement on no
        profile = exhaustive_profile(RANK4)
        wins = Fraction(0)
        for d, bucket in list(profile.rows().items())[1:]:
            thetas = Fraction(sum(k * n for k, n in bucket.nearest.items())
                              * (16 - 2 * d) ** 2, 16 ** 2)
            wins += thetas if alice_interval_decide(d, 4, 10) else \
                bucket.count - thetas
        rate = wins / (profile.total() - 16)
        assert rate == Fraction(1371, 2080)
        assert float(rate) == 0.6591346153846154

    @pytest.mark.parametrize("recipe", [r for r in all_recipes(4)
                                        if ClassifierSpec(r).dim >= 8])
    def test_pivot_rate_is_nine_sixteenths(self, recipe):
        # |N| = 1 at L/8 < L/4, where Alice says yes: she wins p(L/8)
        length = ClassifierSpec(recipe).dim
        pivot = regions(length)[0][1]
        bucket = exhaustive_profile(recipe).rows()[pivot]
        assert list(bucket.nearest) == [1]
        assert alice_interval_decide(pivot, length.bit_length() - 1)
        assert Fraction((length - 2 * pivot) ** 2, length ** 2) == \
            Fraction(9, 16)
        config = GameConfig(recipe, "pivot", "interval_threshold",
                            trials=64, seed=0)
        assert estimate_win_rate(config).exact_rate == 9 / 16

    def test_sure_wins_are_exact(self):
        for distance in (8, 10):
            config = GameConfig(RANK4, "at_distance", "interval_threshold",
                                trials=30, seed=1, bob_distance=distance)
            assert estimate_win_rate(config).exact_rate == 1.0
