"""Monte Carlo simulator of the nearest-basis-ket guessing game.

One round: Bob secretly picks a function h outside the class and reveals
only its minimum Hamming distance; the classifier circuit is run once on
h and the measured ket is announced; Alice must say whether that ket is
one of h's nearest basis kets.  Alice wins iff her answer matches the
ground truth, which is computed from the exact nearest set, never
sampled.

Alice's interval strategy answers yes for distances up to 2**n / 8 (and
at the rho spike of uniform-zero-count classes), no otherwise.  Bob's
pivot strategy targets distance floor(2**n / 8), the crossover where the
game approaches a fair coin toss.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

import numpy as np

from .classifier import ClassifierSpec, member_array, outcome_distribution
from .patterns import NearestSet, PatternVector, class_rho, distance_from_class
from .experiment import _sample_attempts, probe_functions

#: Flip attempts per pick before falling back to deterministic probes.
PICK_ATTEMPT_CAP = 512

BOB_STRATEGIES = ("at_distance", "pivot", "uniform_random")
ALICE_STRATEGIES = ("interval_threshold", "always_yes", "always_no")


@dataclass(frozen=True)
class GameConfig:
    recipe: tuple[str, ...]
    bob: str
    alice: str
    trials: int
    seed: int
    bob_distance: int | None = None  # required for at_distance

    def __post_init__(self) -> None:
        if self.bob not in BOB_STRATEGIES:
            raise ValueError(f"unknown Bob strategy {self.bob!r}")
        if self.alice not in ALICE_STRATEGIES:
            raise ValueError(f"unknown Alice strategy {self.alice!r}")
        if self.bob == "at_distance" and not self.bob_distance:
            raise ValueError("at_distance strategy needs a positive distance")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")


@dataclass(frozen=True)
class RoundRecord:
    distance: int          # revealed to Alice
    outcome: int           # measured ket index
    in_nearest: bool       # ground truth
    alice_yes: bool
    alice_wins: bool
    function: PatternVector


def alice_interval_decide(d: int, n: int, rho: int | None = None) -> bool:
    """Interval-threshold verdict: True means "yes, it is a nearest ket".

    Yes for d <= 2**n / 8; yes at d == rho when the class has a uniform
    zero count (the threshold there is exactly 1); no otherwise.
    """
    if d < 1:
        raise ValueError("the game excludes class members (distance 0)")
    if d <= (1 << n) // 8:
        return True
    return rho is not None and d == rho


@lru_cache(maxsize=None)
def _game_context(recipe: tuple[str, ...]):
    """Per-recipe immutables shared across rounds."""
    spec = ClassifierSpec(recipe)
    basis = spec.basis()
    rho = class_rho(basis)
    return spec, basis, member_array(spec), rho if isinstance(rho, int) else None


def bob_pick(
    recipe: tuple[str, ...] | list[str],
    strategy: str,
    seed,
    distance: int | None = None,
) -> tuple[PatternVector, NearestSet]:
    """Pick h outside the class per the strategy; deterministic given seed.

    at_distance tries random member flips first and falls back to the
    deterministic probes (all-ones, all-zeros, member complements) when
    the exact distance is unreachable by flipping within the attempt
    cap.  Returns the function together with its exact nearest set.
    """
    spec, basis, members, _ = _game_context(tuple(recipe))
    length = spec.dim
    rng = np.random.default_rng(seed)

    if strategy == "pivot":
        strategy, distance = "at_distance", length // 8

    if strategy == "uniform_random":
        member_set = set(basis.member_values())
        while True:
            value = int(rng.integers(0, 1 << length, dtype=np.uint64))
            if value not in member_set:
                h = PatternVector(value, length)
                return h, distance_from_class(basis, h)

    assert strategy == "at_distance"
    if not distance or distance < 1:
        raise ValueError("Bob must pick outside the class: distance >= 1")
    if distance > length:
        raise ValueError(f"distance {distance} exceeds function length {length}")
    flip_d = min(distance, length)
    attempted = 0
    batch = 64
    while attempted < PICK_ATTEMPT_CAP:
        batch = min(batch, PICK_ATTEMPT_CAP - attempted)
        values = _sample_attempts(rng, members, length, flip_d, batch)
        dmin = np.bitwise_count(values[:, None] ^ members[None, :]).min(axis=1)
        hits = np.nonzero(dmin == distance)[0]
        if hits.size:
            h = PatternVector(int(values[hits[0]]), length)
            return h, distance_from_class(basis, h)
        attempted += batch
        batch *= 2
    for _, probe in probe_functions(basis):
        nearest = distance_from_class(basis, probe)
        if nearest.distance == distance:
            return probe, nearest
    raise ValueError(
        f"no function at distance {distance} from the class reachable "
        f"within {PICK_ATTEMPT_CAP} attempts or via probes")


def play_round(config: GameConfig, round_seed) -> RoundRecord:
    """One full round; bit-for-bit reproducible from its seed."""
    spec, _, _, rho_val = _game_context(config.recipe)

    pick_rng, measure_rng = np.random.default_rng(round_seed).spawn(2)
    h, nearest = bob_pick(config.recipe, config.bob, pick_rng,
                          distance=config.bob_distance)

    probs = outcome_distribution(spec, h)
    # inverse-CDF draw: the single quantum measurement of the round
    outcome = int(np.searchsorted(np.cumsum(probs), measure_rng.random()))
    in_nearest = outcome in nearest.indices

    if config.alice == "always_yes":
        alice_yes = True
    elif config.alice == "always_no":
        alice_yes = False
    else:
        alice_yes = alice_interval_decide(nearest.distance, spec.total_bits, rho_val)

    return RoundRecord(
        distance=nearest.distance,
        outcome=outcome,
        in_nearest=in_nearest,
        alice_yes=alice_yes,
        alice_wins=(alice_yes == in_nearest),
        function=h,
    )


@dataclass(frozen=True)
class WinRate:
    rate: float
    standard_error: float
    trials: int
    wins: int


def play_rounds(config: GameConfig) -> Iterator[RoundRecord]:
    """Every round in order; per-round seeds are split off the master
    seed, so rounds replay or distribute without changing the aggregate."""
    for round_seed in np.random.SeedSequence(config.seed).spawn(config.trials):
        yield play_round(config, round_seed)


def tally(records: Iterable[RoundRecord]) -> WinRate:
    """Fraction of rounds won by Alice, with binomial standard error."""
    wins = [record.alice_wins for record in records]
    rate = sum(wins) / len(wins)
    se = float(np.sqrt(rate * (1.0 - rate) / len(wins)))
    return WinRate(rate, se, len(wins), sum(wins))


def estimate_win_rate(config: GameConfig) -> WinRate:
    """Alice's win rate over all rounds of the config."""
    return tally(play_rounds(config))
