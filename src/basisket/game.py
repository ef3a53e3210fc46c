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

Rounds are drawn in blocks of up to ROUND_BLOCK, the unit of seed
splitting: block b of a game draws only from
``SeedSequence(seed, spawn_key=(b,))``, so it replays, here or on
another machine, from (seed, b).  Bob picks every function of a block
at once (see _pick), then one uniform per round is drawn for its
measurement.  The drawn blocks are classified a group of up to
experiment.BLOCK rounds at a time, which moves no draw: one popcount
matrix gives each round's distances and nearest set, and each round's
uniform picks the measured ket by inverse CDF over the integer outcome
weights (L - 2d)**2, the probabilities of
``classifier.ket_probabilities`` times L**2, squared in place and
summed down the members (see _outcome_cdf).  Alice's rho is
``ClassifierSpec.rho()``, computed once per class.  A round is one entry
of each column of its group; write_rounds formats its log line from them.

Given h, Alice wins with probability exactly theta(h) if she says yes
and 1 - theta(h) if not.  The mean of that over the rounds is the
Rao-Blackwell estimate ``WinRate.exact_rate``, reported next to the
Monte Carlo rate; it has the same expectation and no measurement noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, TextIO

import numpy as np

from .classifier import (ClassifierSpec, classification_threshold,
                         ket_probabilities, member_array, member_distances)
from .patterns import NearestSet, PatternVector
from .experiment import BLOCK, _sample_attempts, probe_functions, regions

#: Flip attempts per pick before falling back to deterministic probes.
PICK_ATTEMPT_CAP = 512

#: Rounds drawn per block from one generator; the unit of seed splitting.
ROUND_BLOCK = 512

BOB_STRATEGIES = ("at_distance", "pivot", "uniform_random")
ALICE_STRATEGIES = ("interval_threshold", "always_yes", "always_no")


@dataclass(frozen=True)
class GameConfig:
    """One game.  Bob's arguments are checked when the config is built;
    `bob_target` is the distance he picks at, None for uniform picks."""

    recipe: tuple[str, ...]
    bob: str
    alice: str
    trials: int
    seed: int
    bob_distance: int | None = None  # required for at_distance
    bob_target: int | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "bob_target", _bob_target(
            self.recipe, self.bob, self.bob_distance))
        if self.alice not in ALICE_STRATEGIES:
            raise ValueError(f"unknown Alice strategy {self.alice!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")


def _bob_target(recipe, strategy: str, distance: int | None) -> int | None:
    """Bob's target: None for uniform_random, L/8 for pivot, else
    `distance`.  The one check of what Bob may play: ValueError for an
    unknown strategy or a distance it cannot play at."""
    if strategy not in BOB_STRATEGIES:
        raise ValueError(f"unknown Bob strategy {strategy!r}")
    if strategy != "at_distance" and distance is not None:
        raise ValueError(f"Bob's distance {distance} applies only to the "
                         f"at_distance strategy, not {strategy}")
    if strategy == "uniform_random":
        return None
    length = ClassifierSpec(recipe).dim
    if strategy == "pivot":
        distance = regions(length)[0][1]
        if distance < 1:
            raise ValueError(f"the pivot distance L/8 is 0 at length {length}: "
                             "pivot needs L >= 8")
    elif distance is None or distance < 1:
        raise ValueError("at_distance strategy needs a positive distance: "
                         "Bob must pick outside the class, distance >= 1")
    elif distance > length:
        raise ValueError(f"distance {distance} exceeds function length {length}")
    return distance


@dataclass(frozen=True)
class RoundRecord:
    distance: int          # revealed to Alice
    outcome: int           # measured ket index
    in_nearest: bool       # ground truth
    alice_yes: bool
    alice_wins: bool
    function: PatternVector
    theta: float           # chance that the measured ket is a nearest one


def alice_interval_decide(d, n: int, rho: int | None = None):
    """Interval-threshold verdict: True means "yes, it is a nearest ket".

    Yes for d <= 2**n / 8; yes at d == rho when the class has a uniform
    zero count (the threshold there is exactly 1); no otherwise.  For an
    array of distances, returns a boolean array of verdicts.
    """
    d = np.asarray(d)
    if (d < 1).any():
        raise ValueError("the game excludes class members (distance 0)")
    yes = d <= regions(1 << n)[0][1]
    if rho is not None:
        yes |= d == rho
    return yes if yes.ndim else bool(yes)


def _pick(rng: np.random.Generator, recipe: tuple[str, ...],
          target: int | None, size: int) -> np.ndarray:
    """Values of `size` functions outside the class, in the members'
    word (uint32/uint64 by length): uniform when `target` is None, else
    at class distance `target`.  Bob's arguments are checked when the
    config is built (_bob_target), not here.

    At a distance it makes flip attempts (`target` random bits of a
    random member, named by one rank in [0, C(L, target)), see
    `experiment._unrank_subsets`) for all pending picks in one sampler
    call, about ROUND_BLOCK but at least one per pick, and retries only
    the misses; after PICK_ATTEMPT_CAP attempts a pick takes the first
    deterministic probe (all-ones, all-zeros, member complements) there.

    At distance d <= L/4 every attempt is a hit: it is d from its own
    member, and members are pairwise L/2 apart, so every other member is
    at least L/2 - d >= d away.  Each pick then takes the first attempt
    of its row of the first sampler call, with no distance check; above
    L/4 a flip can land nearer another member, and the hit test stays.
    """
    spec = ClassifierSpec(recipe)
    members = member_array(spec)
    length = spec.dim
    if target is None:
        # drawn as uint64 whatever the word, so the stream stays the same
        values = rng.integers(0, 1 << length, size=size,
                              dtype=np.uint64).astype(members.dtype)
        while (redraw := np.flatnonzero(
                (members[:, None] == values).any(axis=0))).size:
            values[redraw] = rng.integers(0, 1 << length, size=redraw.size,
                                          dtype=np.uint64)
        return values
    values = np.empty(size, dtype=members.dtype)
    pending = np.arange(size)
    attempted = 0
    while pending.size and attempted < PICK_ATTEMPT_CAP:
        per_pick = min(max(1, ROUND_BLOCK // pending.size),
                       PICK_ATTEMPT_CAP - attempted)
        tries = _sample_attempts(rng, members, length, target,
                                 pending.size * per_pick).reshape(-1, per_pick)
        if 4 * target <= length:  # every try is a hit: take each first
            return np.ascontiguousarray(tries[:, 0])
        hit = member_distances(members, tries)[1] == target
        found = hit.any(axis=1)
        values[pending[found]] = tries[found, hit[found].argmax(axis=1)]
        pending = pending[~found]
        attempted += per_pick
    if pending.size:
        probes = np.array([h.value for _, h in probe_functions(spec.basis())],
                          dtype=members.dtype)
        matching = probes[member_distances(members, probes)[1] == target]
        if not matching.size:
            raise ValueError(
                f"no function at distance {target} from the class reachable "
                f"within {PICK_ATTEMPT_CAP} attempts or via probes")
        values[pending] = matching[0]
    return values


def bob_pick(
    recipe: tuple[str, ...] | list[str],
    strategy: str,
    seed,
    distance: int | None = None,
) -> tuple[PatternVector, NearestSet]:
    """h outside the class per the strategy, checked as GameConfig checks
    it, with its exact nearest set; deterministic given seed."""
    spec = ClassifierSpec(recipe)
    value = _pick(np.random.default_rng(seed), recipe,
                  _bob_target(recipe, strategy, distance), 1)
    h = PatternVector(int(value[0]), spec.dim)
    return h, classification_threshold(spec, h).nearest


@dataclass(frozen=True)
class _Block:
    """Consecutive rounds of one game, one array entry per round."""

    values: np.ndarray      # Bob's functions, uint32/uint64 words by length
    distance: np.ndarray    # revealed minimum distance
    outcome: np.ndarray     # measured ket index
    in_nearest: np.ndarray
    alice_yes: np.ndarray
    theta: np.ndarray       # |N| * p(distance), exact


def _draw(config: GameConfig, rng: np.random.Generator,
          size: int) -> tuple[np.ndarray, np.ndarray]:
    """One block's draws from its own generator: Bob's `size` picks,
    then one uniform per round for its measurement."""
    values = _pick(rng, config.recipe, config.bob_target, size)
    return values, rng.random(size)


def _classify(config: GameConfig, values: np.ndarray,
              uniforms: np.ndarray) -> _Block:
    """Any number of rounds from their picks and measurement uniforms:
    distances, then one measured ket and one verdict per round."""
    spec = ClassifierSpec(config.recipe)
    dist, dmin = member_distances(member_array(spec), values)
    # inverse-CDF draw: the single quantum measurement of each round.
    # L**2 is a power of two, so a probability cdf < u exactly when its
    # integer cdf < ceil(u * L**2); counting those equals
    # searchsorted(cdf, u) column by column.  The last integer cdf entry
    # is L**2 and u < 1, so every outcome is a valid ket.  Both counts
    # are uint8 sums over at most 64 members.
    threshold = np.ceil(uniforms * spec.dim ** 2).astype(np.int16)
    outcome = (_outcome_cdf(dist, spec.dim) < threshold).view(np.uint8).sum(
        axis=0, dtype=np.uint8)
    nearest = np.equal(dist, dmin, out=dist).view(bool)  # marked in place
    if config.alice == "interval_threshold":
        alice_yes = alice_interval_decide(dmin, spec.total_bits, spec.rho())
    else:
        alice_yes = np.full(len(values), config.alice == "always_yes")
    return _Block(
        values=values,
        distance=dmin,
        outcome=outcome,
        in_nearest=nearest[outcome, np.arange(len(values))],
        alice_yes=alice_yes,
        theta=(nearest.view(np.uint8).sum(axis=0, dtype=np.uint8)
               * ket_probabilities(dmin, spec.dim)),
    )


def _outcome_cdf(dist: np.ndarray, length: int) -> np.ndarray:
    """Running sums down the members of the integer outcome weights
    (L - 2d)**2, the probabilities times L**2, of member distances
    `dist[k, round]`: ``np.cumsum(w * w, axis=0)`` for w = L - 2 * dist,
    which walks the array column by column.

    The weights sum to L**2 <= 4096, so every sum is exact in int16.
    They are squared in place and summed down the members row by row,
    M - 1 adds of one row each."""
    cdf = dist.astype(np.int16)
    cdf *= -2
    cdf += length
    cdf *= cdf
    for above, row in zip(cdf, cdf[1:]):
        row += above
    return cdf


def _blocks(config: GameConfig) -> Iterator[_Block]:
    """Every round of the config: blocks of ROUND_BLOCK rounds, each
    drawn from its own generator, classified a group of up to BLOCK
    rounds at a time."""
    n_blocks = -(-config.trials // ROUND_BLOCK)
    per_group = BLOCK // ROUND_BLOCK
    for first in range(0, n_blocks, per_group):
        draws = [_draw(config, np.random.default_rng(np.random.SeedSequence(
                           config.seed, spawn_key=(b,))),
                       min(ROUND_BLOCK, config.trials - b * ROUND_BLOCK))
                 for b in range(first, min(first + per_group, n_blocks))]
        yield _classify(config, *map(np.concatenate, zip(*draws)))


def play_round(config: GameConfig, round_seed) -> RoundRecord:
    """One full round, read off its one-round block as Python scalars;
    bit-for-bit reproducible from its seed."""
    block = _classify(config,
                      *_draw(config, np.random.default_rng(round_seed), 1))
    yes, near = block.alice_yes.item(), block.in_nearest.item()
    h = PatternVector(block.values.item(), ClassifierSpec(config.recipe).dim)
    return RoundRecord(block.distance.item(), block.outcome.item(), near, yes,
                       yes == near, h, block.theta.item())


@dataclass(frozen=True)
class WinRate:
    rate: float
    standard_error: float  # Wald: 0 when Alice always (or never) wins
    trials: int
    wins: int
    exact_rate: float  # Rao-Blackwell: mean of each round's win chance
    wilson_95: tuple[float, float]  # (low, high), wide even at rate 0 or 1


_Z95 = 1.959963984540054  # normal quantile of a two-sided 95% interval


def wilson_interval(rate: float, trials: int) -> tuple[float, float]:
    """95% Wilson score interval (Wilson, JASA 1927) of a binomial rate,
    clipped to [0, 1]; unlike the Wald interval it has positive width
    at rates 0 and 1."""
    z2n = _Z95 * _Z95 / trials
    centre = (rate + z2n / 2) / (1 + z2n)
    half = _Z95 / (1 + z2n) * math.sqrt(rate * (1 - rate) / trials
                                        + z2n / (4 * trials))
    return max(0.0, centre - half), min(1.0, centre + half)


def estimate_win_rate(config: GameConfig) -> WinRate:
    """Alice's win rate over all rounds of the config, with binomial
    standard error, 95% Wilson interval and the mean of her exact win
    chances.

    Each win chance is a multiple of 1/L**2 in [0, 1] with L**2 <= 2**12,
    so below 2**40 rounds every float sum is exact in any order, round
    by round (as over a written log) or group by group."""
    trials = config.trials
    wins = 0
    chances = 0.0
    for block in _blocks(config):
        wins += int(np.count_nonzero(block.alice_yes == block.in_nearest))
        chances += float(np.where(block.alice_yes, block.theta,
                                  1.0 - block.theta).sum())
    rate = wins / trials
    se = float(np.sqrt(rate * (1.0 - rate) / trials))
    return WinRate(rate, se, trials, wins, chances / trials,
                   wilson_interval(rate, trials))


def write_rounds(config: GameConfig, fh: TextIO) -> None:
    """Every round of the config, replayed from its block seeds, to `fh`:
    the same rounds estimate_win_rate(config) tallies, one JSON line each
    with the RoundRecord fields but theta (summarised as exact_rate),
    formatted from the group's columns, one write per group."""
    bits = f"0{ClassifierSpec(config.recipe).dim}b"
    text = ("false", "true")
    for g in _blocks(config):
        fh.writelines(
            f'{{"distance": {d}, "outcome": {k}, "in_nearest": {text[near]}, '
            f'"alice_yes": {text[yes]}, "alice_wins": {text[yes == near]}, '
            f'"function": "{h:{bits}}"}}\n'
            for h, d, k, near, yes in zip(*(column.tolist() for column in (
                g.values, g.distance, g.outcome, g.in_nearest, g.alice_yes))))
