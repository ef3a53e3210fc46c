"""Exhaustive and sampled threshold experiments.

Exhaustive mode enumerates every Boolean function of length 8 or 16 and
buckets the classification threshold by the exact Hamming distance from
the class; theta = |N| (1 - 2d/L)**2 comes from the distances alone
(see ``classifier.ket_probabilities``), with N the nearest members.  Its
blocks are ranges of consecutive values, whose member distances come
from two cached half-word tables (``classifier.range_distances``);
sampled values, probes and the game take the popcount kernel.  For
lengths 32 and 64 exhaustive enumeration is out of reach, so a
stratified sampler, which takes a recipe of any length, flips random
bit subsets of random basis members and credits each sample to its true
distance bucket, while deterministic probes (all-ones, all-zeros,
member complements) cover the far half of the distance axis that random
flips cannot reach.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, product
from math import comb, prod
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .classifier import (
    ClassifierSpec,
    ThresholdReport,
    classification_threshold,
    member_array,
    member_distances,
    range_distances,
    word_dtype,
)
from .patterns import PatternBasis, PatternVector

#: Exhaustive mode is limited to pattern lengths 8 and 16.
EXHAUSTIVE_RANK_CAP = 4

#: Stratified buckets give up after this many attempts per requested sample.
ATTEMPT_FACTOR = 50

#: The flip sampler unranks a subset one chunk of this many bits at a time.
WORD_BITS = 16

#: A rank's composition is looked up in a guide of about 2**GUIDE_BITS cells.
GUIDE_BITS = 12

#: Function values per call of the distance kernel (see _batch_thetas).
BLOCK = 1 << 13


class Bucket(NamedTuple):
    """One populated distance of a profile, all from its {|N|: n} row."""

    count: int
    mean: float
    min_theta: float
    max_theta: float
    nearest: dict[int, int]


@dataclass
class DistanceProfile:
    """``nearest[d, k]`` counts the functions at class distance d with k
    nearest members.  Each has theta = k (L - 2d)**2 / L**2, so every
    bucket's count, mean, minimum and maximum follow exactly; `rows()`
    is the one place a row of the table becomes these statistics.  The
    length L is the recipe's, read off the table's shape."""

    recipe: tuple[str, ...]
    mode: str  # "exhaustive" | "sampled"
    nearest: np.ndarray  # int64, shape (L + 1, L + 1)
    seed: int | None = None
    quotas: dict[int, int] = field(default_factory=dict)

    @classmethod
    def empty(cls, recipe: Sequence[str], mode: str,
              seed: int | None = None,
              quotas: Mapping[int, int] | None = None) -> "DistanceProfile":
        """A zero table sized by the recipe (ValueError if unknown)."""
        size = ClassifierSpec(recipe).dim + 1
        return cls(
            recipe=tuple(recipe), mode=mode,
            nearest=np.zeros((size, size), dtype=np.int64),
            seed=seed, quotas=dict(quotas or {}))

    @property
    def length(self) -> int:
        return len(self.nearest) - 1

    @property
    def counts(self) -> np.ndarray:
        return self.nearest.sum(axis=1)

    @property
    def short_buckets(self) -> tuple[int, ...]:
        """The distances whose count is below their quota, ascending."""
        counts = self.counts
        return tuple(d for d, q in sorted(self.quotas.items()) if counts[d] < q)

    def add_batch(self, distances: np.ndarray, nearest: np.ndarray) -> None:
        size = self.length + 1
        self.nearest += np.bincount(
            distances * size + nearest, minlength=size * size).reshape(size, size)

    def rows(self) -> dict[int, Bucket]:
        """Every populated distance, ascending, with its Bucket: count,
        exact mean (one correctly rounded int division), min and max
        theta, all from its {|N|: function count} row in one pass."""
        den, rows = self.length ** 2, {}
        for d, line in enumerate(self.nearest.tolist()):
            row = {k: n for k, n in enumerate(line) if n}
            if row:
                count = sum(row.values())
                scale = (self.length - 2 * d) ** 2
                rows[d] = Bucket(
                    count,
                    sum(k * n for k, n in row.items()) * scale / (count * den),
                    min(row) * scale / den, max(row) * scale / den, row)
        return rows

    def total(self) -> int:
        return int(self.nearest.sum())


def _batch_thetas(spec: ClassifierSpec, members: np.ndarray,
                  values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Class distance and nearest-set size |N| for a batch of function
    values (uint32/uint64 words by length, cast to the members' word);
    theta = |N| * ket_probabilities(distance).

    `values` may also be a range of consecutive values, whole rows of
    2**(L/2) values or a run inside one row (see
    classifier.range_distances, which raises ValueError for any other
    range); its distances are then added from the spec's half-word
    tables rather than popcounted from `members`.  Both profile builders
    pass at most BLOCK values per call, so the kernel's temporaries stay
    M x BLOCK.  The nearest members are marked in place on the kernel's
    uint8 distance array and |N| is summed in uint8: at most 64 members.
    """
    if isinstance(values, range):
        dist, dmin = range_distances(spec, values)
    else:
        dist, dmin = member_distances(members, values)
    nearest = np.equal(dist, dmin, out=dist)
    return (dmin.astype(np.int64),
            nearest.sum(axis=0, dtype=np.uint8).astype(np.int64))


def exhaustive_profile(
    recipe: Sequence[str],
    progress: Callable[[int, int], None] | None = None,
) -> DistanceProfile:
    """Evaluate every Boolean function of the recipe's length.

    Deterministic.  The values go BLOCK at a time, each block as a
    range(start, stop) whose distances _batch_thetas adds from the
    spec's cached half-word tables (whole rows at L <= 16), and
    `progress` receives (functions done, functions total) after each
    block.
    """
    spec = ClassifierSpec(recipe)
    if spec.total_bits > EXHAUSTIVE_RANK_CAP:
        raise ValueError(
            f"rank {spec.total_bits} exceeds the exhaustive cap of "
            f"{EXHAUSTIVE_RANK_CAP}; use stratified_sample_profile "
            f"(the `basisket sample` command) instead")
    members = member_array(spec)
    length = spec.dim
    total = 1 << length
    profile = DistanceProfile.empty(recipe, "exhaustive")
    for start in range(0, total, BLOCK):
        stop = min(start + BLOCK, total)
        profile.add_batch(*_batch_thetas(spec, members, range(start, stop)))
        if progress is not None:
            progress(stop, total)
    return profile


@lru_cache(maxsize=None)
def _popcount_sorted_words(width: int) -> np.ndarray:
    """Every `width`-bit word, by popcount and then by value: the words
    of popcount k are entries sum(C(width, j), j < k) onwards.  A word's
    popcount is its distance from the zero word, so the one kernel
    counts it."""
    words = np.arange(1 << width, dtype=np.uint16)
    _, popcounts = member_distances(np.zeros(1, dtype=np.uint16), words)
    table = words[np.argsort(popcounts, kind="stable")]
    table.flags.writeable = False  # cached: every caller shares it
    return table


class _Compositions(NamedTuple):
    """The ways (k_0, ...) to spread d flips over the chunks of a word,
    with their rank ranges and a guide from rank to composition.

    Composition i owns the ranks starts[i] .. ends[i] - 1.  Per chunk j,
    radix[j, i] = C(width, k_j) is the number of chunk-j words and
    offsets[j, i] is where those words begin in the popcount-sorted word
    table; one contiguous row per chunk, so each is gathered with take.
    guide[c] is the composition of rank c << shift, the first rank of
    guide cell c (indexed search, Chen & Asau, AIIE Trans. 6(2), 1974).
    """

    starts: np.ndarray
    ends: np.ndarray
    radix: np.ndarray
    offsets: np.ndarray
    guide: np.ndarray
    shift: int

    def rows(self, ranks: np.ndarray) -> np.ndarray:
        """The composition of each rank: its guide cell's whenever the
        rank lies below that composition's end, else (a cell that spans
        a composition boundary) by binary search."""
        row = self.guide.take(ranks >> self.shift)
        beyond = np.flatnonzero(ranks >= self.ends.take(row))
        if beyond.size:
            row[beyond] = np.searchsorted(self.starts, ranks.take(beyond),
                                          side="right") - 1
        return row


@lru_cache(maxsize=None)
def _compositions(length: int, d: int) -> _Compositions:
    """The compositions of d flips over the `length`-bit word's chunks
    of WORD_BITS bits (see _Compositions), cached per (length, d)."""
    width = min(length, WORD_BITS)
    chunks = length // width
    first = [0, *accumulate(comb(width, k) for k in range(width))]
    starts, radix, offsets = [], [], []
    total = 0
    for head in product(range(width + 1), repeat=chunks - 1):
        ks = (*head, d - sum(head))
        if not 0 <= ks[-1] <= width:
            continue
        starts.append(total)
        radix.append([comb(width, k) for k in ks])
        offsets.append([first[k] for k in ks])
        total += prod(radix[-1])
    assert total == comb(length, d), (length, d, total)
    starts = np.array(starts, dtype=np.int64)
    shift = max(0, (total - 1).bit_length() - GUIDE_BITS)
    cells = np.arange(((total - 1) >> shift) + 1, dtype=np.int64) << shift
    compositions = _Compositions(
        starts, np.append(starts[1:], total),
        np.array(radix, dtype=np.int64).T.copy(),
        np.array(offsets, dtype=np.int64).T.copy(),
        np.searchsorted(starts, cells, side="right") - 1, shift)
    for table in compositions[:-1]:
        table.flags.writeable = False  # cached: every caller shares it
    return compositions


def _unrank_subsets(ranks: np.ndarray, length: int, d: int) -> np.ndarray:
    """The d-subsets of `length` bit positions with the given ranks in
    [0, C(length, d)), as masks in the word of the length (uint32/uint64
    by length, see classifier.word_dtype); a bijection onto the masks of
    popcount d.

    A rank picks its composition (flips per chunk) by interval; the rest
    of it is a mixed-radix number whose digit j indexes chunk j's word
    among the chunk words of that popcount.
    """
    table = _compositions(length, d)
    words = _popcount_sorted_words(min(length, WORD_BITS))
    dtype = word_dtype(length)
    row = table.rows(ranks)
    rest = ranks - table.starts.take(row)
    last = len(table.radix) - 1
    masks = np.zeros(ranks.shape, dtype=dtype)
    for j, (radix, offsets) in enumerate(zip(table.radix, table.offsets)):
        if j < last:
            rest, digit = np.divmod(rest, radix.take(row))
        else:
            digit = rest
        word = words.take(offsets.take(row) + digit).astype(dtype)
        masks |= word << dtype(j * WORD_BITS)
    return masks


def _sample_attempts(rng: np.random.Generator, members: np.ndarray,
                     length: int, d: int, count: int) -> np.ndarray:
    """Random functions at distance exactly d from a random member each
    (true class distance may be smaller), in the members' word.

    Each attempt draws a uniform member, then a uniform rank in
    [0, C(length, d)) that `_unrank_subsets` maps to the d bits to flip.
    Every pick of the batch is drawn before any rank, as by two
    whole-batch draws (a bounded int64 draw split into blocks gives the
    same numbers), but BLOCK at a time: the picks straight into the
    batch's words, then the ranks, each block unranked and flipped in.
    So the int64 draws and the unranker's temporaries stay BLOCK long
    whatever `count` is, and the words are the only batch-sized array.
    """
    values = np.empty(count, dtype=members.dtype)
    blocks = [values[start:start + BLOCK] for start in range(0, count, BLOCK)]
    for block in blocks:
        members.take(rng.integers(0, len(members), size=len(block)),
                     out=block)
    for block in blocks:
        block ^= _unrank_subsets(
            rng.integers(0, comb(length, d), size=len(block), dtype=np.int64),
            length, d)
    return values


def stratified_sample_profile(
    recipe: Sequence[str],
    per_distance_quota: Mapping[int, int],
    seed: int,
    attempt_factor: int = ATTEMPT_FACTOR,
) -> DistanceProfile:
    """Sampled profile for a recipe of any length.

    For each target distance d, flips a uniformly random d-subset of a
    uniformly random member's bits, computes the true minimum distance,
    and credits the sample to its true bucket.  The subset is one
    uniform rank in [0, C(L, d)), unranked into its flip mask (see
    `_unrank_subsets`), so an attempt costs two bounded integer draws
    whatever d is.  Batches double from 64 up to 2**17 attempts; each
    batch's words are drawn BLOCK at a time (see `_sample_attempts`),
    then classified and counted into the profile BLOCK attempts at a
    time, so no batch-sized distance, |N| or bincount key array is
    made, and a batch is dropped before the next is drawn.  A bucket
    short of quota after attempt_factor * quota attempts does not fail
    the run: `short_buckets` lists it unless a later target fills it.
    Deterministic given the seed: the same seed gives the same profile,
    byte for byte, within one version of the sampler.

    Flip targets just below 2**(n-1) hit their exact distance rarely
    (most flips land nearer some other member), so filling those buckets
    needs an attempt_factor far above the default.
    """
    spec = ClassifierSpec(recipe)
    members = member_array(spec)
    length = spec.dim
    half = length // 2
    for d, quota in per_distance_quota.items():
        if not 1 <= d <= half:
            raise ValueError(f"quota distance {d} outside [1, {half}]")
        if quota < 1:
            raise ValueError(f"quota at distance {d} must be >= 1, got {quota}")
    if attempt_factor < 1:
        raise ValueError(f"attempt_factor must be >= 1, got {attempt_factor}")
    rng = np.random.default_rng(seed)
    profile = DistanceProfile.empty(
        recipe, "sampled", seed=seed, quotas=per_distance_quota)
    for d in sorted(per_distance_quota):
        quota = per_distance_quota[d]
        cap = attempt_factor * quota
        attempts = 0
        batch = 64
        while profile.counts[d] < quota and attempts < cap:
            batch = min(batch, cap - attempts)
            values = _sample_attempts(rng, members, length, d, batch)
            for start in range(0, batch, BLOCK):
                profile.add_batch(
                    *_batch_thetas(spec, members, values[start:start + BLOCK]))
            del values  # not alive while the next batch is drawn
            attempts += batch
            batch = min(batch * 2, 1 << 17)
    return profile


def probe_suite(
    recipe: Sequence[str],
) -> list[tuple[str, ThresholdReport]]:
    """Deterministic probes: all-ones, all-zeros, each member's complement.

    For pure-Q2 recipes the all-ones probe sits at the uniform distance
    rho from every member, so its threshold is exactly 1.  Member
    complements sit at distance 2**(n-1), covering the far region that
    random flip sampling cannot reach.
    """
    spec = ClassifierSpec(recipe)
    return [(name, classification_threshold(spec, h))
            for name, h in probe_functions(spec.basis())]


def probe_functions(basis: PatternBasis) -> list[tuple[str, PatternVector]]:
    """The named probes: all-ones, all-zeros, each member's complement."""
    ones = PatternVector((1 << basis.length) - 1, basis.length)
    return [("all_ones", ones), ("all_zeros", ones.negate())] + [
        (f"complement_of_member_{k}", m.negate())
        for k, m in enumerate(basis.members)]


@dataclass(frozen=True)
class RegionVerdict:
    """One region's verdict: its populated distances whose exact mean
    breaks the region's expectation."""

    low: int
    high: int
    expectation: str
    offending: tuple[int, ...]

    @property
    def consistent(self) -> bool:
        return not self.offending

    def __str__(self) -> str:
        status = "consistent" if self.consistent else \
            f"violated at {list(self.offending)}"
        return f"region [{self.low}, {self.high}] ({self.expectation}): {status}"


@dataclass(frozen=True)
class IntervalSummary:
    """Three-region view of a profile: confident-yes, fading, zero."""

    regions: tuple[RegionVerdict, ...]
    monotonicity_violations: tuple[int, ...]

    @property
    def consistent(self) -> bool:
        return all(r.consistent for r in self.regions)


def regions(length: int) -> tuple[tuple[int, int], ...]:
    """The paper's three distance regions (low, high) for functions of
    `length` bits: 1 .. L/8, L/8+1 .. L/2-1 and L/2 .. L.  The first
    region's top, L/8, is where Alice stops saying yes and Bob pivots."""
    b1, b2 = length // 8, length // 2
    return (1, b1), (b1 + 1, b2 - 1), (b2, length)


#: What each region of regions(L), in order, asks of a bucket's exact
#: mean; `spike` is 1 at the class's rho (see ClassifierSpec.rho), else 0.
_EXPECTATIONS = (
    ("above_half", lambda mean, spike: mean > Fraction(1, 2)),
    ("below_half", lambda mean, spike: 0 < mean < Fraction(1, 2)),
    ("zero", lambda mean, spike: mean == spike),
)


def interval_summary(profile: DistanceProfile) -> IntervalSummary:
    """Check each populated bucket's exact mean against its region.

    Region 1 (1 .. L/8): mean above 1/2.  Region 2 (L/8+1 .. L/2-1):
    mean strictly between 0 and 1/2.  Region 3 (L/2 .. L): mean zero,
    except 1 at the class's rho, read from its spec (ClassifierSpec.rho).
    Each mean is the Fraction sum(k n_k) (L - 2d)**2 / (count L**2) of
    its nearest row, so every verdict is exact; an empty region (low >
    high, at L < 8) is left out.  Monotonicity violations are reported
    informationally and never fail a region.
    """
    length = profile.length
    means = {d: Fraction(sum(k * n for k, n in bucket.nearest.items())
                         * (length - 2 * d) ** 2, bucket.count * length ** 2)
             for d, bucket in profile.rows().items()}
    if not means:
        raise ValueError("profile is empty")
    rho = ClassifierSpec(profile.recipe).rho()
    verdicts = tuple(
        RegionVerdict(low, high, expectation, tuple(
            d for d, mean in means.items()
            if low <= d <= high and not holds(mean, int(d == rho))))
        for (low, high), (expectation, holds) in zip(regions(length),
                                                     _EXPECTATIONS)
        if low <= high)
    pop = [(d, mean) for d, mean in means.items() if d >= 1]
    mono = tuple(d2 for (_, m1), (d2, m2) in zip(pop, pop[1:]) if m2 > m1)
    return IntervalSummary(verdicts, mono)


def merge_profiles(a: DistanceProfile, b: DistanceProfile) -> DistanceProfile:
    """Bucket-wise sum of two shards of the same run, exact in any order.
    The merge has no one seed (each shard's manifest keeps its own) and
    sums the shards' quotas per distance, which set its short buckets."""
    if (a.recipe, a.mode) != (b.recipe, b.mode):
        raise ValueError(
            f"cannot merge profiles with different metadata: "
            f"{(a.recipe, a.mode)} vs {(b.recipe, b.mode)}")
    if a.mode == "sampled" and a.seed is not None and a.seed == b.seed:
        raise ValueError(
            f"sampled shards share seed {a.seed}: they hold the same "
            f"samples, so merging would count them twice")
    quotas = {d: a.quotas.get(d, 0) + b.quotas.get(d, 0)
              for d in sorted(a.quotas.keys() | b.quotas.keys())}
    return DistanceProfile(
        a.recipe, a.mode, a.nearest + b.nearest, quotas=quotas)
