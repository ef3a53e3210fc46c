"""Classifiers as structured products of H and C2 factors.

A classifier is a tensor product G = G_{m-1} x ... x G_0 whose factors
are the 2x2 Hadamard H and the 4x4 transform C2 (off-diagonal 1/2,
diagonal -1/2).  The leftmost factor in a recipe owns the most
significant index bits.  All operators are real, so states are plain
float64 vectors.

G is a distance oracle: every hot path takes member distances from the
one popcount kernel ``member_distances``, or for exhaustive blocks from
tables that it builds (``range_distances``), and outcome probabilities
from them with ``ket_probabilities``.  A function of L bits is one word:
uint32 for L <= 32, uint64 at L = 64 (``word_dtype``).  The kernel is
member-major: members run along the first axis of its output, so the
minimum over members and the count of nearest members are elementwise
passes over whole rows of values.  It XORs a few members at a time, so
its word temporary stays within ``XOR_BUDGET`` (256 KB) whatever the
member and value counts: the whole XOR of 8192 values at L = 64 would be
4 MB, and the call peaks at 0.75 MB of heap with its 512 KB output.

Exhaustive blocks are consecutive values, and those need no popcount
of their own.  A value splits as h = hi * 2**(L/2) + lo, so
d(h, m_k) = d(hi, hi(m_k)) + d(lo, lo(m_k)).  ``half_word_tables`` holds
both terms for every half-word, two uint8 (M, 2**(L/2)) tables made by
``member_distances`` once per spec, and ``range_distances`` adds a
block's distances from them in one broadcast: 8192 C2,C2,H values in
about 65-115 us of ``_batch_thetas`` against 210-370 us through the
word popcount on a shared 2-vCPU Xeon (the L = 32 tables take about
3-6 ms to build, 4 MB, with a heap peak of 4.5 MB).

The in-place butterflies (``apply_classifier``) and the Kronecker matrix
(``dense_unitary``) are the two oracles that closed form is tested
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import sqrt

import numpy as np

from .patterns import (
    NearestSet,
    PatternBasis,
    PatternVector,
    RANK_CAP,
    build_basis_from_recipe,
    builtin_basis,
    class_rho,
)

#: Classifier factor -> basis factor correspondence.
FACTOR_TO_BASIS = {"H": "B1", "C2": "Q2"}

#: Index bits consumed by each classifier factor.
FACTOR_BITS = {f: builtin_basis(b).rank for f, b in FACTOR_TO_BASIS.items()}

#: Bytes of member-XOR-value words that member_distances holds at once.
XOR_BUDGET = 1 << 18

_H_MATRIX = np.array([[1.0, 1.0], [1.0, -1.0]]) / sqrt(2.0)
_C2_MATRIX = np.full((4, 4), 0.5)
np.fill_diagonal(_C2_MATRIX, -0.5)


@dataclass(frozen=True)
class ClassifierSpec:
    """Ordered factor list; leftmost factor is most significant."""

    factors: tuple[str, ...]

    def __post_init__(self) -> None:
        # any sequence of factors; stored as a tuple so the spec hashes
        object.__setattr__(self, "factors", tuple(self.factors))
        if not self.factors:
            raise ValueError("classifier needs at least one factor")
        for f in self.factors:
            if f not in FACTOR_BITS:
                raise ValueError(
                    f"unknown classifier factor {f!r}; expected H or C2")
        if self.total_bits > RANK_CAP:
            raise ValueError(
                f"classifier acts on {self.total_bits} bits, cap is {RANK_CAP}")

    @classmethod
    def parse(cls, text: str) -> "ClassifierSpec":
        """Parse the comma-separated recipe grammar, e.g. "H,C2,H"."""
        parts = tuple(p.strip() for p in text.split(","))
        return cls(parts)

    @property
    def total_bits(self) -> int:
        return sum(FACTOR_BITS[f] for f in self.factors)

    @property
    def dim(self) -> int:
        return 1 << self.total_bits

    @lru_cache(maxsize=None)
    def basis(self) -> PatternBasis:
        """The pattern basis this classifier classifies perfectly, built
        once per factor tuple (equal specs share it, as in member_array);
        the basis is frozen, so sharing it is safe."""
        return build_basis_from_recipe([FACTOR_TO_BASIS[f] for f in self.factors])

    @lru_cache(maxsize=None)
    def rho(self) -> int | None:
        """The class's uniform zero count rho, or None for a mixed class
        (see patterns.class_rho), computed once per factor tuple: the
        one source of rho for interval_summary, the game and `bases`."""
        return class_rho(self.basis())

    def __str__(self) -> str:
        return ",".join(self.factors)


@dataclass(frozen=True)
class ThresholdReport:
    """Classification threshold of one function against one class."""

    theta: float
    nearest: NearestSet
    distribution: np.ndarray


def initial_amplitudes(h: PatternVector) -> np.ndarray:
    """Sign vector 2**(-n/2) * (-1)**h(x), the input-register state after
    the uniform superposition and the phase oracle for h."""
    if h.n > RANK_CAP:
        raise ValueError(f"function arity {h.n} exceeds cap {RANK_CAP}")
    x = np.arange(h.length, dtype=np.uint64)
    bits = ((np.uint64(h.value) >> x) & np.uint64(1)).astype(np.float64)
    return (1.0 - 2.0 * bits) / sqrt(h.length)


def apply_hadamard_factor(v: np.ndarray, bit: int) -> np.ndarray:
    """In-place H butterfly on one index bit of v's last axis."""
    dim = v.shape[-1]
    if not 0 <= bit < dim.bit_length() - 1:
        raise ValueError(f"bit {bit} out of range for dimension {dim}")
    stride = 1 << bit
    blocks = v.reshape(v.shape[:-1] + (dim // (2 * stride), 2, stride))
    a = blocks[..., 0, :].copy()
    b = blocks[..., 1, :].copy()
    inv = 1.0 / sqrt(2.0)
    blocks[..., 0, :] = (a + b) * inv
    blocks[..., 1, :] = (a - b) * inv
    return v


def apply_c2_factor(v: np.ndarray, low_bit: int) -> np.ndarray:
    """In-place C2 on index bits (low_bit, low_bit + 1) of v's last axis.

    Over each aligned 4-block (w, x, y, z), every entry maps to S/2 - entry
    with S = w + x + y + z, which is exactly the 4x4 matrix with
    off-diagonal 1/2 and diagonal -1/2.
    """
    dim = v.shape[-1]
    if low_bit < 0 or low_bit + 1 >= dim.bit_length() - 1:
        raise ValueError(
            f"C2 needs bits ({low_bit}, {low_bit + 1}), dimension is {dim}")
    stride = 1 << low_bit
    blocks = v.reshape(v.shape[:-1] + (dim // (4 * stride), 4, stride))
    s = blocks.sum(axis=-2, keepdims=True)
    np.subtract(s * 0.5, blocks, out=blocks)
    return v


def apply_classifier(spec: ClassifierSpec, v: np.ndarray) -> np.ndarray:
    """Apply every factor of spec to v in place.

    The rightmost factor owns index bit 0; each factor to its left owns
    the next more significant bits.  Works on any array whose last axis
    has dimension 2**spec.total_bits, so batches apply row-wise.
    """
    if v.shape[-1] != spec.dim:
        raise ValueError(
            f"dimension mismatch: classifier is {spec.dim}-dimensional, "
            f"state has {v.shape[-1]} entries")
    bit = 0
    for factor in reversed(spec.factors):
        if factor == "H":
            apply_hadamard_factor(v, bit)
        else:
            apply_c2_factor(v, bit)
        bit += FACTOR_BITS[factor]
    return v


def dense_unitary(spec: ClassifierSpec) -> np.ndarray:
    """Explicit 2**n x 2**n matrix G_{m-1} x ... x G_0."""
    out = np.array([[1.0]])
    for factor in spec.factors:
        out = np.kron(out, _H_MATRIX if factor == "H" else _C2_MATRIX)
    return out


def word_dtype(length: int) -> type[np.unsignedinteger]:
    """The word that holds a function of `length` bits: uint32 up to 32
    bits, uint64 above."""
    return np.uint32 if length <= 32 else np.uint64


@lru_cache(maxsize=None)
def member_array(spec: ClassifierSpec) -> np.ndarray:
    """Read-only member values as uint32/uint64 words by length (see
    word_dtype), built once per spec (entry k is the member measured as
    ket k)."""
    members = np.array(spec.basis().member_values(),
                       dtype=word_dtype(spec.dim))
    members.setflags(write=False)
    return members


def member_distances(members: np.ndarray,
                     values) -> tuple[np.ndarray, np.ndarray]:
    """Hamming distances from values of any shape to every member and
    their minimum, the class distance, both uint8.  The values are cast
    to the members' word (uint32/uint64 by length, see member_array); a
    value of a wider array that does not fit it raises ValueError.

    Member-major: ``dist`` has shape ``(M, *values.shape)``, so
    ``dist[k]`` holds every value's distance to member k, and
    ``dmin = dist.min(axis=0)``.  A reduction over the members is then M
    elementwise passes over contiguous rows, which numpy vectorises,
    rather than one short inner loop of M per value along a last axis.
    Every value takes one word popcount, ``np.bitwise_count`` of the
    member XOR the value, in uint32 words up to L = 32 and uint64 words
    at L = 64.  The members go a few at a time, as many as keep their
    XOR words within XOR_BUDGET bytes (at least one), each chunk counted
    straight into its rows of ``dist``; so the only temporary beyond the
    uint8 output is one chunk of words, whatever M and the value count.
    A probe or one value fits one chunk; a group of 2000 game rounds at
    L = 64 (16 KB of words) goes 16 members a chunk, in 4 chunks.
    """
    values, bits = np.asarray(values), 8 * members.itemsize
    if values.dtype != members.dtype:
        if values.itemsize > members.itemsize and (values >> bits).any():
            raise ValueError(f"values do not fit the {bits}-bit word")
        values = values.astype(members.dtype)
    column = members.reshape(members.shape + (1,) * values.ndim)
    dist = np.empty(members.shape + values.shape, dtype=np.uint8)
    step = max(1, XOR_BUDGET // max(1, values.nbytes))
    for k in range(0, len(members), step):
        np.bitwise_count(column[k:k + step] ^ values, out=dist[k:k + step])
    return dist, dist.min(axis=0)


@lru_cache(maxsize=None)
def half_word_tables(spec: ClassifierSpec) -> tuple[np.ndarray, np.ndarray]:
    """Read-only uint8 (M, 2**(L/2)) distances from every half-word to
    each member's high half and to its low half, built once per spec
    (as member_array) by one member_distances call each.  A value
    h = hi * 2**(L/2) + lo is then at d(hi, hi(m_k)) + d(lo, lo(m_k))
    from member k (see range_distances).  L <= 32: at L = 64 a table
    would have 2**32 columns."""
    if spec.dim > 32:
        raise ValueError(f"no half-word tables at length {spec.dim}")
    half = spec.dim // 2
    members = member_array(spec)
    words = np.arange(1 << half, dtype=members.dtype)
    tables = (member_distances(members >> half, words)[0],
              member_distances(members & ((1 << half) - 1), words)[0])
    for table in tables:
        table.setflags(write=False)
    return tables


def range_distances(spec: ClassifierSpec,
                    values: range) -> tuple[np.ndarray, np.ndarray]:
    """member_distances(member_array(spec), values) for a range of
    consecutive function values, added from the two half_word_tables.

    Values with one high half form a row of 2**(L/2) low halves.  The
    range's first value is (h0, l0) and its last (h1, l1) as (high, low)
    halves; it must be whole aligned rows (every exhaustive block at
    L <= 16) or lie inside one row (a block at L = 32), else ValueError.
    Either way its distances are the high-half columns h0..h1 plus the
    low-half columns l0..l1: one broadcast add into a new uint8 (M, n)
    array, with no popcount.
    """
    hi_table, lo_table = half_word_tables(spec)
    row, start, stop = 1 << spec.dim // 2, values.start, values.stop
    if values.step != 1 or not 0 <= start < stop <= 1 << spec.dim:
        raise ValueError(f"{values!r} is not a nonempty run of values "
                         f"in [0, 2**{spec.dim})")
    (h0, l0), (h1, l1) = divmod(start, row), divmod(stop - 1, row)
    if h0 != h1 and (l0, l1) != (0, row - 1):
        raise ValueError(f"{values!r} is neither whole rows of {row} values "
                         f"nor inside one row")
    dist = (hi_table[:, h0:h1 + 1, None]
            + lo_table[:, None, l0:l1 + 1]).reshape(len(lo_table), -1)
    return dist, dist.min(axis=0)


def ket_probabilities(distances, length: int) -> np.ndarray:
    """Outcome probabilities ((L - 2d) / L)**2 from member distances d.

    G is orthogonal and measures member m_k as ket k with certainty, so
    G^T|k> = +-s_{m_k} and the amplitude of ket k for input h is the
    sign-vector overlap <s_{m_k}|s_h> = (L - 2 d(h, m_k)) / L.  Each value
    is a dyadic rational over L**2 <= 4096, exact in float64.
    """
    amps = (length - 2 * np.asarray(distances, dtype=np.int64)) / length
    return amps * amps


def outcome_distribution(spec: ClassifierSpec, h: PatternVector) -> np.ndarray:
    """Exact measurement probabilities over basis kets for input h."""
    return classification_threshold(spec, h).distribution


def classification_threshold(spec: ClassifierSpec,
                             h: PatternVector) -> ThresholdReport:
    """Probability that the measured ket is one of h's nearest basis kets."""
    if h.length != spec.dim:
        raise ValueError(
            f"dimension mismatch: classifier is {spec.dim}-dimensional, "
            f"function has {h.length} bits")
    dist, dmin = member_distances(member_array(spec), h.value)
    nearest = np.flatnonzero(dist == dmin)
    probs = ket_probabilities(dist, spec.dim)
    return ThresholdReport(float(probs[nearest].sum()),
                           NearestSet(int(dmin), frozenset(nearest.tolist())),
                           probs)
