"""Bit-exact algebra of pattern bit vectors and pattern bases.

A pattern bit vector of length 2**n encodes a Boolean function
f: {0,1}**n -> {0,1}; bit i holds f(i).  Vectors are stored as plain
Python integers (bit i of the integer is f(i)), so Hamming distance is
a single XOR plus a popcount.  The textual form is MSB-first: index
2**n - 1 is printed leftmost, e.g. the length-4 vector with f(0) = 1
and f(1) = f(2) = f(3) = 0 prints as "0001".

Bases are given by their members or built from the two elementary factors:

    B1 = (00, 01)                       rank 1
    Q2 = (0001, 0010, 0100, 1000)       rank 2

combined with the block product ``pattern_product``.  Total rank is
capped at 6 (vectors of length 64) so every vector fits in one machine
word.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

#: Largest supported basis rank (vectors of length 2**6 = 64).
RANK_CAP = 6

#: Member values of the elementary bases; a factor's rank is log2 of its count.
_ELEMENTARY = {"B1": (0b00, 0b01), "Q2": (0b0001, 0b0010, 0b0100, 0b1000)}

#: Valid basis factor names.
BASIS_FACTORS = tuple(_ELEMENTARY)


@dataclass(frozen=True)
class PatternVector:
    """A length-2**n bit sequence encoding a Boolean function."""

    value: int
    length: int

    def __post_init__(self) -> None:
        if self.length < 2 or self.length & (self.length - 1):
            raise ValueError(
                f"pattern vector length must be a power of two >= 2, got {self.length}")
        if not 0 <= self.value < (1 << self.length):
            raise ValueError(
                f"value {self.value:#x} does not fit in {self.length} bits")

    @property
    def n(self) -> int:
        """Arity of the realized Boolean function."""
        return self.length.bit_length() - 1

    @classmethod
    def parse(cls, text: str) -> "PatternVector":
        """Parse an MSB-first bit string; whitespace and '_' are ignored."""
        cleaned = "".join(c for c in text if c not in " \t_")
        if not cleaned or set(cleaned) - {"0", "1"}:
            raise ValueError(f"not a bit string: {text!r}")
        return cls(int(cleaned, 2), len(cleaned))

    def bit(self, i: int) -> int:
        """Value of the realized function at input i."""
        if not 0 <= i < self.length:
            raise ValueError(f"index {i} out of range for length {self.length}")
        return (self.value >> i) & 1

    def negate(self) -> "PatternVector":
        """The vector of the negated function (every bit flipped)."""
        mask = (1 << self.length) - 1
        return PatternVector(self.value ^ mask, self.length)

    def zero_count(self) -> int:
        """Number of 0 bits."""
        return self.length - self.value.bit_count()

    def __str__(self) -> str:
        return format(self.value, f"0{self.length}b")


@dataclass(frozen=True)
class NearestSet:
    """Minimum distance from a class and the member indices attaining it."""

    distance: int
    indices: frozenset[int]

    def __post_init__(self) -> None:
        if not self.indices:
            raise ValueError("nearest set must contain at least one index")


@dataclass(frozen=True)
class BasisViolation:
    """First orthogonality failure found by validate_basis."""

    pair: tuple[int, int]
    xor_weight: int
    expected_weight: int

    def __str__(self) -> str:
        i, j = self.pair
        return (f"members {i} and {j} are not orthogonal: "
                f"XOR weight {self.xor_weight} != {self.expected_weight}")


@dataclass(frozen=True)
class PatternBasis:
    """An ordered list of 2**n pairwise-orthogonal pattern vectors, which
    validate_basis checks when it is built; n comes from the members.
    ``recipe`` labels the elementary factors it was built from, () for a
    basis given by its members, and must name factors of ranks summing to n."""

    members: tuple[PatternVector, ...]
    recipe: tuple[str, ...]

    def __post_init__(self) -> None:
        violation = validate_basis(self.members)
        if violation is not None:
            raise ValueError(f"not a pattern basis: {violation}")
        if self.recipe and sum(map(_factor_rank, self.recipe)) != self.rank:
            raise ValueError(f"recipe {','.join(self.recipe)} does not have "
                             f"the members' rank {self.rank}")

    @property
    def rank(self) -> int:
        """log2 of the member count."""
        return len(self.members).bit_length() - 1

    @property
    def length(self) -> int:
        """Common bit length of the members."""
        return 1 << self.rank

    def member_values(self) -> list[int]:
        return [m.value for m in self.members]

    def __str__(self) -> str:
        lines = [",".join(self.recipe) if self.recipe else "<no recipe>"]
        lines += [str(m) for m in self.members]
        return "\n".join(lines)


def hamming_distance(a: PatternVector, b: PatternVector) -> int:
    """Number of positions where a and b differ."""
    if a.length != b.length:
        raise ValueError(
            f"length mismatch: {a.length} vs {b.length}")
    return (a.value ^ b.value).bit_count()


def pattern_product(p: PatternVector, q: PatternVector) -> PatternVector:
    """Block product: bit j + i*|q| of the result is q_j XOR p_i.

    Block i of the result (length |q|) is a copy of q when p_i = 0 and
    the negation of q when p_i = 1.
    """
    qmask = (1 << q.length) - 1
    qneg = q.value ^ qmask
    out = 0
    for i in range(p.length):
        block = qneg if (p.value >> i) & 1 else q.value
        out |= block << (i * q.length)
    return PatternVector(out, p.length * q.length)


def extended_product_eval(p: PatternVector, q: PatternVector, index: int) -> int:
    """Evaluate the function-level product of p's and q's functions at `index`.

    With index = j + i*|q| (0 <= j < |q|) the value is q_j when p_i = 0
    and NOT q_j otherwise, which agrees bit-for-bit with
    pattern_product(p, q).
    """
    total = p.length * q.length
    if not 0 <= index < total:
        raise ValueError(f"index {index} out of range for product length {total}")
    i, j = divmod(index, q.length)
    return q.bit(j) ^ p.bit(i)


def _factor_rank(factor: str) -> int:
    """Rank of an elementary factor: log2 of its member count."""
    if factor not in _ELEMENTARY:
        raise ValueError(
            f"unknown recipe factor {factor!r}; expected one of {BASIS_FACTORS}")
    return len(_ELEMENTARY[factor]).bit_length() - 1


def builtin_basis(kind: str) -> PatternBasis:
    """The elementary basis B1 or Q2."""
    if kind not in _ELEMENTARY:
        raise ValueError(f"unknown basis kind {kind!r}; expected one of {BASIS_FACTORS}")
    values = _ELEMENTARY[kind]
    members = tuple(PatternVector(v, len(values)) for v in values)
    return PatternBasis(members, (kind,))


def basis_product(p_basis: PatternBasis, q_basis: PatternBasis) -> PatternBasis:
    """Product basis: member a*2**rank(Q) + b is members[a] (.) members[b].
    Both inputs are pattern bases by construction, and so is the product."""
    members = tuple(
        pattern_product(pm, qm)
        for pm in p_basis.members for qm in q_basis.members)
    return PatternBasis(members, p_basis.recipe + q_basis.recipe)


def build_basis_from_recipe(recipe: Sequence[str]) -> PatternBasis:
    """Left fold of basis_product; the leftmost factor contributes the
    high-order index bits."""
    if not recipe:
        raise ValueError("recipe must contain at least one factor")
    total = sum(map(_factor_rank, recipe))
    if total > RANK_CAP:
        raise ValueError(
            f"recipe rank {total} exceeds the supported cap of {RANK_CAP}")
    basis = builtin_basis(recipe[0])
    for factor in recipe[1:]:
        basis = basis_product(basis, builtin_basis(factor))
    return basis


def validate_basis(members: Sequence[PatternVector]) -> BasisViolation | None:
    """Check count, length, and pairwise orthogonality; every
    PatternBasis is checked by it when it is built.

    Returns None when the members form a pattern basis, else a report
    for the first offending pair.  Orthogonality requires the XOR of
    any two members to have exactly half its bits set.
    """
    count = len(members)
    if count < 2 or count & (count - 1):
        raise ValueError(f"member count must be a power of two >= 2, got {count}")
    length = members[0].length
    if length != count:
        raise ValueError(
            f"member length {length} must equal member count {count}")
    expected = length // 2
    for i in range(count):
        if members[i].length != length:
            raise ValueError(
                f"member {i} has length {members[i].length}, expected {length}")
        for j in range(i + 1, count):
            w = (members[i].value ^ members[j].value).bit_count()
            if w != expected:
                return BasisViolation((i, j), w, expected)
    return None


def distance_from_class(basis: PatternBasis, h: PatternVector) -> NearestSet:
    """Minimum Hamming distance from h to the basis members, with all
    argmin member indices: the pure-integer scalar oracle that
    ``classifier.member_distances`` is tested against."""
    if h.length != basis.length:
        raise ValueError(
            f"length mismatch: function has {h.length} bits, "
            f"basis members have {basis.length}")
    dists = [(h.value ^ m.value).bit_count() for m in basis.members]
    dmin = min(dists)
    return NearestSet(dmin, frozenset(k for k, d in enumerate(dists) if d == dmin))


def class_rho(basis: PatternBasis) -> int | None:
    """Common zero count of all members, or None when they differ.

    For the pure-Q2 product bases of rank 2m the value follows the
    recurrence z_m = 2*z_{m-1} + 4**(m-1) with z_1 = 3, giving 3, 10, 36
    for m = 1, 2, 3.
    """
    zeros = {m.zero_count() for m in basis.members}
    return zeros.pop() if len(zeros) == 1 else None


def rho_recurrence(m: int) -> int:
    """z_m = 2*z_{m-1} + 4**(m-1), z_1 = 3."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    z = 3
    for k in range(2, m + 1):
        z = 2 * z + 4 ** (k - 1)
    return z
