import random
from collections import Counter, defaultdict
from fractions import Fraction
from functools import cache

import pytest

from basisket import (
    NearestSet,
    PatternBasis,
    PatternVector,
    basis_product,
    build_basis_from_recipe,
    builtin_basis,
    class_rho,
    distance_from_class,
    extended_product_eval,
    hamming_distance,
    pattern_product,
    rho_recurrence,
    validate_basis,
)
from basisket.classifier import FACTOR_TO_BASIS
from conftest import all_recipes

PV = PatternVector.parse

# the rank-4 product basis of Q2 with itself, in published order
Q4_MEMBERS = [
    "0001000100011110", "0010001000101101", "0100010001001011", "1000100010000111",
    "0001000111100001", "0010001011010010", "0100010010110100", "1000100001111000",
    "0001111000010001", "0010110100100010", "0100101101000100", "1000011110001000",
    "1110000100010001", "1101001000100010", "1011010001000100", "0111100010001000",
]


def random_vector(rng, length):
    return PatternVector(rng.getrandbits(length) % (1 << length), length)


# independent bit-level oracle: compare the printed strings character by
# character (leftmost character is the highest input index)
def string_distance(a: PatternVector, b: PatternVector) -> int:
    return sum(x != y for x, y in zip(str(a), str(b)))


class TestHammingDistance:
    def test_identity(self):
        assert hamming_distance(PV("1010"), PV("1010")) == 0

    def test_two_differing_positions(self):
        assert hamming_distance(PV("0001"), PV("0010")) == 2

    def test_published_distance_one_example(self):
        g = PV("0000000100011110")
        r0 = PV("0001000100011110")
        assert hamming_distance(g, r0) == 1

    def test_length_mismatch_names_both_lengths(self):
        with pytest.raises(ValueError, match="4.*8|8.*4"):
            hamming_distance(PV("0001"), PV("00010001"))

    def test_metric_axioms_random_triples(self):
        rng = random.Random(7)
        for _ in range(1000):
            length = rng.choice([8, 16, 32, 64])
            a, b, c = (random_vector(rng, length) for _ in range(3))
            assert hamming_distance(a, a) == 0
            assert hamming_distance(a, b) == hamming_distance(b, a)
            assert hamming_distance(a, c) <= (
                hamming_distance(a, b) + hamming_distance(b, c))
            if hamming_distance(a, b) == 0:
                assert a == b
            assert hamming_distance(a, b) == string_distance(a, b)


class TestNegate:
    def test_simple(self):
        assert str(PV("00").negate()) == "11"
        assert str(PV("0001").negate()) == "1110"

    def test_involution_and_distance_laws(self):
        rng = random.Random(3)
        for _ in range(200):
            length = rng.choice([8, 16, 64])
            a, b = random_vector(rng, length), random_vector(rng, length)
            assert a.negate().negate() == a
            assert hamming_distance(a.negate(), b.negate()) == hamming_distance(a, b)
            assert hamming_distance(a, a.negate()) == length


class TestPatternProduct:
    def test_published_products(self):
        assert str(pattern_product(PV("0001"), PV("1000"))) == "1000100010000111"
        assert str(pattern_product(PV("0001"), PV("0001"))) == "0001000100011110"

    def test_zero_selector_copies(self):
        rng = random.Random(11)
        for _ in range(20):
            q = random_vector(rng, 8)
            assert str(pattern_product(PV("00"), q)) == str(q) * 2

    def test_bit_law(self):
        # bit at j + i*|q| equals p_i XOR q_j, checked at every index
        rng = random.Random(5)
        for plen, qlen in [(2, 2), (2, 4), (4, 2), (4, 4), (2, 8), (8, 2), (4, 8)]:
            p, q = random_vector(rng, plen), random_vector(rng, qlen)
            prod = pattern_product(p, q)
            for i in range(plen):
                for j in range(qlen):
                    assert prod.bit(j + i * qlen) == p.bit(i) ^ q.bit(j)

    def test_length(self):
        assert pattern_product(PV("0001"), PV("10001000")).length == 32


class TestExtendedProduct:
    def test_agrees_with_pattern_product_everywhere(self):
        rng = random.Random(13)
        for _ in range(50):
            p = random_vector(rng, rng.choice([2, 4]))
            q = random_vector(rng, rng.choice([2, 4, 8]))
            prod = pattern_product(p, q)
            for index in range(prod.length):
                assert extended_product_eval(p, q, index) == prod.bit(index)

    def test_leftmost_bit_of_published_product(self):
        # bit 15 of 0001 (.) 1000 is the leftmost printed character of
        # 1000100010000111, i.e. 1
        assert extended_product_eval(PV("0001"), PV("1000"), 15) == 1

    def test_zero_selector(self):
        q = PV("0110")
        for j in range(4):
            assert extended_product_eval(PV("00"), q, j) == q.bit(j)

    def test_closed_form_identity_random(self):
        rng = random.Random(17)
        for _ in range(1000):
            p = random_vector(rng, rng.choice([2, 4, 8]))
            q = random_vector(rng, rng.choice([2, 4, 8]))
            i = rng.randrange(p.length)
            j = rng.randrange(q.length)
            val = extended_product_eval(p, q, j + i * q.length)
            assert val ^ p.bit(i) ^ q.bit(j) == 0

    def test_index_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            extended_product_eval(PV("00"), PV("00"), 4)


class TestBuiltinBases:
    def test_b1(self):
        basis = builtin_basis("B1")
        assert [str(m) for m in basis.members] == ["00", "01"]
        assert basis.rank == 1

    def test_q2(self):
        basis = builtin_basis("Q2")
        assert [str(m) for m in basis.members] == ["0001", "0010", "0100", "1000"]
        assert validate_basis(basis.members) is None

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown basis kind"):
            builtin_basis("Z3")


class TestValidateBasis:
    def test_ok(self):
        assert validate_basis((PV("00"), PV("01"))) is None

    def test_weight_violation(self):
        violation = validate_basis((PV("00"), PV("11")))
        assert violation is not None
        assert violation.xor_weight == 2
        assert violation.expected_weight == 1

    def test_member_count_must_be_a_power_of_two(self):
        with pytest.raises(ValueError, match="power of two >= 2, got 3"):
            validate_basis((PV("000"), PV("001"), PV("010")))

    def test_members_of_unequal_length_rejected(self):
        # member 3 is 2 from each other member, so only its length is bad
        with pytest.raises(ValueError,
                           match="member 3 has length 8, expected 4"):
            validate_basis((PV("0001"), PV("0010"), PV("0100"),
                            PV("00001000")))

    def test_reports_first_offending_pair(self):
        # 0001 XOR 1110 = 1111 has weight 4, not 2
        violation = validate_basis(
            (PV("0001"), PV("0010"), PV("0100"), PV("1110")))
        assert violation is not None
        assert violation.pair == (0, 3)
        assert violation.xor_weight == 4


class TestBasisProduct:
    def test_q2_squared_matches_published_table(self):
        basis = basis_product(builtin_basis("Q2"), builtin_basis("Q2"))
        assert [str(m) for m in basis.members] == Q4_MEMBERS

    def test_b1_squared_hand_expansion(self):
        basis = basis_product(builtin_basis("B1"), builtin_basis("B1"))
        assert [str(m) for m in basis.members] == ["0000", "0101", "0011", "0110"]

    def test_mixed_product_is_valid(self):
        basis = basis_product(builtin_basis("B1"), builtin_basis("Q2"))
        assert validate_basis(basis.members) is None
        assert basis.recipe == ("B1", "Q2")

    def test_all_recipes_up_to_cap_are_valid_bases(self):
        for recipe in all_recipes(6):
            basis = build_basis_from_recipe(
                [FACTOR_TO_BASIS[f] for f in recipe])
            assert validate_basis(basis.members) is None
            # orthogonality restated metrically: pairwise distance 2**(rank-1)
            half = basis.length // 2
            members = basis.members
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    assert hamming_distance(members[i], members[j]) == half


@pytest.mark.parametrize("recipe", all_recipes(6), ids=",".join)
def test_signed_members_are_one_linear_code_translate(recipe):
    # each recipe holds one word of every +- pair of one RM(1, m)
    # translate: after m0, the members and their complements are a
    # linear code of 2L words with weights 0, L/2 and L only
    basis = build_basis_from_recipe([FACTOR_TO_BASIS[f] for f in recipe])
    length, m0 = basis.length, basis.members[0].value
    code = {m.value ^ m0 for m in basis.members} | {
        m.negate().value ^ m0 for m in basis.members}
    assert len(code) == 2 * length
    assert {a ^ b for a in code for b in code} == code
    assert {c.bit_count() for c in code} == {0, length // 2, length}


class TestBuildBasisFromRecipe:
    def test_rank3(self):
        basis = build_basis_from_recipe(["B1", "Q2"])
        assert basis.rank == 3
        assert len(basis.members) == 8
        assert basis.members[0].length == 8

    def test_rank6(self):
        basis = build_basis_from_recipe(["Q2", "Q2", "Q2"])
        assert basis.rank == 6
        assert len(basis.members) == 64
        assert basis.members[0].length == 64

    def test_single_factor(self):
        assert build_basis_from_recipe(["B1"]) == builtin_basis("B1")

    def test_empty_recipe(self):
        with pytest.raises(ValueError, match="at least one factor"):
            build_basis_from_recipe([])

    def test_rank_cap(self):
        with pytest.raises(ValueError, match="cap"):
            build_basis_from_recipe(["Q2", "Q2", "Q2", "B1"])


# each of these was accepted at the parent of this check, or raised
# KeyError rather than ValueError
class TestPatternBasisIsCheckedWhenBuilt:
    def test_non_orthogonal_members_rejected(self):
        with pytest.raises(ValueError, match="not a pattern basis: members 0 "
                                             "and 1 are not orthogonal"):
            PatternBasis((PV("00"), PV("11")), ("B1",))

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError, match="unknown recipe factor 'X'"):
            PatternBasis(builtin_basis("B1").members, ("X",))

    def test_label_of_another_rank_rejected(self):
        with pytest.raises(ValueError, match="rank 2"):
            PatternBasis(builtin_basis("Q2").members, ("B1",))

    def test_accepts_exactly_what_validate_basis_accepts(self):
        rng = random.Random(31)
        for length in (2, 4, 8):
            for _ in range(200):
                members = tuple(random_vector(rng, length)
                                for _ in range(length))
                violation = validate_basis(members)
                if violation is None:
                    assert PatternBasis(members, ()).members == members
                else:
                    with pytest.raises(ValueError,
                                       match=f"not a pattern basis: {violation}"):
                        PatternBasis(members, ())

    def test_unlabelled_basis_takes_its_rank_from_its_members(self):
        basis = PatternBasis(builtin_basis("Q2").members, ())
        assert (basis.rank, basis.length) == (2, 4)
        assert str(basis).splitlines()[0] == "<no recipe>"


def sign_selection(m: int, s: int) -> tuple[PatternVector, ...]:
    """The members l_a XOR s(a) of RM(1, m): bit x of member a is
    (popcount(a & x) + s(a)) mod 2, and s(a) is bit a of the truth
    table s."""
    length = 1 << m
    return tuple(
        PatternVector(sum((((a & x).bit_count() + (s >> a)) & 1) << x
                          for x in range(length)), length)
        for a in range(length))


def exhaustive_table(basis: PatternBasis) -> frozenset:
    """The (d, |N|) -> function count table over every function."""
    table = Counter()
    for value in range(1 << basis.length):
        nearest = distance_from_class(basis, PatternVector(value, basis.length))
        table[nearest.distance, len(nearest.indices)] += 1
    return frozenset(table.items())


@cache
def sign_classes(m: int) -> dict[frozenset, list[int]]:
    """Every sign selection s at m, grouped by its exhaustive table."""
    classes = defaultdict(list)
    for s in range(1 << (1 << m)):
        basis = PatternBasis(sign_selection(m, s), ())
        assert validate_basis(basis.members) is None
        classes[exhaustive_table(basis)].append(s)
    return dict(classes)


def recipe_table(*recipe: str) -> frozenset:
    return exhaustive_table(
        build_basis_from_recipe([FACTOR_TO_BASIS[f] for f in recipe]))


def mean_thetas(table: frozenset, length: int) -> dict[int, Fraction]:
    """Exact E[theta | d]: sum(k n_k) (L - 2d)**2 / (count L**2)."""
    weighted, counts = Counter(), Counter()
    for (d, k), n in table:
        weighted[d] += k * n
        counts[d] += n
    return {d: Fraction(weighted[d] * (length - 2 * d) ** 2,
                        counts[d] * length ** 2) for d in counts}


class TestSignSelections:
    """Every sign selection {l_a XOR s(a)} is a pattern basis (sign_classes
    builds and validates all of them); at m <= 3 the exhaustive (d, |N|)
    tables split them into the classes below."""

    def test_m2_two_classes_of_eight(self):
        classes = sign_classes(2)
        assert sorted(map(len, classes.values())) == [8, 8]
        assert 0 in classes[recipe_table("H", "H")]
        assert 0 not in classes[recipe_table("C2")]

    def test_m3_three_classes(self):
        classes = sign_classes(3)
        assert sorted(map(len, classes.values())) == [16, 112, 128]
        assert 0 in classes[recipe_table("H", "H", "H")]
        assert len(classes[recipe_table("H", "H", "H")]) == 16
        assert recipe_table("H", "C2") == recipe_table("C2", "H")
        assert 0x3 in classes[recipe_table("H", "C2")]
        assert len(classes[recipe_table("H", "C2")]) == 112

    def test_m3_cubic_class_has_no_recipe(self):
        cubic, = (t for t, members in sign_classes(3).items() if 0x1 in members)
        assert len(sign_classes(3)[cubic]) == 128
        assert cubic not in {recipe_table("H", "H", "H"), recipe_table("H", "C2")}
        assert {k: n for (d, k), n in cubic if d == 2} == {
            1: 28, 2: 42, 3: 28, 4: 7}
        means = mean_thetas(cubic, 8)
        assert [means[d] for d in range(1, 6)] == [
            Fraction(9, 16), Fraction(8, 15), Fraction(2, 9), 0,
            Fraction(7, 16)]
        assert mean_thetas(recipe_table("H", "H", "H"), 8)[2] == Fraction(1, 2)
        assert mean_thetas(recipe_table("H", "C2"), 8)[2] == Fraction(7, 13)


class TestDistanceFromClass:
    def test_published_nearest_example(self):
        basis = build_basis_from_recipe(["Q2", "Q2"])
        g = PV("0000000100011110")
        nearest = distance_from_class(basis, g)
        assert nearest.distance == 1
        assert nearest.indices == {0}

    def test_member_is_its_own_nearest(self):
        basis = build_basis_from_recipe(["B1", "Q2"])
        for k, member in enumerate(basis.members):
            nearest = distance_from_class(basis, member)
            assert nearest.distance == 0
            assert nearest.indices == {k}

    def test_all_ones_uniform_distance(self):
        basis = builtin_basis("Q2")
        nearest = distance_from_class(basis, PV("1111"))
        assert nearest.distance == 3
        assert nearest.indices == {0, 1, 2, 3}

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            distance_from_class(builtin_basis("Q2"), PV("00"))

    def test_matches_brute_force_minimum(self):
        rng = random.Random(23)
        basis = build_basis_from_recipe(["Q2", "Q2"])
        for _ in range(100):
            h = random_vector(rng, 16)
            dists = [string_distance(h, m) for m in basis.members]
            nearest = distance_from_class(basis, h)
            assert nearest.distance == min(dists)
            assert nearest.indices == {
                k for k, d in enumerate(dists) if d == min(dists)}


class TestClassRho:
    def test_pure_q2_values(self):
        assert class_rho(build_basis_from_recipe(["Q2"])) == 3
        assert class_rho(build_basis_from_recipe(["Q2", "Q2"])) == 10
        assert class_rho(build_basis_from_recipe(["Q2", "Q2", "Q2"])) == 36

    def test_recurrence(self):
        assert [rho_recurrence(m) for m in (1, 2, 3)] == [3, 10, 36]

    def test_recurrence_starts_at_one(self):
        with pytest.raises(ValueError, match="m must be >= 1, got 0"):
            rho_recurrence(0)

    def test_b1_not_uniform(self):
        assert class_rho(builtin_basis("B1")) is None


class TestParsingAndPrinting:
    def test_separators_ignored(self):
        assert PV("0001 0001_0001 1110").value == PV("0001000100011110").value

    def test_round_trip(self):
        rng = random.Random(29)
        for _ in range(50):
            v = random_vector(rng, rng.choice([2, 4, 8, 16, 64]))
            assert PV(str(v)) == v

    def test_rejects_garbage(self):
        with pytest.raises(ValueError, match="not a bit string"):
            PV("01x0")

    def test_bit_indexing_is_msb_first_text(self):
        v = PV("0001")
        assert v.bit(0) == 1 and v.bit(3) == 0
        assert v.n == 2

    def test_length_must_be_a_power_of_two(self):
        with pytest.raises(ValueError, match="power of two >= 2, got 3"):
            PatternVector(0, 3)

    def test_value_must_fit_the_length(self):
        with pytest.raises(ValueError, match="0x10 does not fit in 4 bits"):
            PatternVector(16, 4)

    def test_bit_index_out_of_range(self):
        with pytest.raises(ValueError, match="index 4 out of range for "
                                             "length 4"):
            PV("0001").bit(4)


def test_nearest_set_is_never_empty():
    with pytest.raises(ValueError, match="at least one index"):
        NearestSet(0, frozenset())
