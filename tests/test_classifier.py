import random
import zlib
from math import prod, sqrt

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from basisket import (
    ClassifierSpec,
    PatternVector,
    apply_c2_factor,
    apply_classifier,
    apply_hadamard_factor,
    classification_threshold,
    dense_unitary,
    distance_from_class,
    hamming_distance,
    initial_amplitudes,
    outcome_distribution,
)
from basisket.classifier import (half_word_tables, ket_probabilities,
                                 member_array, member_distances,
                                 range_distances)
from basisket.experiment import BLOCK, _batch_thetas

PV = PatternVector.parse

ALGEBRA_TOL = 1e-12
FAST_VS_DENSE_TOL = 1e-10

RECIPES = [
    ("H",), ("C2",), ("H", "H"), ("H", "C2"), ("C2", "H"),
    ("H", "H", "H"), ("C2", "C2"), ("H", "C2", "H"),
    ("C2", "C2", "H"), ("C2", "C2", "C2"),
]


def random_state(rng, dim):
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


class TestSpec:
    def test_parse(self):
        spec = ClassifierSpec.parse("H, C2 ,H")
        assert spec.factors == ("H", "C2", "H")
        assert spec.total_bits == 4
        assert spec.dim == 16

    def test_basis_pairing(self):
        assert ClassifierSpec.parse("H,C2").basis().recipe == ("B1", "Q2")
        # built once per factor tuple, like member_array
        assert ClassifierSpec(("H", "C2")).basis() is \
            ClassifierSpec.parse("H,C2").basis()

    def test_factors_of_any_sequence_are_a_tuple(self):
        spec = ClassifierSpec(["C2", "C2"])
        assert spec.factors == ("C2", "C2")
        assert spec == ClassifierSpec(("C2", "C2"))
        assert spec.basis() is ClassifierSpec(("C2", "C2")).basis()

    def test_unknown_factor(self):
        with pytest.raises(ValueError, match="unknown classifier factor"):
            ClassifierSpec(("H", "C3"))

    def test_empty(self):
        with pytest.raises(ValueError, match="at least one factor"):
            ClassifierSpec(())

    def test_bit_cap(self):
        with pytest.raises(ValueError, match="cap"):
            ClassifierSpec(("C2", "C2", "C2", "H"))


class TestDenseUnitary:
    def test_h_matrix(self):
        h = dense_unitary(ClassifierSpec(("H",)))
        want = np.array([[1, 1], [1, -1]]) / sqrt(2)
        assert np.allclose(h, want, atol=ALGEBRA_TOL)

    def test_c2_matrix(self):
        c2 = dense_unitary(ClassifierSpec(("C2",)))
        want = np.full((4, 4), 0.5)
        np.fill_diagonal(want, -0.5)
        assert np.allclose(c2, want, atol=ALGEBRA_TOL)

    @pytest.mark.parametrize("recipe", RECIPES)
    def test_unitary_and_symmetric(self, recipe):
        g = dense_unitary(ClassifierSpec(recipe))
        assert np.allclose(g @ g.T, np.eye(len(g)), atol=ALGEBRA_TOL)
        assert np.allclose(g, g.T, atol=ALGEBRA_TOL)

    def test_kron_order_leftmost_is_most_significant(self):
        g = dense_unitary(ClassifierSpec(("C2", "H")))
        want = np.kron(dense_unitary(ClassifierSpec(("C2",))),
                       dense_unitary(ClassifierSpec(("H",))))
        assert np.array_equal(g, want)


class TestInitialAmplitudes:
    def test_signs_and_norm(self):
        amps = initial_amplitudes(PV("0001"))
        assert np.allclose(amps, np.array([-1, 1, 1, 1]) / 2.0)
        assert abs(np.linalg.norm(amps) - 1.0) < ALGEBRA_TOL

    def test_all_lengths_normalized(self):
        rng = random.Random(31)
        for length in (2, 4, 8, 16, 32, 64):
            h = PatternVector(rng.getrandbits(length), length)
            amps = initial_amplitudes(h)
            assert amps.shape == (length,)
            assert abs(np.linalg.norm(amps) - 1.0) < ALGEBRA_TOL
            # entry x carries the sign (-1)**h(x)
            for x in (0, length - 1, length // 2):
                want = (1 if h.bit(x) == 0 else -1) / sqrt(length)
                assert abs(amps[x] - want) < ALGEBRA_TOL

    def test_arity_cap(self):
        with pytest.raises(ValueError, match="function arity 7 exceeds cap 6"):
            initial_amplitudes(PatternVector(0, 128))


class TestFactorButterflies:
    def test_h_factor_matches_dense_on_each_bit(self):
        rng = np.random.default_rng(5)
        for n, bit in [(1, 0), (3, 0), (3, 1), (3, 2), (5, 4)]:
            dim = 1 << n
            v = random_state(rng, dim)
            got = apply_hadamard_factor(v.copy(), bit)
            h2 = np.array([[1, 1], [1, -1]]) / sqrt(2)
            mat = np.kron(np.kron(np.eye(1 << (n - bit - 1)), h2),
                          np.eye(1 << bit))
            assert np.allclose(got, mat @ v, atol=FAST_VS_DENSE_TOL)

    def test_c2_factor_matches_dense_on_each_bit_pair(self):
        rng = np.random.default_rng(6)
        c2 = np.full((4, 4), 0.5)
        np.fill_diagonal(c2, -0.5)
        for n, low in [(2, 0), (4, 0), (4, 2), (5, 1), (6, 3)]:
            dim = 1 << n
            v = random_state(rng, dim)
            got = apply_c2_factor(v.copy(), low)
            mat = np.kron(np.kron(np.eye(1 << (n - low - 2)), c2),
                          np.eye(1 << low))
            assert np.allclose(got, mat @ v, atol=FAST_VS_DENSE_TOL)

    def test_bit_range_errors(self):
        with pytest.raises(ValueError, match="out of range"):
            apply_hadamard_factor(np.zeros(4), 2)
        with pytest.raises(ValueError, match="C2 needs bits"):
            apply_c2_factor(np.zeros(4), 1)


class TestApplyClassifier:
    @pytest.mark.parametrize("recipe", RECIPES)
    def test_fast_path_matches_dense(self, recipe):
        spec = ClassifierSpec(recipe)
        rng = np.random.default_rng(zlib.crc32(",".join(recipe).encode()))
        g = dense_unitary(spec)
        for _ in range(5):
            v = random_state(rng, spec.dim)
            got = apply_classifier(spec, v.copy())
            assert np.allclose(got, g @ v, atol=FAST_VS_DENSE_TOL)

    def test_batch_rows_match_individual(self):
        spec = ClassifierSpec(("H", "C2", "H"))
        rng = np.random.default_rng(9)
        batch = rng.standard_normal((7, spec.dim))
        got = apply_classifier(spec, batch.copy())
        for row in range(7):
            want = apply_classifier(spec, batch[row].copy())
            assert np.allclose(got[row], want, atol=ALGEBRA_TOL)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            apply_classifier(ClassifierSpec(("H",)), np.zeros(4))


class TestOutcomeDistribution:
    @pytest.mark.parametrize("recipe", RECIPES)
    def test_member_measures_its_own_ket_with_certainty(self, recipe):
        # the defining property: each basis member maps to its ket exactly
        spec = ClassifierSpec(recipe)
        basis = spec.basis()
        for k, member in enumerate(basis.members):
            probs = outcome_distribution(spec, member)
            assert abs(probs[k] - 1.0) < 1e-9
            assert abs(probs.sum() - 1.0) < ALGEBRA_TOL

    def test_distribution_sums_to_one(self):
        spec = ClassifierSpec(("C2", "C2"))
        rng = random.Random(41)
        for _ in range(20):
            h = PatternVector(rng.getrandbits(16), 16)
            probs = outcome_distribution(spec, h)
            assert abs(probs.sum() - 1.0) < ALGEBRA_TOL
            assert (probs >= 0).all()

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            outcome_distribution(ClassifierSpec(("C2", "C2")), PV("0001"))


class TestClassificationThreshold:
    def test_published_distance_one_example(self):
        # flip one bit of the first rank-4 member: theta is exactly (7/8)**2
        spec = ClassifierSpec(("C2", "C2"))
        report = classification_threshold(spec, PV("0000000100011110"))
        assert report.nearest.distance == 1
        assert report.nearest.indices == frozenset({0})
        assert abs(report.theta - 0.765625) < 1e-12

    def test_length8_distance_one_value(self):
        # one flipped bit at length 8: theta is exactly (6/8)**2 = 0.5625
        spec = ClassifierSpec(("H", "C2"))
        member0 = spec.basis().members[0]
        h = PatternVector(member0.value ^ 1, 8)
        report = classification_threshold(spec, h)
        assert report.nearest.distance == 1
        assert abs(report.theta - 0.5625) < 1e-12

    def test_all_ones_spike(self):
        # uniform distance rho = 10 from every rank-4 member: theta exactly 1
        spec = ClassifierSpec(("C2", "C2"))
        report = classification_threshold(spec, PV("1" * 16))
        assert report.nearest.distance == 10
        assert len(report.nearest.indices) == 16
        assert abs(report.theta - 1.0) < 1e-9

    def test_theta_equals_masked_distribution_sum(self):
        spec = ClassifierSpec(("C2", "H"))
        basis = spec.basis()
        rng = random.Random(43)
        for _ in range(30):
            h = PatternVector(rng.getrandbits(8), 8)
            report = classification_threshold(spec, h)
            manual = sum(report.distribution[i] for i in report.nearest.indices)
            assert abs(report.theta - manual) < ALGEBRA_TOL
            assert 0.0 <= report.theta <= 1.0 + ALGEBRA_TOL


class TestMemberDistances:
    @pytest.mark.parametrize("recipe", [("H", "C2"), ("C2", "C2", "H"),
                                        ("C2", "C2", "C2")],
                             ids=["H,C2", "C2,C2,H", "C2,C2,C2"])
    def test_matches_the_scalar_oracle_for_any_leading_shape(self, recipe):
        spec = ClassifierSpec(recipe)
        basis = spec.basis()
        members = member_array(spec)
        rng = np.random.default_rng(zlib.crc32(str(recipe).encode()))
        values = rng.integers(0, 1 << spec.dim, size=(3, 5), dtype=np.uint64)
        dist, dmin = member_distances(members, values)
        # member-major: dist[k, i, j] is value (i, j)'s distance to member k
        assert dist.shape == (len(members), 3, 5) and dmin.shape == (3, 5)
        for index in np.ndindex(values.shape):
            h = PatternVector(int(values[index]), spec.dim)
            nearest = distance_from_class(basis, h)
            column = dist[(slice(None), *index)]
            assert column.tolist() == [
                hamming_distance(h, m) for m in basis.members]
            assert dmin[index] == nearest.distance
            assert set(np.flatnonzero(column == dmin[index])) == \
                nearest.indices
            assert classification_threshold(spec, h).nearest == nearest
        # a scalar value gives one row and a scalar minimum
        dist, dmin = member_distances(members, int(values[0, 0]))
        assert dist.shape == (len(members),) and dmin.shape == ()

    @pytest.mark.parametrize("recipe, dtype", [
        (("H",), np.uint32), (("H", "C2"), np.uint32),
        (("C2", "C2"), np.uint32), (("C2", "C2", "H"), np.uint32),
        (("C2", "C2", "C2"), np.uint64)], ids=["2", "8", "16", "32", "64"])
    def test_word_width_follows_the_length(self, recipe, dtype):
        spec = ClassifierSpec(recipe)
        members = member_array(spec)
        assert members.dtype == dtype
        # uint64 values go through the kernel and the block walk in the
        # members' word, exactly as the scalar oracle and closed form say
        rng = np.random.default_rng(zlib.crc32(str(recipe).encode()))
        values = rng.integers(0, 1 << spec.dim, size=300, dtype=np.uint64)
        values[:2] = 0, (1 << spec.dim) - 1
        dist, dmin = member_distances(members, values)
        dmin_blocks, sizes = _batch_thetas(spec, members, values)
        thetas = sizes * ket_probabilities(dmin_blocks, spec.dim)
        assert np.array_equal(dmin, dmin_blocks)
        for value, d, size, theta in zip(values.tolist(), dmin.tolist(),
                                         sizes.tolist(), thetas.tolist()):
            nearest = distance_from_class(spec.basis(),
                                          PatternVector(value, spec.dim))
            assert (d, size) == (nearest.distance, len(nearest.indices))
            assert theta == size * ((spec.dim - 2 * d) / spec.dim) ** 2

    def test_values_wider_than_the_word_are_rejected_not_truncated(self):
        # C2,C2,H member 3 with bit 40 set is no length-32 function; cast
        # to uint32 it would read as member 3 itself, class distance 0
        members = member_array(ClassifierSpec(("C2", "C2", "H")))
        assert members.dtype == np.uint32
        value = int(members[3]) | 1 << 40
        for values in (np.array([value], dtype=np.uint64),
                       np.array([[0], [value]], dtype=np.int64), value):
            with pytest.raises(ValueError, match="32-bit word"):
                member_distances(members, values)
        # a wider array whose values fit is cast, not rejected
        fits = np.array([int(members[3]), 0], dtype=np.uint64)
        for got, want in zip(member_distances(members, fits),
                             member_distances(members, fits.astype(np.uint32))):
            assert np.array_equal(got, want)


#: One recipe per length: L = 2, 4, 8, 16 and 32 in uint32 words, L = 64
#: in uint64 words.
KERNEL_RECIPES = [("H",), ("C2",), ("H", "C2"), ("C2", "C2"),
                  ("C2", "C2", "H"), ("C2", "C2", "C2")]


@st.composite
def kernel_inputs(draw):
    """Members of one recipe and values of shape (), (n,) or (n, k),
    as the members' word or as uint64: all zeros, all ones, or values of
    0 to 64 bits, so that some need fewer bytes than their word and some
    do not fit a uint32 word at all.  The values of shape (n,) and
    (n, k) are repeated `reps` times along their first axis; reps =
    BLOCK gives batches as large as the profile builders pass."""
    members = member_array(ClassifierSpec(draw(st.sampled_from(
        KERNEL_RECIPES))))
    dtype = draw(st.sampled_from([members.dtype, np.dtype(np.uint64)]))
    n, k = draw(st.integers(0, 5)), draw(st.integers(1, 4))
    shape = draw(st.sampled_from([(), (n,), (n, k)]))
    ones = (1 << len(members)) - 1  # a function of L bits, L = M
    fill = draw(st.sampled_from([None, 0, ones]))
    if fill is None:
        # exact bit widths at and next to the byte edges, and past the
        # 32-bit word that the cast check rejects
        widths = [w for w in (0, 1, 7, 8, 9, 15, 16, 17, 24, 25, 32, 33, 64)
                  if w <= 8 * dtype.itemsize]
        value = st.sampled_from(widths).flatmap(
            lambda w: st.integers(1 << w >> 1, (1 << w) - 1))
        ints = draw(st.lists(value, min_size=prod(shape),
                             max_size=prod(shape)))
    else:
        ints = [fill] * prod(shape)
    values = np.array(ints, dtype=dtype).reshape(shape)
    if not shape:
        return members, ints, 1, values
    reps = draw(st.sampled_from([1, BLOCK]))
    return members, ints, reps, np.concatenate([values] * reps)


def multi_chunk_case(recipe, shape, reps):
    """A kernel_inputs case of random full-width values whose member XOR
    spans several XOR_BUDGET chunks of members."""
    members = member_array(ClassifierSpec(recipe))
    rng = np.random.default_rng(reps)
    ints = rng.integers(0, 1 << len(members), size=prod(shape),
                        dtype=np.uint64)
    values = ints.astype(members.dtype).reshape(shape)
    return members, ints.tolist(), reps, np.concatenate([values] * reps)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(kernel_inputs())
# L = 64: 8192 values in 16 chunks of 4 members, then a 2-D (3334, 3)
# array in 22 chunks of 3, the last of one member; L = 32: a 2-D
# (4000, 5) array in 11 chunks of 3, the last of two
@example(multi_chunk_case(("C2", "C2", "C2"), (1,), BLOCK))
@example(multi_chunk_case(("C2", "C2", "C2"), (1, 3), 3334))
@example(multi_chunk_case(("C2", "C2", "H"), (2, 5), 2000))
def test_member_distances_match_int_bit_count(case):
    members, ints, reps, values = case
    bits = 8 * members.itemsize
    if any(v >> bits for v in ints):
        with pytest.raises(ValueError, match=f"{bits}-bit word"):
            member_distances(members, values)
        return
    dist, dmin = member_distances(members, values)
    want = np.array([[(v ^ m).bit_count() for v in ints]
                     for m in members.tolist()], dtype=np.int64)
    assert dist.dtype == dmin.dtype == np.uint8
    assert dist.shape == members.shape + values.shape
    assert dmin.shape == values.shape
    # every repeat of the drawn values has the drawn values' distances
    assert np.array_equal(dist.reshape(len(members), reps, -1),
                          np.broadcast_to(want[:, None], (len(members), reps,
                                                          len(ints))))
    assert np.array_equal(dmin.reshape(reps, -1),
                          np.broadcast_to(want.min(axis=0, initial=255),
                                          (reps, len(ints))))


#: Recipes of every exhaustive length (2, 4, 8 and 16) and the two
#: length-32 recipes whose exhaustive blocks each lie inside one row.
RANGE_RECIPES = [("H",), ("C2",), ("H", "H"), ("H", "C2"), ("C2", "H"),
                 ("C2", "C2"), ("H", "H", "H", "H"), ("C2", "C2", "H"),
                 ("H",) * 5]


@st.composite
def value_ranges(draw):
    """A recipe and a range of its function values: whole rows of 2**(L/2)
    values (L <= 16), a run inside one row, or a run across a row edge
    that is not whole rows.  The first and last row and the first and
    last value of a row come up often."""
    recipe = draw(st.sampled_from(RANGE_RECIPES))
    length = ClassifierSpec(recipe).dim
    row = 1 << length // 2  # also the number of rows

    def index(top):
        return draw(st.one_of(st.just(0), st.just(top), st.integers(0, top)))

    kind = draw(st.sampled_from(["rows", "inside", "misaligned"]))
    if kind == "rows" and length < 32:
        first = index(row - 1)
        count = draw(st.integers(1, row - first))
        return recipe, first * row, (first + count) * row
    if kind == "misaligned":
        hi = draw(st.integers(0, row - 2))
        start = hi * row + draw(st.integers(0, row - 1))
        stop = draw(st.integers((hi + 1) * row + 1, row * row))
        assume(start % row or stop % row)
        return recipe, start, stop
    hi, lo = index(row - 1), index(row - 1)
    return recipe, hi * row + lo, hi * row + draw(st.integers(lo + 1, row))


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(value_ranges())
@example((("C2", "C2", "H"), 0, BLOCK))
@example((("C2", "C2", "H"), (1 << 32) - BLOCK, 1 << 32))
@example((("H",) * 5, 0, BLOCK))
@example((("H",) * 5, (1 << 32) - BLOCK, 1 << 32))
@example((("C2", "C2"), 0, BLOCK))
@example((("C2", "C2"), (1 << 16) - BLOCK, 1 << 16))
@example((("H", "H", "H", "H"), (1 << 16) - BLOCK, 1 << 16))
def test_range_path_matches_array_path(case):
    recipe, start, stop = case
    spec = ClassifierSpec(recipe)
    members, row = member_array(spec), 1 << spec.dim // 2
    values = range(start, stop)
    if (start % row or stop % row) and start // row != (stop - 1) // row:
        with pytest.raises(ValueError, match=f"range\\({start}, {stop}\\)"):
            range_distances(spec, values)
        with pytest.raises(ValueError, match="neither whole rows"):
            _batch_thetas(spec, members, values)
        return
    words = np.arange(start, stop, dtype=members.dtype)
    for got, want in zip(range_distances(spec, values),
                         member_distances(members, words)):
        assert got.dtype == want.dtype == np.uint8
        assert np.array_equal(got, want)
    for got, want in zip(_batch_thetas(spec, members, values),
                         _batch_thetas(spec, members, words)):
        assert got.dtype == want.dtype == np.int64
        assert np.array_equal(got, want)


def test_range_path_rejects_other_ranges():
    spec = ClassifierSpec(("C2", "C2"))
    for values in (range(0, 0), range(0, 512, 2), range(256, 0, -1),
                   range(-256, 0), range(0, (1 << 16) + 256)):
        with pytest.raises(ValueError, match="not a nonempty run"):
            range_distances(spec, values)
    with pytest.raises(ValueError, match="no half-word tables at length 64"):
        range_distances(ClassifierSpec(("C2", "C2", "C2")), range(0, 1))


def test_member_distances_working_set_is_bounded(heap_peak):
    # 8192 L = 64 values against 64 members: the uint8 output is 512 KB
    # and the whole (64, 8192) uint64 XOR would be 4 MB more.  Bound:
    # 1 MB (measured 0.75 MB; 4.5 MB when the XOR was made whole)
    members = member_array(ClassifierSpec(("C2", "C2", "C2")))
    values = np.random.default_rng(4).integers(0, 1 << 64, size=BLOCK,
                                               dtype=np.uint64)
    peak, (dist, _) = heap_peak(lambda: member_distances(members, values))
    assert dist.nbytes == 1 << 19
    assert peak <= 1 << 20


def test_half_word_tables_build_working_set_is_bounded(heap_peak):
    # the two L = 32 tables are 4 MB; their build XORs 65536 uint32
    # half-words with 32 members per table (8 MB whole).  Bound: the
    # tables plus 1 MB (measured 4.5 MB; 12.25 MB when the XOR was made
    # whole).  The uncached builder leaves the spec's cache alone.
    spec = ClassifierSpec(("C2", "C2", "H"))
    peak, tables = heap_peak(lambda: half_word_tables.__wrapped__(spec))
    assert sum(table.nbytes for table in tables) == 1 << 22
    assert peak <= (1 << 22) + (1 << 20)


def test_half_word_tables_are_cached_and_read_only():
    spec = ClassifierSpec(("H", "C2"))
    hi, lo = half_word_tables(spec)
    again = half_word_tables(ClassifierSpec(("H", "C2")))
    assert again[0] is hi and again[1] is lo
    assert hi.shape == lo.shape == (8, 16) and hi.dtype == np.uint8
    assert not hi.flags.writeable and not lo.flags.writeable
