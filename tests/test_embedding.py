"""Normalization, cosine similarity, triplet loss, and triplet sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frond.assignment import similarity_matrix
from frond.embedding import (
    CROSS_PLANT_FLEXIBLE,
    INTRA_PLANT_FULL_CYCLE,
    INTRA_PLANT_TEMPORAL_WINDOW,
    CropRef,
    SamplingStrategy,
    TripletSpec,
    check_count_and_seed,
    normalize,
    normalize_rows,
    sample_triplets,
    triplet_margin_loss,
)


class TestNormalize:
    def test_three_four_becomes_unit(self):
        out = normalize(np.array([3.0, 4.0]))
        assert out == pytest.approx([0.6, 0.8], abs=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            normalize(np.zeros(4))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            normalize(np.array([1.0, np.nan]))

    @pytest.mark.parametrize("shape", [(0,), (2, 2)])
    def test_not_a_non_empty_vector_rejected(self, shape):
        with pytest.raises(ValueError) as err:
            normalize(np.ones(shape))
        assert str(err.value) == f"embedding must be a non-empty 1-d vector, got shape {shape}"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_message(self, bad):
        with pytest.raises(ValueError, match="^non-finite embedding value$"):
            normalize(np.array([0.5, bad, 2.0]))

    @pytest.mark.parametrize("scale", [1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3])
    def test_bitwise_equal_to_division_by_norm(self, scale):
        rng = np.random.default_rng(7)
        for _ in range(50):
            block = rng.normal(size=(int(rng.integers(1, 200)), 2)) * scale
            # Contiguous, strided and reversed views of the same data.
            for v in (block[:, 0].copy(), block[:, 1], block[::-1, 0]):
                assert np.array_equal(normalize(v), v / np.linalg.norm(v))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_finite_vector_with_out_of_range_square_is_rescaled(self):
        # Each squared norm overflows or underflows; dividing by the largest
        # entry first gives exactly the direction of [1, 1].
        expected = normalize(np.array([1.0, 1.0]))
        for big_or_tiny in (1e200, 1e300, 1e-200):
            out = normalize(np.array([big_or_tiny, big_or_tiny]))
            assert out.tobytes() == expected.tobytes()

    def test_idempotent_bitwise(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            v = normalize(rng.normal(size=16))
            assert np.array_equal(normalize(v), v)

    def test_unit_norm_within_tolerance(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            v = normalize(rng.normal(size=8) * rng.uniform(0.01, 100))
            assert abs(np.linalg.norm(v) - 1.0) <= 1e-9


# Row kinds for normalize_rows: plain scales, rows within 1e-12 of unit
# norm, finite rows whose squared norm overflows or underflows, and rows
# normalize rejects.
ROW_KINDS = ("plain", "near_unit", "overflow", "underflow", "zero", "nan", "inf")


@st.composite
def row_blocks(draw):
    """A (rows, dim) block with dim in 2..600, each row of a drawn kind, as given or strided."""
    dim = draw(st.integers(2, 600))
    kinds = draw(st.lists(st.sampled_from(ROW_KINDS), max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for kind in kinds:
        x = rng.normal(size=dim)
        if kind == "plain":
            x *= 10.0 ** draw(st.integers(-150, 150))
        elif kind == "near_unit":
            x = x / np.linalg.norm(x) * (1.0 + draw(st.floats(-9e-13, 9e-13)))
        elif kind == "overflow":
            x *= 10.0 ** draw(st.integers(155, 307))
        elif kind == "underflow":
            x *= 10.0 ** draw(st.integers(-320, -155))
        elif kind == "zero":
            x[:] = 0.0
        else:
            x[int(rng.integers(dim))] = np.nan if kind == "nan" else -np.inf
        rows.append(x)
    block = np.array(rows).reshape(-1, dim)
    if draw(st.booleans()):
        block = np.repeat(block, 2, axis=1)[:, ::2]  # the same values through strided rows
    return block


class TestNormalizeRows:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=300, deadline=None)
    @given(row_blocks())
    def test_property_equals_normalize_row_by_row_bitwise(self, block):
        try:
            expected = np.array([normalize(x) for x in block]).reshape(block.shape)
        except ValueError as err:
            with pytest.raises(ValueError) as batch_err:
                normalize_rows(block)
            assert str(batch_err.value) == str(err)
            return
        out = normalize_rows(block)
        assert out.shape == block.shape
        assert out.tobytes() == expected.tobytes()

    def test_input_is_not_modified(self):
        block = np.array([[3.0, 4.0], [1.0, 0.0]])
        normalize_rows(block)
        assert block.tolist() == [[3.0, 4.0], [1.0, 0.0]]


class TestCosineSimilarity:
    """Cosine similarity of unit embeddings, as the tracker computes it."""

    def test_forty_five_degrees(self):
        a = np.array([[1.0, 0.0]])
        b = np.array([[np.sqrt(0.5), np.sqrt(0.5)]])
        assert similarity_matrix(a, b)[0, 0] == pytest.approx(0.707107, abs=1e-6)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            similarity_matrix(np.zeros((1, 3)), np.zeros((1, 4)))

    def test_unit_vectors_stay_in_range(self):
        rng = np.random.default_rng(7)
        a = np.stack([normalize(rng.normal(size=12)) for _ in range(200)])
        b = np.stack([normalize(rng.normal(size=12)) for _ in range(200)])
        s = similarity_matrix(a, b)
        assert np.all((-1.0 - 1e-9 <= s) & (s <= 1.0 + 1e-9))


class TestTripletMarginLoss:
    def test_worst_case_negative_equals_anchor(self):
        # d_ap^2 = 0.25^2 + 0.4375 = 0.5 exactly; with e_n = e_a the
        # negative distance is 0, so loss = 0.5 + margin.
        e_a = np.array([1.0, 0.0])
        e_p = np.array([0.75, np.sqrt(0.4375)])
        loss, _ = triplet_margin_loss(e_a, e_p, e_a, margin=0.3)
        assert loss == pytest.approx(0.8, abs=1e-12)

    def test_zero_when_margin_satisfied(self):
        e_a = np.array([1.0, 0.0])
        e_p = np.array([1.0, 0.0])
        e_n = np.array([-1.0, 0.0])
        loss, (g_a, g_p, g_n) = triplet_margin_loss(e_a, e_p, e_n, margin=0.3)
        assert loss == 0.0
        assert not g_a.any() and not g_p.any() and not g_n.any()

    def test_active_gradients_formula(self):
        rng = np.random.default_rng(11)
        e_a = normalize(rng.normal(size=6))
        e_p = normalize(rng.normal(size=6))
        e_n = e_a.copy()
        loss, (g_a, g_p, g_n) = triplet_margin_loss(e_a, e_p, e_n, margin=0.3)
        assert loss > 0
        assert np.allclose(g_a, 2.0 * (e_n - e_p), atol=1e-12)
        assert np.allclose(g_p, 2.0 * (e_p - e_a), atol=1e-12)
        assert np.allclose(g_n, 2.0 * (e_a - e_n), atol=1e-12)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(13)
        step = 1e-6
        for _ in range(20):
            e_a = normalize(rng.normal(size=8))
            e_p = normalize(rng.normal(size=8))
            e_n = normalize(rng.normal(size=8))
            loss, grads = triplet_margin_loss(e_a, e_p, e_n)
            if loss < 1e-3:
                continue
            vectors = [e_a.copy(), e_p.copy(), e_n.copy()]
            for which, grad in enumerate(grads):
                for k in range(8):
                    bumped = [v.copy() for v in vectors]
                    bumped[which][k] += step
                    up, _ = triplet_margin_loss(*bumped)
                    bumped[which][k] -= 2 * step
                    down, _ = triplet_margin_loss(*bumped)
                    numeric = (up - down) / (2 * step)
                    assert numeric == pytest.approx(grad[k], abs=1e-4)

    def test_step_against_gradient_decreases_loss(self):
        rng = np.random.default_rng(17)
        e_a = normalize(rng.normal(size=8))
        e_p = normalize(rng.normal(size=8))
        e_n = e_a.copy()
        loss, (_, g_p, _) = triplet_margin_loss(e_a, e_p, e_n)
        smaller, _ = triplet_margin_loss(e_a, e_p - 1e-3 * g_p, e_n)
        assert smaller < loss

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            triplet_margin_loss(np.zeros(3), np.zeros(3), np.zeros(4))


class TestTripletSpec:
    def test_positive_must_share_leaf(self):
        with pytest.raises(ValueError):
            TripletSpec(CropRef(0, 1, 1), CropRef(0, 2, 2), CropRef(0, 3, 1))

    def test_positive_must_differ_in_time(self):
        with pytest.raises(ValueError):
            TripletSpec(CropRef(0, 1, 1), CropRef(0, 1, 1), CropRef(0, 3, 1))

    def test_negative_must_differ(self):
        with pytest.raises(ValueError):
            TripletSpec(CropRef(0, 1, 1), CropRef(0, 1, 2), CropRef(0, 1, 3))


class TestSamplingStrategy:
    def test_window_requires_delta_t(self):
        with pytest.raises(ValueError):
            SamplingStrategy(INTRA_PLANT_TEMPORAL_WINDOW)
        with pytest.raises(ValueError):
            SamplingStrategy(INTRA_PLANT_TEMPORAL_WINDOW, delta_t=0)

    def test_delta_t_rejected_elsewhere(self):
        with pytest.raises(ValueError):
            SamplingStrategy(CROSS_PLANT_FLEXIBLE, delta_t=3)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            SamplingStrategy("nearest_neighbor")


def small_corpus():
    """Three plants; plant 0 has three leaves, the others two each."""
    return {
        0: {1: [1, 2, 3, 4], 2: [1, 2, 3], 3: [2, 3, 4]},
        1: {1: [1, 3, 5], 2: [2, 4]},
        2: {1: [1, 2], 2: [1, 2, 3]},
    }


class TestSampleTriplets:
    def test_deterministic_for_equal_seeds(self):
        strategy = SamplingStrategy(CROSS_PLANT_FLEXIBLE)
        first = sample_triplets(small_corpus(), strategy, 200, seed=42)
        second = sample_triplets(small_corpus(), strategy, 200, seed=42)
        assert first == second

    def test_different_seeds_differ(self):
        strategy = SamplingStrategy(CROSS_PLANT_FLEXIBLE)
        assert sample_triplets(small_corpus(), strategy, 50, seed=1) != sample_triplets(
            small_corpus(), strategy, 50, seed=2
        )

    @pytest.mark.parametrize("count, seed, message", [
        (-1, 0, "count must be non-negative, got -1"),
        (5, -1, "seed must be non-negative, got -1"),
    ])
    def test_negative_count_or_seed_rejected(self, count, seed, message):
        with pytest.raises(ValueError) as err:
            check_count_and_seed(count, seed)
        assert str(err.value) == message
        with pytest.raises(ValueError) as err:
            sample_triplets(small_corpus(), SamplingStrategy(CROSS_PLANT_FLEXIBLE), count, seed)
        assert str(err.value) == message

    def test_count_zero(self):
        assert sample_triplets(small_corpus(), SamplingStrategy(CROSS_PLANT_FLEXIBLE), 0, 0) == []

    def test_cross_plant_flexible_constraints(self):
        corpus = small_corpus()
        for t in sample_triplets(corpus, SamplingStrategy(CROSS_PLANT_FLEXIBLE), 2000, seed=3):
            anchor, positive, negative = t.anchor, t.positive, t.negative
            assert (anchor.plant_id, anchor.leaf_id) == (positive.plant_id, positive.leaf_id)
            assert anchor.t != positive.t
            assert (negative.plant_id, negative.leaf_id) != (anchor.plant_id, anchor.leaf_id)
            assert negative.t in corpus[negative.plant_id][negative.leaf_id]

    def test_full_cycle_constraints(self):
        for t in sample_triplets(small_corpus(), SamplingStrategy(INTRA_PLANT_FULL_CYCLE), 2000, seed=5):
            assert t.negative.plant_id == t.anchor.plant_id
            assert t.negative.leaf_id != t.anchor.leaf_id

    def test_window_constraints(self):
        strategy = SamplingStrategy(INTRA_PLANT_TEMPORAL_WINDOW, delta_t=1)
        for t in sample_triplets(small_corpus(), strategy, 2000, seed=7):
            assert t.negative.plant_id == t.anchor.plant_id
            assert t.negative.leaf_id != t.anchor.leaf_id
            assert abs(t.negative.t - t.anchor.t) <= 1

    def test_single_leaf_corpus_is_unsatisfiable_intra_plant(self):
        corpus = {0: {1: [1, 2, 3, 4, 5]}}
        with pytest.raises(ValueError, match="unsatisfiable triplet"):
            sample_triplets(corpus, SamplingStrategy(INTRA_PLANT_FULL_CYCLE), 1, seed=0)

    def test_no_repeated_observations_is_unsatisfiable(self):
        corpus = {0: {1: [1], 2: [2]}}
        with pytest.raises(ValueError, match="unsatisfiable triplet"):
            sample_triplets(corpus, SamplingStrategy(CROSS_PLANT_FLEXIBLE), 1, seed=0)

    def test_negative_leaves_drawn_uniformly(self):
        # One plant, three leaves with equal observation counts: by
        # symmetry each leaf should serve as the negative 1/3 of the time.
        corpus = {0: {1: [1, 2, 3], 2: [1, 2, 3], 3: [1, 2, 3]}}
        draws = 12000
        triplets = sample_triplets(corpus, SamplingStrategy(INTRA_PLANT_FULL_CYCLE), draws, seed=11)
        counts = {leaf: 0 for leaf in (1, 2, 3)}
        for t in triplets:
            counts[t.negative.leaf_id] += 1
        expected = draws / 3.0
        three_sigma = 3.0 * np.sqrt(draws * (1.0 / 3.0) * (2.0 / 3.0))
        for leaf in (1, 2, 3):
            assert abs(counts[leaf] - expected) <= three_sigma
