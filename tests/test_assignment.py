"""Similarity matrix, Hungarian solver correctness, determinism, and gating behavior."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frond.assignment import Assignment, gate_assignment, hungarian, similarity_matrix
from frond.embedding import normalize

from oracles import min_assignment_total


def total_cost(cost, pairs) -> float:
    return float(sum(cost[i, j] for i, j in pairs))


def assert_one_to_one(cost, pairs):
    """min(rows, cols) pairs, no row or column used twice."""
    assert len(pairs) == min(cost.shape)
    assert len({i for i, _ in pairs}) == len(pairs)
    assert len({j for _, j in pairs}) == len(pairs)


@st.composite
def cost_matrices(draw):
    """Shapes 1-6 x 1-6, with either tie-heavy integer costs 0-3 or float costs in [-5, 5]."""
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 6))
    cell = draw(st.sampled_from([st.integers(0, 3).map(float), st.floats(-5.0, 5.0)]))
    values = draw(st.lists(cell, min_size=rows * cols, max_size=rows * cols))
    return np.array(values, dtype=np.float64).reshape(rows, cols)


class TestSimilarityMatrix:
    def test_dot_products(self):
        p = np.array([[1.0, 0.0], [0.0, 1.0]])
        e = np.array([[np.sqrt(0.5), np.sqrt(0.5)]])
        s = similarity_matrix(p, e)
        assert s.shape == (2, 1)
        assert s[0, 0] == pytest.approx(np.sqrt(0.5), abs=1e-12)

    def test_forty_five_degrees(self):
        a = np.array([[1.0, 0.0]])
        b = np.array([[np.sqrt(0.5), np.sqrt(0.5)]])
        assert similarity_matrix(a, b)[0, 0] == pytest.approx(0.707107, abs=1e-6)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            similarity_matrix(np.zeros((2, 3)), np.zeros((2, 4)))

    def test_unit_vectors_stay_in_range(self):
        rng = np.random.default_rng(7)
        a = np.stack([normalize(rng.normal(size=12)) for _ in range(200)])
        b = np.stack([normalize(rng.normal(size=12)) for _ in range(200)])
        s = similarity_matrix(a, b)
        assert np.all((-1.0 - 1e-9 <= s) & (s <= 1.0 + 1e-9))

    @pytest.mark.parametrize(
        "prototypes, embeddings",
        [(np.zeros(3), np.zeros((2, 3))), (np.zeros((2, 3)), np.zeros((1, 2, 3)))],
    )
    def test_non_matrix_rejected(self, prototypes, embeddings):
        with pytest.raises(ValueError) as err:
            similarity_matrix(prototypes, embeddings)
        assert str(err.value) == "similarity_matrix expects 2-d arrays"


class TestHungarian:
    def test_two_by_two_example(self):
        cost = np.array([[4.0, 1.0], [2.0, 3.0]])
        result = hungarian(cost)
        assert result.pairs == [(0, 1), (1, 0)]
        assert total_cost(cost, result.pairs) == 3.0
        assert_one_to_one(cost, result.pairs)

    def test_single_cell(self):
        result = hungarian(np.array([[2.5]]))
        assert result.pairs == [(0, 0)]

    def test_rectangular_wide(self):
        cost = np.array([[5.0, 1.0, 3.0], [2.0, 4.0, 6.0]])
        result = hungarian(cost)
        assert_one_to_one(cost, result.pairs)
        assert total_cost(cost, result.pairs) == pytest.approx(
            min_assignment_total(cost), abs=1e-12
        )

    def test_rectangular_tall(self):
        cost = np.array([[5.0, 1.0], [2.0, 4.0], [3.0, 6.0]])
        result = hungarian(cost)
        assert_one_to_one(cost, result.pairs)
        assert total_cost(cost, result.pairs) == pytest.approx(
            min_assignment_total(cost), abs=1e-12
        )

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="invalid cost"):
            hungarian(np.array([[1.0, np.nan], [0.5, 2.0]]))

    def test_rejects_infinite(self):
        with pytest.raises(ValueError, match="invalid cost"):
            hungarian(np.array([[1.0, np.inf]]))

    @pytest.mark.parametrize(
        "cost, message",
        [
            ([[1.0, np.nan], [0.5, 2.0]], "invalid cost: NaN entry"),
            ([[1.0, np.inf], [0.5, 2.0]], "invalid cost: non-finite entry"),
            # A NaN is named even when an infinite entry comes first.
            ([[-np.inf, 1.0], [np.nan, 2.0]], "invalid cost: NaN entry"),
            ([1.0, 2.0], "cost matrix must be 2-d"),
            ([[[1.0, 2.0]]], "cost matrix must be 2-d"),
        ],
    )
    def test_invalid_cost_message_is_exact(self, cost, message):
        with pytest.raises(ValueError) as err:
            hungarian(np.array(cost))
        assert str(err.value) == message

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
    def test_empty_side_gives_no_pairs(self, shape):
        assert hungarian(np.zeros(shape)).pairs == []

    def test_constant_matrix_prefers_diagonal(self):
        for shape in ((4, 4), (3, 5), (5, 3)):
            result = hungarian(np.full(shape, 2.0))
            assert result.pairs == [(i, i) for i in range(min(shape))]

    def test_square_matrix_is_solved_by_rows(self):
        # Both pairings cost 2; the rows' scan keeps row 0 on its first
        # cheapest column, where a transposed solve would give
        # [(0, 1), (1, 0)].
        assert hungarian(np.array([[2.0, 2.0], [0.0, 0.0]])).pairs == [(0, 0), (1, 1)]

    def test_deterministic_under_repeats(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            cost = rng.integers(0, 10, size=(5, 5)).astype(float)
            first = hungarian(cost)
            second = hungarian(cost)
            assert first.pairs == second.pairs

    def test_optimal_on_random_square(self):
        rng = np.random.default_rng(23)
        for n in (2, 3, 4, 5):
            for _ in range(60):
                cost = rng.uniform(0.0, 2.0, size=(n, n))
                result = hungarian(cost)
                assert total_cost(cost, result.pairs) == pytest.approx(
                    min_assignment_total(cost), abs=1e-9
                )

    def test_optimal_on_random_integer_matrices(self):
        rng = np.random.default_rng(29)
        for shape in ((4, 4), (2, 5), (3, 4), (4, 3), (5, 2)):
            for _ in range(120):
                cost = rng.integers(0, 10, size=shape).astype(float)
                result = hungarian(cost)
                assert len(result.pairs) == min(shape)
                assert total_cost(cost, result.pairs) == min_assignment_total(cost)

    def test_optimal_on_random_rectangular(self):
        rng = np.random.default_rng(31)
        for shape in ((2, 4), (3, 5), (5, 3), (4, 2)):
            for _ in range(50):
                cost = rng.uniform(0.0, 2.0, size=shape)
                result = hungarian(cost)
                assert len(result.pairs) == min(shape)
                assert total_cost(cost, result.pairs) == pytest.approx(
                    min_assignment_total(cost), abs=1e-9
                )

    def test_row_permutation_equivariance(self):
        # Continuous random costs almost surely have a unique optimum, so
        # shuffling rows must shuffle the solution the same way.
        rng = np.random.default_rng(37)
        for _ in range(40):
            cost = rng.uniform(0.0, 2.0, size=(5, 5))
            base_pairs = set(hungarian(cost).pairs)
            perm = rng.permutation(5)
            permuted_pairs = {(int(perm[i]), j) for i, j in hungarian(cost[perm]).pairs}
            assert permuted_pairs == base_pairs

    @settings(max_examples=300, deadline=None)
    @given(cost_matrices())
    def test_property_optimal_one_to_one_deterministic(self, cost):
        result = hungarian(cost)
        assert_one_to_one(cost, result.pairs)
        assert total_cost(cost, result.pairs) == pytest.approx(
            min_assignment_total(cost), abs=1e-9
        )
        assert hungarian(cost).pairs == result.pairs

    def test_every_row_prefers_column_zero(self):
        # Only row 0 keeps its cheapest column at first; rows 1 and 2
        # need augmenting paths, and the optimum moves row 0 off column 0.
        cost = np.array([[1.0, 2.0, 9.0], [0.0, 5.0, 3.0], [0.0, 4.0, 9.0]])
        result = hungarian(cost)
        assert result.pairs == [(0, 1), (1, 2), (2, 0)]
        assert total_cost(cost, result.pairs) == 5.0

    def test_distinct_row_minima_are_optimal(self):
        # Every row's cheapest column is different, so the row minima are
        # already an optimal assignment.
        cost = np.array([[4.0, 1.0, 7.0], [2.0, 8.0, 3.0], [6.0, 5.0, 0.0]])
        result = hungarian(cost)
        assert result.pairs == [(0, 1), (1, 0), (2, 2)]
        assert total_cost(cost, result.pairs) == 3.0

    def test_negative_costs(self):
        rng = np.random.default_rng(41)
        for _ in range(40):
            cost = rng.uniform(-50.0, 5.0, size=(4, 4))
            result = hungarian(cost)
            assert total_cost(cost, result.pairs) == pytest.approx(
                min_assignment_total(cost), abs=1e-9
            )


class TestGateAssignment:
    def test_gate_example(self):
        similarity = np.array([[0.95, 0.2], [0.3, 0.35]])
        matching = hungarian(1.0 - similarity)
        assert matching.pairs == [(0, 0), (1, 1)]
        gated = gate_assignment(matching, similarity, 0.4)
        assert gated == Assignment([(0, 0)])

    def test_exact_threshold_survives(self):
        similarity = np.array([[0.4]])
        matching = hungarian(1.0 - similarity)
        gated = gate_assignment(matching, similarity, 0.4)
        assert gated.pairs == [(0, 0)]

    def test_gate_never_adds_pairs(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            similarity = rng.uniform(-1.0, 1.0, size=(4, 6))
            matching = hungarian(1.0 - similarity)
            previous = set(matching.pairs)
            for tau in (-1.0, -0.5, 0.0, 0.5, 1.0):
                gated = gate_assignment(matching, similarity, tau)
                assert set(gated.pairs) <= previous
                previous = set(gated.pairs)

    def test_minus_one_keeps_everything(self):
        rng = np.random.default_rng(47)
        similarity = rng.uniform(-1.0, 1.0, size=(3, 3))
        matching = hungarian(1.0 - similarity)
        gated = gate_assignment(matching, similarity, -1.0)
        assert gated.pairs == matching.pairs
