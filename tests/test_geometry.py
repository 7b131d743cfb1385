"""Box validity, and IoU values and properties."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from frond.geometry import CORNER_BOUND, BBox, iou_matrix

from oracles import _iou


def random_box(rng) -> BBox:
    return BBox(rng.uniform(-20, 20), rng.uniform(-20, 20), rng.uniform(0.1, 30), rng.uniform(0.1, 30))


@st.composite
def accepted_boxes(draw):
    """Boxes BBox accepts, spanned by two corners drawn within the bound.

    A draw BBox refuses is rejected.
    """
    corner = st.floats(-CORNER_BOUND, CORNER_BOUND)
    u, u2 = sorted((draw(corner), draw(corner)))
    v, v2 = sorted((draw(corner), draw(corner)))
    try:
        return BBox(u, v, u2 - u, v2 - v)
    except ValueError:
        reject()


# NaN, +-inf, signed zeros, denormals, 1, the corner bound and its float
# neighbours, and twice the bound.
_EDGES = [
    math.nan, math.inf, 0.0, 5e-324, 1.0, CORNER_BOUND,
    math.nextafter(CORNER_BOUND, 0.0), math.nextafter(CORNER_BOUND, math.inf), 2 * CORNER_BOUND,
]


@st.composite
def box_fields(draw):
    """(u, v, w, h), each value an edge or any float; half of the draws
    pick the far corner (u + w, v + h) instead of the extent."""
    value = st.sampled_from(_EDGES + [-x for x in _EDGES]) | st.floats()
    u, v, w, h = (draw(value) for _ in range(4))
    if draw(st.booleans()):
        w, h = w - u, h - v
    return u, v, w, h


def iou(a: BBox, b: BBox) -> float:
    """The IoU of one pair, read from a 1 x 1 iou_matrix."""
    return float(iou_matrix([a], [b])[0, 0])


class TestBBox:
    def test_rejects_non_positive_extent(self):
        with pytest.raises(ValueError):
            BBox(0, 0, 0, 10)
        with pytest.raises(ValueError):
            BBox(0, 0, 10, -1)

    def test_rejects_non_finite(self):
        # NaN and +inf fail the corner bound; a -inf extent fails the extent check.
        for fields, message in (
            ((float("nan"), 0, 10, 10),
             "box corners must lie in [-1e+150, 1e+150], got (nan, 0) to (nan, 10)"),
            ((0, 0, float("inf"), 10),
             "box corners must lie in [-1e+150, 1e+150], got (0, 0) to (inf, 10)"),
            ((0, 0, 10, float("-inf")), "box extent must be positive, got w=10, h=-inf"),
        ):
            with pytest.raises(ValueError) as err:
                BBox(*fields)
            assert str(err.value) == message

    @settings(max_examples=1000, deadline=None)
    @given(box_fields())
    def test_accepted_exactly_when_extent_corners_and_area_hold(self, fields):
        u, v, w, h = fields
        corners = (u, v, u + w, v + h)
        valid = (
            w > 0 and h > 0
            and all(-CORNER_BOUND <= c <= CORNER_BOUND for c in corners)
            and (u + w - u) * (v + h - v) > 0
        )
        try:
            BBox(u, v, w, h)
        except ValueError:
            assert not valid
        else:
            assert valid

    @pytest.mark.parametrize(
        "fields, message",
        [
            ((0.0, 0.0, 1e200, 1e200),
             "box corners must lie in [-1e+150, 1e+150], got (0.0, 0.0) to (1e+200, 1e+200)"),
            ((-2e150, 0.0, 1.0, 1.0),
             "box corners must lie in [-1e+150, 1e+150], got (-2e+150, 0.0) to (-2e+150, 1.0)"),
            ((1e20, 0.0, 1.0, 1.0),
             "box corner area must be positive, got (1e+20 - 1e+20) * (1.0 - 0.0)"),
            ((0.0, 0.0, 1e-200, 1e-200),
             "box corner area must be positive, got (1e-200 - 0.0) * (1e-200 - 0.0)"),
        ],
    )
    def test_bound_message_is_exact(self, fields, message):
        with pytest.raises(ValueError) as err:
            BBox(*fields)
        assert str(err.value) == message

    def test_corners_on_the_bound_are_accepted(self):
        BBox(-1e150, -1e150, 2e150, 2e150)


class TestIou:
    def test_identical_boxes(self):
        box = BBox(1.5, 2.5, 7.0, 3.0)
        assert iou(box, box) == 1.0

    def test_disjoint_boxes(self):
        assert iou(BBox(0, 0, 10, 10), BBox(20, 20, 5, 5)) == 0.0

    def test_touching_edges_count_as_disjoint(self):
        assert iou(BBox(0, 0, 10, 10), BBox(10, 0, 10, 10)) == 0.0

    def test_half_overlap_example(self):
        # Intersection [5,10]x[0,10] = 50, union 100 + 100 - 50 = 150.
        value = iou(BBox(0, 0, 10, 10), BBox(5, 0, 10, 10))
        assert value == pytest.approx(50.0 / 150.0, abs=1e-12)

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            a, b = random_box(rng), random_box(rng)
            v = iou(a, b)
            assert v == iou(b, a)
            assert 0.0 <= v <= 1.0

    def test_contained_box(self):
        outer = BBox(0, 0, 10, 10)
        inner = BBox(2, 2, 5, 5)
        assert iou(outer, inner) == pytest.approx(25.0 / 100.0, abs=1e-12)

    def test_matrix_agrees_with_scalar(self):
        rng = np.random.default_rng(11)
        boxes_a = [random_box(rng) for _ in range(6)]
        boxes_b = [random_box(rng) for _ in range(4)]
        matrix = iou_matrix(boxes_a, boxes_b)
        for i, a in enumerate(boxes_a):
            for j, b in enumerate(boxes_b):
                assert matrix[i, j] == pytest.approx(_iou(a, b), abs=1e-12)

    def test_matrix_empty_sides(self):
        assert iou_matrix([], [BBox(0, 0, 1, 1)]).shape == (0, 1)
        assert iou_matrix([BBox(0, 0, 1, 1)], []).shape == (1, 0)

    @settings(max_examples=300, deadline=None)
    @given(accepted_boxes(), accepted_boxes())
    def test_accepted_boxes_give_iou_in_unit_interval(self, a, b):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            matrix = iou_matrix([a, b], [a, b])
        assert ((0.0 <= matrix) & (matrix <= 1.0)).all()
        assert matrix[0, 0] == matrix[1, 1] == 1.0
