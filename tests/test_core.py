"""Core type and constructor tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowfield import (
    AffineTransform,
    FlowError,
    FlowField,
    Padding,
    Reference,
    bilinear_sample,
    from_matrix,
    from_transforms,
    grid_from_unstructured_data,
    pad,
    resize,
    track,
    unpad,
    zeros,
)


class TestReference:
    def test_parse_accepts_letters_and_words(self):
        assert Reference.parse("s") is Reference.SOURCE
        assert Reference.parse("target") is Reference.TARGET
        assert Reference.parse(Reference.SOURCE) is Reference.SOURCE

    def test_parse_rejects_unknown(self):
        with pytest.raises(FlowError):
            Reference.parse("x")

    def test_exactly_two_values(self):
        assert set(Reference) == {Reference.SOURCE, Reference.TARGET}
        assert Reference.SOURCE.opposite is Reference.TARGET


class TestFlowField:
    def test_zero_flow_roundtrip(self):
        f = zeros((3, 4), "s")
        assert f.shape == (3, 4)
        assert np.array_equal(f.vectors, np.zeros((3, 4, 2)))
        assert f.mask.all()
        assert f.reference is Reference.SOURCE

    def test_accessor_roundtrip_bit_exact(self):
        vec = np.arange(24, dtype=np.float64).reshape(3, 4, 2)
        mask = np.zeros((3, 4), dtype=bool)
        mask[1:, 1:] = True
        f = FlowField(vec, "t", mask)
        assert np.array_equal(f.vectors, vec)
        assert np.array_equal(f.mask, mask)
        assert f.reference is Reference.TARGET

    def test_immutable_after_construction(self):
        vec = np.zeros((2, 2, 2))
        mask = np.ones((2, 2), dtype=bool)
        f = FlowField(vec, "s", mask)
        with pytest.raises(ValueError):
            f.vectors[0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            f.mask[0, 0] = False
        vec[0, 0, 0] = 5.0  # caller-side edits do not leak in
        mask[0, 0] = False
        assert f.vectors[0, 0, 0] == 0.0 and f.mask[0, 0]
        assert vec.flags.writeable and mask.flags.writeable

    def test_nan_under_false_mask_accepted(self):
        vec = np.zeros((2, 3, 2))
        vec[0, 0] = np.nan
        mask = np.ones((2, 3), dtype=bool)
        mask[0, 0] = False
        f = FlowField(vec, "s", mask)
        assert not f.mask[0, 0]

    def test_nan_under_true_mask_rejected(self):
        vec = np.zeros((2, 3, 2))
        vec[0, 0] = np.nan
        with pytest.raises(FlowError):
            FlowField(vec, "s")

    def test_shape_mismatch_rejected(self):
        with pytest.raises(FlowError):
            FlowField(np.zeros((3, 4, 2)), "s", np.ones((4, 3), dtype=bool))

    @pytest.mark.parametrize("shape", [(3, 4), (3, 4, 1), (2, 3, 4)])
    def test_bad_vector_shapes_rejected(self, shape):
        with pytest.raises(FlowError):
            FlowField(np.zeros(shape), "s")


class TestPadding:
    def test_rejects_negative(self):
        with pytest.raises(FlowError):
            Padding(1, -1, 0, 0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(FlowError):
            Padding(bad, 0, 0, 0)

    def test_parse_sequence(self):
        assert Padding.parse([1, 2, 3, 4]) == Padding(1, 2, 3, 4)
        with pytest.raises(FlowError):
            Padding.parse([1, 2, 3])

    def test_add(self):
        assert Padding(1, 2, 3, 4) + Padding(4, 3, 2, 1) == Padding(5, 5, 5, 5)


# Every function that takes points, called on a 2x3 grid.
POINT_CALLERS = {
    "bilinear_sample": lambda pts: bilinear_sample(np.zeros((2, 3)), pts),
    "grid_from_unstructured_data": lambda pts: grid_from_unstructured_data(
        pts, np.zeros(len(pts)), (2, 3)
    ),
    "AffineTransform.apply": lambda pts: AffineTransform.identity().apply(pts),
    "track-s": lambda pts: track(zeros((2, 3), "s"), pts),
    "track-t": lambda pts: track(zeros((2, 3), "t"), pts),
}

COORDINATES = (
    st.floats(-2.0, 9.0)
    | st.sampled_from([np.nan, np.inf, -np.inf, 1e308, -1e308])
    | st.floats(allow_nan=True, allow_infinity=True)
)
GRID_SHAPES = (
    st.just((1, 1))
    | st.tuples(st.just(1), st.integers(2, 8))
    | st.tuples(st.integers(2, 8), st.integers(2, 8))
)


class TestPoints:
    """Points are plain (N, 2) arrays with one check shared by every caller."""

    def test_empty_allowed(self):
        for call in POINT_CALLERS.values():
            call([])
        assert AffineTransform.identity().apply([]).shape == (0, 2)

    def test_rejects_non_finite(self):
        for call in POINT_CALLERS.values():
            with pytest.raises(FlowError, match="finite"):
                call([[0.0, np.inf]])

    def test_rejects_bad_shape(self):
        for call in POINT_CALLERS.values():
            with pytest.raises(FlowError, match=r"\(N, 2\)"):
                call([[1.0, 2.0, 3.0]])

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_raises_exactly_on_non_finite_coordinates(self, data):
        h, w = data.draw(GRID_SHAPES)
        points = data.draw(st.lists(st.tuples(COORDINATES, COORDINATES), max_size=20))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        n = len(points)
        vectors = rng.uniform(-3.0, 3.0, size=(h, w, 2))
        mask = rng.uniform(size=(h, w)) < 0.8
        calls = [
            (lambda: bilinear_sample(rng.normal(size=(h, w)), points), (n,), (n,)),
            (lambda: bilinear_sample(rng.normal(size=(h, w, 3)), points), (n, 3), (n,)),
            (lambda: track(FlowField(vectors, "s", mask), points), (n, 2), (n,)),
            (lambda: track(FlowField(vectors, "t", mask), points), (n, 2), (n,)),
            (
                lambda: grid_from_unstructured_data(points, rng.normal(size=(n, 3)), (h, w)),
                (h, w, 3),
                (h, w),
            ),
        ]
        finite = bool(np.isfinite(np.reshape(points, (-1, 2))).all())
        for call, values_shape, flags_shape in calls:
            if not finite:
                with pytest.raises(FlowError):
                    call()
                continue
            values, flags = call()
            assert values.shape == values_shape and flags.shape == flags_shape
            assert np.isfinite(values).all()


class TestAffineTransform:
    def test_bottom_row_enforced(self):
        with pytest.raises(FlowError):
            AffineTransform([[1, 0, 0], [0, 1, 0], [0, 0, 2]])

    def test_rotation_matches_hand_matrix(self):
        # Golden oracle: T(c) R T(-c) with the CCW math-convention matrix.
        cx, cy, deg = 5.0, -2.0, 33.0
        a = math.radians(deg)
        rot = np.array([[math.cos(a), -math.sin(a), 0], [math.sin(a), math.cos(a), 0], [0, 0, 1]])
        t_fwd = np.array([[1, 0, cx], [0, 1, cy], [0, 0, 1.0]])
        t_back = np.array([[1, 0, -cx], [0, 1, -cy], [0, 0, 1.0]])
        expected = t_fwd @ rot @ t_back
        got = AffineTransform.rotation(cx, cy, deg).matrix
        assert np.allclose(got, expected, atol=1e-12)

    def test_scaling_fixes_center(self):
        t = AffineTransform.scaling(7.0, 3.0, 2.5)
        assert np.allclose(t.apply([[7.0, 3.0]]), [[7.0, 3.0]])
        assert np.allclose(t.apply([[8.0, 3.0]]), [[9.5, 3.0]])

    def test_named_list_composes_left_to_right(self):
        listed = AffineTransform.from_transforms(
            [("translation", 1, 0), ("rotation", 0, 0, 90)]
        )
        # translate first, then rotate: (0,0) -> (1,0) -> (0,1)
        assert np.allclose(listed.apply([[0.0, 0.0]]), [[0.0, 1.0]], atol=1e-12)

    def test_unknown_transform_rejected(self):
        with pytest.raises(FlowError):
            AffineTransform.from_transforms([("shear", 1, 2)])
        with pytest.raises(FlowError):
            AffineTransform.from_transforms([("rotation", 1)])

    def test_singular_inverse_rejected(self):
        with pytest.raises(FlowError):
            AffineTransform.scaling(0, 0, 0.0).inverse()


class TestFromTransforms:
    def test_translation_target_constant_field(self):
        f = from_transforms([("translation", 20, -10)], (200, 250), "t")
        assert f.reference is Reference.TARGET
        assert f.mask.all()
        assert np.allclose(f.vectors[..., 0], 20.0)
        assert np.allclose(f.vectors[..., 1], -10.0)

    def test_identity_rotation_is_zero_flow(self):
        for ref in "st":
            f = from_transforms([("rotation", 3, 4, 0)], (5, 6), ref)
            assert np.allclose(f.vectors, 0.0)

    def test_scaling_source_vector_at_grid_point(self):
        # Doubling about the origin moves g to 2g, so the vector at g is g.
        f = from_transforms([("scaling", 0, 0, 2)], (10, 10), "s")
        assert np.allclose(f.vectors[4, 3], [3.0, 4.0])

    def test_empty_list_gives_zero_flow_both_references(self):
        for ref in "st":
            f = from_transforms([], (4, 5), ref)
            assert np.array_equal(f.vectors, np.zeros((4, 5, 2)))

    def test_target_needs_invertible_matrix(self):
        with pytest.raises(FlowError):
            from_transforms([("scaling", 0, 0, 0.0)], (4, 5), "t")
        from_transforms([("scaling", 0, 0, 0.0)], (4, 5), "s")  # source is fine

    def test_padding_evaluates_transform_on_enlarged_grid(self):
        p = Padding(1, 2, 3, 4)
        f = from_transforms([("scaling", 0, 0, 2)], (5, 6), "s", padding=p)
        assert f.shape == (8, 13)
        assert f.mask.all()
        # padded grid point (row 0, col 0) sits at original coords (-3, -1)
        assert np.allclose(f.vectors[0, 0], [-3.0, -1.0])

    def test_source_and_target_describe_same_motion(self):
        # Vectors at matched positions agree exactly for a translation.
        m = AffineTransform.translation(3.25, -1.5)
        fs = from_matrix(m, (6, 8), "s")
        ft = from_matrix(m, (6, 8), "t")
        assert np.allclose(fs.vectors, ft.vectors)


class TestResize:
    def test_constant_flow_scales_components(self):
        vec = np.broadcast_to(np.array([4.0, 2.0]), (8, 12, 2)).copy()
        f = FlowField(vec, "s")
        out = resize(f, (0.5, 0.5))
        assert out.shape == (4, 6)
        assert np.allclose(out.vectors[..., 0], 2.0)
        assert np.allclose(out.vectors[..., 1], 1.0)

    def test_identity_scale_is_identical(self):
        rng = np.random.default_rng(3)
        vec = rng.normal(size=(5, 7, 2))
        mask = rng.uniform(size=(5, 7)) > 0.3
        f = FlowField(vec, "t", mask)
        out = resize(f, (1, 1))
        assert np.array_equal(out.vectors, f.vectors)
        assert np.array_equal(out.mask, f.mask)

    def test_non_positive_scale_rejected(self):
        f = zeros((4, 4))
        with pytest.raises(FlowError):
            resize(f, (0, 1))
        with pytest.raises(FlowError):
            resize(f, (1, -2))

    @pytest.mark.parametrize("bad", [(math.nan, 1), (1, math.inf)], ids=["nan-sy", "inf-sx"])
    def test_non_finite_scale_rejected(self, bad):
        with pytest.raises(FlowError):
            resize(zeros((4, 4)), bad)

    def test_affine_flow_resamples_consistently(self):
        # Doubling the grid of an affine flow halves nothing: the resized
        # field must match the analytic flow of the same transform drawn
        # on the new grid wherever both are defined, up to edge effects.
        m = AffineTransform.translation(2.0, 1.0)
        f = from_matrix(m, (10, 15), "s")
        out = resize(f, (2.0, 2.0))
        assert out.shape == (20, 30)
        assert np.allclose(out.vectors[..., 0], 4.0)
        assert np.allclose(out.vectors[..., 1], 2.0)

    def test_mask_thresholded_at_half(self):
        mask = np.array([[True, True, False, False]])
        f = FlowField(np.zeros((1, 4, 2)), "s", mask)
        out = resize(f, (1.0, 2.0))
        # sample positions:x' = i * 3/7 in the old grid; valid while the
        # blend weight of true cells is >= 0.5, i.e. up to x <= 1.5
        expected = np.array([[True, True, True, True, False, False, False, False]])
        assert np.array_equal(out.mask, expected)


class TestCellBudget:
    def test_oversized_zeros_raises_before_allocating(self):
        with pytest.raises(FlowError, match="budget"):
            zeros((10**15, 4))


class TestPadUnpad:
    def test_pad_extends_with_invalid_zeros(self):
        f = zeros((3, 4))
        out = pad(f, Padding(1, 1, 2, 2))
        assert out.shape == (5, 8)
        assert out.mask[1:4, 2:6].all()
        assert not out.mask[0].any() and not out.mask[-1].any()
        assert not out.mask[:, :2].any() and not out.mask[:, -2:].any()
        assert np.array_equal(out.vectors[0], np.zeros((8, 2)))

    def test_roundtrip_bit_identical(self):
        rng = np.random.default_rng(5)
        vec = rng.normal(size=(3, 4, 2))
        mask = rng.uniform(size=(3, 4)) > 0.4
        f = FlowField(vec, "t", mask)
        p = Padding(2, 0, 1, 3)
        back = unpad(pad(f, p), p)
        assert np.array_equal(back.vectors, f.vectors)
        assert np.array_equal(back.mask, f.mask)
        assert back.reference is f.reference

    def test_unpad_larger_than_field_rejected(self):
        f = zeros((3, 4))
        with pytest.raises(FlowError):
            unpad(f, Padding(2, 2, 0, 0))
        with pytest.raises(FlowError):
            unpad(f, Padding(0, 0, 2, 2))
