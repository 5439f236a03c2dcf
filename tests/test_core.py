"""Core type and constructor tests."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowfield import (
    AffineTransform,
    FlowError,
    FlowField,
    Reference,
    apply,
    bilinear_sample,
    from_matrix,
    from_transforms,
    grid_coordinates,
    grid_from_unstructured_data,
    map_vectors,
    pad,
    read_image,
    render_colorwheel,
    resize,
    run_trials,
    track,
    unpad,
    write_mask,
    zeros,
)
from flowfield.core import _fill_cells
from flowfield.interp import _clean, masked_bilinear_sample
from flowfield.verify import random_transform, trial_matrices


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

    @pytest.mark.parametrize(
        "vectors",
        [np.full((2, 3, 2), "a"), np.full((2, 3, 2), "1.5"), np.ones((2, 3, 2), complex)],
        ids=["letters", "numeric-strings", "complex"],
    )
    def test_non_real_vectors_rejected(self, vectors):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no ComplexWarning on the way
            with pytest.raises(FlowError, match="real numbers"):
                FlowField(vectors, "s")


# Bit patterns a zeroed copy must carry through untouched: -0.0, a quiet NaN with
# a payload, a signalling NaN, -inf, the smallest subnormal and the largest float.
_ODD_BITS = np.array(
    [0x8000000000000000, 0x7FF8000000001234, 0x7FF0000000000001,
     0xFFF0000000000000, 0x0000000000000001, 0x7FEFFFFFFFFFFFFF],
    dtype=np.uint64,
).view(np.float64)


def _zeroed(mask, data):
    """A fresh C-ordered copy of `data`, filled by `core._fill_cells` under false `mask` bits."""
    return _fill_cells(data.copy(), ~mask)


class TestWhereValid:
    """Cells are zeroed one way: a fresh copy that `core._fill_cells` fills in place.

    Kept cells keep their bits and dropped ones become +0.0, whatever the
    input's layout; `masked_vectors`, `interp._clean` and `map_vectors` zero
    this way.
    """

    @staticmethod
    def _data(rng, shape):
        data = rng.normal(size=shape)
        data.ravel()[: _ODD_BITS.size * 3 : 3] = _ODD_BITS
        return rng.permuted(data.ravel()).reshape(shape)

    @pytest.mark.parametrize("channels", [1, 2, 3])
    @pytest.mark.parametrize("cells", [(37,), (5, 8)])
    @pytest.mark.parametrize("layout", ["contiguous", "strided", "fortran"])
    def test_keeps_and_zeroes_whole_cells(self, channels, cells, layout):
        rng = np.random.default_rng(channels * 10 + len(cells))
        shape = (*cells, channels)
        if layout == "strided":
            # Every other cell and channel of a larger array.
            every_other = (slice(None, None, 2),) * len(shape)
            data = self._data(rng, tuple(2 * n for n in shape))[every_other]
        elif layout == "fortran":
            data = np.asfortranarray(self._data(rng, shape))
        else:
            data = self._data(rng, shape)
        assert data.shape == shape
        before = data.copy()
        mask = rng.uniform(size=cells) < 0.5
        mask.ravel()[:2] = (True, False)
        out = _zeroed(mask, data)
        assert out.shape == shape and out.dtype == np.float64
        assert not np.shares_memory(out, data)
        assert np.ascontiguousarray(data).tobytes() == before.tobytes()  # input untouched
        bits = out.view(np.uint64)
        assert np.array_equal(bits[mask], data.copy().view(np.uint64)[mask])
        assert not bits[~mask].any()  # +0.0: no sign bit, no payload

    def test_float32_cells(self):
        data = np.arange(12, dtype=np.float32).reshape(3, 2, 2) - 20.0
        mask = np.array([[True, False], [False, True], [True, True]])
        out = _zeroed(mask, data)
        assert out.dtype == np.float32
        assert np.array_equal(out, np.where(mask[..., None], data, np.float32(0.0)))
        assert not np.signbit(out[~mask]).any()

    @pytest.mark.parametrize("cells, keep", [(3, True), (3, False), (0, True)])
    def test_uniform_and_empty_masks(self, cells, keep):
        data = np.full((cells, 2), -0.0)
        out = _zeroed(np.full(cells, keep), data)
        assert out.shape == data.shape
        assert np.array_equal(np.signbit(out), np.full(data.shape, keep))

    @pytest.mark.parametrize("caller", ["masked_vectors", "_clean", "map_vectors"])
    def test_callers_zero_a_copy_as_the_fill_does(self, caller):
        rng = np.random.default_rng(3)
        mask = rng.uniform(size=(5, 8)) < 0.5
        # Finite odd bits on kept cells, as a field or checked data holds them.
        data = self._data(rng, (5, 8, 2))
        data[~np.isfinite(data)] = -0.0
        poisoned = np.where(mask[..., None], data, np.nan)
        want = _zeroed(mask, data)
        if caller == "masked_vectors":
            out = FlowField(poisoned, "s", mask).masked_vectors()
        elif caller == "_clean":
            out = _clean(poisoned.reshape(40, 2), mask).reshape(5, 8, 2)
        else:
            out = map_vectors(FlowField(poisoned, "s", mask), lambda v: v).vectors
        assert out.tobytes() == want.tobytes()


# Every function that takes padding, called on a 4x5 grid.
PADDING_CALLERS = {
    "pad": lambda p: pad(zeros((4, 5)), p),
    "unpad": lambda p: unpad(zeros((4, 5)), p),
    "grid_coordinates": lambda p: grid_coordinates((4, 5), p),
    "from_matrix": lambda p: from_matrix(AffineTransform.identity(), (4, 5), "s", p),
    "from_transforms": lambda p: from_transforms([], (4, 5), "t", padding=p),
}


# Every function that takes a grid shape.
SHAPE_CALLERS = {
    "zeros": lambda shape: zeros(shape),
    "grid_coordinates": lambda shape: grid_coordinates(shape),
    "from_matrix": lambda shape: from_matrix(AffineTransform.identity(), shape, "s"),
    "from_transforms": lambda shape: from_transforms([], shape, "t"),
    "grid_from_unstructured_data": lambda shape: grid_from_unstructured_data(
        np.zeros((1, 2)), np.zeros((1, 2)), shape
    )[0],
}
# ... and `run_trials`, whose report has no grid shape to compare.
SIZE_CALLERS = {**SHAPE_CALLERS, "run_trials": lambda shape: run_trials(1, 1, shape)}


class TestGridShape:
    @pytest.mark.parametrize(
        "bad",
        [(-1, 3), (0, 3), (3, 0), (2.5, 3), (2.9, 3), (3, 2.9), (math.nan, 3), (3, math.inf)],
        ids=["negative", "zero-height", "zero-width", "fraction", "near-3", "fraction-width",
             "nan", "inf"],
    )
    @pytest.mark.parametrize("caller", SIZE_CALLERS)
    def test_every_entry_point_rejects(self, caller, bad):
        with pytest.raises(FlowError, match="grid (height|width) must be an integer >= 1"):
            SIZE_CALLERS[caller](bad)

    @pytest.mark.parametrize("bad", [(4,), (10, 12, 3), 5], ids=["one-side", "three-sides", "scalar"])
    @pytest.mark.parametrize("caller", SIZE_CALLERS)
    def test_exactly_two_sides(self, caller, bad):
        with pytest.raises(FlowError, match="grid needs 2 values"):
            SIZE_CALLERS[caller](bad)

    @pytest.mark.parametrize("caller", SHAPE_CALLERS)
    def test_integer_valued_floats_accepted(self, caller):
        assert SHAPE_CALLERS[caller]((2.0, np.int64(3))).shape[:2] == (2, 3)

    def test_run_trials_reads_integer_valued_floats_as_ints(self):
        assert run_trials(1, 1, (20.0, np.int64(30)), 2.0) == run_trials(1, 1, (20, 30), 2.0)


class TestPadding:
    @pytest.mark.parametrize(
        "bad",
        [(1, -1, 0, 0), (math.nan, 0, 0, 0), (math.inf, 0, 0, 0), (1.5, 0, 0, 0), (1, 2, 3), 2],
        ids=["negative", "nan", "inf", "fraction", "three-values", "scalar"],
    )
    @pytest.mark.parametrize("caller", PADDING_CALLERS)
    def test_every_entry_point_rejects(self, caller, bad):
        with pytest.raises(FlowError, match="padding"):
            PADDING_CALLERS[caller](bad)

    @pytest.mark.parametrize("caller", PADDING_CALLERS)
    def test_integer_valued_floats_accepted(self, caller):
        as_floats = PADDING_CALLERS[caller]((1.0, 0.0, 2.0, np.int64(0)))
        assert as_floats.shape == PADDING_CALLERS[caller]((1, 0, 2, 0)).shape


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


# Non-real values of any shape, and every entry that turns caller numbers into
# float64, called on a 2x3 grid with them as one input. A ragged nesting has
# its first entry cut short, so numpy cannot make an array of it.
NON_REAL = {
    "letters": lambda shape: np.full(shape, "a"),
    "numeric-strings": lambda shape: np.full(shape, "1.5"),
    "complex": lambda shape: np.ones(shape, complex),
    "ragged": lambda shape: [[0.0], *np.zeros(shape).tolist()[1:]],
    # numpy holds these in object arrays, whose elements `float()` would take.
    "object-numeric-strings": lambda shape: np.full(shape, "1.5", dtype=object),
    "object-bytes": lambda shape: np.full(shape, b"2", dtype=object),
    "huge-int": lambda shape: np.full(shape, 10**400, dtype=object),
}
REAL_CALLERS = {
    "FlowField": lambda bad: FlowField(bad((2, 3, 2)), "s"),
    "AffineTransform": lambda bad: AffineTransform(bad((3, 3))),
    "bilinear_sample": lambda bad: bilinear_sample(bad((2, 3)), np.zeros((4, 2))),
    "masked_bilinear_sample": lambda bad: masked_bilinear_sample(
        bad((2, 3, 2)), np.ones((2, 3), bool), np.zeros((4, 2))
    ),
    "grid_from_unstructured_data": lambda bad: grid_from_unstructured_data(
        np.zeros((4, 2)), bad(4), (2, 3)
    ),
    "apply-s": lambda bad: apply(zeros((2, 3), "s"), bad((2, 3, 3))),
    "apply-t": lambda bad: apply(zeros((2, 3), "t"), bad((2, 3, 3))),
    "map_vectors": lambda bad: map_vectors(zeros((2, 3)), lambda v: bad(v.shape)),
    "resize": lambda bad: resize(zeros((2, 3)), bad((2,))),
    **{f"points-{name}": lambda bad, call=call: call(bad((4, 2)))
       for name, call in POINT_CALLERS.items()},
}


class TestRealInput:
    """Non-real caller input fails as FlowError at every entry, as at `FlowField`."""

    @pytest.mark.parametrize("kind", NON_REAL)
    @pytest.mark.parametrize("caller", REAL_CALLERS)
    def test_every_entry_point_rejects(self, caller, kind):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no ComplexWarning on the way
            with pytest.raises(FlowError, match="real numbers"):
                REAL_CALLERS[caller](NON_REAL[kind])


# The one-number parameters, each handed a value that is not one real number:
# the scalar forms of NON_REAL, with a sequence in place of a ragged nesting.
NON_NUMBER = {
    "letters": "a",
    "numeric-strings": "1.5",
    "complex": 1j,
    "sequence": [1.0, 2.0],
    "object-numeric-string": np.array("1.5", dtype=object),
    "huge-int": 10**400,
}
NUMBER_CALLERS = {
    "rotation-cx": lambda bad: AffineTransform.rotation(bad, 0, 10),
    "rotation-cy": lambda bad: AffineTransform.rotation(0, bad, 10),
    "rotation-angle": lambda bad: AffineTransform.rotation(0, 0, bad),
    "scaling-cx": lambda bad: AffineTransform.scaling(bad, 0, 2),
    "scaling-cy": lambda bad: AffineTransform.scaling(0, bad, 2),
    "scaling-factor": lambda bad: AffineTransform.scaling(0, 0, bad),
    "from_transforms-step": lambda bad: AffineTransform.from_transforms([("translation", bad, 1)]),
    "render_colorwheel": lambda bad: render_colorwheel(zeros((2, 3)), bad),
    "random_transform": lambda bad: random_transform(np.random.default_rng(0), (2, 3), bad),
    "run_trials": lambda bad: run_trials(1, 1, (10, 12), bad),
}


class TestNumberInput:
    """A one-number parameter is one real number at every entry, else FlowError."""

    @pytest.mark.parametrize("kind", NON_NUMBER)
    @pytest.mark.parametrize("caller", NUMBER_CALLERS)
    def test_every_entry_point_rejects(self, caller, kind):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no ComplexWarning on the way
            with pytest.raises(FlowError, match="real number"):
                NUMBER_CALLERS[caller](NON_NUMBER[kind])

    def test_real_types_give_the_same_matrix(self):
        steps = [("rotation", 3, 2, 30), ("scaling", 1, 1, 2), ("translation", 5, -1)]
        as_floats = [(name, *map(float, args)) for name, *args in steps]
        as_numpy = [(name, *map(np.float32, args)) for name, *args in steps]
        want = AffineTransform.from_transforms(as_floats)
        assert AffineTransform.from_transforms(steps) == want
        assert AffineTransform.from_transforms(as_numpy) == want


# Masks that are neither bool nor integer, and every entry that takes a mask
# from the caller, called on a 2x3 grid with one as the mask.
NON_MASK = {
    "letters": lambda shape: np.full(shape, "a"),
    "numeric-strings": lambda shape: np.full(shape, "0"),
    "nan": lambda shape: np.full(shape, np.nan),
    "complex": lambda shape: np.zeros(shape, complex),
    "object": lambda shape: np.full(shape, False, dtype=object),
    "ragged": lambda shape: [[True], *np.ones(shape, bool).tolist()[1:]],
}
# Each returns a tuple of arrays that the mask decides.
def _written_mask(mask, tmp):
    write_mask(tmp / "mask.pgm", mask)
    return (read_image(tmp / "mask.pgm"),)


MASK_CALLERS = {
    "FlowField": lambda mask, tmp: (FlowField(np.zeros((2, 3, 2)), "s", mask).mask,),
    "apply-s": lambda mask, tmp: apply(zeros((2, 3), "s"), np.ones((2, 3)), mask),
    "apply-t": lambda mask, tmp: apply(zeros((2, 3), "t"), np.ones((2, 3)), mask),
    "masked_bilinear_sample": lambda mask, tmp: masked_bilinear_sample(
        np.ones((2, 3)), mask, [[0.0, 0.0], [1.5, 0.5], [2.0, 1.0]]
    ),
    "write_mask": _written_mask,
}


class TestMaskInput:
    """A caller mask is bool or integer of the grid's shape at every entry, else FlowError."""

    @pytest.mark.parametrize("kind", NON_MASK)
    @pytest.mark.parametrize("caller", MASK_CALLERS)
    def test_every_entry_point_rejects(self, caller, kind, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no ComplexWarning on the way
            with pytest.raises(FlowError, match="mask must be"):
                MASK_CALLERS[caller](NON_MASK[kind]((2, 3)), tmp_path)

    @pytest.mark.parametrize("caller", MASK_CALLERS)
    def test_wrong_shape_rejected(self, caller, tmp_path):
        with pytest.raises(FlowError, match="mask (shape|must be 2-D)"):
            MASK_CALLERS[caller](np.ones(6, bool), tmp_path)

    @pytest.mark.parametrize("caller", MASK_CALLERS)
    def test_integers_read_as_nonzero(self, caller, tmp_path):
        as_bool = np.array([[True, False, True], [False, True, True]])
        want = MASK_CALLERS[caller](as_bool, tmp_path)
        for mask in (np.array([[1, 0, -7], [0, 255, 2]], np.int16), as_bool.astype(np.uint8)):
            got = MASK_CALLERS[caller](mask, tmp_path)
            assert all(np.array_equal(g, w) for g, w in zip(got, want, strict=True))


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
        for transforms in (None, [5], [None], [()]):
            with pytest.raises(FlowError):
                AffineTransform.from_transforms(transforms)
            with pytest.raises(FlowError):
                from_transforms(transforms, (3, 4), "s")

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

    def test_overflowing_composition_raises_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FlowError, match="overflow"):
                from_transforms([("scaling", 0, 0, 1e200)] * 2, (3, 4), "s")

    def test_target_needs_invertible_matrix(self):
        with pytest.raises(FlowError):
            from_transforms([("scaling", 0, 0, 0.0)], (4, 5), "t")
        from_transforms([("scaling", 0, 0, 0.0)], (4, 5), "s")  # source is fine

    def test_padding_evaluates_transform_on_enlarged_grid(self):
        p = (1, 2, 3, 4)
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


def from_matrix_matmul(matrix, shape, reference, padding=None):
    """`from_matrix` as one matrix product over a full coordinate grid.

    Kept as the oracle of the separable version, which forms each component
    from terms on the x and y axes; the two differ only by rounding.
    """
    grid = grid_coordinates(shape, padding)
    if Reference.parse(reference) is Reference.SOURCE:
        return matrix.apply(grid.reshape(-1, 2)).reshape(grid.shape) - grid
    return grid - matrix.inverse().apply(grid.reshape(-1, 2)).reshape(grid.shape)


class TestFromMatrixSeparable:
    @pytest.mark.parametrize("ref", ["s", "t"])
    def test_agrees_with_matmul_oracle(self, ref):
        rng = np.random.default_rng(11)
        shape = (60, 90)
        worst = 0.0
        for draw in range(200):
            padding = (3, 1, 4, 2) if draw % 2 else None
            for m in trial_matrices(rng, shape, 50.0):
                got = from_matrix(m, shape, ref, padding)
                want = from_matrix_matmul(m, shape, ref, padding)
                assert got.mask.all() and got.shape == want.shape[:2]
                worst = max(worst, float(np.abs(got.vectors - want).max()))
        assert worst <= 1e-12

    @pytest.mark.parametrize("ref", ["s", "t"])
    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (7, 1)], ids=["1x1", "1xW", "Hx1"])
    def test_degenerate_grids_agree_with_oracle(self, ref, shape):
        rng = np.random.default_rng(12)
        for padding in (None, (0, 0, 0, 0), (2, 0, 1, 3)):
            for m in trial_matrices(rng, (20, 30), 50.0):
                got = from_matrix(m, shape, ref, padding)
                want = from_matrix_matmul(m, shape, ref, padding)
                assert got.vectors.shape == want.shape
                assert np.abs(got.vectors - want).max() <= 1e-12

    @pytest.mark.parametrize("ref", ["s", "t"])
    def test_identity_gives_exact_positive_zeros(self, ref):
        f = from_matrix(AffineTransform.identity(), (5, 7), ref, padding=(2, 1, 3, 0))
        assert np.array_equal(f.vectors, np.zeros((8, 10, 2)))
        assert not np.signbit(f.vectors).any()

    @pytest.mark.parametrize(
        "matrix, ref",
        [
            ([[1e308, 0, 0], [0, 1, 0], [0, 0, 1]], "s"),
            ([[1, 0, 0], [0, 1e308, 1e308], [0, 0, 1]], "s"),
            # The inverse scales x by 1e308.
            ([[1e-308, 0, 0], [0, 1e308, 0], [0, 0, 1]], "t"),
        ],
        ids=["source-scale", "source-offset", "target-inverse"],
    )
    def test_overflow_is_flow_error_without_warning(self, matrix, ref):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FlowError, match="overflow"):
                from_matrix(matrix, (3, 4), ref)


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
        assert np.array_equal(out.vectors, f.masked_vectors())
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

    @pytest.mark.parametrize(
        "bad", [(1, 1, 5), (2.0,), 2, (), [[1, 1]]],
        ids=["three", "one", "scalar", "empty", "nested"],
    )
    def test_scale_needs_two_factors(self, bad):
        with pytest.raises(FlowError, match="two positive finite"):
            resize(zeros((4, 4)), bad)

    def test_overflowing_vectors_rejected(self):
        f = FlowField(np.full((3, 4, 2), 1.7e308), "s")
        with pytest.raises(FlowError, match="overflow"):
            resize(f, (2, 2))

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

    def test_oversized_splat_raises_before_allocating(self):
        with pytest.raises(FlowError, match="budget"):
            grid_from_unstructured_data(np.zeros((1, 2)), [0.0], (10**15, 4))


class TestPadUnpad:
    def test_pad_extends_with_invalid_zeros(self):
        f = zeros((3, 4))
        out = pad(f, (1, 1, 2, 2))
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
        p = (2, 0, 1, 3)
        back = unpad(pad(f, p), p)
        assert np.array_equal(back.vectors, f.masked_vectors())
        assert np.array_equal(back.mask, f.mask)
        assert back.reference is f.reference

    def test_unpad_larger_than_field_rejected(self):
        f = zeros((3, 4))
        with pytest.raises(FlowError):
            unpad(f, (2, 2, 0, 0))
        with pytest.raises(FlowError):
            unpad(f, (0, 0, 2, 2))
