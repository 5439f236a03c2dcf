"""Property tests: every op keeps its documented invariants on hostile input.

The inputs are seeded grids of 1x1, 1xW and HxW cells with empty, partial
or full masks, NaN, ±inf and 1e308 under false mask bits, and finite
magnitudes up to ±1.7e308 under true ones. Each op either raises
`FlowError` (and nothing else, warnings included) or returns what it
documents: a warp's mask-false cells are +0.0 and its mask-true cells
finite, in the reference the op promises; the valid areas, the padding,
the matrix fit and the renderers have their documented types and shapes.
"""

import itertools
import time
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
    combine,
    fit_matrix,
    get_padding,
    invert,
    render_arrows,
    render_colorwheel,
    switch_reference,
    valid_source,
    valid_target,
)
from flowfield.viz import ARROW_COLOR, ORIGIN_DOT_COLOR

JUNK = np.array([np.nan, np.inf, -np.inf, 1e308])
# Vector scales from sub-pixel motion up to the float64 limit. The small
# ones, listed twice to be drawn more often, keep far ends on these grids.
SCALES = [0.5, 2.0, 0.5, 2.0, 1e6, 1e154, 1.7e308]

hostile = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**32 - 1),
        # HxW and partial masks are listed twice to be drawn more often.
        "grid": st.sampled_from(["HxW", "1x1", "1xW", "HxW"]),
        "masks": st.tuples(*[st.sampled_from(["partial", "empty", "full", "partial"])] * 2),
        "scales": st.tuples(*[st.sampled_from(SCALES)] * 2),
        "extremes": st.booleans(),
    }
)


def _mask(rng, shape, kind):
    if kind == "partial":
        return rng.uniform(size=shape) < rng.uniform(0.2, 0.9)
    return np.full(shape, kind == "full")


def _with_junk(values, mask):
    keep = mask if values.ndim == 2 else mask[..., None]
    return np.where(keep, values, np.resize(JUNK, values.shape))


class Inputs:
    """Two flows, grid data and a data mask on one seeded grid."""

    def __init__(self, case, refs=("s", "s")):
        rng = np.random.default_rng(case["seed"])
        h = 1 if case["grid"] != "HxW" else int(rng.integers(2, 12))
        w = 1 if case["grid"] == "1x1" else int(rng.integers(2, 12))
        self.shape = (h, w)
        self.flows = []
        for ref, kind, scale in zip(refs, case["masks"], case["scales"]):
            mask = _mask(rng, self.shape, kind)
            vectors = rng.uniform(-1.0, 1.0, size=(h, w, 2)) * scale
            if case["extremes"]:
                # A few components at the largest magnitude allowed.
                extreme = rng.uniform(size=(h, w, 2)) < 0.03
                vectors[extreme] = np.copysign(1.7e308, vectors[extreme])
            self.flows.append(FlowField(_with_junk(vectors, mask), ref, mask))
        channels = int(rng.integers(0, 4))
        data = rng.uniform(-1.0, 1.0, size=self.shape if channels == 0 else (h, w, channels))
        self.data = data * case["scales"][1]
        self.data_mask = _mask(rng, self.shape, case["masks"][1])
        self.junk_data = _with_junk(self.data, self.data_mask)


def _run(op):
    """The op's result, or None if it raised FlowError; anything else fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return op()
        except FlowError:
            return None


def _check_grid(values, mask, shape):
    assert mask.shape == shape and mask.dtype == bool
    assert values.shape[:2] == shape and values.dtype == np.float64
    assert not values.view(np.uint64)[~mask].any()  # +0.0, sign bit clear
    assert np.isfinite(values[mask]).all()


def _check_field(out, shape, reference):
    assert isinstance(out, FlowField)
    assert out.reference is Reference.parse(reference)
    _check_grid(out.vectors, out.mask, shape)


BRANCHES = list(itertools.product((1, 2, 3), "st", "st", "st"))


@pytest.mark.parametrize(
    "mode, ref_1, ref_2, out_ref", BRANCHES, ids=[f"{m}-{a}{b}>{o}" for m, a, b, o in BRANCHES]
)
@given(case=hostile)
@settings(max_examples=25, deadline=None)
def test_combine_keeps_invariants(mode, ref_1, ref_2, out_ref, case):
    inputs = Inputs(case, (ref_1, ref_2))
    out = _run(lambda: combine(*inputs.flows, mode, out_ref))
    if out is not None:
        _check_field(out, inputs.shape, out_ref)


@pytest.mark.parametrize("ref", "st")
@given(case=hostile, masked=st.booleans())
@settings(max_examples=50, deadline=None)
def test_apply_keeps_invariants(ref, case, masked):
    inputs = Inputs(case, (ref, ref))
    if masked:
        out = _run(lambda: apply(inputs.flows[0], inputs.junk_data, inputs.data_mask))
    else:
        out = _run(lambda: apply(inputs.flows[0], inputs.data))
    if out is not None:
        warped, mask = out
        assert warped.shape == inputs.data.shape
        _check_grid(warped, mask, inputs.shape)


@pytest.mark.parametrize("ref", "st")
@pytest.mark.parametrize("op, flips", [(invert, False), (switch_reference, True)])
@given(case=hostile)
@settings(max_examples=50, deadline=None)
def test_push_ops_keep_invariants(ref, op, flips, case):
    field = Inputs(case, (ref, ref)).flows[0]
    out = _run(lambda: op(field))
    if out is not None:
        _check_field(out, field.shape, field.reference.opposite if flips else field.reference)


@pytest.mark.parametrize("ref", "st")
@given(case=hostile)
@settings(max_examples=50, deadline=None)
def test_valid_source_keeps_invariants(ref, case):
    field = Inputs(case, (ref, ref)).flows[0]
    out = _run(lambda: valid_source(field))
    if out is not None:
        assert out.shape == field.shape and out.dtype == bool
        if ref == "s":
            assert not (out & ~field.mask).any()


@pytest.mark.parametrize("ref", "st")
@given(case=hostile)
@settings(max_examples=50, deadline=None)
def test_valid_target_keeps_invariants(ref, case):
    field = Inputs(case, (ref, ref)).flows[0]
    out = _run(lambda: valid_target(field))
    if out is not None:
        assert out.shape == field.shape and out.dtype == bool
        if ref == "t":
            assert not (out & ~field.mask).any()


@pytest.mark.parametrize("ref", "st")
@given(case=hostile)
@settings(max_examples=50, deadline=None)
def test_get_padding_is_four_python_ints(ref, case):
    field = Inputs(case, (ref, ref)).flows[0]
    out = _run(lambda: get_padding(field))
    if out is not None:
        assert isinstance(out, tuple) and len(out) == 4
        assert all(type(side) is int and side >= 0 for side in out)
        if not field.mask.any():
            assert out == (0, 0, 0, 0)


@pytest.mark.parametrize("ref", "st")
@given(case=hostile)
@settings(max_examples=50, deadline=None)
def test_fit_matrix_is_finite(ref, case):
    field = Inputs(case, (ref, ref)).flows[0]
    out = _run(lambda: fit_matrix(field))
    if out is not None:
        transform, rms = out
        assert isinstance(transform, AffineTransform) and isinstance(rms, float)
        assert np.isfinite(transform.matrix).all() and np.isfinite(rms) and rms >= 0.0


@pytest.mark.parametrize("ref", "st")
@given(case=hostile, max_magnitude=st.sampled_from([None, 1e-300, 1.0, 60.0, 1.7e308]))
@settings(max_examples=50, deadline=None)
def test_colorwheel_keeps_invariants(ref, case, max_magnitude):
    field = Inputs(case, (ref, ref)).flows[0]
    out = _run(lambda: render_colorwheel(field, max_magnitude))
    if out is not None:
        assert out.shape == (*field.shape, 3) and out.dtype == np.uint8
        assert not out[~field.mask].any()  # invalid cells are black
        assert (out[field.mask].max(axis=-1) == 255).all()  # valid cells have full value


@pytest.mark.parametrize("ref", "st")
@given(case=hostile, stride=st.integers(1, 5))
@settings(max_examples=50, deadline=None)
def test_arrows_keep_invariants(ref, case, stride):
    field = Inputs(case, (ref, ref)).flows[0]
    out = _run(lambda: render_arrows(field, stride))
    if out is not None:
        assert out.shape == (*field.shape, 3) and out.dtype == np.uint8
        colors = {tuple(pixel) for pixel in out.reshape(-1, 3).tolist()}
        assert colors <= {(255, 255, 255), ARROW_COLOR, ORIGIN_DOT_COLOR}
        dots = np.argwhere((out == ORIGIN_DOT_COLOR).all(axis=-1))
        assert all(y % stride == x % stride == stride // 2 for y, x in dots)
        assert all(field.mask[y, x] for y, x in dots)


@pytest.mark.parametrize("ref", "st")
@given(angle=st.floats(0.0, 2.0 * np.pi), magnitude=st.sampled_from([1e18, 1e300]))
@settings(max_examples=10, deadline=None)
def test_huge_arrow_renders_fast(ref, angle, magnitude):
    # Each arrow is clipped to the image before it is drawn, so a segment
    # of 1e300 px costs no more than one across the frame.
    shape = (540, 960)
    vectors = np.zeros((*shape, 2))
    vectors[270, 480] = magnitude * np.cos(angle), magnitude * np.sin(angle)
    mask = np.zeros(shape, dtype=bool)
    mask[270, 480] = True
    field = FlowField(vectors, ref, mask)
    start = time.perf_counter()
    image = render_arrows(field)
    assert time.perf_counter() - start < 0.5
    assert (image == ARROW_COLOR).all(axis=-1).sum() >= min(shape) // 2 - 1
