"""Which kernel entry each warp takes, and the one far-end rule that feeds it.

The public kernels, `masked_bilinear_sample` and
`grid_from_unstructured_data`, copy, scan and check caller data. Everything
the library holds goes through the private entries `interp._sample` and
`interp._splat`. Only `apply` takes caller data; it checks the data of a
pull itself, so every op but a source flow's `apply` must run with the
public kernels replaced by ones that raise, even on fields with NaN, ±inf
and 1e308 under their false bits.
"""

import itertools

import numpy as np
import pytest

import flowfield.interp
import flowfield.ops
from flowfield import (
    FlowField,
    combine,
    fit_matrix,
    get_padding,
    invert,
    render_arrows,
    resize,
    switch_reference,
    track,
    valid_source,
    valid_target,
)
from flowfield.interp import _OFF_GRID
from flowfield.ops import _far_ends

SHAPE = (23, 31)
JUNK = np.array([np.nan, np.inf, -np.inf, 1e308])
REFERENCES = ["s", "t"]


def junk_field(reference, seed, valid_share=0.8):
    """A small random flow whose invalid cells cycle through NaN, ±inf and 1e308."""
    rng = np.random.default_rng(seed)
    vectors = rng.uniform(-3.0, 3.0, (*SHAPE, 2))
    vectors[0, 0] = -0.0, 5e-324
    mask = rng.random(SHAPE) < valid_share
    mask[0, 0] = True
    vectors[~mask] = np.resize(JUNK, (np.count_nonzero(~mask), 2))
    return FlowField(vectors, reference, mask)


@pytest.fixture
def public_kernels_raise(monkeypatch):
    """Replace the public kernels, wherever `ops` and `interp` bind them, by ones that raise."""

    def refuse(*args, **kwargs):
        raise AssertionError("library-held data entered a checking entry point")

    for module in (flowfield.ops, flowfield.interp):
        for name in ("masked_bilinear_sample", "grid_from_unstructured_data"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)


POINTS = np.random.default_rng(1).uniform(-3.0, 34.0, (60, 2))

SINGLE_FLOW_OPS = {
    "track": lambda f: track(f, POINTS),
    "resize": lambda f: resize(f, (1.7, 0.6)),
    "valid_source": valid_source,
    "valid_target": valid_target,
    "switch_reference": switch_reference,
    "invert": invert,
    "get_padding": get_padding,
    "fit_matrix": fit_matrix,
    "render_arrows": lambda f: render_arrows(f, stride=3),
}


class TestLibraryDataTakesThePrivateEntries:
    @pytest.mark.parametrize("reference", REFERENCES)
    @pytest.mark.parametrize("op", list(SINGLE_FLOW_OPS))
    def test_single_flow_op(self, public_kernels_raise, op, reference):
        SINGLE_FLOW_OPS[op](junk_field(reference, seed=2))

    @pytest.mark.parametrize(
        "mode, refs", itertools.product((1, 2, 3), itertools.product(REFERENCES, repeat=3))
    )
    def test_combine_branch(self, public_kernels_raise, mode, refs):
        first, second, out = refs
        combine(junk_field(first, seed=3), junk_field(second, seed=4), mode, out)

    def test_apply_pulls_privately_and_splats_publicly(self, public_kernels_raise):
        data_mask = np.random.default_rng(5).random(SHAPE) < 0.7
        data = np.where(data_mask[..., None], 1.0, np.resize(JUNK, (*SHAPE, 3)))
        flowfield.ops.apply(junk_field("t", seed=5), data, data_mask)
        with pytest.raises(AssertionError, match="checking entry point"):
            flowfield.ops.apply(junk_field("s", seed=5), data, data_mask)


class TestFarEnds:
    @pytest.mark.parametrize("reference", REFERENCES)
    @pytest.mark.parametrize("narrower", [False, True], ids=["field-mask", "kept"])
    @pytest.mark.parametrize(
        "rows, cols",
        [
            (slice(None), slice(None)),
            (slice(2, None, 3), slice(1, None, 4)),
            (slice(5, 9), slice(7, 8)),
        ],
        ids=["whole", "lattice", "column"],
    )
    def test_one_rule(self, reference, narrower, rows, cols):
        field = junk_field(reference, seed=6, valid_share=0.6)
        kept = field.mask & (np.random.default_rng(7).random(SHAPE) < 0.7) if narrower else None
        ends = np.stack(_far_ends(field, rows, cols, kept), axis=-1)

        gy, gx = np.mgrid[: SHAPE[0], : SHAPE[1]].astype(np.float64)
        vectors = field.vectors[rows, cols]
        step = np.add if reference == "s" else np.subtract
        with np.errstate(invalid="ignore"):
            expected = np.stack([step(gx[rows, cols], vectors[..., 0]),
                                 step(gy[rows, cols], vectors[..., 1])], axis=-1)
        on = (field.mask if kept is None else kept)[rows, cols]
        assert ends.shape == vectors.shape
        assert np.array_equal(ends[on].view(np.int64), expected[on].view(np.int64))
        assert (ends[~on] == _OFF_GRID).all()


PLANE_OPS = {
    "track": lambda f: track(f, POINTS),
    "resize": lambda f: resize(f, (1.7, 0.6)),
    # Only a target flow's valid source and a source flow's valid target splat.
    "valid_source": lambda f: valid_source(junk_field("t", seed=8)),
    "valid_target": lambda f: valid_target(junk_field("s", seed=8)),
    "switch_reference": switch_reference,
    "invert": invert,
    "apply": lambda f: flowfield.ops.apply(f, np.ones((*SHAPE, 3)), f.mask),
    "combine-1": lambda f: combine(f, junk_field("t", seed=9), 1, "s"),
    "combine-2": lambda f: combine(junk_field("s", seed=9), f, 2, "t"),
    "combine-3": lambda f: combine(f, junk_field("s", seed=9), 3, "t"),
    "masked_bilinear_sample": lambda f: flowfield.interp.masked_bilinear_sample(
        f.vectors, f.mask, POINTS
    ),
    "grid_from_unstructured_data": lambda f: flowfield.interp.grid_from_unstructured_data(
        POINTS, POINTS, SHAPE
    ),
}


class TestPointSourcesHandOverPlanes:
    """Every point source hands the kernels C-contiguous float64 (k,) planes of x and y.

    The kernels read each coordinate many times per block. Read through
    strided views of an interleaved (k, 2) array, those reads cost several
    times as much, so a refactor must not bring them back unnoticed.
    """

    @pytest.fixture
    def sources_seen(self, monkeypatch):
        seen = []

        def checked(points):
            def source(block):
                planes = points(block)
                assert len(planes) == 2
                for plane in planes:
                    assert plane.dtype == np.float64 and plane.shape == (block.stop - block.start,)
                    assert plane.flags.c_contiguous
                seen.append(block)
                return planes

            return source

        sample, splat = flowfield.interp._sample, flowfield.interp._splat

        def checked_sample(rows, mask, points, n):
            return sample(rows, mask, checked(points), n)

        def checked_splat(points, vals, h, w, negate=False):
            return splat(checked(points), vals, h, w, negate)

        for module in (flowfield.ops, flowfield.interp):
            monkeypatch.setattr(module, "_sample", checked_sample)
            monkeypatch.setattr(module, "_splat", checked_splat)
        return seen

    @pytest.mark.parametrize("block", [7, 40, None], ids=["7", "40", "default"])
    @pytest.mark.parametrize("reference", REFERENCES)
    @pytest.mark.parametrize("op", list(PLANE_OPS))
    def test_planes(self, sources_seen, monkeypatch, op, reference, block):
        if block is not None:
            monkeypatch.setattr(flowfield.interp, "_BLOCK", block)
        PLANE_OPS[op](junk_field(reference, seed=8))
        assert sources_seen
