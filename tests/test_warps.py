"""The warps against the whole-grid expressions they replaced, bit for bit.

`_push`, `_pull`, `invert`, `switch_reference` and `apply` form the far ends
of the cells each kernel block asks for and send dropped cells off the
grid. The oracles below are whole-grid expressions, kept as
`blend_broadcast` is: a far-end grid built from `grid_coordinates` and the
masked vectors, with dropped cells outside the splat's retention band or at
-1 for the public sampler, and a negated copy of the vectors for `invert`.
The splat sums block by block, so its bits depend on the block size; the
kernels cut the blocks themselves, so the oracle's public splat of the
whole far-end grid sums exactly as the warps do.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flowfield.interp
import flowfield.ops
from flowfield import (
    FlowError,
    FlowField,
    Reference,
    apply,
    grid_coordinates,
    grid_from_unstructured_data,
    invert,
    switch_reference,
    valid_target,
    zeros,
)
from flowfield.core import _where_valid
from flowfield.interp import _BLOCK, masked_bilinear_sample
from flowfield.ops import _far_ends, _pull, _push

JUNK = np.array([np.nan, np.inf, -np.inf, 1e308, -0.0])
# Components sprinkled over lattice flows: signed zeros and subnormals,
# whose means over several samples can underflow to a signed zero.
TINY = np.array([-0.0, 5e-324, -5e-324, 1e-310, -1e-310])


def far_ends_grid(field):
    ends = grid_coordinates(field.shape)
    step = np.add if field.reference is Reference.SOURCE else np.subtract
    return step(ends, field.masked_vectors(), out=ends)


def push_grid(field, data, data_mask):
    kept = field.mask & data_mask
    ends = far_ends_grid(field)
    ends[~kept] = -3.0  # outside the retention band [-1, W] x [-1, H]
    # The public splat refuses junk; a dropped sample's value is never read.
    values = _where_valid(kept, data).reshape(kept.size, -1)
    return grid_from_unstructured_data(ends.reshape(-1, 2), values, field.shape)


def pull_grid(field, data, data_mask):
    ends = far_ends_grid(field)
    ends[~field.mask] = -1.0
    values, valid = masked_bilinear_sample(data, data_mask, ends.reshape(-1, 2))
    return values.reshape(data.shape), valid.reshape(field.shape)


def invert_negated(field):
    vectors, mask = push_grid(field, -field.vectors, field.mask)
    return FlowField(vectors, field.reference, mask)


def switch_oracle(field):
    vectors, mask = push_grid(field, field.vectors, field.mask)
    return FlowField(vectors, field.reference.opposite, mask)


def apply_oracle(field, data, data_mask):
    arr = np.asarray(data, dtype=np.float64)
    squeeze = arr.ndim == 2
    arr = arr[..., None] if squeeze else arr
    warp = push_grid if field.reference is Reference.SOURCE else pull_grid
    warped, mask = warp(field, arr, data_mask)
    return (warped[..., 0] if squeeze else warped), mask


def _outcome(op):
    """Bytes of every array the op returns, or "FlowError"; a warning fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            out = op()
        except FlowError:
            return "FlowError"
    if isinstance(out, FlowField):
        out = (out.vectors, out.mask, np.array(str(out.reference)))
    return [(array.shape, array.dtype, array.tobytes()) for array in out]


def _shape(rng, grid, block):
    small = block < _BLOCK
    if grid == "1x1":
        return 1, 1
    if grid == "1xW":  # one row cut into block-wide pieces
        return 1, block + int(rng.integers(1, 12 if small else 60))
    if grid == "Hx1":
        return int(rng.integers(2, 40)), 1
    w = int(rng.integers(2, 12)) if small else int(rng.integers(40, 200))
    rows = max(1, block // w)  # rows per block; a grid of two or three blocks
    return int(rng.integers(2 * rows, 3 * rows + 1)), w


def _mask(rng, shape, kind):
    if kind == "partial":
        return rng.uniform(size=shape) < rng.uniform(0.3, 0.95)
    if kind == "sparse":
        return rng.uniform(size=shape) < 0.1
    return np.full(shape, kind == "full")


def _values(rng, shape, scale):
    if scale == "lattice":
        # Integer motion lands many far ends on one lattice point.
        values = rng.integers(-2, 3, size=shape).astype(float)
        tiny = rng.uniform(size=shape) < 0.3
        values[tiny] = rng.choice(TINY, size=np.count_nonzero(tiny))
        return values
    values = rng.uniform(-1.0, 1.0, size=shape) * scale
    values[rng.uniform(size=shape) < 0.1] = -0.0
    return values


def _with_junk(values, mask):
    keep = mask if values.ndim == 2 else mask[..., None]
    return np.where(keep, values, np.resize(JUNK, values.shape))


class Case:
    """A flow with junk under false bits, and grid data with and without junk."""

    def __init__(self, case):
        rng = np.random.default_rng(case["seed"])
        self.block = case["block"] or _BLOCK
        h, w = _shape(rng, case["grid"], self.block)
        mask = _mask(rng, (h, w), case["mask"])
        vectors = _values(rng, (h, w, 2), case["scale"])
        self.field = FlowField(_with_junk(vectors, mask), case["ref"], mask)
        channels = int(rng.integers(1, 4))
        self.data = _values(rng, (h, w, channels), case["scale"])
        self.data_mask = _mask(rng, (h, w), case["data_mask"])
        self.junk_data = _with_junk(self.data, self.data_mask)
        self.clean_data = _where_valid(self.data_mask, self.data)

    def same(self, got, want):
        """Both ops run with the case's kernel block size."""
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(flowfield.interp, "_BLOCK", self.block)
            return _outcome(got) == _outcome(want)


warp_cases = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**32 - 1),
        "grid": st.sampled_from(["1x1", "1xW", "Hx1", "rows", "rows"]),
        # None keeps `_BLOCK`; the small sizes cut short rows into pieces.
        "block": st.sampled_from([None, None, 1, 3, 7]),
        "scale": st.sampled_from(["lattice", "lattice", 0.5, 2.0, 1e6, 1e154, 1.7e308]),
        "mask": st.sampled_from(["full", "partial", "partial", "sparse", "empty"]),
        "data_mask": st.sampled_from(["full", "partial", "sparse"]),
        "ref": st.sampled_from("st"),
    }
)


class TestWarpsMatchWholeGridOracles:
    @given(case=warp_cases)
    @settings(max_examples=60, deadline=None)
    def test_push(self, case):
        c = Case(case)
        assert c.same(
            lambda: _push(c.field, c.junk_data, c.data_mask),
            lambda: push_grid(c.field, c.junk_data, c.data_mask),
        )

    @given(case=warp_cases)
    @settings(max_examples=60, deadline=None)
    def test_pull_of_clean_data(self, case):
        c = Case(case)
        assert c.same(
            lambda: _pull(c.field, c.clean_data, c.data_mask),
            lambda: pull_grid(c.field, c.clean_data, c.data_mask),
        )

    @given(case=warp_cases)
    @settings(max_examples=60, deadline=None)
    def test_invert(self, case):
        c = Case(case)
        assert c.same(lambda: invert(c.field), lambda: invert_negated(c.field))

    @given(case=warp_cases)
    @settings(max_examples=60, deadline=None)
    def test_switch_reference(self, case):
        c = Case(case)
        assert c.same(lambda: switch_reference(c.field), lambda: switch_oracle(c.field))

    @given(case=warp_cases, channels=st.sampled_from([None, 0, 1, 3]))
    @settings(max_examples=60, deadline=None)
    def test_apply_to_caller_data(self, case, channels):
        c = Case(case)
        data = c.junk_data[..., 0] if channels is None else c.junk_data[..., :channels]
        assert c.same(
            lambda: apply(c.field, data, c.data_mask),
            lambda: apply_oracle(c.field, data, c.data_mask),
        )

    @given(case=warp_cases.map(lambda case: {**case, "ref": "s"}))
    @settings(max_examples=60, deadline=None)
    def test_valid_target_is_the_mask_of_a_splat_of_ones(self, case):
        c = Case(case)
        ones = np.ones(c.field.shape)
        assert c.same(
            lambda: (valid_target(c.field),),
            lambda: (_push(c.field, ones, c.field.mask)[1],),
        )


class TestPushIsThePublicSplat:
    """`_push` equals the public splat of the whole far-end grid, byte for byte.

    Both hand the splat the cells in C order, with dropped ones off the
    grid, and the splat cuts its own blocks, whatever `_BLOCK` is.
    """

    @pytest.mark.parametrize("block", [1, 3, 7, None])
    @given(case=warp_cases)
    @settings(max_examples=30, deadline=None)
    def test_same_bytes(self, block, case):
        c = Case({**case, "block": block})
        kept = c.field.mask & c.data_mask
        values = _where_valid(kept, c.junk_data).reshape(kept.size, -1)

        def public():
            ends = np.stack(_far_ends(c.field, kept=kept), axis=-1).reshape(-1, 2)
            return grid_from_unstructured_data(ends, values, c.field.shape)

        assert c.same(lambda: _push(c.field, c.junk_data, c.data_mask), public)


class TestFarEndCost:
    """A warp forms at most 3·H·W far ends, whatever `_BLOCK` is.

    A block within one row forms only its own cells. Were every block to
    form the whole rows it touches, rows wider than a block would cost
    quadratically in W.
    """

    @pytest.mark.parametrize("block", [1, 3, 7])
    @pytest.mark.parametrize(
        "shape", [(1, 40), (5, 40), (9, 4), (3, 17)], ids=lambda hw: "%dx%d" % hw
    )
    @pytest.mark.parametrize("op", [switch_reference, invert], ids=lambda op: op.__name__)
    def test_bounded_by_grid_size(self, op, shape, block, monkeypatch):
        formed = []
        far_ends = flowfield.ops._far_ends

        def counted(*args, **kwargs):
            x, y = far_ends(*args, **kwargs)
            formed.append(x.size)
            return x, y

        monkeypatch.setattr(flowfield.ops, "_far_ends", counted)
        monkeypatch.setattr(flowfield.interp, "_BLOCK", block)
        op(zeros(shape))
        assert shape[0] * shape[1] <= sum(formed) <= 3 * shape[0] * shape[1]


class TestInvertSignOfZero:
    @pytest.mark.parametrize("ref", "st")
    @pytest.mark.parametrize("mask_kind", ["full", "partial"])
    def test_zero_flow_inverts_to_positive_zero(self, ref, mask_kind):
        field = zeros((7, 9), ref)
        if mask_kind == "partial":
            mask = np.random.default_rng(0).uniform(size=field.shape) < 0.7
            field = FlowField(field.vectors, ref, mask)
        out = invert(field)
        assert out.mask.any()
        assert not out.vectors.view(np.uint64).any()

    @pytest.mark.parametrize("ref", "st")
    def test_mean_that_underflows_keeps_the_sign_of_the_negated_sum(self, ref):
        # Two samples land on cell (0, 1) with weight 1 each; their y sum is
        # 5e-324, which halves to 0. Summing the negated values gives -0.0
        # there; negating the finished +0.0 mean would give +0.0.
        vectors = np.zeros((1, 3, 2))
        vectors[0, 0] = (1.0, 5e-324) if ref == "s" else (-1.0, -5e-324)
        field = FlowField(vectors, ref)
        out = invert(field)
        assert _outcome(lambda: out) == _outcome(lambda: invert_negated(field))
        assert out.mask[0, 1]
        assert np.signbit(out.vectors[0, 1, 1]) == (ref == "s")
