"""Interpolation kernel tests against hand values and a brute-force oracle.

The kernels cut their points into `interp._BLOCK`-point blocks themselves,
so an oracle that sums block by block cuts the same chunks from the whole
point array.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flowfield.interp
from flowfield import FlowError, bilinear_sample, grid_from_unstructured_data
from flowfield.core import _points
from flowfield.interp import _BLOCK, WEIGHT_THRESHOLD, _blend, _corners, masked_bilinear_sample

from conftest import splat_bruteforce


def splat_four_pass(positions, values, shape):
    """The splat as four masked corner passes per block into unpadded accumulators.

    Kept as an independent bit-for-bit oracle of `grid_from_unstructured_data`.
    It cuts the points into the splat's chunks of `interp._BLOCK` (read at
    call time, so a patched size applies), and each chunk adds its corners
    (0, 0), (1, 0), (0, 1), (1, 1) in turn with `np.add.at`, which adds in
    sample order. A `bincount` per chunk and corner would sum the chunk's
    terms before adding them, which rounds differently.
    """
    h, w = shape
    pts = np.asarray(positions, dtype=np.float64).reshape(-1, 2)
    vals = np.asarray(values, dtype=np.float64)
    squeeze = vals.ndim == 1
    if squeeze:
        vals = vals[:, None]
    n_channels = vals.shape[1]
    weight_acc = np.zeros(h * w)
    value_acc = np.zeros((n_channels, h * w))
    block = flowfield.interp._BLOCK
    for start in range(0, len(pts), block):
        x, y = pts[start : start + block].T
        chunk = vals[start : start + block]
        keep = (x >= -1.0) & (x <= w) & (y >= -1.0) & (y <= h)
        x, y, chunk = x[keep], y[keep], chunk[keep]
        x0 = np.floor(x).astype(np.intp)
        y0 = np.floor(y).astype(np.intp)
        fx = x - x0
        fy = y - y0
        for dx, dy, corner_w in (
            (0, 0, (1.0 - fx) * (1.0 - fy)),
            (1, 0, fx * (1.0 - fy)),
            (0, 1, (1.0 - fx) * fy),
            (1, 1, fx * fy),
        ):
            cx = x0 + dx
            cy = y0 + dy
            inside = (cx >= 0) & (cx < w) & (cy >= 0) & (cy < h)
            lin = cy[inside] * w + cx[inside]
            contrib = corner_w[inside]
            np.add.at(weight_acc, lin, contrib)
            for c in range(n_channels):
                np.add.at(value_acc[c], lin, contrib * chunk[inside, c])
    mask = weight_acc > WEIGHT_THRESHOLD
    out = np.zeros((h * w, n_channels))
    np.divide(value_acc.T, weight_acc[:, None], out=out, where=mask[:, None])
    out = out.reshape(h, w, n_channels)
    if squeeze:
        out = out[..., 0]
    return out, mask.reshape(h, w)


class TestBilinearSample:
    def test_constant_grid_everywhere(self):
        grid = np.full((3, 5), 7.0)
        pts = [[0.0, 0.0], [1.3, 1.7], [4.0, 2.0], [-10.0, 50.0]]
        values, in_bounds = bilinear_sample(grid, pts)
        assert np.allclose(values, 7.0, atol=1e-12)
        assert list(in_bounds) == [True, True, True, False]

    def test_ramp_midpoint(self):
        values, _ = bilinear_sample(np.array([[0.0, 1.0]]), [[0.5, 0.0]])
        assert values[0] == pytest.approx(0.5, abs=1e-12)

    def test_four_corner_average(self):
        values, _ = bilinear_sample(np.array([[0.0, 1.0], [2.0, 3.0]]), [[0.5, 0.5]])
        assert values[0] == pytest.approx(1.5, abs=1e-12)

    def test_clamping_is_total_and_flagged(self):
        grid = np.arange(6, dtype=float).reshape(2, 3)
        values, in_bounds = bilinear_sample(grid, [[-5.0, 0.0], [10.0, 10.0]])
        assert values[0] == grid[0, 0]
        assert values[1] == grid[-1, -1]
        assert not in_bounds.any()

    def test_boundary_tolerance(self):
        grid = np.zeros((2, 2))
        _, in_bounds = bilinear_sample(grid, [[1.0 + 1e-10, 0.0], [1.0 + 1e-6, 0.0]])
        assert in_bounds[0] and not in_bounds[1]

    def test_multichannel_values(self):
        grid = np.dstack([np.ones((2, 2)), np.full((2, 2), 3.0)])
        values, _ = bilinear_sample(grid, [[0.5, 0.5]])
        assert values.shape == (1, 2)
        assert np.allclose(values, [[1.0, 3.0]])

    @given(
        a=st.floats(-5, 5),
        b=st.floats(-2, 2),
        c=st.floats(-2, 2),
        px=st.floats(0, 6),
        py=st.floats(0, 4),
    )
    @settings(max_examples=80, deadline=None)
    def test_exact_on_affine_functions(self, a, b, c, px, py):
        ys, xs = np.mgrid[0:5, 0:7]
        grid = a + b * xs + c * ys
        values, in_bounds = bilinear_sample(grid, [[px, py]])
        assert in_bounds[0]
        assert values[0] == pytest.approx(a + b * px + c * py, abs=1e-6)


class TestMaskedBilinearSample:
    def test_renormalizes_next_to_invalid_cells(self):
        data = np.array([[2.0, 100.0]])
        mask = np.array([[True, False]])
        values, valid = masked_bilinear_sample(data, mask, [[0.3, 0.0], [0.7, 0.0]])
        # 0.3: 70% weight on the valid cell -> renormalized to its value
        assert valid[0] and values[0] == pytest.approx(2.0)
        # 0.7: only 30% valid weight -> below the 0.5 threshold
        assert not valid[1] and values[1] == 0.0

    def test_all_valid_matches_plain_sampling(self):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(4, 5))
        pts = rng.uniform(0, 3, size=(10, 2))
        plain, _ = bilinear_sample(data, pts)
        masked, valid = masked_bilinear_sample(data, np.ones((4, 5), bool), pts)
        assert np.array_equal(plain, masked)
        assert valid.all()


def masked_sample_two_calls(data, mask, points):
    """`masked_bilinear_sample` as two `bilinear_sample` calls, data then mask.

    Kept as the bit-for-bit oracle of the fused version, which computes the
    corner indices and weights once per block of points and blends both
    over them.
    """
    arr = np.asarray(data, dtype=np.float64)
    valid_cells = np.asarray(mask).astype(bool)
    all_valid = bool(valid_cells.all())
    if all_valid:
        clean = arr
    else:
        clean = np.where(valid_cells if arr.ndim == 2 else valid_cells[..., None], arr, 0.0)
    values, in_bounds = bilinear_sample(clean, points)
    if all_valid:
        valid = in_bounds
    else:
        weight, _ = bilinear_sample(valid_cells.astype(np.float64), points)
        valid = in_bounds & (weight >= 0.5)
        scale = np.ones_like(weight)
        np.divide(1.0, weight, out=scale, where=valid)
        values = values * (scale[:, None] if values.ndim == 2 else scale)
    values[~valid] = 0.0
    return values, valid


class TestMaskedSampleFused:
    @given(
        seed=st.integers(0, 10_000),
        grid=st.sampled_from(["1x1", "1xW", "HxW"]),
        mask_kind=st.sampled_from(["partial", "full", "empty"]),
        channels=st.sampled_from([None, 1, 2, 3]),
    )
    @settings(max_examples=80, deadline=None)
    def test_bit_identical_to_two_call_oracle(self, seed, grid, mask_kind, channels):
        rng = np.random.default_rng(seed)
        h = 1 if grid != "HxW" else int(rng.integers(2, 9))
        w = 1 if grid == "1x1" else int(rng.integers(2, 9))
        shape = (h, w) if channels is None else (h, w, channels)
        data = rng.normal(size=shape)
        mask = {
            "partial": rng.uniform(size=(h, w)) < 0.6,
            "full": np.ones((h, w), bool),
            "empty": np.zeros((h, w), bool),
        }[mask_kind]
        data[~mask] = np.nan  # invalid cells may hold anything
        # Up to two cells beyond every edge, so some points are out of bounds.
        points = rng.uniform((-2.0, -2.0), (w + 1.0, h + 1.0), size=(40, 2))
        points[:5] = rng.integers((0, 0), (w, h), size=(5, 2))  # on the lattice
        got, got_valid = masked_bilinear_sample(data, mask, points)
        want, want_valid = masked_sample_two_calls(data, mask, points)
        assert got.shape == want.shape
        assert np.array_equal(got_valid, want_valid)
        assert got.tobytes() == want.tobytes()


def blend_broadcast(rows, index, weight):
    """`interp._blend` as one broadcast expression over the channel axis.

    Kept as the bit-for-bit oracle of the per-channel loop that replaced it.
    """
    rows = rows[:, None] if rows.ndim == 1 else rows
    return (
        np.take(rows, index[0], axis=0) * weight[0][:, None]
        + np.take(rows, index[1], axis=0) * weight[1][:, None]
        + np.take(rows, index[2], axis=0) * weight[2][:, None]
        + np.take(rows, index[3], axis=0) * weight[3][:, None]
    )


class TestBlendPerChannel:
    @pytest.mark.parametrize("channels", [None, 1, 2, 3])
    @pytest.mark.parametrize("seed", range(3))
    def test_bit_identical_to_broadcast(self, channels, seed):
        rng = np.random.default_rng(seed)
        h, w = 13, 17
        if channels is None:
            rows = rng.uniform(size=h * w) < 0.6  # a bool mask, as the coverage blends it
        else:
            rows = rng.normal(size=(h * w, channels)) * rng.choice([1e-300, 1.0, 1e300], (h * w, 1))
            rows[rng.uniform(size=rows.shape) < 0.2] = -0.0
        points = rng.uniform(-1.0, (w, h), size=(2000, 2))
        points[:200] = rng.integers((0, 0), (w, h), size=(200, 2))  # on the lattice
        index, weight, _ = _corners(_points(points), h, w)
        got = _blend(rows, index, weight)
        want = blend_broadcast(rows, index, weight)
        if channels is None:
            want = want[:, 0]
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestSignOfZero:
    """The blend works channel by channel on real weights, so -0.0 stays -0.0.

    A blend over complex channel pairs would multiply (-0.0, v) by (w, 0)
    and give +0.0; only the bytes show the difference.
    """

    @pytest.mark.parametrize("channels", [1, 2, 3])
    @pytest.mark.parametrize("sampler", ["plain", "masked-full", "masked-partial"])
    def test_negative_zero_survives(self, channels, sampler):
        cell = np.array([-0.0, -1.5, -0.0])[:channels]
        data = np.tile(cell, (2, 3, 1))
        mask = np.ones((2, 3), bool)
        if sampler == "masked-partial":
            mask[:, 2] = False
            data[:, 2] = np.nan
        # Points whose whole stencil lies on the four left cells, corners included.
        rng = np.random.default_rng(channels)
        points = rng.uniform((0.0, 0.0), (0.999, 1.0), size=(50, 2))
        points[:4] = [[0.0, 0.0], [0.0, 1.0], [0.5, 0.0], [0.999, 1.0]]
        if sampler == "plain":
            values, valid = bilinear_sample(data, points)
        else:
            values, valid = masked_bilinear_sample(data, mask, points)
        assert valid.all()
        assert values.shape == (50, channels)
        assert np.signbit(values).all()
        assert np.array_equal(values[:, 0], np.full(50, -0.0))

    @pytest.mark.parametrize("channels", [1, 2, 3])
    def test_negative_zero_survives_across_blocks(self, channels):
        # A partial mask, so every block rescales its values, and points on
        # both sides of the mask so every block also zeroes some rows.
        cell = np.array([-0.0, -1.5, -0.0])[:channels]
        data = np.tile(cell, (4, 5, 1))
        mask = np.ones((4, 5), bool)
        mask[:, 3:] = False
        data[~mask] = np.nan
        n = 3 * _BLOCK + 7
        rng = np.random.default_rng(channels)
        points = rng.uniform((0.0, 0.0), (1.999, 3.0), size=(n, 2))
        points[1::4] = rng.uniform((3.0, 0.0), (4.0, 3.0), size=(len(points[1::4]), 2))
        values, valid = masked_bilinear_sample(data, mask, points)
        kept = points[:, 0] < 2.0
        assert np.array_equal(valid, kept)
        assert np.signbit(values[kept]).all()
        assert np.array_equal(values[kept, 0], np.full(np.count_nonzero(kept), -0.0))
        assert not np.signbit(values[~kept]).any()
        assert not values[~kept].any()


class TestSplat:
    def test_single_sample_on_lattice_point(self):
        grid, mask = grid_from_unstructured_data([[2.0, 3.0]], [5.0], (5, 6))
        assert grid[3, 2] == 5.0
        assert mask[3, 2]
        assert mask.sum() == 1
        assert np.count_nonzero(grid) == 1

    def test_center_sample_spreads_to_four_cells(self):
        grid, mask = grid_from_unstructured_data([[0.5, 0.5]], [1.0], (2, 2))
        assert np.allclose(grid, 1.0)
        assert mask.all()

    def test_coincident_samples_average(self):
        grid, mask = grid_from_unstructured_data([[0.0, 0.0]] * 2, [2.0, 4.0], (2, 2))
        assert grid[0, 0] == pytest.approx(3.0)
        assert mask[0, 0]

    def test_far_outside_samples_dropped(self):
        grid, mask = grid_from_unstructured_data(
            [[-1.5, 0.0], [0.0, 5.1]], [9.0, 9.0], (4, 4)
        )
        assert not mask.any()
        assert np.count_nonzero(grid) == 0

    def test_lattice_identity_placement(self):
        # One sample per cell, exactly on the lattice: splat is the identity
        # and sampling back returns the originals exactly.
        rng = np.random.default_rng(1)
        h, w = 4, 5
        values = rng.normal(size=(h * w, 3))
        ys, xs = np.mgrid[0:h, 0:w]
        positions = np.column_stack([xs.ravel(), ys.ravel()]).astype(float)
        grid, mask = grid_from_unstructured_data(positions, values, (h, w))
        assert mask.all()
        assert np.array_equal(grid.reshape(-1, 3), values)
        back, _ = bilinear_sample(grid, positions)
        assert np.array_equal(back, values)

    def test_constant_reproduction(self):
        rng = np.random.default_rng(2)
        positions = rng.uniform(-1, 7, size=(40, 2))
        grid, mask = grid_from_unstructured_data(positions, np.full(40, 3.25), (6, 6))
        assert np.allclose(grid[mask], 3.25, atol=1e-9)

    def test_grazing_cells_are_masked_out(self):
        # Cell 0 gets weight 1e-6, below the coverage threshold.
        grid, mask = grid_from_unstructured_data([[0.999999, 0.0]], [1.0], (1, 2))
        assert not mask[0, 0] and grid[0, 0] == 0.0
        assert mask[0, 1]

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_matches_bruteforce_oracle(self, seed):
        rng = np.random.default_rng(seed)
        h, w = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        n = int(rng.integers(0, 21))
        positions = rng.uniform((-2.0, -2.0), (w + 1.0, h + 1.0), size=(n, 2))
        values = rng.normal(size=(n, 2))
        got, got_mask = grid_from_unstructured_data(positions, values, (h, w))
        want, want_mask = splat_bruteforce(positions, values, (h, w))
        assert np.array_equal(got_mask, want_mask)
        assert np.allclose(got, want, atol=1e-6)


class TestSplatInputContract:
    # Non-finite input used to land NaN in mask-true cells (values) or be
    # dropped silently (positions); it is rejected instead.
    @pytest.mark.parametrize(
        "positions, values",
        [([[np.nan, 0.0]], [1.0]), ([[0.0, 0.0]], [np.nan])],
        ids=["nan-position", "nan-value"],
    )
    def test_bad_samples_rejected(self, positions, values):
        with pytest.raises(FlowError):
            grid_from_unstructured_data(positions, values, (2, 2))

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_overflowing_sum_rejected(self, sign):
        # Two finite values near the float64 limit sum to inf in one cell,
        # within one corner's bincount or across two corners' sums.
        for positions in ([[0.0, 0.0]] * 2, [[0.0, 0.0], [-0.5, 0.0]]):
            with pytest.raises(FlowError, match="overflow"):
                grid_from_unstructured_data(positions, [sign * 1.5e308] * 2, (1, 1))

    def test_near_limit_values_that_fit_pass(self):
        grid, mask = grid_from_unstructured_data([[0.0, 0.0]], [1.5e308], (1, 1))
        assert mask[0, 0] and grid[0, 0] == 1.5e308

    def test_zero_samples_keep_channel_count(self):
        grid, mask = grid_from_unstructured_data(np.zeros((0, 2)), np.zeros((0, 4)), (2, 3))
        assert grid.shape == (2, 3, 4)
        assert not mask.any()

    def test_value_rows_must_match_positions(self):
        with pytest.raises(FlowError):
            grid_from_unstructured_data([[0.0, 0.0], [1.0, 1.0]], [[1.0, 2.0]], (2, 2))


def _edge_case(name):
    """(positions, values, shape) for one splat edge case."""
    rng = np.random.default_rng(sum(map(ord, name)))
    if name == "band-edges":
        h, w = 4, 6
        positions = [
            [-1.0, 1.5], [w, 2.25], [2.5, -1.0], [3.75, h],
            [-1.0, -1.0], [w, h], [-1.0, h], [w, -1.0],
            [-0.5, 1.0], [w - 0.5, h - 0.25],
        ]
        return positions, rng.normal(size=(len(positions), 2)), (h, w)
    if name in ("1x1", "1xW"):
        shape = (1, 1) if name == "1x1" else (1, 7)
        positions = rng.uniform(-1.5, shape[1] + 0.5, size=(30, 2))
        positions[:, 1] = rng.uniform(-1.5, 1.5, size=30)
        return positions, rng.normal(size=(30, 2)), shape
    if name == "none-kept":
        positions = [[-1.5, 0.0], [0.0, -1.0 - 1e-12], [9.0, 0.0], [2.0, 5.5]]
        return positions, rng.normal(size=(4, 2)), (5, 8)
    if name == "dropped-and-kept":
        positions = rng.uniform(-4.0, 12.0, size=(200, 2))
        return positions, rng.normal(size=(200, 2)), (6, 9)
    channels = {"C=1": None, "C=4": 4}[name]
    positions = rng.uniform(-1.0, 7.0, size=(80, 2))
    values = rng.normal(size=80 if channels is None else (80, channels))
    return positions, values, (6, 7)


class TestSplatEdgeCases:
    @pytest.mark.parametrize(
        "name",
        ["band-edges", "1x1", "1xW", "none-kept", "dropped-and-kept", "C=1", "C=4"],
    )
    def test_matches_oracles(self, name):
        positions, values, shape = _edge_case(name)
        got, got_mask = grid_from_unstructured_data(positions, values, shape)
        old, old_mask = splat_four_pass(positions, values, shape)
        want, want_mask = splat_bruteforce(positions, values, shape)
        assert got.shape == old.shape == want.shape
        assert np.array_equal(got_mask, old_mask)
        assert got.tobytes() == old.tobytes()
        assert np.array_equal(got_mask, want_mask)
        assert np.allclose(got, want, atol=1e-12)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_to_four_pass_oracle(self, seed):
        rng = np.random.default_rng(seed)
        h, w = int(rng.integers(1, 12)), int(rng.integers(1, 12))
        n = int(rng.integers(0, 80))
        positions = rng.uniform((-2.0, -2.0), (w + 1.0, h + 1.0), size=(n, 2))
        values = rng.normal(size=(n, int(rng.integers(1, 5))))
        got, got_mask = grid_from_unstructured_data(positions, values, (h, w))
        old, old_mask = splat_four_pass(positions, values, (h, w))
        assert np.array_equal(got_mask, old_mask)
        assert got.tobytes() == old.tobytes()


BLOCK_SIZES = [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7]


def _block_edge_points(rng, n, h, w):
    """n points over and around an (h, w) grid, some on the lattice and on band edges.

    The points on both sides of every block edge lie out of band: the first
    far left of the grid, the second below it.
    """
    points = rng.uniform((-2.0, -2.0), (w + 1.0, h + 1.0), size=(n, 2))
    points[::7] = rng.integers((0, 0), (w, h), size=(len(points[::7]), 2))
    points[3::11] = [-1.0, h]  # the corner of the splat's retention band
    edges = np.arange(_BLOCK, n, _BLOCK)
    points[edges - 1] = [-3.5, 1.0]
    points[edges] = [1.0, h + 2.5]
    return points


class TestBlockBoundaries:
    """Point counts around the block size, against the whole-array oracles, byte for byte."""

    @pytest.mark.parametrize("channels", [None, 1, 2, 3])
    @pytest.mark.parametrize("n", BLOCK_SIZES)
    def test_splat_matches_four_pass(self, n, channels):
        rng = np.random.default_rng(n + 10 * (channels or 0))
        h, w = 29, 41
        positions = _block_edge_points(rng, n, h, w)
        values = rng.normal(size=n if channels is None else (n, channels))
        values[::5] = -0.0
        got, got_mask = grid_from_unstructured_data(positions, values, (h, w))
        want, want_mask = splat_four_pass(positions, values, (h, w))
        assert got.shape == want.shape
        assert np.array_equal(got_mask, want_mask)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("mask_kind", ["full", "partial", "empty"])
    @pytest.mark.parametrize("channels", [None, 1, 2, 3])
    @pytest.mark.parametrize("n", BLOCK_SIZES)
    def test_masked_sample_matches_two_calls(self, n, channels, mask_kind):
        rng = np.random.default_rng(n + 10 * (channels or 0))
        h, w = 23, 37
        data = rng.normal(size=(h, w) if channels is None else (h, w, channels))
        data[::3, ::2] = -0.0
        mask = {
            "full": np.ones((h, w), bool),
            "partial": rng.uniform(size=(h, w)) < 0.6,
            "empty": np.zeros((h, w), bool),
        }[mask_kind]
        data[~mask] = np.nan  # invalid cells may hold anything
        points = _block_edge_points(rng, n, h, w)
        got, got_valid = masked_bilinear_sample(data, mask, points)
        want, want_valid = masked_sample_two_calls(data, mask, points)
        assert got.shape == want.shape
        assert np.array_equal(got_valid, want_valid)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("second", [[0.0, 0.0], [-0.5, 0.0]], ids=["same-corner", "next-corner"])
    def test_overflow_across_blocks_rejected(self, sign, second):
        # The two near-limit terms of cell (0, 0) lie in different blocks.
        positions = np.full((_BLOCK + 1, 2), 5.0)
        positions[0] = [0.0, 0.0]
        positions[_BLOCK] = second
        values = np.zeros(_BLOCK + 1)
        values[[0, _BLOCK]] = sign * 1.5e308
        with pytest.raises(FlowError, match="overflow"):
            grid_from_unstructured_data(positions, values, (3, 9))


class TestTransientMemory:
    """Blocked kernels keep their tracemalloc peak near the size of what they return.

    On a 300x400 grid (15 blocks) with two channels, the whole-array kernels
    peaked at 6.7-8.2 (sample) and 8.5 (splat) times their output; the
    blocked ones at 1.8-2.8 and 4.5.
    """

    h, w = 300, 400

    def _points_and_data(self):
        rng = np.random.default_rng(0)
        ys, xs = np.mgrid[0 : self.h, 0 : self.w].astype(float)
        # A smooth warp that carries some points off the grid.
        points = np.column_stack(
            [(1.05 * xs - 5.0 + 3.0 * np.sin(ys / 17.0)).ravel(), (0.97 * ys + 4.0).ravel()]
        )
        return rng, points, rng.normal(size=(self.h, self.w, 2))

    @staticmethod
    def _peak_over_output(kernel):
        tracemalloc.start()
        try:
            out = kernel()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / sum(array.nbytes for array in out)

    @pytest.mark.parametrize("mask_kind", ["full", "partial"])
    def test_masked_sample_peak(self, mask_kind):
        rng, points, data = self._points_and_data()
        mask = np.ones((self.h, self.w), bool)
        if mask_kind == "partial":
            mask = rng.uniform(size=mask.shape) < 0.9
        ratio = self._peak_over_output(lambda: masked_bilinear_sample(data, mask, points))
        assert ratio < 4.0

    def test_splat_peak(self):
        _, points, data = self._points_and_data()
        values = data.reshape(-1, 2)
        ratio = self._peak_over_output(
            lambda: grid_from_unstructured_data(points, values, (self.h, self.w))
        )
        assert ratio < 6.0
