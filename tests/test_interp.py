"""Interpolation kernel tests against hand values and a brute-force oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowfield import FlowError, bilinear_sample, grid_from_unstructured_data
from flowfield.interp import WEIGHT_THRESHOLD, masked_bilinear_sample

from conftest import splat_bruteforce


def splat_four_pass(positions, values, shape):
    """The splat as one masked pass per corner into unpadded accumulators.

    Kept as the bit-for-bit oracle of `grid_from_unstructured_data`: both
    add the same per-corner bincounts to each cell in the same order.
    """
    h, w = shape
    pts = np.asarray(positions, dtype=np.float64).reshape(-1, 2)
    vals = np.asarray(values, dtype=np.float64)
    squeeze = vals.ndim == 1
    if squeeze:
        vals = vals[:, None]
    n_channels = vals.shape[1]
    x, y = pts[:, 0], pts[:, 1]
    keep = (x >= -1.0) & (x <= w) & (y >= -1.0) & (y <= h)
    x, y, vals = x[keep], y[keep], vals[keep]
    x0 = np.floor(x).astype(np.intp)
    y0 = np.floor(y).astype(np.intp)
    fx = x - x0
    fy = y - y0
    weight_acc = np.zeros(h * w)
    value_acc = np.zeros((h * w, n_channels))
    for dx, dy, corner_w in (
        (0, 0, (1.0 - fx) * (1.0 - fy)),
        (1, 0, fx * (1.0 - fy)),
        (0, 1, (1.0 - fx) * fy),
        (1, 1, fx * fy),
    ):
        cx = x0 + dx
        cy = y0 + dy
        inside = (cx >= 0) & (cx < w) & (cy >= 0) & (cy < h)
        if not np.any(inside):
            continue
        lin = cy[inside] * w + cx[inside]
        contrib = corner_w[inside]
        weight_acc += np.bincount(lin, weights=contrib, minlength=h * w)
        for c in range(n_channels):
            value_acc[:, c] += np.bincount(
                lin, weights=contrib * vals[inside, c], minlength=h * w
            )
    mask = weight_acc > WEIGHT_THRESHOLD
    out = np.zeros((h * w, n_channels))
    np.divide(value_acc, weight_acc[:, None], out=out, where=mask[:, None])
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
