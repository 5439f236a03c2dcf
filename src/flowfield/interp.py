"""Interpolation primitives.

Two operations underpin every flow manipulation: reading a regular grid at
scattered continuous positions (bilinear sampling) and pushing scattered
values back onto a regular grid (inverse bilinear splatting: each value is
distributed over the four surrounding cells with the standard bilinear
corner weights, and every cell is finally divided by its accumulated
weight).

Scattered positions are plain (N, 2) arrays of (x, y) coordinates, checked
by `core._points`.

Both kernels are sequential and always deterministic, so a fixed seed pins
`verify-compose` byte for byte. Accumulation happens in double precision
regardless of input dtype, since division by small weight sums is the
dominant error source.

The splat sums into one accumulator with a row for the weight and one per
channel, over the grid plus a border (one cell before, two after) wide
enough for every corner of a retained sample, so no corner is masked. The
summation order is unchanged from a per-corner masked loop, and so is every
output bit. The thresholds are fixed constants, not parameters: a splatted
cell needs more than `WEIGHT_THRESHOLD` accumulated weight, and a position
within `OUT_OF_BOUNDS_TOL` of the grid counts as inside it.
"""

from __future__ import annotations

import numpy as np

from .core import FlowError, _points

__all__ = [
    "MASK_SAMPLE_THRESHOLD",
    "OUT_OF_BOUNDS_TOL",
    "WEIGHT_THRESHOLD",
    "bilinear_sample",
    "grid_from_unstructured_data",
    "masked_bilinear_sample",
]

# A cell touched only by vanishing weight tails carries amplified noise after
# normalization, so a splatted cell needs more accumulated weight than this.
WEIGHT_THRESHOLD = 1e-3

# Slack before a sample position counts as outside the grid.
OUT_OF_BOUNDS_TOL = 1e-9

# Sampled boolean data counts as set when the valid blend weight reaches 1/2.
MASK_SAMPLE_THRESHOLD = 0.5


def _channels_last(grid: np.ndarray) -> tuple[np.ndarray, bool]:
    """View (H, W) data as (H, W, 1); report whether a channel axis was added."""
    if grid.ndim == 2:
        return grid[..., None], True
    if grid.ndim == 3:
        return grid, False
    raise FlowError(f"grid must have shape (H, W) or (H, W, C), got {grid.shape}")


def _in_bounds(x: np.ndarray, y: np.ndarray, h: int, w: int) -> np.ndarray:
    """Positions within `OUT_OF_BOUNDS_TOL` of [0, W-1] x [0, H-1]."""
    tol = OUT_OF_BOUNDS_TOL
    return (x >= -tol) & (x <= w - 1 + tol) & (y >= -tol) & (y <= h - 1 + tol)


def _grid_rows(grid) -> tuple[np.ndarray, int, int, bool]:
    """View a non-empty (H, W) or (H, W, C) grid as (H*W, C) float64 rows.

    Returns the rows, H, W and whether a channel axis was added.
    """
    data, squeeze = _channels_last(np.asarray(grid, dtype=np.float64))
    h, w, n_channels = data.shape
    if h < 1 or w < 1:
        raise FlowError("grid must be non-empty")
    return data.reshape(h * w, n_channels), h, w, squeeze


def _corners(points, h: int, w: int):
    """Bilinear stencil of each point on an (H, W) grid.

    Returns the flat indices of the four surrounding cells, their weights
    (both in the order (0, 0), (1, 0), (0, 1), (1, 1)) and the in-bounds
    flag. Coordinates are clamped first, so every index is on the grid.
    """
    pts = _points(points)
    x, y = pts[:, 0], pts[:, 1]
    in_bounds = _in_bounds(x, y, h, w)

    # Formed in place: the clamped coordinates become the fractions and the
    # row index becomes the base index, with the arithmetic of the plain form.
    fx = np.clip(x, 0.0, w - 1.0)
    fy = np.clip(y, 0.0, h - 1.0)
    x0 = fx.astype(np.intp)  # truncation == floor for non-negative values
    base = fy.astype(np.intp)
    fx -= x0
    fy -= base
    x_step = x0 < w - 1  # a bool adds as 0 or 1
    y_step = np.where(base < h - 1, w, 0)
    base *= w
    base += x0

    w11 = fx * fy
    w10 = fy - w11
    w01 = fx - w11
    w00 = 1.0 - fx - w10
    below = base + y_step
    index = (base, base + x_step, below, below + x_step)
    return index, (w00, w01, w10, w11), in_bounds


def _blend(rows: np.ndarray, index, weight) -> np.ndarray:
    """(N, C) bilinear blend of (H*W, C) grid rows over a `_corners` stencil."""
    return (
        np.take(rows, index[0], axis=0) * weight[0][:, None]
        + np.take(rows, index[1], axis=0) * weight[1][:, None]
        + np.take(rows, index[2], axis=0) * weight[2][:, None]
        + np.take(rows, index[3], axis=0) * weight[3][:, None]
    )


def bilinear_sample(grid, points):
    """Read a regular grid at continuous positions.

    Parameters
    ----------
    grid : array_like, shape (H, W) or (H, W, C)
    points : array_like, shape (N, 2)
        Continuous (x, y) positions. Coordinates are clamped to the grid
        before sampling, so the operation is total. Positions outside
        [0, W-1] x [0, H-1] by more than `OUT_OF_BOUNDS_TOL` are flagged
        out of bounds (their clamped value is still returned).

    Returns
    -------
    values : ndarray, shape (N,) or (N, C) matching the grid rank
    in_bounds : ndarray of bool, shape (N,)
    """
    rows, h, w, squeeze = _grid_rows(grid)
    index, weight, in_bounds = _corners(points, h, w)
    values = _blend(rows, index, weight)
    if squeeze:
        values = values[:, 0]
    return values, in_bounds


def masked_bilinear_sample(data, mask, points) -> tuple[np.ndarray, np.ndarray]:
    """Sample partially-valid grid data, ignoring invalid cells.

    Invalid cells are excluded from each bilinear blend by renormalizing
    with the sampled mask weight (normalized convolution), so a point next
    to an invalid cell gets the weighted mean of its valid neighbors
    rather than a zero-diluted value. Points drawing less than half their
    blend weight from valid cells are flagged invalid, as are points
    outside the grid; values at invalid points are zero.

    The data and the mask weight are blended over one shared stencil, with
    the same per-channel arithmetic as two `bilinear_sample` calls.

    Data on valid cells must be finite; invalid cells may hold anything.
    """
    arr = np.asarray(data, dtype=np.float64)
    valid_cells = np.asarray(mask).astype(bool)
    if valid_cells.shape != arr.shape[:2]:
        raise FlowError(f"mask shape {valid_cells.shape} does not match data {arr.shape[:2]}")
    all_valid = bool(valid_cells.all())
    if all_valid:
        clean = arr
    else:
        clean = np.where(valid_cells if arr.ndim == 2 else valid_cells[..., None], arr, 0.0)
    if not np.isfinite(clean).all():
        raise FlowError("data must be finite on valid cells")
    rows, h, w, squeeze = _grid_rows(clean)
    index, weight, in_bounds = _corners(points, h, w)
    values = _blend(rows, index, weight)
    if all_valid:
        valid = in_bounds
    else:
        cell_weight = valid_cells.reshape(h * w, 1).astype(np.float64)
        coverage = _blend(cell_weight, index, weight)[:, 0]
        valid = in_bounds & (coverage >= MASK_SAMPLE_THRESHOLD)
        scale = np.ones_like(coverage)
        np.divide(1.0, coverage, out=scale, where=valid)
        values = values * scale[:, None]
    values[~valid] = 0.0
    if squeeze:
        values = values[:, 0]
    return values, valid


def grid_from_unstructured_data(positions, values, shape: tuple[int, int]):
    """Interpolate unstructured data points onto a regular grid.

    Each sample at (x, y) distributes value * w and weight w to its four
    surrounding integer cells, where w is the standard bilinear weight of
    the position relative to that cell. Cells whose accumulated weight
    exceeds `WEIGHT_THRESHOLD` hold the weighted mean of their
    contributions; all other cells are zero with a false mask bit. Finite
    values near the float64 limit can overflow in the sums; a non-finite
    mean raises FlowError.

    The sums run over an accumulator padded so that every corner of a
    retained sample lands inside it, so no corner is masked. Each cell sums
    its contributions corner by corner, (0, 0), (1, 0), (0, 1), (1, 1), and
    within a corner in sample order: the summation order, and with it every
    output bit, is that of masking each corner in turn.

    Parameters
    ----------
    positions : array_like, shape (N, 2)
        Finite continuous (x, y) sample positions. Samples outside the
        retention band [-1, W] x [-1, H] are dropped (they cannot touch
        the grid).
    values : array_like, shape (N,) or (N, C), finite
    shape : (H, W) of the output grid

    Returns
    -------
    grid : ndarray, shape (H, W) or (H, W, C) matching the values rank
    mask : ndarray of bool, shape (H, W)
    """
    h, w = int(shape[0]), int(shape[1])
    if h < 1 or w < 1:
        raise FlowError(f"output shape must be at least 1x1, got {shape}")
    pts = _points(positions)
    vals = np.asarray(values, dtype=np.float64)
    squeeze = vals.ndim == 1
    if squeeze:
        vals = vals[:, None]
    if vals.ndim != 2 or vals.shape[0] != pts.shape[0]:
        raise FlowError(f"values shape {vals.shape} does not match {pts.shape[0]} positions")
    if not np.isfinite(vals).all():
        raise FlowError("values must be finite")
    n_channels = vals.shape[1]

    x, y = pts[:, 0], pts[:, 1]
    keep = (x >= -1.0) & (x <= w) & (y >= -1.0) & (y <= h)
    if not np.all(keep):
        # compress: boolean indexing gathers (N, C) rows several times slower.
        x, y, vals = x[keep], y[keep], np.compress(keep, vals, axis=0)

    # A kept sample's corners span [-1, W+1] x [-1, H+1]; a border of one
    # cell below and two above holds them all, so no corner needs a test.
    pw = w + 3
    n_cells = (h + 3) * pw
    x0 = np.floor(x).astype(np.intp)
    y0 = np.floor(y).astype(np.intp)
    fx = x - x0
    fy = y - y0
    gx = 1.0 - fx
    gy = 1.0 - fy
    base = (y0 + 1) * pw + (x0 + 1)

    # Row 0 accumulates weight, row 1 + c the weighted channel c. Keep one
    # bincount per corner and row: a single bincount over all four corners
    # would reorder each cell's sum and change output bits.
    acc = np.zeros((1 + n_channels, n_cells), dtype=np.float64)
    # Sums of finite values near the float64 limit can overflow (or meet as
    # inf - inf) across corners; the finite check on the means reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        for offset, wx, wy in ((0, gx, gy), (1, fx, gy), (pw, gx, fy), (pw + 1, fx, fy)):
            lin = base + offset
            contrib = wx * wy
            acc[0] += np.bincount(lin, weights=contrib, minlength=n_cells)
            for c in range(n_channels):
                acc[1 + c] += np.bincount(lin, weights=contrib * vals[:, c], minlength=n_cells)

    interior = acc.reshape(1 + n_channels, h + 3, pw)[:, 1 : h + 1, 1 : w + 1]
    weight = interior[0]
    mask = weight > WEIGHT_THRESHOLD
    out = np.zeros((h, w, n_channels), dtype=np.float64)
    for c in range(n_channels):
        np.divide(interior[1 + c], weight, out=out[..., c], where=mask)
    if not np.isfinite(out).all():
        raise FlowError("splatted values overflow float64")
    if squeeze:
        out = out[..., 0]
    return out, mask
