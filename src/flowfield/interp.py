"""Interpolation primitives.

Two operations underpin every flow manipulation: reading a regular grid at
scattered continuous positions (bilinear sampling) and pushing scattered
values back onto a regular grid (inverse bilinear splatting: each value is
distributed over the four surrounding cells with the standard bilinear
corner weights, and every cell is finally divided by its accumulated
weight).

Both kernels are sequential and always deterministic, so a fixed seed pins
`verify-compose` byte for byte. Accumulation happens in double precision
regardless of input dtype, since division by small weight sums is the
dominant error source.
"""

from __future__ import annotations

import numpy as np

from .core import FlowError, as_points

__all__ = [
    "DEFAULT_WEIGHT_THRESHOLD",
    "MASK_SAMPLE_THRESHOLD",
    "OUT_OF_BOUNDS_TOL",
    "bilinear_sample",
    "grid_from_unstructured_data",
    "masked_bilinear_sample",
]

# A cell touched only by vanishing weight tails carries amplified noise after
# normalization; pass 0.0 explicitly to keep every positively-weighted cell.
DEFAULT_WEIGHT_THRESHOLD = 1e-3

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


def bilinear_sample(grid, points, tol: float = OUT_OF_BOUNDS_TOL):
    """Read a regular grid at continuous positions.

    Parameters
    ----------
    grid : array_like, shape (H, W) or (H, W, C)
    points : PointSet or array_like, shape (N, 2)
        Continuous (x, y) positions. Coordinates are clamped to the grid
        before sampling, so the operation is total.
    tol : float
        Positions outside [0, W-1] x [0, H-1] by more than this are
        flagged out of bounds (their clamped value is still returned).

    Returns
    -------
    values : ndarray, shape (N,) or (N, C) matching the grid rank
    in_bounds : ndarray of bool, shape (N,)
    """
    data = np.asarray(grid, dtype=np.float64)
    data, squeeze = _channels_last(data)
    h, w, n_channels = data.shape
    if h < 1 or w < 1:
        raise FlowError("grid must be non-empty")
    pts = as_points(points)
    x, y = pts[:, 0], pts[:, 1]

    in_bounds = (x >= -tol) & (x <= w - 1 + tol) & (y >= -tol) & (y <= h - 1 + tol)

    xc = np.clip(x, 0.0, w - 1.0)
    yc = np.clip(y, 0.0, h - 1.0)
    x0 = xc.astype(np.intp)  # truncation == floor for non-negative values
    y0 = yc.astype(np.intp)
    fx = xc - x0
    fy = yc - y0
    x_step = (x0 < w - 1).astype(np.intp)
    y_step = (y0 < h - 1).astype(np.intp) * w

    flat = data.reshape(h * w, n_channels)
    base = y0 * w + x0
    w11 = fx * fy
    w10 = fy - w11
    w01 = fx - w11
    w00 = 1.0 - fx - w10
    values = (
        np.take(flat, base, axis=0) * w00[:, None]
        + np.take(flat, base + x_step, axis=0) * w01[:, None]
        + np.take(flat, base + y_step, axis=0) * w10[:, None]
        + np.take(flat, base + y_step + x_step, axis=0) * w11[:, None]
    )
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
    values, in_bounds = bilinear_sample(clean, points)
    if all_valid:
        valid = in_bounds
    else:
        weight, _ = bilinear_sample(valid_cells.astype(np.float64), points)
        valid = in_bounds & (weight >= MASK_SAMPLE_THRESHOLD)
        scale = np.ones_like(weight)
        np.divide(1.0, weight, out=scale, where=valid)
        values = values * (scale[:, None] if values.ndim == 2 else scale)
    values[~valid] = 0.0
    return values, valid


def grid_from_unstructured_data(
    positions,
    values,
    shape: tuple[int, int],
    weight_scale=None,
    weight_threshold: float = DEFAULT_WEIGHT_THRESHOLD,
):
    """Interpolate unstructured data points onto a regular grid.

    Each sample at (x, y) distributes value * w and weight w to its four
    surrounding integer cells, where w is the standard bilinear weight of
    the position relative to that cell times the sample's weight scale.
    Cells whose accumulated weight exceeds `weight_threshold` hold the
    weighted mean of their contributions; all other cells are zero with a
    false mask bit.

    Parameters
    ----------
    positions : array_like, shape (N, 2)
        Finite continuous (x, y) sample positions. Samples outside the
        retention band [-1, W] x [-1, H] are dropped (they cannot touch
        the grid).
    values : array_like, shape (N,) or (N, C), finite
    shape : (H, W) of the output grid
    weight_scale : array_like, shape (N,), optional
        Finite non-negative per-sample weight multipliers; default all-one.
    weight_threshold : float
        Strict lower bound on the accumulated weight of a valid cell.

    Returns
    -------
    grid : ndarray, shape (H, W) or (H, W, C) matching the values rank
    mask : ndarray of bool, shape (H, W)
    """
    h, w = int(shape[0]), int(shape[1])
    if h < 1 or w < 1:
        raise FlowError(f"output shape must be at least 1x1, got {shape}")
    if weight_threshold < 0:
        raise FlowError(f"weight_threshold must be non-negative, got {weight_threshold}")
    pts = np.asarray(positions, dtype=np.float64)
    if pts.size == 0:
        pts = pts.reshape(0, 2)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise FlowError(f"positions must have shape (N, 2), got {pts.shape}")
    if not np.isfinite(pts).all():
        raise FlowError("positions must be finite")
    vals = np.asarray(values, dtype=np.float64)
    squeeze = vals.ndim == 1
    if squeeze:
        vals = vals[:, None]
    if vals.ndim != 2 or vals.shape[0] != pts.shape[0]:
        raise FlowError(f"values shape {vals.shape} does not match {pts.shape[0]} positions")
    if not np.isfinite(vals).all():
        raise FlowError("values must be finite")
    n_channels = vals.shape[1]

    if weight_scale is None:
        scale = np.ones(pts.shape[0], dtype=np.float64)
    else:
        scale = np.asarray(weight_scale, dtype=np.float64)
        if scale.shape != (pts.shape[0],):
            raise FlowError(f"weight_scale shape {scale.shape} does not match positions")
        if not np.all(np.isfinite(scale) & (scale >= 0)):
            raise FlowError("weight_scale entries must be finite and non-negative")

    x, y = pts[:, 0], pts[:, 1]
    keep = (x >= -1.0) & (x <= w) & (y >= -1.0) & (y <= h)
    if not np.all(keep):
        x, y, vals, scale = x[keep], y[keep], vals[keep], scale[keep]

    x0 = np.floor(x).astype(np.intp)
    y0 = np.floor(y).astype(np.intp)
    fx = x - x0
    fy = y - y0

    weight_acc = np.zeros(h * w, dtype=np.float64)
    value_acc = np.zeros((h * w, n_channels), dtype=np.float64)
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
        contrib = corner_w[inside] * scale[inside]
        weight_acc += np.bincount(lin, weights=contrib, minlength=h * w)
        for c in range(n_channels):
            value_acc[:, c] += np.bincount(
                lin, weights=contrib * vals[inside, c], minlength=h * w
            )

    mask = weight_acc > weight_threshold
    out = np.zeros((h * w, n_channels), dtype=np.float64)
    np.divide(value_acc, weight_acc[:, None], out=out, where=mask[:, None])
    out = out.reshape(h, w, n_channels)
    if squeeze:
        out = out[..., 0]
    return out, mask.reshape(h, w)

