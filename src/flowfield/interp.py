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
dominant error source. The masked sample and the splat cut their points
into blocks of the fixed `_BLOCK`, in order, so that each block's
temporaries stay in cache. The splat sums block by block, so its bits
depend on that size; the kernels make the cut themselves, so they never
depend on the caller. Blends loop over the few channels, scaling one
strided column per channel, and masked selects copy whole cells
(`core._where_valid`), so no per-point weight or mask bit is broadcast over
a channel axis only 2 or 3 long; the products and sums are those of the
broadcast form, bit for bit.

Each kernel asks a point source, `points(block) -> (k, 2)`, for the points
of each block, a slice of the point indices. Caller data goes through the
public functions, which check it and pass the checked array's
`__getitem__`. Everything the library holds goes through the private
entries, with no copy and no scan: `_sample` takes rows that are finite
and zero on invalid cells, and `_splat` takes any value for a sample it
drops. The warps in `ops` pass a source that forms the far ends of just
the asked-for cells, with the cells they drop at `_OFF_GRID`.

The splat sums into one accumulator with a row for the weight and one per
channel, over the grid plus a border (two cells before, three after) that
holds every corner once each sample's cell is clamped to it, so no corner
is masked. Each block adds its four corners in turn straight into it with
`np.add.at`, which adds in sample order, so each cell sums block by block,
corner by corner within a block and in sample order within a corner. The
thresholds are fixed constants, not parameters: a splatted cell needs more
than `WEIGHT_THRESHOLD` accumulated weight, and a position within
`OUT_OF_BOUNDS_TOL` of the grid counts as inside it.
"""

from __future__ import annotations

import numpy as np

from .core import FlowError, _check_cells, _points, _where_valid

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

# Where warps send the cells they drop: beyond the sampler's bounds and the
# splat's retention band [-1, W] x [-1, H], so both kernels drop them.
_OFF_GRID = -2.0

# Points per block of both kernels, so that each block's temporaries stay in
# cache. The splat sums block by block, so its output bits depend on it.
_BLOCK = 8192


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


def _corners(pts: np.ndarray, h: int, w: int):
    """Bilinear stencil of each checked (N, 2) point on an (H, W) grid.

    Returns the flat indices of the four surrounding cells, their weights
    (both in the order (0, 0), (1, 0), (0, 1), (1, 1)) and the in-bounds
    flag. Coordinates are clamped first, so every index is on the grid.
    """
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


def _scaled(rows: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """(N, C) rows times an (N,) weight, in place one channel column at a time.

    (N,) rows, bool ones included, are multiplied into a new float array.
    Either way each product is that of broadcasting the weight over C.
    """
    if rows.ndim == 1:
        return rows * weight
    for column in rows.T:
        np.multiply(column, weight, out=column)
    return rows


def _blend(rows: np.ndarray, index, weight) -> np.ndarray:
    """Bilinear blend of (H*W,) or (H*W, C) grid rows over a `_corners` stencil.

    The corners are summed in order, ((0 + 1) + 2) + 3. A bool cell blends
    as 1.0 or 0.0 times each weight.
    """
    total = _scaled(np.take(rows, index[0], axis=0), weight[0])
    for idx, w in zip(index[1:], weight[1:]):
        total += _scaled(np.take(rows, idx, axis=0), w)
    return total


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
    index, weight, in_bounds = _corners(_points(points), h, w)
    values = _blend(rows, index, weight)
    if squeeze:
        values = values[:, 0]
    return values, in_bounds


def _sample(rows: np.ndarray, mask: np.ndarray, points, n: int):
    """`masked_bilinear_sample` of clean (H*W, C) rows at n points, asked for by block.

    The rows must be finite and zero where the (H, W) `mask` is false, and
    `points(block)` returns the (k, 2) points of a slice of the n. Returns
    (n, C) values and (n,) valid flags.
    """
    h, w = mask.shape
    cells = None if mask.all() else mask.reshape(h * w)
    values = np.empty((n, rows.shape[1]))
    valid = np.empty(n, dtype=bool)
    for start in range(0, n, _BLOCK):
        block = slice(start, min(start + _BLOCK, n))
        index, weight, ok = _corners(points(block), h, w)
        part = _blend(rows, index, weight)
        if cells is not None:
            coverage = _blend(cells, index, weight)
            ok &= coverage >= MASK_SAMPLE_THRESHOLD
            scale = np.ones_like(coverage)
            np.divide(1.0, coverage, out=scale, where=ok)
            _scaled(part, scale)
        values[block] = _where_valid(ok, part)
        valid[block] = ok
    return values, valid


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
    clean = arr if valid_cells.all() else _where_valid(valid_cells, arr)
    if not np.isfinite(clean).all():
        raise FlowError("data must be finite on valid cells")
    rows, _, _, squeeze = _grid_rows(clean)
    pts = _points(points)
    values, valid = _sample(rows, valid_cells, pts.__getitem__, len(pts))
    if squeeze:
        values = values[:, 0]
    return values, valid


def _splat(points, vals: np.ndarray, h: int, w: int, negate: bool = False):
    """Splat (N, C) values from N points, asked for by block, onto an (H, W) grid.

    `points(block)` returns the (k, 2) points of a slice of the N. Returns
    the (H, W, C) weighted means and the coverage mask, as
    `grid_from_unstructured_data` describes; `negate` splats the negated
    values by negating each weight, as (-w) * v is w * (-v) bit for bit.
    Raises FlowError when a mean overflows.

    The sums, a row for the weight and one per channel, run over the grid
    plus a border of two cells before and three after, and each sample's
    floor cell is clamped to [-2, W+1] x [-2, H+1], so every corner lands
    inside and none needs a test. A sample outside the retention band
    [-1, W] x [-1, H] has no corner on the grid, so its value, whatever it
    is, never reaches a grid cell. Each block adds its four corners in turn
    straight into the sums with `np.add.at`, which adds in sample order, so
    each cell sums block by block, corner by corner within a block and in
    sample order within a corner. Only the block's own stencil is formed,
    so no per-sample array outlives its block.
    """
    n, n_channels = vals.shape
    pw = w + 5
    acc = np.zeros((1 + n_channels, (h + 5) * pw))
    # Sums of finite values near the float64 limit can overflow (or meet as
    # inf - inf); the finite check below reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n, _BLOCK):
            block = slice(start, min(start + _BLOCK, n))
            pts = points(block)
            x, y = pts[:, 0], pts[:, 1]
            x0 = np.floor(x)
            y0 = np.floor(y)
            fx = x - x0
            fy = y - y0
            # Clamped, the floors are small integers, exact in float64.
            np.clip(x0, -2.0, w + 1.0, out=x0)
            np.clip(y0, -2.0, h + 1.0, out=y0)
            base = ((y0 + 2.0) * pw + (x0 + 2.0)).astype(np.intp)
            wx = (1.0 - fx, fx)
            wy = (1.0 - fy, fy)
            for corner, offset in enumerate((0, 1, pw, pw + 1)):
                contrib = wx[corner & 1] * wy[corner >> 1]
                np.add.at(acc[0, offset:], base, contrib)
                if negate:
                    np.negative(contrib, out=contrib)
                for c in range(n_channels):
                    np.add.at(acc[1 + c, offset:], base, contrib * vals[block, c])
    sums = acc.reshape(-1, h + 5, pw)[:, 2 : h + 2, 2 : w + 2]
    weight = sums[0]
    mask = weight > WEIGHT_THRESHOLD
    out = np.zeros((h, w, n_channels), dtype=np.float64)
    for c in range(n_channels):
        np.divide(sums[1 + c], weight, out=out[..., c], where=mask)
    if not np.isfinite(out).all():
        raise FlowError("splatted values overflow float64")
    return out, mask


def grid_from_unstructured_data(positions, values, shape: tuple[int, int]):
    """Interpolate unstructured data points onto a regular grid.

    Each sample at (x, y) distributes value * w and weight w to its four
    surrounding integer cells, where w is the standard bilinear weight of
    the position relative to that cell. Cells whose accumulated weight
    exceeds `WEIGHT_THRESHOLD` hold the weighted mean of their
    contributions; all other cells are zero with a false mask bit. Finite
    values near the float64 limit can overflow in the sums; a non-finite
    mean raises FlowError.

    The samples are taken in consecutive blocks of a fixed size, and each
    block adds its corners (0, 0), (1, 0), (0, 1), (1, 1) in turn into an
    accumulator padded so that every corner of a retained sample lands
    inside it, so no corner is masked. Each cell sums block by block,
    corner by corner within a block and in sample order within a corner,
    so the output bits depend on the fixed block size, never on the
    caller.

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
    _check_cells(h, w)
    pts = _points(positions)
    vals = np.asarray(values, dtype=np.float64)
    squeeze = vals.ndim == 1
    if squeeze:
        vals = vals[:, None]
    if vals.ndim != 2 or vals.shape[0] != pts.shape[0]:
        raise FlowError(f"values shape {vals.shape} does not match {pts.shape[0]} positions")
    if not np.isfinite(vals).all():
        raise FlowError("values must be finite")
    out, mask = _splat(pts.__getitem__, vals, h, w)
    if squeeze:
        out = out[..., 0]
    return out, mask
