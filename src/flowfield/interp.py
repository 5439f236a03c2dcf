"""Interpolation primitives.

Two operations underpin every flow manipulation: reading a regular grid at
scattered continuous positions (bilinear sampling) and pushing scattered
values back onto a regular grid (inverse bilinear splatting: each value is
distributed over the four surrounding cells with the standard bilinear
corner weights, and every cell is finally divided by its accumulated
weight).

Scattered positions arrive as plain (N, 2) arrays of (x, y) coordinates,
checked by `core._points`.

Both kernels are sequential and always deterministic, so a fixed seed pins
`verify-compose` byte for byte. Accumulation happens in double precision
regardless of input dtype, since division by small weight sums is the
dominant error source. The masked sample and the splat cut their points
into blocks of the fixed `_BLOCK`, in order, so that each block's
temporaries stay in cache. The splat sums block by block, so its bits
depend on that size; the kernels make the cut themselves, so they never
depend on the caller. Blends loop over the few channels, scaling one
strided column per channel, and a block's invalid rows are zeroed whole
cells at a time (`core._fill_cells`), so no per-point weight or mask bit is
broadcast over a channel axis only 2 or 3 long; the products and sums are
those of the broadcast form, bit for bit.

Each kernel asks a point source, `points(block) -> (x, y)`, for the points
of each block, a slice of the point indices: two C-contiguous float64
planes of k coordinates each, so every stencil reads its coordinates
without a stride. Caller data goes through the public functions, which
check it and hand over slices of contiguous copies of its two columns
(`_columns`). Everything the library holds goes through the private
entries, with no copy and no scan: `_sample` takes rows that are finite
and zero on invalid cells, and `_splat` takes any value for a sample it
drops. The warps in `ops` pass a source that forms the far-end planes of
just the asked-for cells, with the cells they drop at `_OFF_GRID`.

The splat sums into one accumulator, over the grid plus a border (two
cells before, three after) that holds every corner once each sample's cell
is clamped to it, so no corner is masked. The weight has a float64 row.
The channels go in pairs, each pair one complex128 row whose real and
imaginary parts are the two channels, plus a float64 row for an odd
channel out. Each product is a real one, written into its part, and a
complex add adds the two parts separately, so one `np.add.at` sums two
channels and each sums exactly as it would alone. Each block adds its four
corners in turn straight into the accumulator with `np.add.at`, which adds
in sample order, so each cell sums block by block, corner by corner within
a block and in sample order within a corner. The thresholds are fixed
constants, not parameters: a splatted cell needs more than
`WEIGHT_THRESHOLD` accumulated weight, and a position within
`OUT_OF_BOUNDS_TOL` of the grid counts as inside it.
"""

from __future__ import annotations

import numpy as np

from .core import FlowError, _fill_cells, _grid_axes, _points, _where_valid

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


def _corners(x: np.ndarray, y: np.ndarray, h: int, w: int):
    """Bilinear stencil of each point, given as (N,) x and y planes, on an (H, W) grid.

    Returns the flat indices of the four surrounding cells, their weights
    (both in the order (0, 0), (1, 0), (0, 1), (1, 1)) and the in-bounds
    flag. Coordinates are clamped first, so every index is on the grid.
    """
    in_bounds = _in_bounds(x, y, h, w)

    # Formed in place, with the arithmetic of the plain form: the clamped
    # coordinates become the fractions, the row floor the base index, and
    # the column floor, fractions and row step the weights and lower indices.
    # The floors of clamped coordinates are small integers, exact in float64.
    fx = np.clip(x, 0.0, w - 1.0)
    fy = np.clip(y, 0.0, h - 1.0)
    x0 = np.floor(fx)
    base = np.floor(fy)
    fx -= x0
    fy -= base
    x_step = x0 < w - 1  # a bool adds as 0 or 1
    y_step = (base < h - 1) * w
    base *= w
    base += x0
    base = base.astype(np.intp)

    w11 = np.multiply(fx, fy, out=x0)
    w10 = np.subtract(fy, w11, out=fy)
    w00 = 1.0 - fx
    w00 -= w10
    w01 = np.subtract(fx, w11, out=fx)
    below = np.add(base, y_step, out=y_step)
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


def _blend(rows: np.ndarray, index, weight, out=None) -> np.ndarray:
    """Bilinear blend of (H*W,) or (H*W, C) grid rows over a `_corners` stencil.

    The corners are summed in order, ((0 + 1) + 2) + 3, into `out` if given.
    A bool cell blends as 1.0 or 0.0 times each weight. Every index is on
    the grid, so mode "clip" never clips; it lets `take` fill `out` unbuffered.
    """
    total = _scaled(np.take(rows, index[0], axis=0, out=out, mode="clip"), weight[0])
    for idx, w in zip(index[1:], weight[1:]):
        total += _scaled(np.take(rows, idx, axis=0, mode="clip"), w)
    return total


def _columns(pts: np.ndarray):
    """Point source over checked (N, 2) points: contiguous copies of both columns."""
    x, y = pts.T.copy()
    return lambda block: (x[block], y[block])


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
    index, weight, in_bounds = _corners(*_points(points).T.copy(), h, w)
    values = _blend(rows, index, weight)
    if squeeze:
        values = values[:, 0]
    return values, in_bounds


def _sample(rows: np.ndarray, mask: np.ndarray, points, n: int):
    """`masked_bilinear_sample` of clean (H*W, C) rows at n points, asked for by block.

    The rows must be finite and zero where the (H, W) `mask` is false, and
    `points(block)` returns the (x, y) planes of a slice of the n. Returns
    (n, C) values and (n,) valid flags. Each block is blended straight into
    its slice of the values, and its invalid rows are zeroed there; it runs
    in its own call, so its stencil is gone before the next one is formed.
    """
    h, w = mask.shape
    cells = None if mask.all() else mask.reshape(h * w)
    values = np.empty((n, rows.shape[1]))
    valid = np.empty(n, dtype=bool)

    def blend(x, y, out):
        index, weight, ok = _corners(x, y, h, w)
        _blend(rows, index, weight, out=out)
        if cells is not None:
            coverage = _blend(cells, index, weight)
            ok &= coverage >= MASK_SAMPLE_THRESHOLD
            scale = np.ones_like(coverage)
            np.divide(1.0, coverage, out=scale, where=ok)
            _scaled(out, scale)
        _fill_cells(out, ~ok, 0.0)
        return ok

    for start in range(0, n, _BLOCK):
        block = slice(start, min(start + _BLOCK, n))
        valid[block] = blend(*points(block), values[block])
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
    values, valid = _sample(rows, valid_cells, _columns(pts), len(pts))
    if squeeze:
        values = values[:, 0]
    return values, valid


def _splat(points, vals: np.ndarray, h: int, w: int, negate: bool = False):
    """Splat (N, C) values from N points, asked for by block, onto an (H, W) grid.

    `points(block)` returns the (x, y) planes of a slice of the N. Returns
    the (H, W, C) weighted means and the coverage mask, as
    `grid_from_unstructured_data` describes; `negate` splats the negated
    values by negating each weight, as (-w) * v is w * (-v) bit for bit.
    Raises FlowError when a mean overflows.

    The sums run over the grid plus a border of two cells before and three
    after, and each sample's floor cell is clamped to [-2, W+1] x
    [-2, H+1], so every corner lands inside and none needs a test. A sample
    outside the retention band [-1, W] x [-1, H] has no corner on the grid,
    so its value, whatever it is, never reaches a grid cell. One buffer
    holds the channel pairs' complex rows, then the weight row, then the
    row of an odd channel out (see the module docstring). Each block runs in
    its own call, so its stencil is gone before the next one is formed.
    """
    n, n_channels = vals.shape
    pw = w + 5
    size = (h + 5) * pw
    n_pairs = n_channels // 2
    acc = np.zeros((1 + n_channels) * size)
    pairs = acc[: 2 * n_pairs * size].view(np.complex128).reshape(n_pairs, size)
    weight_sum, *odd = acc[2 * n_pairs * size :].reshape(-1, size)

    def add(x, y, values):
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
        paired = np.empty(len(base), np.complex128)
        for corner, offset in enumerate((0, 1, pw, pw + 1)):
            contrib = wx[corner & 1] * wy[corner >> 1]
            np.add.at(weight_sum[offset:], base, contrib)
            if negate:
                np.negative(contrib, out=contrib)
            for p, row in enumerate(pairs):
                np.multiply(contrib, values[:, 2 * p], out=paired.real)
                np.multiply(contrib, values[:, 2 * p + 1], out=paired.imag)
                np.add.at(row[offset:], base, paired)
            for row in odd:
                np.add.at(row[offset:], base, contrib * values[:, -1])

    # Sums of finite values near the float64 limit can overflow (or meet as
    # inf - inf); the finite check below reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n, _BLOCK):
            block = slice(start, min(start + _BLOCK, n))
            add(*points(block), vals[block])

    def grid(row):
        return row.reshape(h + 5, pw)[2 : h + 2, 2 : w + 2]

    weight = grid(weight_sum)
    mask = weight > WEIGHT_THRESHOLD
    out = np.zeros((h, w, n_channels), dtype=np.float64)
    channels = [part for row in pairs for part in (row.real, row.imag)] + odd
    for c, sums in enumerate(channels):
        np.divide(grid(sums), weight, out=out[..., c], where=mask)
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
    xs, ys = _grid_axes(shape, None)
    h, w = ys.size, xs.size
    pts = _points(positions)
    vals = np.asarray(values, dtype=np.float64)
    squeeze = vals.ndim == 1
    if squeeze:
        vals = vals[:, None]
    if vals.ndim != 2 or vals.shape[0] != pts.shape[0]:
        raise FlowError(f"values shape {vals.shape} does not match {pts.shape[0]} positions")
    if not np.isfinite(vals).all():
        raise FlowError("values must be finite")
    out, mask = _splat(_columns(pts), vals, h, w)
    if squeeze:
        out = out[..., 0]
    return out, mask
