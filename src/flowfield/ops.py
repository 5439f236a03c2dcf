"""Single-flow operations: warping, tracking, resampling, inversion, evaluation.

A source-reference vector at grid cell g points from g to g + F(g), a
target-reference one from g - F(g) to g; `_far_ends` forms that far end, the
cell's position in the other frame, for every op that needs it.

A source flow pushes: each valid cell's data is splatted to its far end
(forward warping), which can leave cells uncovered. A target flow pulls:
each cell samples the data at its far end (backward warping), which has no
holes but can read out of bounds. Lost cells come back mask-false and
zero, by the fixed thresholds `interp.WEIGHT_THRESHOLD` and
`interp.OUT_OF_BOUNDS_TOL`. All functions are pure; they never mutate their
inputs.

`_far_ends` has one rule: cells outside the kept ones, the field's valid
cells by default, go to `interp._OFF_GRID`, where both kernels drop them.
It returns the far ends as two contiguous float64 planes, x and y, which
is the form the kernels read. `_push` and `_pull` feed `interp._splat` and
`interp._sample` the far-end planes of just the cells each kernel block
asks for, with no copy and no scan of the data.

Only `apply` takes caller data, read by `interp._grid_rows`, and both
halves check it with `interp._clean`: a target flow under the data mask,
then pulls it through `_pull`; a source flow under that and its own mask,
then hands it, with the far-end planes stacked into (N, 2) points, to the
public splat, which scans it again (under a partial mask after `_clean`
zeroed a copy it does not need). Only `perfbench`'s traced `cli-pipeline`
run, which counts the public splat's calls, keeps it there.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    AffineTransform,
    FlowError,
    FlowField,
    Reference,
    _check_cells,
    _mask,
    _points,
    _real,
    _where_valid,
    grid_coordinates,
)
from .interp import (
    _OFF_GRID,
    OUT_OF_BOUNDS_TOL,
    _clean,
    _columns,
    _grid_rows,
    _in_bounds,
    _sample,
    _splat,
    grid_from_unstructured_data,
)

__all__ = [
    "apply",
    "fit_matrix",
    "get_padding",
    "invert",
    "map_vectors",
    "resize",
    "switch_reference",
    "track",
    "valid_source",
    "valid_target",
]


def _far_ends(field: FlowField, rows=slice(None), cols=slice(None), kept=None):
    """Far ends x +- v_x and y +- v_y of the cells the slices pick out, as two planes.

    Returns contiguous float64 (rows, cols) planes of x and of y. Cells
    outside `kept`, the field's mask by default, go to `_OFF_GRID`, and
    whatever their vectors hold never reaches a kernel.
    """
    h, w = field.shape
    vectors = field.vectors[rows, cols]
    mask = (field.mask if kept is None else kept)[rows, cols]
    step = np.add if field.reference is Reference.SOURCE else np.subtract
    ends = np.empty((2, *mask.shape))
    with np.errstate(invalid="ignore"):  # a signalling NaN under a false bit
        step(np.arange(w, dtype=np.float64)[cols], vectors[..., 0], out=ends[0])
        step(np.arange(h, dtype=np.float64)[rows, None], vectors[..., 1], out=ends[1])
    if not mask.all():
        np.copyto(ends, _OFF_GRID, where=~mask)
    return ends[0], ends[1]


def _end_source(field: FlowField, kept=None):
    """A warp's point source: the (x, y) far-end planes of a slice of cells in C order.

    A slice within one row forms only its own cells; any other forms the
    whole rows it touches and cuts its cells from the planes.
    """
    w = field.shape[1]

    def ends(block: slice):
        row, col = divmod(block.start, w)
        size = block.stop - block.start
        if col + size <= w:
            x, y = _far_ends(field, slice(row, row + 1), slice(col, col + size), kept)
            return x[0], y[0]
        rows = slice(row, (block.stop - 1) // w + 1)
        cut = slice(col, col + size)
        x, y = _far_ends(field, rows, slice(None), kept)
        return x.reshape(-1)[cut], y.reshape(-1)[cut]

    return ends


def _push(field: FlowField, data: np.ndarray, data_mask: np.ndarray, negate: bool = False):
    """Splat the (H, W, C) `data` of cells valid in both masks to their far ends.

    Returns the result, of the negated data if `negate`, on the other
    frame's grid and its coverage mask. Other cells go off the grid, so
    whatever they hold is dropped; the caller guarantees that the data is
    finite on kept cells (a field's vectors or a checked sum), unscanned.
    """
    h, w = field.shape
    values = data.reshape(h * w, -1)
    return _splat(_end_source(field, field.mask & data_mask), values, h, w, negate)


def _pull(field: FlowField, data: np.ndarray, data_mask: np.ndarray):
    """Sample clean (H, W, C) `data` at each cell's far end; returns values and mask.

    The caller guarantees that the data is finite and zero under false
    `data_mask` bits (a warp's output, a checked and zeroed sum, or caller
    data through `interp._clean`), so the sampler needs no copy and no
    scan. Cells where the sample (see `masked_bilinear_sample`) or the
    field is invalid come back zero and mask-false: the field's invalid
    cells are sampled off the grid, so the sampler's own zeroing covers them.
    """
    h, w = field.shape
    values, valid = _sample(data.reshape(h * w, -1), data_mask, _end_source(field), h * w)
    return values.reshape(data.shape), valid.reshape(field.shape)


def apply(field: FlowField, data, data_mask=None):
    """Warp grid data with a flow field: a source flow pushes it, a target flow pulls it.

    Parameters
    ----------
    field : FlowField
    data : array_like, shape (H, W) or (H, W, C), dims matching the flow
    data_mask : array_like of bool or integers, shape (H, W), optional
        Validity of the input data, nonzero meaning valid. Invalid cells
        never contribute a value: the source path drops their samples, the
        target path excludes them from each bilinear blend (see
        `masked_bilinear_sample`). Output cells drawing less than half
        their blend weight from valid data are masked out.

    Returns
    -------
    warped : ndarray shaped like `data` (float64)
    mask : ndarray of bool, shape (H, W)
        False where the output is undefined; such cells are zero.
    """
    rows, data_h, data_w, squeeze = _grid_rows(data, "data")
    h, w = field.shape
    if (data_h, data_w) != (h, w):
        raise FlowError(f"data dims {(data_h, data_w)} do not match flow dims {(h, w)}")
    dmask = np.ones((h, w), bool) if data_mask is None else _mask(data_mask, (h, w), "data_mask")

    # `_clean` checks the cells each half keeps; the public splat scans the source half again.
    if field.reference is Reference.SOURCE:
        kept = field.mask & dmask
        ends = np.stack(_far_ends(field, kept=kept), axis=-1).reshape(-1, 2)
        warped, mask = grid_from_unstructured_data(ends, _clean(rows, kept), (h, w))
    else:
        warped, mask = _pull(field, _clean(rows, dmask).reshape(h, w, -1), dmask)
    if squeeze:
        warped = warped[..., 0]
    return warped, mask


def track(field: FlowField, points) -> tuple[np.ndarray, np.ndarray]:
    """Track continuous points through a flow.

    Source reference: each point moves by the flow bilinearly sampled at
    its position. Target reference: the field is first switched to source
    reference so the vectors can be read at the points' own locations.

    Parameters
    ----------
    field : FlowField
    points : array_like, shape (N, 2)
        Finite (x, y) positions.

    Returns
    -------
    tracked : ndarray, shape (N, 2)
        New positions, in a fresh array.
    valid : ndarray of bool, shape (N,)
        False where the point sampled an out-of-bounds or invalid flow
        region.
    """
    pts = _points(points)
    # A switched field is already zero under its false bits.
    if field.reference is Reference.TARGET:
        field = switch_reference(field)
        vectors = field.vectors
    else:
        vectors = field.masked_vectors()
    sampled, valid = _sample(vectors.reshape(-1, 2), field.mask, _columns(pts), len(pts))
    return pts + sampled, valid


def resize(field: FlowField, scale: tuple[float, float]) -> FlowField:
    """Resample a flow to new dimensions, scaling vectors accordingly.

    `scale` is (sy, sx); vectors are bilinearly resampled onto the new
    grid, x components multiplied by sx and y components by sy. The mask
    is resampled as floats and thresholded at 0.5.
    """
    factors = _real(scale, "scale")
    if factors.shape != (2,) or not (0 < factors.min() and factors.max() < np.inf):
        raise FlowError(f"scale factors must be two positive finite numbers, got {factors}")
    sy, sx = factors.tolist()
    h, w = field.shape
    # A side too long for a float stays unrounded, for the cell budget to refuse.
    new_h, new_w = (round(n) if n < np.inf else n for n in (h * sy, w * sx))
    if new_h < 1 or new_w < 1:
        raise FlowError(f"resize to {(new_h, new_w)} would produce an empty grid")
    _check_cells(new_h, new_w)
    if (new_h, new_w) == (h, w) and sy == 1.0 and sx == 1.0:
        return FlowField(field.masked_vectors(), field.reference, field.mask)

    # Corner-aligned sample positions in the old grid.
    xs = np.linspace(0.0, w - 1.0, new_w) if new_w > 1 else np.zeros(1)
    ys = np.linspace(0.0, h - 1.0, new_h) if new_h > 1 else np.zeros(1)
    x, y = (plane.ravel() for plane in np.meshgrid(xs, ys))

    rows = field.masked_vectors().reshape(h * w, 2)
    sampled, valid = _sample(rows, field.mask, lambda block: (x[block], y[block]), x.size)
    with np.errstate(over="ignore"):
        vectors = sampled.reshape(new_h, new_w, 2) * (sx, sy)
    if not np.isfinite(vectors).all():
        raise FlowError("resized vectors overflow float64")
    return FlowField._trusted(vectors, field.reference, valid.reshape(new_h, new_w))


def switch_reference(field: FlowField) -> FlowField:
    """Re-express a flow in the opposite frame of reference.

    Each valid vector is pushed to its far end, onto the grid of the other
    frame. Uncovered cells come back mask-false.
    """
    vectors, mask = _push(field, field.vectors, field.mask)
    return FlowField._trusted(vectors, field.reference.opposite, mask)


def invert(field: FlowField) -> FlowField:
    """Flow of the opposite temporal direction, in the same reference.

    The negated vectors are pushed onto the grid of the other frame, where
    they describe the reverse motion. Uncovered cells come back mask-false.
    """
    vectors, mask = _push(field, field.vectors, field.mask, negate=True)
    return FlowField._trusted(vectors, field.reference, mask)


def _lands_in_grid(field: FlowField) -> np.ndarray:
    """Valid cells whose far end lies on the grid, within `OUT_OF_BOUNDS_TOL`."""
    return _in_bounds(*_far_ends(field), *field.shape)


def valid_target(field: FlowField) -> np.ndarray:
    """Mask of the grid cells that receive data when the flow is applied.

    Target-reference flows use the exact in-bounds test of each cell's
    far end; source-reference flows splat the bilinear weights alone.
    """
    if field.reference is Reference.TARGET:
        return _lands_in_grid(field)
    return _splat(_end_source(field), np.empty((field.mask.size, 0)), *field.shape)[1]


def valid_source(field: FlowField) -> np.ndarray:
    """Mask of the grid cells whose content survives applying the flow.

    Source-reference flows use the exact in-bounds test of each cell's
    far end; target-reference flows use the same test on the inverted
    flow, whose cells sit on the source grid.
    """
    return _lands_in_grid(field if field.reference is Reference.SOURCE else invert(field))


def get_padding(field: FlowField) -> tuple[int, int, int, int]:
    """Minimal padding so the padded flow covers the original region.

    Returns (top, bottom, left, right) as Python ints. Looks at the extremes
    of the far ends g + F (source) or g - F (target) over all valid cells
    and rounds the overhang beyond each grid edge up to whole pixels.
    Extremes within `OUT_OF_BOUNDS_TOL` of an integer do not round up, so an
    endpoint that the in-bounds test counts as inside needs no padding.
    All-invalid flows need no padding.
    """
    h, w = field.shape
    x, y = _far_ends(field)

    def overhang(amount: float) -> int:
        return max(0, math.ceil(float(amount) - OUT_OF_BOUNDS_TOL))

    # Extremes over the valid cells start at the grid's edges: none, no padding.
    return (
        overhang(-y.min(initial=0.0, where=field.mask)),
        overhang(y.max(initial=h - 1.0, where=field.mask) - (h - 1)),
        overhang(-x.min(initial=0.0, where=field.mask)),
        overhang(x.max(initial=w - 1.0, where=field.mask) - (w - 1)),
    )


def fit_matrix(field: FlowField) -> tuple[AffineTransform, float]:
    """Least-squares affine transform explaining a flow field.

    Source reference: fits M minimizing ||M*g - (g + F(g))|| over valid
    cells. Target reference: fits the correspondences (g - F(g)) -> g.
    Returns the transform and the RMS endpoint residual in pixels.

    The fit runs on start points centred and scaled per axis, and its
    solution is mapped back to pixels. Raises FlowError when fewer than 3
    valid cells exist, the support is degenerate, the start points are too
    large for the fitted map to be represented, or the fit overflows
    float64.
    """
    if np.count_nonzero(field.mask) < 3:
        raise FlowError("matrix fit needs at least 3 valid cells")
    grid = grid_coordinates(field.shape)[field.mask]
    ends = np.column_stack([plane[field.mask] for plane in _far_ends(field)])
    src, dst = (grid, ends) if field.reference is Reference.SOURCE else (ends, grid)
    too_large = "matrix fit is ill-conditioned (start points on a line or too large)"
    # Overflow near the float64 limit is reported below, not warned about.
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        # The design is centred and scaled to [-1, 1] per axis, so its rank
        # shows the shape of the support whatever its size.
        low, high = src.min(axis=0), src.max(axis=0)
        centre = (low + high) / 2.0
        spread = (high - low) / 2.0
        spread[spread == 0.0] = 1.0  # a constant axis stays a zero column
        design = np.column_stack([(src - centre) / spread, np.ones(len(src))])
        if not np.isfinite(design).all():
            raise FlowError(too_large)
        solution, _, rank, _ = np.linalg.lstsq(design, dst, rcond=None)
        residual = design @ solution - dst
        rms = float(np.sqrt(np.mean(np.sum(residual**2, axis=1))))
        linear = solution[:2] / spread[:, None]
        offset = solution[2] - centre @ linear
        # Regular in scaled units but singular once mapped back to pixels.
        underflows = np.linalg.det(solution[:2]) != 0.0 and (
            abs(np.linalg.det(linear)) < np.finfo(float).tiny
        )
    if rank < 3 and field.reference is Reference.SOURCE:
        raise FlowError("matrix fit support is degenerate (collinear valid cells)")
    if rank < 3 or underflows:
        raise FlowError(too_large)
    if not (np.isfinite(rms) and np.isfinite(linear).all() and np.isfinite(offset).all()):
        raise FlowError("matrix fit overflows float64")
    matrix = np.eye(3)
    matrix[:2, :2] = linear.T
    matrix[:2, 2] = offset
    return AffineTransform(matrix), rms


def map_vectors(field: FlowField, func) -> FlowField:
    """Transform the vector grid cellwise; reference and mask are kept.

    `func` receives the full (H, W, 2) vector array and must return an
    array of the same shape (e.g. ``lambda v: v ** 3``). Producing
    non-finite values on valid cells is an error; invalid cells come back zero.
    """
    out = _real(func(field.masked_vectors()), "mapped vectors")
    if out.shape != field.vectors.shape:
        raise FlowError(f"mapped vectors have shape {out.shape}, expected {field.vectors.shape}")
    return FlowField(_where_valid(field.mask, out), field.reference, field.mask)
