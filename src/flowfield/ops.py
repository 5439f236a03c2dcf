"""Single-flow operations: warping, tracking, inversion, evaluation.

A source-reference vector at grid cell g points from g to g + F(g), a
target-reference one from g - F(g) to g; `_far_ends` forms that far end, the
cell's position in the other frame, for every op that needs it.

All functions are pure; they never mutate their inputs. Source-reference
warps are forward splats (unstructured-to-grid interpolation) and can leave
uncovered cells, which surface as false mask bits. Target-reference warps
are backward bilinear samples and are hole-free but can read out of bounds,
which likewise surfaces in the mask. Invalid output cells are zero-filled.
Each operation picks its route from the field's reference alone, with the
fixed thresholds `interp.WEIGHT_THRESHOLD` and `interp.OUT_OF_BOUNDS_TOL`.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    AffineTransform,
    FlowError,
    FlowField,
    Reference,
    _points,
    grid_coordinates,
)
from .interp import (
    OUT_OF_BOUNDS_TOL,
    _channels_last,
    _in_bounds,
    grid_from_unstructured_data,
    masked_bilinear_sample,
)

__all__ = [
    "apply",
    "fit_matrix",
    "get_padding",
    "invert",
    "map_vectors",
    "switch_reference",
    "track",
    "valid_source",
    "valid_target",
]


def _far_ends(field: FlowField) -> np.ndarray:
    """(H, W, 2) far end of each cell's vector; invalid cells keep their own position."""
    # Formed in place on a fresh grid: one grid-sized array fewer at a warp's peak.
    ends = grid_coordinates(field.shape)
    step = np.add if field.reference is Reference.SOURCE else np.subtract
    return step(ends, field.masked_vectors(), out=ends)


def _rows_at(mask: np.ndarray, *grids: np.ndarray) -> list[np.ndarray]:
    """Each (H, W, C) grid's (N, C) rows at the true cells of `mask`.

    The same rows, in the same order, as `grid[mask]`, which numpy gathers
    several times slower than a `take` of the flat cell indices.
    """
    cells = np.flatnonzero(mask)
    return [grid.reshape(mask.size, -1).take(cells, axis=0) for grid in grids]


def apply(field: FlowField, data, data_mask=None):
    """Warp grid data with a flow field.

    Source reference: every valid cell g splats data(g) to the continuous
    position g + F(g); the result is the weight-normalized accumulation
    (forward warping). Target reference: the result at g is data sampled
    at g - F(g) (backward warping).

    Parameters
    ----------
    field : FlowField
    data : array_like, shape (H, W) or (H, W, C), dims matching the flow
    data_mask : array_like of bool, shape (H, W), optional
        Validity of the input data. Invalid cells never contribute a
        value: the source path drops their samples, the target path
        excludes them from each bilinear blend (see
        `masked_bilinear_sample`). Output cells drawing less than half
        their blend weight from valid data are masked out.

    Returns
    -------
    warped : ndarray shaped like `data` (float64)
    mask : ndarray of bool, shape (H, W)
        False where the output is undefined; such cells are zero.
    """
    arr = np.asarray(data, dtype=np.float64)
    arr, squeeze = _channels_last(arr)
    h, w = field.shape
    if arr.shape[:2] != (h, w):
        raise FlowError(f"data dims {arr.shape[:2]} do not match flow dims {(h, w)}")
    dmask = np.ones((h, w), bool) if data_mask is None else np.asarray(data_mask).astype(bool)
    if dmask.shape != (h, w):
        raise FlowError(f"data_mask shape {dmask.shape} does not match flow dims {(h, w)}")

    ends = _far_ends(field)
    if field.reference is Reference.SOURCE:
        positions, values = _rows_at(field.mask & dmask, ends, arr)
        warped, mask = grid_from_unstructured_data(positions, values, (h, w))
    else:
        values, valid = masked_bilinear_sample(arr, dmask, ends.reshape(-1, 2))
        mask = valid.reshape(h, w) & field.mask
        warped = values.reshape(h, w, -1)
        warped[~mask] = 0.0

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
    if field.reference is Reference.TARGET:
        field = switch_reference(field)
    sampled, valid = masked_bilinear_sample(field.vectors, field.mask, pts)
    return pts + sampled, valid


def _carry(field: FlowField, payload: np.ndarray, reference: Reference) -> FlowField:
    """Splat the (H, W, 2) `payload` of each valid cell to its far end.

    The result lies on the grid of the other frame and is labelled with
    `reference`. Only valid cells are gathered, so `payload` may hold
    anything on invalid ones.
    """
    ends, values = _rows_at(field.mask, _far_ends(field), payload)
    vectors, mask = grid_from_unstructured_data(ends, values, field.shape)
    return FlowField._trusted(vectors, reference, mask)


def switch_reference(field: FlowField) -> FlowField:
    """Re-express a flow in the opposite frame of reference.

    Each valid vector is splatted to its far end: from g to g + F(g) onto
    the grid of the frame it points into (source to target), or to
    g - F(g) onto the grid of the frame it comes from (target to source).
    Uncovered cells come back mask-false.
    """
    return _carry(field, field.vectors, field.reference.opposite)


def invert(field: FlowField) -> FlowField:
    """Flow of the opposite temporal direction, in the same reference.

    Computed by forward-warping the negated vector field: the negated
    vectors are carried onto the grid of the other frame, where they
    describe the reverse motion. Uncovered cells come back mask-false.
    """
    return _carry(field, -field.vectors, field.reference)


def _lands_in_grid(field: FlowField) -> np.ndarray:
    """Valid cells whose far end lies on the grid, within `OUT_OF_BOUNDS_TOL`."""
    ends = _far_ends(field)
    return _in_bounds(ends[..., 0], ends[..., 1], *field.shape) & field.mask


def valid_target(field: FlowField) -> np.ndarray:
    """Mask of the grid cells that receive data when the flow is applied.

    Target-reference flows use the exact in-bounds test of each cell's
    far end; source-reference flows warp an all-ones matrix.
    """
    if field.reference is Reference.TARGET:
        return _lands_in_grid(field)
    _, mask = apply(field, np.ones(field.shape))
    return mask


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
    # Invalid cells keep their own, in-grid position, so they never add overhang.
    x, y = np.moveaxis(_far_ends(field), 2, 0)

    def overhang(amount: float) -> int:
        return max(0, math.ceil(float(amount) - OUT_OF_BOUNDS_TOL))

    return (
        overhang(-y.min()),
        overhang(y.max() - (h - 1)),
        overhang(-x.min()),
        overhang(x.max() - (w - 1)),
    )


def fit_matrix(field: FlowField) -> tuple[AffineTransform, float]:
    """Least-squares affine transform explaining a flow field.

    Source reference: fits M minimizing ||M*g - (g + F(g))|| over valid
    cells. Target reference: fits the correspondences (g - F(g)) -> g.
    Returns the transform and the RMS endpoint residual in pixels.

    Raises FlowError when fewer than 3 valid cells exist, the support is
    degenerate, or the fit overflows float64.
    """
    if np.count_nonzero(field.mask) < 3:
        raise FlowError("matrix fit needs at least 3 valid cells")
    grid = grid_coordinates(field.shape)[field.mask]
    ends = _far_ends(field)[field.mask]
    src, dst = (grid, ends) if field.reference is Reference.SOURCE else (ends, grid)
    design = np.column_stack([src, np.ones(len(src))])
    # Overflow near the float64 limit is reported below, not warned about.
    with np.errstate(over="ignore", invalid="ignore"):
        solution, _, rank, _ = np.linalg.lstsq(design, dst, rcond=None)
        residual = design @ solution - dst
        rms = float(np.sqrt(np.mean(np.sum(residual**2, axis=1))))
    if rank < 3 and field.reference is Reference.SOURCE:
        raise FlowError("matrix fit support is degenerate (collinear valid cells)")
    if rank < 3:
        raise FlowError("matrix fit is ill-conditioned (start points on a line or too large)")
    if not np.isfinite(rms):
        raise FlowError("matrix fit overflows float64")
    matrix = np.eye(3)
    matrix[:2, :] = solution.T
    return AffineTransform(matrix), rms


def map_vectors(field: FlowField, func) -> FlowField:
    """Transform the vector grid cellwise; reference and mask are kept.

    `func` receives the full (H, W, 2) vector array and must return an
    array of the same shape (e.g. ``lambda v: v ** 3``). Producing
    non-finite values on valid cells is an error.
    """
    out = np.asarray(func(field.masked_vectors()), dtype=np.float64)
    if out.shape != field.vectors.shape:
        raise FlowError(f"mapped vectors have shape {out.shape}, expected {field.vectors.shape}")
    return FlowField(out, field.reference, field.mask)
