"""Single-flow operations: warping, tracking, inversion, evaluation.

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
    Padding,
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
    if data_mask is None:
        dmask = None
    else:
        dmask = np.asarray(data_mask).astype(bool)
        if dmask.shape != (h, w):
            raise FlowError(f"data_mask shape {dmask.shape} does not match flow dims {(h, w)}")

    # Endpoints are formed in place on the fresh grid to save one grid-sized
    # array at the peak of the warp.
    grid = grid_coordinates((h, w))

    if field.reference is Reference.SOURCE:
        emit = field.mask if dmask is None else (field.mask & dmask)
        grid += field.vectors
        positions = grid[emit]
        values = arr[emit]
        warped, mask = grid_from_unstructured_data(positions, values, (h, w))
    else:
        grid -= field.masked_vectors()
        points = grid.reshape(-1, 2)
        dmask_full = np.ones((h, w), dtype=bool) if dmask is None else dmask
        values, valid = masked_bilinear_sample(arr, dmask_full, points)
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
    """Forward-warp `payload` by the source-reference form of `field`.

    The carrier is the field itself, or its negation for a target-reference
    field. Only valid cells of `field` emit; the result is labelled with
    `reference`.
    """
    if field.reference is Reference.SOURCE:
        carrier = field
    else:
        carrier = FlowField._trusted(-field.masked_vectors(), Reference.SOURCE, field.mask)
    warped, mask = apply(carrier, payload, data_mask=field.mask)
    return FlowField._trusted(warped, reference, mask)


def switch_reference(field: FlowField) -> FlowField:
    """Re-express a flow in the opposite frame of reference.

    Source to target: the vector grid is forward-warped by the flow itself,
    landing the vectors on the grid of the frame they point into. Target to
    source: the vectors are forward-warped by the auxiliary source-reference
    flow with negated vectors (the same motion seen from the other end).
    Uncovered cells come back mask-false.
    """
    return _carry(field, field.masked_vectors(), field.reference.opposite)


def invert(field: FlowField) -> FlowField:
    """Flow of the opposite temporal direction, in the same reference.

    Computed by forward-warping the negated vector field: the negated
    vectors are carried onto the grid of the other frame, where they
    describe the reverse motion. Uncovered cells come back mask-false.
    """
    return _carry(field, -field.masked_vectors(), field.reference)


def _endpoints_in_bounds(field: FlowField, sign: float) -> np.ndarray:
    h, w = field.shape
    pts = grid_coordinates((h, w)) + sign * field.masked_vectors()
    return _in_bounds(pts[..., 0], pts[..., 1], h, w) & field.mask


def valid_target(field: FlowField) -> np.ndarray:
    """Mask of the grid cells that receive data when the flow is applied.

    Target-reference flows use the exact in-bounds test of each cell's
    endpoint; source-reference flows warp an all-ones matrix.
    """
    if field.reference is Reference.TARGET:
        return _endpoints_in_bounds(field, -1.0)
    _, mask = apply(field, np.ones(field.shape))
    return mask


def valid_source(field: FlowField) -> np.ndarray:
    """Mask of the grid cells whose content survives applying the flow.

    Source-reference flows use the exact in-bounds test of each cell's
    endpoint; target-reference flows warp an all-ones matrix with the
    inverted flow.
    """
    if field.reference is Reference.SOURCE:
        return _endpoints_in_bounds(field, 1.0)
    _, mask = apply(invert(field), np.ones(field.shape))
    return mask


def get_padding(field: FlowField) -> Padding:
    """Minimal padding so the padded flow covers the original region.

    Looks at the extremes of the continuous endpoints g + F (source) or
    g - F (target) over all valid cells and rounds the overhang beyond
    each grid edge up to whole pixels. Extremes within `OUT_OF_BOUNDS_TOL`
    of an integer do not round up, so an endpoint that the in-bounds test
    counts as inside needs no padding. All-invalid flows need no padding.
    """
    if not field.mask.any():
        return Padding(0, 0, 0, 0)
    h, w = field.shape
    sign = 1.0 if field.reference is Reference.SOURCE else -1.0
    pts = (grid_coordinates((h, w)) + sign * field.vectors)[field.mask]
    x, y = pts[:, 0], pts[:, 1]

    def overhang(amount: float) -> int:
        return max(0, math.ceil(amount - OUT_OF_BOUNDS_TOL))

    return Padding(
        top=overhang(-float(y.min())),
        bottom=overhang(float(y.max()) - (h - 1)),
        left=overhang(-float(x.min())),
        right=overhang(float(x.max()) - (w - 1)),
    )


def fit_matrix(field: FlowField) -> tuple[AffineTransform, float]:
    """Least-squares affine transform explaining a flow field.

    Source reference: fits M minimizing ||M*g - (g + F(g))|| over valid
    cells. Target reference: fits the correspondences (g - F(g)) -> g.
    Returns the transform and the RMS endpoint residual in pixels.

    Raises FlowError when fewer than 3 valid cells exist or the valid
    cells are collinear.
    """
    if np.count_nonzero(field.mask) < 3:
        raise FlowError("matrix fit needs at least 3 valid cells")
    grid = grid_coordinates(field.shape)[field.mask]
    vecs = field.vectors[field.mask]
    if field.reference is Reference.SOURCE:
        src, dst = grid, grid + vecs
    else:
        src, dst = grid - vecs, grid
    design = np.column_stack([src, np.ones(len(src))])
    solution, _, rank, _ = np.linalg.lstsq(design, dst, rcond=None)
    if rank < 3:
        raise FlowError("matrix fit support is degenerate (collinear valid cells)")
    residual = design @ solution - dst
    rms = float(np.sqrt(np.mean(np.sum(residual**2, axis=1))))
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
