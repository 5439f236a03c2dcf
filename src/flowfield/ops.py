"""Single-flow operations: warping, tracking, inversion, evaluation.

All functions are pure; they never mutate their inputs. Source-reference
warps are forward splats (unstructured-to-grid interpolation) and can leave
uncovered cells, which surface as false mask bits. Target-reference warps
are backward bilinear samples and are hole-free but can read out of bounds,
which likewise surfaces in the mask. Invalid output cells are zero-filled.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    AffineTransform,
    FlowError,
    FlowField,
    Padding,
    PointSet,
    Reference,
    as_points,
    grid_coordinates,
)
from .interp import (
    DEFAULT_WEIGHT_THRESHOLD,
    OUT_OF_BOUNDS_TOL,
    _channels_last,
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


def apply(
    field: FlowField,
    data,
    data_mask=None,
    weight_threshold: float = DEFAULT_WEIGHT_THRESHOLD,
):
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
    weight_threshold : float
        Splat coverage threshold, see `grid_from_unstructured_data`.

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

    grid = grid_coordinates((h, w))

    if field.reference is Reference.SOURCE:
        emit = field.mask if dmask is None else (field.mask & dmask)
        positions = (grid + field.vectors)[emit]
        values = arr[emit]
        warped, mask = grid_from_unstructured_data(
            positions, values, (h, w), weight_threshold=weight_threshold
        )
    else:
        points = (grid - field.masked_vectors()).reshape(-1, 2)
        dmask_full = np.ones((h, w), dtype=bool) if dmask is None else dmask
        values, valid = masked_bilinear_sample(arr, dmask_full, points)
        mask = valid.reshape(h, w) & field.mask
        warped = values.reshape(h, w, -1)
        warped[~mask] = 0.0

    if squeeze:
        warped = warped[..., 0]
    return warped, mask


def track(field: FlowField, points) -> tuple[PointSet, np.ndarray]:
    """Track continuous points through a flow.

    Source reference: each point moves by the flow bilinearly sampled at
    its position. Target reference: the field is first switched to source
    reference so the vectors can be read at the points' own locations.

    Returns the tracked PointSet and a boolean validity flag per point;
    a flag is false when the point sampled an out-of-bounds or invalid
    flow region.
    """
    pts = as_points(points)
    if field.reference is Reference.TARGET:
        field = switch_reference(field)
    if len(pts) == 0:
        return PointSet(pts), np.zeros(0, dtype=bool)
    sampled, valid = masked_bilinear_sample(field.vectors, field.mask, pts)
    return PointSet(pts + sampled), valid


def _carry(field: FlowField, payload: np.ndarray, reference: Reference) -> FlowField:
    """Forward-warp `payload` by the source-reference form of `field`.

    The carrier is the field itself, or its negation for a target-reference
    field. Only valid cells of `field` emit; the result is labelled with
    `reference`.
    """
    if field.reference is Reference.SOURCE:
        carrier = field
    else:
        carrier = FlowField(-field.masked_vectors(), Reference.SOURCE, field.mask)
    warped, mask = apply(carrier, payload, data_mask=field.mask)
    return FlowField(warped, reference, mask)


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
    x, y = pts[..., 0], pts[..., 1]
    tol = OUT_OF_BOUNDS_TOL
    return (
        (x >= -tol) & (x <= w - 1 + tol) & (y >= -tol) & (y <= h - 1 + tol) & field.mask
    )


def valid_target(
    field: FlowField,
    method: str = "auto",
    weight_threshold: float = DEFAULT_WEIGHT_THRESHOLD,
) -> np.ndarray:
    """Mask of the grid cells that receive data when the flow is applied.

    `method` 'auto' uses the exact in-bounds test for target-reference
    flows and falls back to warping an all-ones matrix otherwise; 'warp'
    forces the warping definition for any reference.
    """
    if method not in ("auto", "warp"):
        raise FlowError(f"method must be 'auto' or 'warp', got {method!r}")
    if method == "auto" and field.reference is Reference.TARGET:
        return _endpoints_in_bounds(field, -1.0)
    _, mask = apply(field, np.ones(field.shape), weight_threshold=weight_threshold)
    return mask


def valid_source(
    field: FlowField,
    method: str = "auto",
    weight_threshold: float = DEFAULT_WEIGHT_THRESHOLD,
) -> np.ndarray:
    """Mask of the grid cells whose content survives applying the flow.

    `method` 'auto' uses the exact in-bounds test for source-reference
    flows and falls back to warping an all-ones matrix with the inverted
    flow otherwise; 'warp' forces the warping definition.
    """
    if method not in ("auto", "warp"):
        raise FlowError(f"method must be 'auto' or 'warp', got {method!r}")
    if method == "auto" and field.reference is Reference.SOURCE:
        return _endpoints_in_bounds(field, 1.0)
    _, mask = apply(invert(field), np.ones(field.shape), weight_threshold=weight_threshold)
    return mask


def get_padding(field: FlowField, tol: float = 1e-9) -> Padding:
    """Minimal padding so the padded flow covers the original region.

    Looks at the extremes of the continuous endpoints g + F (source) or
    g - F (target) over all valid cells and rounds the overhang beyond
    each grid edge up to whole pixels. Extremes within `tol` of an
    integer do not round up. All-invalid flows need no padding.
    """
    if not field.mask.any():
        return Padding(0, 0, 0, 0)
    h, w = field.shape
    sign = 1.0 if field.reference is Reference.SOURCE else -1.0
    pts = (grid_coordinates((h, w)) + sign * field.vectors)[field.mask]
    x, y = pts[:, 0], pts[:, 1]

    def overhang(amount: float) -> int:
        return max(0, math.ceil(amount - tol))

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
