"""Flow field visualization: color-wheel images and arrow overlays.

Color-wheel rendering maps each vector's direction to hue and its
magnitude to saturation (value is fixed at 1), so zero flow renders white;
invalid cells are zeroed black by `core._fill_cells`. The hue origin is at
rightward vectors, and the angle is measured so upward motion (negative y
in image coordinates) keeps its on-screen orientation. The wheel is its
closed form, a clipped min or max of two lines per channel (`_wheel_rgb`).
"""

from __future__ import annotations

import numpy as np

from .core import FlowError, FlowField, Reference, _fill_cells, _integer, _number
from .ops import _far_ends

__all__ = ["render_arrows", "render_colorwheel"]

ARROW_COLOR = (0, 176, 0)
ORIGIN_DOT_COLOR = (220, 0, 0)


def _wheel_rgb(hue_deg: np.ndarray, sat: np.ndarray) -> np.ndarray:
    """(..., 3) float RGB of the value-1 HSV wheel; hue in degrees in [0, 360].

    Channel c is 1 - sat * w, where over the six 60-degree hue sectors w
    runs (0, f, 1, 1, 1 - f, 0), f being the hue's fraction through its
    sector, from sector 0 for red, 4 for green and 2 for blue. With h =
    hue / 60, w is red's min(h - 1, 5 - h), green's max(1 - h, h - 3) and
    blue's max(3 - h, h - 5), clipped to [0, 1], with no wrap at h = 6.
    Unclipped, h - 1, 1 - h, h - 3 and h - 5 are the sector form's own f
    or 1 - f, and 5 - h, 3 - h equal its 1 - f, both exact (Sterbenz).
    """
    h = hue_deg / 60.0
    rgb = np.empty((*h.shape, 3))
    np.minimum(h - 1.0, 5.0 - h, out=rgb[..., 0])
    np.maximum(1.0 - h, h - 3.0, out=rgb[..., 1])
    np.maximum(3.0 - h, h - 5.0, out=rgb[..., 2])
    np.multiply(np.clip(rgb, 0.0, 1.0, out=rgb), sat[..., None], out=rgb)
    return np.subtract(1.0, rgb, out=rgb)


def render_colorwheel(field: FlowField, max_magnitude: float | None = None) -> np.ndarray:
    """Render a flow as an RGB uint8 image via the hue/saturation wheel.

    Hue is atan2(-y, x) of the vector mapped onto [0, 360) degrees (so a
    purely rightward vector is red at 0 degrees), saturation the vector
    magnitude relative to `max_magnitude`, clamped to 1. The default
    `max_magnitude` is the largest valid-cell magnitude, or 1 for a flow
    without motion. Invalid cells are black.
    """
    vec = field.masked_vectors()
    with np.errstate(over="ignore"):
        magnitude = np.hypot(vec[..., 0], vec[..., 1])
    if not np.isfinite(magnitude).all():
        raise FlowError("vector magnitudes overflow float64")
    if max_magnitude is None:
        peak = float(magnitude[field.mask].max()) if field.mask.any() else 0.0
        max_magnitude = peak if peak > 0 else 1.0
    elif not 0 < (max_magnitude := _number(max_magnitude, "max_magnitude")) < np.inf:
        raise FlowError(f"max_magnitude must be positive and finite, got {max_magnitude}")
    hue = np.degrees(np.arctan2(-vec[..., 1], vec[..., 0])) % 360.0
    # Clipped before the division, which a tiny max_magnitude could overflow.
    sat = np.minimum(magnitude, max_magnitude) / max_magnitude
    return _fill_cells(np.round(_wheel_rgb(hue, sat) * 255.0).astype(np.uint8), ~field.mask)


def _draw_line(image: np.ndarray, x0: int, y0: int, x1: int, y1: int, color) -> None:
    """Bresenham raster of a line segment, clipped to the image.

    Step n of the walk from (x0, y0) sits at offset
    (2 * d * n + steps) // (2 * steps) along an axis the segment spans by
    d, where steps is the larger span; that is the pixel the error-term
    walk reaches, ties included. Both offsets grow with n, so the in-image
    steps form one run; its ends are found by clipping the step index
    against the four image edges (Liang-Barsky in integers), and only that
    run is written. Its cost is bounded by the image, not by the segment
    length, and Python ints keep every offset exact at any length.
    """
    h, w = image.shape[:2]
    dx, dy = abs(x1 - x0), abs(y1 - y0)
    sx = 1 if x0 < x1 else -1
    sy = 1 if y0 < y1 else -1
    steps = max(dx, dy)
    first, last = 0, steps
    if not (0 <= x0 < w and 0 <= y0 < h and 0 <= x1 < w and 0 <= y1 < h):
        for start, span, sign, size in ((x0, dx, sx, w), (y0, dy, sy, h)):
            # Offsets k with start + sign * k inside [0, size) are lo..hi; step
            # n's offset is >= lo from n >= steps * (2 * lo - 1) / (2 * span)
            # and <= hi up to n <= (steps * (2 * hi + 1) - 1) / (2 * span).
            lo, hi = (-start, size - 1 - start) if sign > 0 else (start - size + 1, start)
            if span == 0:
                if not lo <= 0 <= hi:
                    return
                continue
            first = max(first, -((steps * (1 - 2 * lo)) // (2 * span)))
            last = min(last, (steps * (2 * hi + 1) - 1) // (2 * span))
    twice = 2 * steps or 1  # a zero-length segment is its single pixel
    for n in range(first, last + 1):
        x = x0 + sx * ((2 * dx * n + steps) // twice)
        image[y0 + sy * ((2 * dy * n + steps) // twice), x] = color


def render_arrows(field: FlowField, stride: int = 1) -> np.ndarray:
    """Draw flow arrows on a stride-subsampled lattice over a white image.

    Source reference draws from each lattice point g to g + F(g); target
    reference draws from g - F(g) to g, each far end rounded half to even
    to a pixel. Lattice points with a false mask bit are skipped; each
    drawn arrow gets a dot marker at its lattice point, drawn after its
    line.
    """
    # From 2 * max(H, W) on, no lattice point falls in the image.
    stride = min(_integer(stride, 1, "stride"), 2 * max(field.shape))
    image = np.full((*field.shape, 3), 255, dtype=np.uint8)
    lattice = slice(stride // 2, None, stride)
    kept = field.mask[lattice, lattice]
    end_x, end_y = (np.round(plane[kept]).tolist() for plane in _far_ends(field, lattice, lattice))
    cells = np.argwhere(kept) * stride + stride // 2
    source = field.reference is Reference.SOURCE
    for (gy, gx), ex, ey in zip(cells.tolist(), end_x, end_y):
        cell, far = (gx, gy), (int(ex), int(ey))
        start, end = (cell, far) if source else (far, cell)
        _draw_line(image, *start, *end, ARROW_COLOR)
        image[gy, gx] = ORIGIN_DOT_COLOR
    return image
