"""Flow field visualization: color-wheel images and arrow overlays.

Color-wheel rendering maps each vector's direction to hue and its
magnitude to saturation (value is fixed at 1), so zero flow renders white
and invalid cells render black. The hue origin is at rightward vectors,
and the angle is measured so upward motion (negative y in image
coordinates) keeps its on-screen orientation.
"""

from __future__ import annotations

import numpy as np

from .core import FlowError, FlowField, Reference, _integer, grid_coordinates
from .ops import _far_ends

__all__ = ["render_arrows", "render_colorwheel"]

ARROW_COLOR = (0, 176, 0)
ORIGIN_DOT_COLOR = (220, 0, 0)


def _hsv_to_rgb(hue_deg: np.ndarray, sat: np.ndarray, val: np.ndarray) -> np.ndarray:
    """Vectorized HSV (hue in degrees) to float RGB in [0, 1]."""
    h = (hue_deg % 360.0) / 60.0
    i = np.floor(h).astype(int) % 6
    f = h - np.floor(h)
    p = val * (1.0 - sat)
    q = val * (1.0 - f * sat)
    t = val * (1.0 - (1.0 - f) * sat)
    channels = [
        np.choose(i, [val, q, p, p, t, val]),
        np.choose(i, [t, val, val, q, p, p]),
        np.choose(i, [p, p, t, val, val, q]),
    ]
    return np.stack(channels, axis=-1)


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
    elif not 0 < max_magnitude < np.inf:
        raise FlowError(f"max_magnitude must be positive and finite, got {max_magnitude}")
    hue = np.degrees(np.arctan2(-vec[..., 1], vec[..., 0])) % 360.0
    # Clipped before the division, which a tiny max_magnitude could overflow.
    sat = np.minimum(magnitude, max_magnitude) / max_magnitude
    # An invalid cell has value 0, which is black whatever its hue and saturation.
    rgb = _hsv_to_rgb(hue, sat, field.mask.astype(np.float64))
    return np.round(rgb * 255.0).astype(np.uint8)


def _draw_line(image: np.ndarray, x0: int, y0: int, x1: int, y1: int, color) -> None:
    """Bresenham raster of a line segment, clipped to the image.

    Step n of the walk from (x0, y0) sits at offset
    (2 * d * n + steps) // (2 * steps) along an axis the segment spans by
    d, where steps is the larger span. Both offsets grow with n, so the
    in-image steps form one run; its ends are found by clipping the step
    index against the four image edges (Liang-Barsky in integers), and the
    walk covers that run alone. Its cost is bounded by the image, not by
    the segment length.
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
        if first > last:
            return
    x, y, err = x0, y0, dx - dy
    if first:
        # Jump to step `first`: kx unit steps in x and ky in y so far.
        kx = (2 * dx * first + steps) // (2 * steps)
        ky = (2 * dy * first + steps) // (2 * steps)
        x, y = x0 + sx * kx, y0 + sy * ky
        err += ky * dx - kx * dy
    for _ in range(last - first + 1):
        image[y, x] = color
        e2 = 2 * err
        if e2 >= -dy:
            err -= dy
            x += sx
        if e2 <= dx:
            err += dx
            y += sy


def render_arrows(field: FlowField, stride: int = 1) -> np.ndarray:
    """Draw flow arrows on a stride-subsampled lattice over a white image.

    Source reference draws from each lattice point g to g + F(g); target
    reference draws from g - F(g) to g. Lattice points with a false mask
    bit are skipped; each drawn arrow gets a dot marker at its lattice
    point.
    """
    stride = _integer(stride, 1, "stride")
    h, w = field.shape
    image = np.full((h, w, 3), 255, dtype=np.uint8)

    grid, ends = grid_coordinates((h, w)), _far_ends(field)
    start, end = (grid, ends) if field.reference is Reference.SOURCE else (ends, grid)

    for gy in range(stride // 2, h, stride):
        for gx in range(stride // 2, w, stride):
            if not field.mask[gy, gx]:
                continue
            x0, y0 = int(round(start[gy, gx, 0])), int(round(start[gy, gx, 1]))
            x1, y1 = int(round(end[gy, gx, 0])), int(round(end[gy, gx, 1]))
            _draw_line(image, x0, y0, x1, y1, ARROW_COLOR)
            image[gy, gx] = ORIGIN_DOT_COLOR
    return image
