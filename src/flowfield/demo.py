"""Synthetic ground-truth generation demo.

Builds an image-pair ground truth the way synthetic optical flow training
data is made: two motions (a translation plus a cubic lens-distortion
warp each) lead from a base frame to frames 2 and 3, and the flow between
frames 2 and 3 follows by composition. Padding keeps the intermediate
invalid areas away from the region of interest, so the resulting flow is
fully valid over the original frame.

The lens warp is the displacement field of a mild uniform scaling with
each component cubed, giving a third-order polynomial falloff from the
lens center.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .compose import combine
from .core import FlowField, Reference, from_transforms, grid_coordinates, pad, unpad
from .fileio import save_flow, write_image, write_mask
from .ops import get_padding, map_vectors
from .viz import render_colorwheel

__all__ = ["SyntheticDemo", "analytic_flow_2_to_3", "run_synthetic_demo", "synthetic_flows"]

SIZE = (200, 250)
LENS_1 = ("scaling", 110, 120, 1.02)
LENS_2 = ("scaling", 140, 160, 1.02)
TRANS_1 = ("translation", 20, -10)
TRANS_2 = ("translation", -10, -20)


def _cube(vectors: np.ndarray) -> np.ndarray:
    return vectors**3


@dataclass(frozen=True)
class SyntheticDemo:
    """Flows produced by the workflow plus the padding `f13` needs (`pad1`)."""

    f12: FlowField
    f13: FlowField
    f23: FlowField
    pad1: tuple[int, int, int, int]


def synthetic_flows() -> SyntheticDemo:
    """Run the composition workflow and return its flows.

    The flow 1->3 is built in target reference (translation then cubed
    lens warp). Its padding requirement drives the construction of the
    source-reference flow 1->2 on enlarged grids, after which the flow
    2->3 follows from a mode-2 composition in target reference, all-valid
    over the unpadded region.
    """
    flow_lens = map_vectors(from_transforms([LENS_1], SIZE, "t"), _cube)
    flow_trans = from_transforms([TRANS_1], SIZE, "t")
    f13 = combine(flow_trans, flow_lens, 3)

    pad1 = get_padding(f13)
    flow_trans = from_transforms([TRANS_2], SIZE, "s", padding=pad1)
    pad2 = get_padding(flow_trans)
    pad_total = tuple(a + b for a, b in zip(pad1, pad2))
    flow_lens = map_vectors(from_transforms([LENS_2], SIZE, "s", padding=pad_total), _cube)
    f12 = unpad(combine(pad(flow_trans, pad2), flow_lens, 3), pad2)

    f23 = unpad(combine(f12, pad(f13, pad1), 2, Reference.TARGET), pad1)

    return SyntheticDemo(f12=f12, f13=f13, f23=f23, pad1=pad1)


def analytic_flow_2_to_3() -> FlowField:
    """Dense pointwise oracle for the demo's flow 2->3, target reference.

    The motion maps are composed analytically: positions at time 2 are
    found by pulling each time-3 grid point back through the time-1-to-3
    map (whose lens part was built in target reference, so its inverse is
    explicit) and pushing through the time-1-to-2 map (whose lens part
    was built in source reference, so the forward map is explicit).
    """
    grid = grid_coordinates(SIZE)

    lens1_center = np.array(LENS_1[1:3], dtype=np.float64)
    lens2_center = np.array(LENS_2[1:3], dtype=np.float64)
    pull_scale = 1.0 - 1.0 / LENS_1[3]  # target-reference scaling displacement per px
    push_scale = LENS_2[3] - 1.0  # source-reference scaling displacement per px
    t1 = np.array(TRANS_1[1:3], dtype=np.float64)
    t2 = np.array(TRANS_2[1:3], dtype=np.float64)

    at_time_1 = grid - (pull_scale * (grid - lens1_center)) ** 3 - t1
    shifted = at_time_1 + t2
    at_time_2 = shifted + (push_scale * (shifted - lens2_center)) ** 3
    return FlowField(grid - at_time_2, Reference.TARGET)


def run_synthetic_demo(out_dir) -> SyntheticDemo:
    """Generate the demo flows and write them plus visualizations."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    flows = synthetic_flows()
    for name in ("f12", "f13", "f23"):
        field = getattr(flows, name)
        save_flow(out / f"{name}.flo", field)
        write_image(out / f"{name}.ppm", render_colorwheel(field))
        write_mask(out / f"{name}_mask.pgm", field.mask)
    return flows
