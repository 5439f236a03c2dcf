"""Dense 2D optical flow fields: representation, warping, composition.

The central object is `FlowField`: an immutable H x W grid of (x, y)
displacement vectors with a frame of reference (source or target) and a
validity mask that travels through every operation. On top of it sit
warping and tracking, reference switching, inversion, valid-area and
padding analysis, three-mode flow composition, a randomized verification
harness, visualization, and .flo file interchange.
"""

from .compose import combine
from .core import (
    AffineTransform,
    FlowError,
    FlowField,
    Reference,
    from_matrix,
    from_transforms,
    grid_coordinates,
    pad,
    unpad,
    zeros,
)
from .fileio import load_flow, read_image, save_flow, write_image, write_mask
from .interp import bilinear_sample, grid_from_unstructured_data
from .ops import (
    apply,
    fit_matrix,
    get_padding,
    invert,
    map_vectors,
    resize,
    switch_reference,
    track,
    valid_source,
    valid_target,
)
from .verify import AccuracyReport, run_trials
from .viz import render_arrows, render_colorwheel

__version__ = "0.1.0"

__all__ = [
    "AccuracyReport",
    "AffineTransform",
    "FlowError",
    "FlowField",
    "Reference",
    "apply",
    "bilinear_sample",
    "combine",
    "fit_matrix",
    "from_matrix",
    "from_transforms",
    "get_padding",
    "grid_coordinates",
    "grid_from_unstructured_data",
    "invert",
    "load_flow",
    "map_vectors",
    "pad",
    "read_image",
    "render_arrows",
    "render_colorwheel",
    "resize",
    "run_trials",
    "save_flow",
    "switch_reference",
    "track",
    "unpad",
    "valid_source",
    "valid_target",
    "write_image",
    "write_mask",
    "zeros",
]
