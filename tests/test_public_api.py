"""The public surface: one name per operation, nothing more."""

import ast
from pathlib import Path

import flowfield
import flowfield.core
import flowfield.fileio


def test_package_exports_are_pinned():
    assert sorted(flowfield.__all__) == [
        "AccuracyReport", "AffineTransform", "ComposeMode", "FlowError", "FlowField",
        "Reference", "apply", "bilinear_sample", "combine",
        "fit_matrix", "from_matrix", "from_transforms", "get_padding", "grid_coordinates",
        "grid_from_unstructured_data", "invert", "load_flow", "map_vectors", "pad",
        "read_image", "render_arrows", "render_colorwheel", "resize", "run_trials",
        "save_flow", "switch_reference", "track", "unpad", "valid_source", "valid_target",
        "write_image", "write_mask", "zeros",
    ]
    assert all(hasattr(flowfield, name) for name in flowfield.__all__)


def test_fileio_has_one_flo_reader_and_writer():
    assert sorted(flowfield.fileio.__all__) == [
        "FLO_MAGIC", "INVALID_SENTINEL", "load_flow", "read_image", "save_flow",
        "write_image", "write_mask",
    ]


def test_core_imports_no_other_flowfield_module():
    """The data model sits below the kernels: `core` imports nothing else of the package."""
    tree = ast.parse(Path(flowfield.core.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert not {name for name in imported if name.startswith((".", "flowfield"))}
