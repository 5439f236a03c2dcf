"""The public surface: one name per operation, nothing more."""

import ast
from pathlib import Path

import flowfield
import flowfield.core
import flowfield.fileio


def test_package_exports_are_pinned():
    assert sorted(flowfield.__all__) == [
        "AccuracyReport", "AffineTransform", "FlowError", "FlowField",
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


def _owners(match) -> list[str]:
    """`module.function` of every src AST node that `match` accepts, in walk order."""
    found = []
    for path in sorted(Path(flowfield.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        # Walked breadth first, so a nested function claims its nodes last.
        owner = {
            id(node): func.name
            for func in ast.walk(tree)
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(func)
        }
        found += [
            f"{path.stem}.{owner.get(id(node), '<module>')}"
            for node in ast.walk(tree)
            if match(node)
        ]
    return found


def test_masks_become_bool_only_in_core_mask():
    """Caller masks have one check: no src function but `core._mask` calls `.astype(bool)`."""
    calls = _owners(
        lambda node: isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "astype"
        and any("bool" in ast.unparse(arg) for arg in node.args)
    )
    assert calls == ["core._mask"]


def test_library_output_skips_the_public_constructor():
    """No op rebuilds its output through the public constructor.

    Ops adopt what they build through `FlowField._trusted`; only the demo's
    test oracle calls `FlowField`.
    """
    calls = _owners(
        lambda node: isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "FlowField"
    )
    assert calls == ["demo.analytic_flow_2_to_3"]


def test_cells_are_zeroed_only_in_core_fill_cells():
    """One zeroing primitive: no src function but `core._fill_cells` builds an `np.void` cell view."""
    views = _owners(lambda node: isinstance(node, ast.Attribute) and node.attr == "void")
    assert views == ["core._fill_cells"]


def test_cells_are_selected_and_filled_one_way():
    """No src function picks values with `np.choose` or assigns a zero through a subscript.

    Per-sector values come from closed forms, and cells under a mask are
    zeroed by `core._fill_cells`, not by `array[mask] = 0`.
    """
    def zero(node):
        if isinstance(node, ast.UnaryOp):
            return zero(node.operand)
        return isinstance(node, ast.Constant) and type(node.value) in (int, float) and node.value == 0

    found = _owners(
        lambda node: (isinstance(node, ast.Attribute) and node.attr == "choose")
        or (
            isinstance(node, ast.Assign)
            and any(isinstance(target, ast.Subscript) for target in node.targets)
            and zero(node.value)
        )
    )
    assert found == []
