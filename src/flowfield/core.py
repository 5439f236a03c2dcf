"""Flow field data model: reference frames, validity masks, constructors.

A flow field is a dense H x W grid of 2D displacement vectors in pixel
units, channel order (x, y) with x positive rightward and y positive
downward. Every field carries a frame of reference and a boolean validity
mask of the same H x W shape. Fields are immutable; all operations return
new instances.

Scattered points are plain float64 (N, 2) arrays of (x, y) pixel
coordinates; every function that takes points checks them through
`_points` (finite, shape (N, 2)). Padding is a plain (top, bottom, left,
right) sequence of non-negative integers, checked by `_padding`, a grid
shape by `_grid_shape` and a composition mode by `_mode`. Numbers from
outside the program become float64 through `_real`, or one Python float
through `_number`, refusing strings, complex values and ragged nestings;
masks become fresh bool arrays through `_mask` (bool or integer dtype, exact shape).
"""

from __future__ import annotations

import enum
import math

import numpy as np

__all__ = [
    "AffineTransform",
    "FlowError",
    "FlowField",
    "Reference",
    "from_matrix",
    "from_transforms",
    "grid_coordinates",
    "pad",
    "unpad",
    "zeros",
]

# |det| of the upper-left 2x2 block below which a transform counts as singular.
SINGULAR_DET_TOL = 1e-12

# Largest grid a size, scale or padding may ask for (16384 x 16384 cells,
# 4 GiB of float64 vectors); larger requests raise instead of allocating.
MAX_CELLS = 1 << 28


class FlowError(ValueError):
    """Raised when a flow operation is called with inconsistent data."""


class Reference(enum.Enum):
    """Frame of reference of a flow field.

    SOURCE ('s'): vectors sit on the regular pixel grid of the first frame
    and point to continuous positions in the second frame.

    TARGET ('t'): vectors sit on the regular pixel grid of the second frame
    and point back from continuous positions in the first frame.
    """

    SOURCE = "s"
    TARGET = "t"

    @classmethod
    def parse(cls, value: "Reference | str") -> "Reference":
        if isinstance(value, Reference):
            return value
        if isinstance(value, str):
            lowered = value.strip().lower()
            if lowered in ("s", "source"):
                return cls.SOURCE
            if lowered in ("t", "target"):
                return cls.TARGET
        raise FlowError(f"unknown reference {value!r}; expected 's' or 't'")

    @property
    def opposite(self) -> "Reference":
        return Reference.TARGET if self is Reference.SOURCE else Reference.SOURCE

    def __str__(self) -> str:
        return self.value


# Named transform steps (each an AffineTransform constructor) and their arity;
# the CLI's spec grammar reads it, and `verify` draws kinds in its order.
_STEP_ARITY = {"translation": 2, "rotation": 3, "scaling": 3}


def _integer(value, least: int, name: str) -> int:
    """`value` as a Python int if it is an integer-valued number >= `least`, else FlowError."""
    try:
        whole = int(value) == value
    except (TypeError, ValueError, OverflowError):
        whole = False
    if not whole or value < least:
        raise FlowError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def _sides(value, sides: tuple[str, ...], least: int, name: str) -> tuple[int, ...]:
    """`value` as one Python int per named side, each integer-valued and >= `least`.

    Any other count or value raises FlowError. `_padding` and `_grid_shape`
    are the one check on padding and on a grid shape from outside the program.
    """
    values = tuple(value) if np.iterable(value) else (value,)
    if len(values) != len(sides):
        raise FlowError(f"{name} needs {len(sides)} values ({', '.join(sides)}), got {len(values)}")
    return tuple(_integer(v, least, f"{name} {side}") for side, v in zip(sides, values))


def _padding(value) -> tuple[int, int, int, int]:
    return _sides(value, ("top", "bottom", "left", "right"), 0, "padding")


def _grid_shape(shape) -> tuple[int, int]:
    return _sides(shape, ("height", "width"), 1, "grid")


def _mode(value) -> int:
    """The one check on a composition mode: a number equal to 1, 2 or 3, else FlowError."""
    try:
        return {1: 1, 2: 2, 3: 3}[value]
    except (KeyError, TypeError):  # TypeError: unhashable
        raise FlowError(f"mode must be 1, 2 or 3, got {value!r}") from None


def _array(values, name: str) -> np.ndarray:
    """`np.asarray(values)`, with numpy's error on ragged nesting raised as FlowError."""
    try:
        return np.asarray(values)
    except ValueError:
        raise FlowError(f"{name} must be real numbers in a rectangular array") from None


def _refused(arr: np.ndarray) -> bool:
    """Whether `_real` refuses `arr`: its dtype, or an object array's str, bytes or numpy item."""
    if arr.dtype.kind != "O":
        return arr.dtype.kind not in "biuf"
    judged = (str, bytes, np.ndarray, np.generic)
    return any(isinstance(v, judged) and _refused(np.asarray(v)) for v in arr.flat)


def _real(values, name: str, copy: bool = False) -> np.ndarray:
    """`values` as a float64 array; a fresh C-ordered one if `copy`, else float64 is not copied.

    This is the one check that numbers arriving from outside the program
    are real: strings, complex values and dates (held in an object array
    too), ragged nestings, ints beyond float64 and objects that do not
    convert raise FlowError, before numpy can parse a string or drop an
    imaginary part.
    """
    arr = _array(values, name)
    if _refused(arr):
        raise FlowError(f"{name} must be real numbers, got dtype {arr.dtype}")
    try:
        return arr.astype(np.float64, order="C" if copy else "K", copy=copy)
    except (TypeError, ValueError, OverflowError):
        raise FlowError(f"{name} must be real numbers") from None


def _number(value, name: str) -> float:
    """`value` as a Python float if `_real` takes it and it is one number, else FlowError."""
    number = _real(value, name)
    if number.ndim:
        raise FlowError(f"{name} must be one real number, got shape {number.shape}")
    return float(number)


def _mask(mask, shape: tuple[int, int] | None, name: str) -> np.ndarray:
    """`mask` as a fresh bool array of exactly `shape`, or of any (H, W) if `shape` is None.

    The one check on a mask from outside the program: bool and integer dtypes
    only, nonzero meaning valid; anything else raises FlowError.
    """
    m = _array(mask, name)
    if m.dtype.kind not in "biu":
        raise FlowError(f"{name} must be bool or integer, got dtype {m.dtype}")
    if m.ndim != 2 or m.shape != (shape or m.shape):
        raise FlowError(f"{name} shape {m.shape} does not match {shape or '(H, W)'}")
    return m.astype(bool)


def _points(points) -> np.ndarray:
    """Point coordinates as a float64 (N, 2) array, without copying one.

    This is the one check on points arriving from outside the program:
    empty input becomes (0, 2); non-real values, another shape or a
    non-finite coordinate raise FlowError.
    """
    pts = _real(points, "points")
    if pts.size == 0:
        pts = pts.reshape(0, 2)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise FlowError(f"points must have shape (N, 2), got {pts.shape}")
    if not np.isfinite(pts).all():
        raise FlowError("point coordinates must be finite")
    return pts


def _fill_cells(data: np.ndarray, where: np.ndarray) -> np.ndarray:
    """Zero the bytes of the (..., C) cells of `data` under true `where` bits (+0.0 for floats).

    Works in place, writing each cell as one item, and returns `data`, which
    must be a writable C-contiguous array. This is the one code that zeroes
    cells: a masked copy is a fresh copy filled here.
    """
    if data.size:  # no cells or no channels have nothing to fill
        cell_type = np.dtype((np.void, data.itemsize * data.shape[-1]))
        data.view(cell_type)[..., 0][where] = np.zeros((), cell_type)
    return data


class AffineTransform:
    """A 3x3 homogeneous matrix acting on column vectors (x, y, 1).

    The bottom row is pinned to (0, 0, 1). Inversion requires the
    upper-left 2x2 block to be non-singular.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        m = _real(matrix, "transform matrix", copy=True)
        if m.shape != (3, 3):
            raise FlowError(f"transform matrix must be 3x3, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise FlowError("transform matrix must be finite")
        if not np.array_equal(m[2], [0.0, 0.0, 1.0]):
            raise FlowError("transform matrix bottom row must be (0, 0, 1)")
        m.flags.writeable = False
        self.matrix = m

    @classmethod
    def identity(cls) -> "AffineTransform":
        return cls(np.eye(3))

    @classmethod
    def translation(cls, tx: float, ty: float) -> "AffineTransform":
        return cls([[1.0, 0.0, tx], [0.0, 1.0, ty], [0.0, 0.0, 1.0]])

    @classmethod
    def rotation(cls, cx: float, cy: float, degrees: float) -> "AffineTransform":
        """Rotation about (cx, cy).

        Positive angles rotate counter-clockwise in the mathematical sense;
        with the y-down image convention this appears clockwise on screen.
        """
        cx, cy, degrees = map(_number, (cx, cy, degrees), ("cx", "cy", "rotation angle"))
        if not math.isfinite(degrees):
            raise FlowError(f"rotation angle must be finite, got {degrees!r}")
        a = math.radians(degrees)
        cos_a, sin_a = math.cos(a), math.sin(a)
        return cls(
            [
                [cos_a, -sin_a, cx - cos_a * cx + sin_a * cy],
                [sin_a, cos_a, cy - sin_a * cx - cos_a * cy],
                [0.0, 0.0, 1.0],
            ]
        )

    @classmethod
    def scaling(cls, cx: float, cy: float, factor: float) -> "AffineTransform":
        """Uniform scaling about (cx, cy)."""
        cx, cy, factor = map(_number, (cx, cy, factor), ("cx", "cy", "scaling factor"))
        return cls(
            [
                [factor, 0.0, cx * (1.0 - factor)],
                [0.0, factor, cy * (1.0 - factor)],
                [0.0, 0.0, 1.0],
            ]
        )

    @classmethod
    def from_transforms(cls, transforms) -> "AffineTransform":
        """Compose a list of named transforms, first entry applied first.

        Accepted forms: ('translation', tx, ty), ('rotation', cx, cy,
        degrees) and ('scaling', cx, cy, factor).
        """
        if not np.iterable(transforms):
            raise FlowError(f"transforms must be a sequence of entries, got {transforms!r}")
        combined = cls.identity()
        for item in transforms:
            if not np.iterable(item) or not (item := tuple(item)):
                raise FlowError(f"transform entry must be (name, *args), got {item!r}")
            name, args = str(item[0]).lower(), item[1:]
            if _STEP_ARITY.get(name) != len(args):
                raise FlowError(f"unknown transform {item!r}")
            combined = getattr(cls, name)(*args) @ combined
        return combined

    def __matmul__(self, other: "AffineTransform") -> "AffineTransform":
        # Overflow near the float64 limit is reported below, not warned about.
        with np.errstate(over="ignore", invalid="ignore"):
            product = self.matrix @ other.matrix
        if not np.isfinite(product).all():
            raise FlowError("composed transform overflows float64")
        return AffineTransform(product)

    @property
    def determinant(self) -> float:
        """Determinant of the upper-left 2x2 block."""
        m = self.matrix
        return float(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])

    def inverse(self) -> "AffineTransform":
        if abs(self.determinant) <= SINGULAR_DET_TOL:
            raise FlowError("transform is singular; cannot invert")
        return AffineTransform(np.linalg.inv(self.matrix))

    def apply(self, points) -> np.ndarray:
        """Map points, array_like, shape (N, 2), through the transform."""
        pts = _points(points)
        m = self.matrix
        out = pts @ m[:2, :2].T
        out += m[:2, 2]
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, AffineTransform) and np.array_equal(self.matrix, other.matrix)

    def __repr__(self) -> str:
        return f"AffineTransform({self.matrix.tolist()})"


class FlowField:
    """Dense 2D flow field: (H, W, 2) vectors, a reference, and a mask.

    Parameters
    ----------
    vectors : array_like, shape (H, W, 2)
        Displacements in pixels, channels (x, y).
    reference : Reference or str
        's' (source) or 't' (target).
    mask : array_like of bool or integers, shape (H, W), optional
        Validity mask, nonzero meaning valid (other dtypes raise FlowError);
        defaults to all-true. Vector values under false mask bits are
        unconstrained (may be non-finite) and are ignored by every operation.
    """

    __slots__ = ("_vectors", "_reference", "_mask")

    def __init__(self, vectors, reference, mask=None):
        vec = _real(vectors, "vectors", copy=True)  # caller edits do not leak in
        if vec.ndim != 3 or vec.shape[2] != 2 or vec.shape[0] < 1 or vec.shape[1] < 1:
            raise FlowError(f"vectors must have shape (H, W, 2) with H, W >= 1, got {vec.shape}")
        ref = Reference.parse(reference)
        m = np.ones(vec.shape[:2], bool) if mask is None else _mask(mask, vec.shape[:2], "mask")
        # A scan of the whole array is cheap; gather the valid cells only when it fails.
        if not np.isfinite(vec).all() and not np.isfinite(vec[m]).all():
            raise FlowError("non-finite vector components inside the valid mask")
        vec.flags.writeable = False
        m.flags.writeable = False
        self._vectors = vec
        self._reference = ref
        self._mask = m

    @classmethod
    def _trusted(cls, vectors: np.ndarray, reference: Reference, mask: np.ndarray) -> "FlowField":
        """Adopt freshly allocated output without a copy or a scan.

        The caller guarantees what the public constructor checks: float64
        (H, W, 2) vectors, a bool mask of the same grid and finite vectors
        on valid cells; and that no writable reference to either array
        remains elsewhere. Both arrays are made read-only.
        """
        vectors.flags.writeable = False
        mask.flags.writeable = False
        field = cls.__new__(cls)
        field._vectors = vectors
        field._reference = reference
        field._mask = mask
        return field

    @property
    def vectors(self) -> np.ndarray:
        """(H, W, 2) read-only displacement array, channels (x, y)."""
        return self._vectors

    @property
    def reference(self) -> Reference:
        return self._reference

    @property
    def mask(self) -> np.ndarray:
        """(H, W) read-only boolean validity mask."""
        return self._mask

    @property
    def shape(self) -> tuple[int, int]:
        """(H, W) of the grid."""
        return self._vectors.shape[:2]

    def masked_vectors(self) -> np.ndarray:
        """Vectors with invalid cells zero-filled; safe for arithmetic.

        Returns the stored (read-only) array when the mask is all-true.
        """
        if self._mask.all():
            return self._vectors
        return _fill_cells(self._vectors.copy(), ~self._mask)

    def __repr__(self) -> str:
        h, w = self.shape
        valid = 100.0 * float(np.count_nonzero(self._mask)) / self._mask.size
        return f"FlowField({h}x{w}, ref={self._reference}, valid={valid:.1f}%)"


def _check_cells(h: int, w: int) -> None:
    if h * w > MAX_CELLS:
        raise FlowError(f"a {h}x{w} grid exceeds the budget of {MAX_CELLS} cells")


def _grid_axes(shape: tuple[int, int], padding) -> tuple[np.ndarray, np.ndarray]:
    """x (W,) and y (H, 1) axes of a checked grid, padded as in `grid_coordinates`."""
    h, w = _grid_shape(shape)
    top, bottom, left, right = (0, 0, 0, 0) if padding is None else _padding(padding)
    _check_cells(h + top + bottom, w + left + right)
    xs = np.arange(-left, w + right, dtype=np.float64)
    ys = np.arange(-top, h + bottom, dtype=np.float64)
    return xs, ys[:, None]


def grid_coordinates(shape: tuple[int, int], padding=None) -> np.ndarray:
    """(H, W, 2) array of grid point coordinates, channels (x, y).

    With padding (top, bottom, left, right), coordinates extend beyond the
    original grid: x runs from -left to W-1+right and y from -top to
    H-1+bottom, so the returned array has the padded shape while staying in
    the unpadded coordinate frame.
    """
    xs, ys = _grid_axes(shape, padding)
    grid = np.empty((ys.size, xs.size, 2), dtype=np.float64)
    grid[..., 0] = xs
    grid[..., 1] = ys
    return grid


def from_matrix(
    matrix: AffineTransform,
    shape: tuple[int, int],
    reference: Reference | str,
    padding=None,
) -> FlowField:
    """Flow field realizing an affine transform on a (H, W) grid.

    Source reference: vector at grid point g is M*g - g. Target reference:
    vector at grid point g is g - Minv*g. With padding, the transform is
    evaluated on the enlarged grid (border cells carry real vectors and the
    mask is all-true), unlike `pad` which inserts invalid zeros.
    """
    if not isinstance(matrix, AffineTransform):
        matrix = AffineTransform(matrix)
    ref = Reference.parse(reference)
    xs, ys = _grid_axes(shape, padding)
    m = (matrix if ref is Reference.SOURCE else matrix.inverse()).matrix
    vectors = np.empty((ys.size, xs.size, 2), dtype=np.float64)
    # Separable: component c of M*g - g is a term on its own axis, m_cc*g_c - g_c,
    # plus one on the other axis, m_co*g_o + m_c2. Both are formed on the axes and
    # meet in one broadcast pass (g - M*g for a target flow, M its inverse there).
    with np.errstate(over="ignore", invalid="ignore"):
        for c, (own, other) in enumerate(((xs, ys), (ys, xs))):
            scaled = m[c, c] * own
            across = m[c, 1 - c] * other + m[c, 2]
            if ref is Reference.SOURCE:
                np.add(scaled - own, across, out=vectors[..., c])
            else:
                np.subtract(own - scaled, across, out=vectors[..., c])
    if not np.isfinite(vectors).all():
        raise FlowError("the affine map overflows float64 on this grid")
    return FlowField._trusted(vectors, ref, np.ones(vectors.shape[:2], dtype=bool))


def zeros(shape: tuple[int, int], reference: Reference | str = Reference.SOURCE) -> FlowField:
    """All-zero flow (the identity mapping) with an all-true mask."""
    return from_matrix(AffineTransform.identity(), shape, reference)


def from_transforms(
    transforms,
    shape: tuple[int, int],
    reference: Reference | str,
    padding=None,
) -> FlowField:
    """Flow field for a sequence of named transforms, first applied first.

    See `AffineTransform.from_transforms` for the accepted entries. An
    empty list yields zero flow in either reference.
    """
    return from_matrix(AffineTransform.from_transforms(transforms), shape, reference, padding)


def pad(field: FlowField, padding) -> FlowField:
    """Extend the grid by (top, bottom, left, right) cells of zero vectors and a false mask."""
    top, bottom, left, right = _padding(padding)
    h, w = field.shape
    _check_cells(h + top + bottom, w + left + right)
    vectors = np.zeros((h + top + bottom, w + left + right, 2))
    mask = np.zeros(vectors.shape[:2], dtype=bool)
    vectors[top : top + h, left : left + w] = field.vectors
    mask[top : top + h, left : left + w] = field.mask
    return FlowField._trusted(_fill_cells(vectors, ~mask), field.reference, mask)


def unpad(field: FlowField, padding) -> FlowField:
    """Crop (top, bottom, left, right) cells off a flow; exact inverse of `pad`."""
    top, bottom, left, right = p = _padding(padding)
    h, w = field.shape
    if top + bottom + 1 > h or left + right + 1 > w:
        raise FlowError(f"cannot unpad {p} from a {h}x{w} field")
    vectors = field.vectors[top : h - bottom, left : w - right].copy()
    mask = field.mask[top : h - bottom, left : w - right].copy()
    return FlowField._trusted(_fill_cells(vectors, ~mask), field.reference, mask)
