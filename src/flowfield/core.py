"""Flow field data model: reference frames, validity masks, constructors.

A flow field is a dense H x W grid of 2D displacement vectors in pixel
units, channel order (x, y) with x positive rightward and y positive
downward. Every field carries a frame of reference and a boolean validity
mask of the same H x W shape. Fields are immutable; all operations return
new instances.

Scattered points are plain float64 (N, 2) arrays of (x, y) pixel
coordinates; every function that takes points checks them through
`_points` (finite, shape (N, 2)).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "AffineTransform",
    "FlowError",
    "FlowField",
    "Padding",
    "Reference",
    "from_matrix",
    "from_transforms",
    "grid_coordinates",
    "pad",
    "resize",
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


@dataclass(frozen=True)
class Padding:
    """Per-edge padding amounts in pixels, all non-negative."""

    top: int
    bottom: int
    left: int
    right: int

    def __post_init__(self):
        for name in ("top", "bottom", "left", "right"):
            value = getattr(self, name)
            try:
                whole = int(value) == value
            except (TypeError, ValueError, OverflowError):
                whole = False
            if not whole or value < 0:
                raise FlowError(f"padding {name} must be a non-negative integer, got {value!r}")
            object.__setattr__(self, name, int(value))

    @classmethod
    def parse(cls, value) -> "Padding":
        """Accept a Padding, or a (top, bottom, left, right) sequence."""
        if isinstance(value, Padding):
            return value
        values = tuple(value)
        if len(values) != 4:
            raise FlowError(f"padding needs 4 values (top, bottom, left, right), got {len(values)}")
        return cls(*values)

    def __add__(self, other: "Padding") -> "Padding":
        other = Padding.parse(other)
        return Padding(
            self.top + other.top,
            self.bottom + other.bottom,
            self.left + other.left,
            self.right + other.right,
        )

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.top, self.bottom, self.left, self.right)


def _points(points) -> np.ndarray:
    """Point coordinates as a float64 (N, 2) array, without copying one.

    This is the one check on points arriving from outside the program:
    empty input becomes (0, 2); another shape or a non-finite coordinate
    raises FlowError.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.size == 0:
        pts = pts.reshape(0, 2)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise FlowError(f"points must have shape (N, 2), got {pts.shape}")
    if not np.isfinite(pts).all():
        raise FlowError("point coordinates must be finite")
    return pts


class AffineTransform:
    """A 3x3 homogeneous matrix acting on column vectors (x, y, 1).

    The bottom row is pinned to (0, 0, 1). Inversion requires the
    upper-left 2x2 block to be non-singular.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        m = np.asarray(matrix, dtype=np.float64)
        if m.shape != (3, 3):
            raise FlowError(f"transform matrix must be 3x3, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise FlowError("transform matrix must be finite")
        if not np.array_equal(m[2], [0.0, 0.0, 1.0]):
            raise FlowError("transform matrix bottom row must be (0, 0, 1)")
        m = m.copy()
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
        combined = cls.identity()
        for item in transforms:
            item = tuple(item)
            if not item:
                raise FlowError("empty transform entry")
            name, args = str(item[0]).lower(), item[1:]
            if name == "translation" and len(args) == 2:
                step = cls.translation(*map(float, args))
            elif name == "rotation" and len(args) == 3:
                step = cls.rotation(*map(float, args))
            elif name == "scaling" and len(args) == 3:
                step = cls.scaling(*map(float, args))
            else:
                raise FlowError(f"unknown transform {item!r}")
            combined = step @ combined
        return combined

    def __matmul__(self, other: "AffineTransform") -> "AffineTransform":
        return AffineTransform(self.matrix @ other.matrix)

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
    mask : array_like of bool, shape (H, W), optional
        Validity mask; defaults to all-true. Vector values under false
        mask bits are unconstrained (may be non-finite) and are ignored
        by every operation.
    """

    __slots__ = ("_vectors", "_reference", "_mask")

    def __init__(self, vectors, reference, mask=None):
        vec = np.asarray(vectors, dtype=np.float64)
        if vec.ndim != 3 or vec.shape[2] != 2 or vec.shape[0] < 1 or vec.shape[1] < 1:
            raise FlowError(f"vectors must have shape (H, W, 2) with H, W >= 1, got {vec.shape}")
        ref = Reference.parse(reference)
        if mask is None:
            m = np.ones(vec.shape[:2], dtype=bool)
        else:
            m = np.asarray(mask)
            if m.shape != vec.shape[:2]:
                raise FlowError(f"mask shape {m.shape} does not match vectors {vec.shape[:2]}")
            m = m.astype(bool)
        if not np.all(np.isfinite(vec[m])):
            raise FlowError("non-finite vector components inside the valid mask")
        vec = vec.copy()
        vec.flags.writeable = False
        if mask is not None:
            m = m.copy()
        m.flags.writeable = False
        self._vectors = vec
        self._reference = ref
        self._mask = m

    @classmethod
    def _trusted(cls, vectors: np.ndarray, reference: Reference, mask: np.ndarray) -> "FlowField":
        """Adopt freshly allocated kernel output without a copy or a scan.

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
        return np.where(self._mask[..., None], self._vectors, 0.0)

    def __repr__(self) -> str:
        h, w = self.shape
        valid = 100.0 * float(np.count_nonzero(self._mask)) / self._mask.size
        return f"FlowField({h}x{w}, ref={self._reference}, valid={valid:.1f}%)"


def _check_cells(h: int, w: int) -> None:
    if h * w > MAX_CELLS:
        raise FlowError(f"a {h}x{w} grid exceeds the budget of {MAX_CELLS} cells")


def grid_coordinates(shape: tuple[int, int], padding: Padding | None = None) -> np.ndarray:
    """(H, W, 2) array of grid point coordinates, channels (x, y).

    With padding, coordinates extend beyond the original grid: x runs from
    -left to W-1+right and y from -top to H-1+bottom, so the returned array
    has the padded shape while staying in the unpadded coordinate frame.
    """
    h, w = int(shape[0]), int(shape[1])
    if h < 1 or w < 1:
        raise FlowError(f"grid shape must be at least 1x1, got {shape}")
    top = left = 0
    bottom = right = 0
    if padding is not None:
        padding = Padding.parse(padding)
        top, bottom, left, right = padding.top, padding.bottom, padding.left, padding.right
    _check_cells(h + top + bottom, w + left + right)
    xs = np.arange(-left, w + right, dtype=np.float64)
    ys = np.arange(-top, h + bottom, dtype=np.float64)
    grid = np.empty((ys.size, xs.size, 2), dtype=np.float64)
    grid[..., 0] = xs[None, :]
    grid[..., 1] = ys[:, None]
    return grid


def zeros(shape: tuple[int, int], reference: Reference | str = Reference.SOURCE) -> FlowField:
    """All-zero flow (the identity mapping) with an all-true mask."""
    h, w = int(shape[0]), int(shape[1])
    _check_cells(h, w)
    return FlowField(np.zeros((h, w, 2)), reference)


def from_matrix(
    matrix: AffineTransform,
    shape: tuple[int, int],
    reference: Reference | str,
    padding: Padding | None = None,
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
    grid = grid_coordinates(shape, padding)
    if ref is Reference.SOURCE:
        mapped = matrix.apply(grid.reshape(-1, 2)).reshape(grid.shape)
        vectors = mapped - grid
    else:
        pulled = matrix.inverse().apply(grid.reshape(-1, 2)).reshape(grid.shape)
        vectors = grid - pulled
    return FlowField(vectors, ref)


def from_transforms(
    transforms,
    shape: tuple[int, int],
    reference: Reference | str,
    padding: Padding | None = None,
) -> FlowField:
    """Flow field for a sequence of named transforms, first applied first.

    See `AffineTransform.from_transforms` for the accepted entries. An
    empty list yields zero flow in either reference.
    """
    return from_matrix(AffineTransform.from_transforms(transforms), shape, reference, padding)


def resize(field: FlowField, scale: tuple[float, float]) -> FlowField:
    """Resample a flow to new dimensions, scaling vectors accordingly.

    `scale` is (sy, sx); vectors are bilinearly resampled onto the new
    grid, x components multiplied by sx and y components by sy. The mask
    is resampled as floats and thresholded at 0.5.
    """
    from .interp import masked_bilinear_sample

    sy, sx = float(scale[0]), float(scale[1])
    if not (0 < sy < np.inf and 0 < sx < np.inf):
        raise FlowError(f"scale factors must be positive and finite, got {(sy, sx)}")
    h, w = field.shape
    new_h, new_w = round(h * sy), round(w * sx)
    if new_h < 1 or new_w < 1:
        raise FlowError(f"resize to {(new_h, new_w)} would produce an empty grid")
    _check_cells(new_h, new_w)
    if (new_h, new_w) == (h, w) and sy == 1.0 and sx == 1.0:
        return FlowField(field.vectors, field.reference, field.mask)

    # Corner-aligned sample positions in the old grid.
    xs = np.linspace(0.0, w - 1.0, new_w) if new_w > 1 else np.zeros(1)
    ys = np.linspace(0.0, h - 1.0, new_h) if new_h > 1 else np.zeros(1)
    gx, gy = np.meshgrid(xs, ys)
    points = np.column_stack([gx.ravel(), gy.ravel()])

    sampled, valid = masked_bilinear_sample(field.vectors, field.mask, points)
    vectors = sampled.reshape(new_h, new_w, 2)
    vectors[..., 0] *= sx
    vectors[..., 1] *= sy
    mask = valid.reshape(new_h, new_w)
    return FlowField(vectors, field.reference, mask)


def pad(field: FlowField, padding: Padding) -> FlowField:
    """Extend the grid with zero vectors and a false mask in the border."""
    p = Padding.parse(padding)
    h, w = field.shape
    _check_cells(h + p.top + p.bottom, w + p.left + p.right)
    vectors = np.zeros((h + p.top + p.bottom, w + p.left + p.right, 2))
    mask = np.zeros(vectors.shape[:2], dtype=bool)
    vectors[p.top : p.top + h, p.left : p.left + w] = field.vectors
    mask[p.top : p.top + h, p.left : p.left + w] = field.mask
    return FlowField(vectors, field.reference, mask)


def unpad(field: FlowField, padding: Padding) -> FlowField:
    """Crop a previously padded flow; exact inverse of `pad`."""
    p = Padding.parse(padding)
    h, w = field.shape
    if p.top + p.bottom + 1 > h or p.left + p.right + 1 > w:
        raise FlowError(f"cannot unpad {p} from a {h}x{w} field")
    vectors = field.vectors[p.top : h - p.bottom, p.left : w - p.right]
    mask = field.mask[p.top : h - p.bottom, p.left : w - p.right]
    return FlowField(vectors, field.reference, mask)
