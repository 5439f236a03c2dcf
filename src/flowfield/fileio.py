"""Flow and image file interchange.

Flow fields travel as Middlebury .flo files: a float32 magic (the bytes
"PIEH"), int32 width and height, then height x width x 2 little-endian
float32 vectors interleaved (u = x, v = y), row-major. The format carries
neither mask nor reference: invalid cells are written as the sentinel 1e9
in both channels and recovered as mask-false zeros on read, while the
reference lives in an optional one-line sidecar next to the file (same
basename, suffix .ref, containing 's' or 't'). `save_flow` writes both
files and `load_flow` reads both; they are the only .flo writer and reader.
`load_flow` reads the payload, from a file or a pipe alike, in bounded
chunks, so its memory follows the bytes that arrive, not the header's claim.

Since the container is float32, a written-then-read field is bit-exact
only for float32-representable vectors.

Images are written as binary portable pixmaps: P6 for RGB, P5 for masks
and grayscale (masks encode as 0/255).

Every reader rejects malformed bytes with FlowError.
"""

from __future__ import annotations

import re
import struct
from pathlib import Path

import numpy as np

from .core import FlowError, FlowField, Reference, _fill_cells, _mask

__all__ = [
    "FLO_MAGIC",
    "INVALID_SENTINEL",
    "load_flow",
    "read_image",
    "save_flow",
    "write_image",
    "write_mask",
]

FLO_MAGIC = 202021.25  # float32 bytes spell "PIEH"
INVALID_SENTINEL = 1e9
MAX_DIM = 65535
_READ_CHUNK = 1 << 24  # 16 MiB: the most one read of a .flo payload asks for


def _read_sidecar(flo_path) -> Reference | None:
    """Reference recorded next to a .flo file, or None without a sidecar."""
    sidecar = Path(flo_path).with_suffix(".ref")
    if not sidecar.exists():
        return None
    try:
        text = sidecar.read_bytes().decode("utf-8")
    except UnicodeDecodeError:
        raise FlowError(f"{sidecar}: reference sidecar is not UTF-8 text") from None
    return Reference.parse(text.strip())


def save_flow(path, field: FlowField) -> None:
    """Write a .flo file (mask via the sentinel value) plus its .ref sidecar."""
    if Path(path).suffix == ".ref":
        raise FlowError(f"{path}: a .flo path ending in .ref would be its own sidecar")
    h, w = field.shape
    if h > MAX_DIM or w > MAX_DIM:
        raise FlowError(f"flow dims {(h, w)} exceed the .flo limit of {MAX_DIM}")
    with np.errstate(over="ignore"):
        data = field.vectors.astype("<f4")
    if (np.all(data == INVALID_SENTINEL, axis=2) & field.mask).any():
        raise FlowError(f"a valid vector equals the invalid-cell sentinel {INVALID_SENTINEL:g}")
    data[~field.mask] = INVALID_SENTINEL
    if not np.isfinite(data).all():
        raise FlowError("flow vectors overflow the float32 range of .flo")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<fii", FLO_MAGIC, w, h))
        fh.write(data.tobytes())
    Path(path).with_suffix(".ref").write_text(f"{field.reference}\n")


def load_flow(path, reference: Reference | str | None = None) -> FlowField:
    """Read a .flo file; sentinel cells become mask-false zero vectors.

    The reference comes from `reference` if given, else from the .ref
    sidecar if present, else it is source. A path ending in .ref would be
    its own sidecar, so it needs an explicit `reference`.
    """
    if reference is None:
        if Path(path).suffix == ".ref":
            raise FlowError(f"{path}: a .flo path ending in .ref needs an explicit reference")
        reference = _read_sidecar(path) or Reference.SOURCE
    reference = Reference.parse(reference)  # a bad explicit one fails before the file is read
    with open(path, "rb") as fh:
        header = fh.read(12)
        if len(header) < 12:
            raise FlowError(f"{path}: truncated .flo header")
        magic, w, h = struct.unpack("<fii", header)
        if magic != FLO_MAGIC:  # exactly representable in float32
            raise FlowError(f"{path}: bad .flo magic {magic!r}")
        if not (0 < w <= MAX_DIM and 0 < h <= MAX_DIM):
            raise FlowError(f"{path}: implausible .flo dims {w}x{h}")
        # The header's size is only a claim: read chunks until it is met or
        # the stream ends, never past it, so memory follows what arrives.
        chunks, missing = [], h * w * 2 * 4
        while missing and (chunk := fh.read(min(missing, _READ_CHUNK))):
            chunks.append(chunk)
            missing -= len(chunk)
    if missing:
        raise FlowError(f"{path}: truncated .flo payload")
    data = np.frombuffer(b"".join(chunks), "<f4").reshape(h, w, 2)  # one chunk is not copied
    # The sentinel is exact in float32, so the payload is compared as read.
    mask = (data[..., 0] != INVALID_SENTINEL) | (data[..., 1] != INVALID_SENTINEL)
    vectors = _fill_cells(data.astype(np.float64), ~mask)  # zero on invalid cells
    if not np.isfinite(vectors).all():
        raise FlowError(f"non-finite vector components in a valid cell of {path}")
    return FlowField._trusted(vectors, reference, mask)


def write_image(path, image) -> None:
    """Write an RGB (H, W, 3) or grayscale (H, W) uint8 image as a pixmap."""
    arr = np.asarray(image)
    if arr.dtype != np.uint8:
        raise FlowError(f"image dtype must be uint8, got {arr.dtype}")
    if arr.ndim == 3 and arr.shape[2] == 3:
        kind = b"P6"
    elif arr.ndim == 2:
        kind = b"P5"
    else:
        raise FlowError(f"image shape must be (H, W, 3) or (H, W), got {arr.shape}")
    h, w = arr.shape[:2]
    with open(path, "wb") as fh:
        fh.write(kind + b"\n%d %d\n255\n" % (w, h))
        fh.write(arr.tobytes())


def write_mask(path, mask) -> None:
    """Write a bool or integer (H, W) mask as a 0/255 grayscale pixmap, nonzero as 255."""
    write_image(path, np.where(_mask(mask, None, "mask"), 255, 0).astype(np.uint8))


# Width, height and maxval after the magic: decimal tokens of at most ten
# digits, separated by whitespace and by '#' comments that run to the end of
# the line, then exactly one whitespace byte before the payload, all within
# MAX_PNM_HEADER bytes, which bounds the regex's backtracking and stack.
MAX_PNM_HEADER = 1 << 16
_PNM_SEP = rb"\s*(?:#[^\r\n]*[\r\n]\s*)*"
_PNM_TOKEN = rb"(\d{1,10})(?=[\s#])"
_PNM_HEADER = re.compile(3 * (_PNM_SEP + _PNM_TOKEN) + rb"(?:#[^\r\n]*[\r\n]|\s)")


def read_image(path):
    """Read a binary pixmap: P6 gives (H, W, 3) uint8, P5 gives (H, W)."""
    blob = Path(path).read_bytes()
    if blob[:2] not in (b"P5", b"P6"):
        raise FlowError(f"{path}: not a binary pixmap (P5/P6)")
    channels = 3 if blob[:2] == b"P6" else 1
    header = _PNM_HEADER.match(blob, 2, MAX_PNM_HEADER)
    if header is None:
        raise FlowError(f"{path}: bad or truncated pixmap header")
    w, h, maxval = map(int, header.groups())
    if w < 1 or h < 1:
        raise FlowError(f"{path}: pixmap dims must be positive, got {w}x{h}")
    if maxval != 255:
        raise FlowError(f"{path}: only maxval 255 pixmaps are supported")
    pixels = blob[header.end() :]
    expected = h * w * channels
    if len(pixels) < expected:
        raise FlowError(f"{path}: truncated pixmap payload")
    arr = np.frombuffer(pixels[:expected], dtype=np.uint8)
    return arr.reshape(h, w, 3) if channels == 3 else arr.reshape(h, w)
