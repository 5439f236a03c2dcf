"""cli-pipeline: one `python -m flowfield.cli` subprocess per op.

The ops run a fixed chain of ten commands on 540x960 files: make (target
flow f12), make (source flow f23), combine --mode 3 (f13), apply with the
target flow, apply with the source flow, invert, valid --which source,
viz --style wheel, viz --style arrows --stride 8, demo-synthetic. The
seed draws the input frame's pixels and the two motions: M12 and M23 of one
`verify.trial_matrices` triple (each a `random_transform` of at most 50 px,
as in compose-qhd and verify-compose), written as `--transforms` specs.

The traced run calls `flowfield.cli.main(argv)` in-process instead, so the
wrappers see the calls; its baseline pass does the same without wrappers.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import shutil
import struct
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import flowfield.cli
from flowfield import AffineTransform, combine, from_matrix, from_transforms, load_flow, save_flow
from flowfield.demo import SIZE as DEMO_SIZE
from flowfield.fileio import read_image, write_image
from flowfield.verify import trial_matrices

from common import child_env

SIZE = (540, 960)
MAX_MAGNITUDE = 50.0
MAX_MEAN_EPE_PX = 0.05

CYCLE = 10
MIN_OPS = 5 * CYCLE
TAIL_PCT = 80.0  # 50 ops leave 10 samples above it
TRACE_OPS = CYCLE
PEAK_RSS_CHILDREN = True

# Files each command writes, checked after it exits: .flo outputs by size,
# pixmaps by shape (3 channels for RGB, 1 for masks) against the frame.
FLO_OUTPUTS = {"make-t": "f12.flo", "make-s": "f23.flo", "combine": "f13.flo", "invert": "f31.flo"}
IMAGE_OUTPUTS = {
    "apply-t": (("warp_t.ppm", 3), ("warp_t_mask.pgm", 1)),
    "apply-s": (("warp_s.ppm", 3),),
    "valid": (("valid_src.pgm", 1),),
    "viz-wheel": (("wheel.ppm", 3),),
    "viz-arrows": (("arrows.ppm", 3),),
}


@dataclass
class State:
    work: Path
    chain: list  # (label, argv)
    f13_bytes: bytes
    f13_truth: object  # FlowField


def _spec(transform: AffineTransform) -> str:
    """The `--transforms` spec of one `random_transform` draw.

    A draw is a translation, a rotation or a uniform scaling; each is read
    back from its matrix. Floats are written with `repr`, which round-trips.
    """
    m = transform.matrix
    t = m[:2, 2]
    if m[1, 0] != 0.0:
        # A rotation R about c has translation (I - R) c.
        cx, cy = np.linalg.solve(np.eye(2) - m[:2, :2], t)
        degrees = np.degrees(np.arctan2(m[1, 0], m[0, 0]))
        return f"rotation:{float(cx)!r},{float(cy)!r},{float(degrees)!r}"
    if m[0, 0] != 1.0:
        cx, cy = t / (1.0 - m[0, 0])
        return f"scaling:{float(cx)!r},{float(cy)!r},{float(m[0, 0])!r}"
    return f"translation:{float(t[0])!r},{float(t[1])!r}"


def build(seed: int, work_dir: Path) -> State:
    rng = np.random.default_rng(seed)
    m12, m23, _ = trial_matrices(rng, SIZE, MAX_MAGNITUDE)
    spec12, spec23 = _spec(m12), _spec(m23)
    work = Path(work_dir)
    write_image(work / "frame.ppm", rng.integers(0, 256, (*SIZE, 3), dtype=np.uint8))

    # In-process reference for combine: the same make/save/load/combine/save.
    steps12 = flowfield.cli.parse_transforms(spec12)
    steps23 = flowfield.cli.parse_transforms(spec23)
    ref_dir = work / "reference"
    ref_dir.mkdir()
    save_flow(ref_dir / "f12.flo", from_transforms(steps12, SIZE, "t"))
    save_flow(ref_dir / "f23.flo", from_transforms(steps23, SIZE, "s"))
    f13 = combine(load_flow(ref_dir / "f12.flo"), load_flow(ref_dir / "f23.flo"), 3)
    save_flow(ref_dir / "f13.flo", f13)
    m13 = AffineTransform.from_transforms(steps23) @ AffineTransform.from_transforms(steps12)

    def p(name: str) -> str:
        return str(work / name)

    size_arg = f"{SIZE[0]}x{SIZE[1]}"
    chain = [
        ("make-t", ["make", "--transforms", spec12, "--size", size_arg, "--ref", "t", "-o", p("f12.flo")]),
        ("make-s", ["make", "--transforms", spec23, "--size", size_arg, "--ref", "s", "-o", p("f23.flo")]),
        ("combine", ["combine", "-a", p("f12.flo"), "-b", p("f23.flo"), "--mode", "3", "-o", p("f13.flo")]),
        ("apply-t", ["apply", "-f", p("f12.flo"), "-i", p("frame.ppm"), "-o", p("warp_t.ppm"),
                     "--mask-out", p("warp_t_mask.pgm")]),
        ("apply-s", ["apply", "-f", p("f23.flo"), "-i", p("frame.ppm"), "-o", p("warp_s.ppm")]),
        ("invert", ["invert", "-f", p("f13.flo"), "-o", p("f31.flo")]),
        ("valid", ["valid", "-f", p("f12.flo"), "--which", "source", "-o", p("valid_src.pgm")]),
        ("viz-wheel", ["viz", "-f", p("f13.flo"), "--style", "wheel", "-o", p("wheel.ppm")]),
        ("viz-arrows", ["viz", "-f", p("f13.flo"), "--style", "arrows", "--stride", "8",
                        "-o", p("arrows.ppm")]),
        ("demo", ["demo-synthetic", "-o", p("demo")]),
    ]
    return State(
        work=work,
        chain=chain,
        f13_bytes=(ref_dir / "f13.flo").read_bytes(),
        f13_truth=from_matrix(m13, SIZE, "t"),
    )


def ops(state: State):
    return itertools.cycle(state.chain)


def label(op) -> str:
    return op[0]


def run_op(state: State, op) -> int:
    _, argv = op
    return subprocess.run(
        [sys.executable, "-m", "flowfield.cli", *argv],
        env=child_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    ).returncode


def run_op_traced(state: State, op) -> int:
    _, argv = op
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return flowfield.cli.main(argv)


def _image_shape(path: Path):
    return read_image(path).shape


def _flo_bytes(shape) -> int:
    return 12 + shape[0] * shape[1] * 2 * 4


def check_op(state: State, op, returncode: int, outcome) -> str | None:
    try:
        return _check(state, op, returncode, outcome)
    finally:
        if op[0] == state.chain[-1][0]:
            # Each chain starts without outputs, so a command that exits 0
            # without writing cannot pass on an earlier chain's file.
            for path in state.work.iterdir():
                if path.name not in ("frame.ppm", "reference"):
                    shutil.rmtree(path) if path.is_dir() else path.unlink()


def _check(state: State, op, returncode: int, outcome) -> str | None:
    command, _ = op
    if returncode != 0:
        return f"{command} exited {returncode}"
    work = state.work
    if command in FLO_OUTPUTS:
        size = (work / FLO_OUTPUTS[command]).stat().st_size
        if size != _flo_bytes(SIZE):
            return f"{FLO_OUTPUTS[command]} has {size} bytes, expected {_flo_bytes(SIZE)}"
    if command == "combine":
        if (work / "f13.flo").read_bytes() != state.f13_bytes:
            return "f13.flo differs from the in-process combine"
        f13 = load_flow(work / "f13.flo")
        mask = f13.mask
        if not mask.any():
            return "f13.flo has no valid cells"
        diff = f13.vectors[mask] - state.f13_truth.vectors[mask]
        err = np.hypot(diff[:, 0], diff[:, 1])
        outcome.add_accuracy(float(err.sum()), err.size, mask.size, float(err.max()))
        if not err.mean() < MAX_MEAN_EPE_PX:
            return f"f13 mean EPE {err.mean():.4g} px >= {MAX_MEAN_EPE_PX}"
    for name, channels in IMAGE_OUTPUTS.get(command, ()):
        got = _image_shape(work / name)
        want = (*SIZE, 3) if channels == 3 else SIZE
        if got != want:
            return f"{name} has shape {got}, expected {want}"
    if command == "demo":
        return _check_demo(work / "demo")
    return None


def _check_demo(demo: Path) -> str | None:
    """f13 and f23 cover the demo frame; f12 sits on its padded grid."""
    for name in ("f12", "f13", "f23"):
        blob = (demo / f"{name}.flo").read_bytes()
        w, h = struct.unpack("<ii", blob[4:12])
        if len(blob) != _flo_bytes((h, w)):
            return f"demo/{name}.flo has {len(blob)} bytes for {h}x{w}"
        if name != "f12" and (h, w) != DEMO_SIZE:
            return f"demo/{name}.flo is {h}x{w}, expected {DEMO_SIZE}"
        shapes = (_image_shape(demo / f"{name}.ppm"), _image_shape(demo / f"{name}_mask.pgm"))
        if shapes != ((h, w, 3), (h, w)):
            return f"demo/{name} image shapes {shapes}, expected {h}x{w}"
    return None


def finish(state: State, outcome) -> None:
    pass
