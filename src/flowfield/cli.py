"""Command-line interface.

Flows travel as .flo files with a .ref reference sidecar (written on
output, consulted on input); every command that reads one flow takes it
as -f/--flow, with --ref to override its reference. Images and masks
travel as binary pixmaps. Exit codes: 0 success, 1 usage error, 2 data
error. Kernels are always deterministic, so a fixed seed pins
`verify-compose` byte for byte.
"""

from __future__ import annotations

import functools
import sys
from pathlib import Path

import click
import numpy as np

from . import __version__
from .compose import combine as combine_flows
from .core import _STEP_ARITY, FlowError, _grid_shape, _padding, from_transforms
from .core import pad as pad_flow
from .core import unpad as unpad_flow
from .demo import run_synthetic_demo
from .fileio import load_flow, read_image, save_flow, write_image, write_mask
from .ops import apply as apply_flow
from .ops import fit_matrix, get_padding, invert, switch_reference, track, valid_source, valid_target
from .ops import resize as resize_flow
from .verify import run_trials
from .viz import render_arrows, render_colorwheel

TRANSFORM_GRAMMAR = (
    "Transform spec grammar (v1): semicolon-separated steps, each "
    "'translation:TX,TY', 'rotation:CX,CY,DEGREES' or "
    "'scaling:CX,CY,FACTOR'; steps apply left to right."
)


def parse_transforms(spec: str):
    transforms = []
    for chunk in spec.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        name, _, args = chunk.partition(":")
        name = name.strip().lower()
        try:
            values = [float(v) for v in args.split(",")] if args else []
        except ValueError:
            raise click.UsageError(f"bad transform arguments in {chunk!r}. {TRANSFORM_GRAMMAR}")
        if _STEP_ARITY.get(name) != len(values):
            raise click.UsageError(f"bad transform step {chunk!r}. {TRANSFORM_GRAMMAR}")
        transforms.append((name, *values))
    if not transforms:
        raise click.UsageError(f"empty transform spec. {TRANSFORM_GRAMMAR}")
    return transforms


def parse_size(text: str) -> tuple[int, int]:
    try:
        return _grid_shape([int(v) for v in text.lower().split("x")])
    except (ValueError, FlowError):
        raise click.UsageError(f"size must look like HxW with positive integers, got {text!r}")


def parse_padding(text: str) -> tuple[int, int, int, int]:
    try:
        return _padding([int(v) for v in text.split(",")])
    except (ValueError, FlowError):
        raise click.UsageError(f"padding must be T,B,L,R non-negative integers, got {text!r}")


def reads_flow(command):
    """Give a command -f/--flow and --ref, and pass it the loaded flow as `field`."""

    @click.option("-f", "--flow", "flow_path", required=True, type=click.Path(dir_okay=False))
    @click.option(
        "--ref", "ref_override", type=click.Choice(["s", "t"]), default=None,
        help="Override the reference of the input flow (default: .ref sidecar, else s).",
    )
    @functools.wraps(command)
    def load_then_run(flow_path, ref_override, **options):
        # Looked up per call, so a rebinding of this module's `load_flow` applies.
        return command(load_flow(flow_path, ref_override), **options)

    return load_then_run


@click.group(
    epilog=TRANSFORM_GRAMMAR
    + " Kernels are always deterministic, so a fixed seed pins "
    "verify-compose byte for byte."
)
@click.version_option(__version__)
def cli():
    """Create, manipulate, compose, evaluate and visualize dense 2D flow fields."""


@cli.command()
@click.option("--transforms", required=True, help=f"Transform spec. {TRANSFORM_GRAMMAR}")
@click.option("--size", required=True, help="Field size as HxW.")
@click.option("--ref", type=click.Choice(["s", "t"]), required=True)
@click.option("--padding", default=None, help="Evaluate on a grid enlarged by T,B,L,R.")
@click.option("-o", "--output", required=True, type=click.Path(dir_okay=False))
def make(transforms, size, ref, padding, output):
    """Build a flow field from named transforms."""
    pad_amount = parse_padding(padding) if padding else None
    field = from_transforms(parse_transforms(transforms), parse_size(size), ref, pad_amount)
    save_flow(output, field)


@cli.command("apply")
@reads_flow
@click.option("-i", "--image", "image_path", required=True, type=click.Path(dir_okay=False))
@click.option("-o", "--output", required=True, type=click.Path(dir_okay=False))
@click.option("--mask-out", default=None, type=click.Path(dir_okay=False))
def apply_cmd(field, image_path, output, mask_out):
    """Warp an image (P5/P6 pixmap) with a flow field."""
    image = read_image(image_path)
    warped, mask = apply_flow(field, image.astype(np.float64))
    write_image(output, np.clip(np.round(warped), 0, 255).astype(np.uint8))
    if mask_out:
        write_mask(mask_out, mask)


@cli.command("invert")
@reads_flow
@click.option("-o", "--output", required=True, type=click.Path(dir_okay=False))
def invert_cmd(field, output):
    """Invert the temporal direction of a flow."""
    save_flow(output, invert(field))


@cli.command("switch-ref")
@reads_flow
@click.option("-o", "--output", required=True, type=click.Path(dir_okay=False))
def switch_ref_cmd(field, output):
    """Switch a flow between source and target reference."""
    save_flow(output, switch_reference(field))


@cli.command("resize")
@reads_flow
@click.option("--scale", required=True, help="Scale factors as SY,SX.")
@click.option("-o", "--output", required=True, type=click.Path(dir_okay=False))
def resize_cmd(field, scale, output):
    """Resample a flow to new dimensions."""
    try:
        sy, sx = (float(v) for v in scale.split(","))
    except ValueError:
        raise click.UsageError(f"scale must be SY,SX, got {scale!r}")
    save_flow(output, resize_flow(field, (sy, sx)))


@cli.command("pad")
@reads_flow
@click.option("--padding", required=True, help="Amounts as T,B,L,R.")
@click.option("-o", "--output", required=True, type=click.Path(dir_okay=False))
def pad_cmd(field, padding, output):
    """Extend a flow with an invalid zero border."""
    save_flow(output, pad_flow(field, parse_padding(padding)))


@cli.command("unpad")
@reads_flow
@click.option("--padding", required=True, help="Amounts as T,B,L,R.")
@click.option("-o", "--output", required=True, type=click.Path(dir_okay=False))
def unpad_cmd(field, padding, output):
    """Crop a previously padded flow."""
    save_flow(output, unpad_flow(field, parse_padding(padding)))


@cli.command("combine")
@click.option("-a", "--first", "first_path", required=True, type=click.Path(dir_okay=False))
@click.option("-b", "--second", "second_path", required=True, type=click.Path(dir_okay=False))
@click.option("--mode", type=click.Choice(["1", "2", "3"]), required=True)
@click.option("--out-ref", type=click.Choice(["s", "t"]), default=None)
@click.option("-o", "--output", required=True, type=click.Path(dir_okay=False))
def combine_cmd(first_path, second_path, mode, out_ref, output):
    """Compose two flows; --mode names the unknown flow (1->2, 2->3, 1->3)."""
    result = combine_flows(load_flow(first_path), load_flow(second_path), int(mode), out_ref)
    save_flow(output, result)


@cli.command("valid")
@reads_flow
@click.option("--which", type=click.Choice(["source", "target"]), required=True)
@click.option("-o", "--output", required=True, type=click.Path(dir_okay=False))
def valid_cmd(field, which, output):
    """Write the valid source/target area of a flow as a mask pixmap."""
    mask = valid_source(field) if which == "source" else valid_target(field)
    write_mask(output, mask)


@cli.command("padding")
@reads_flow
def padding_cmd(field):
    """Print the minimal padding (top bottom left right) avoiding invalid areas."""
    click.echo(" ".join(map(str, get_padding(field))))


@cli.command("track")
@reads_flow
@click.option("--points", "points_path", required=True, type=click.Path(dir_okay=False))
@click.option("-o", "--output", default=None, type=click.Path(dir_okay=False))
def track_cmd(field, points_path, output):
    """Track csv points (x,y per line) through a flow; emits x,y,valid."""
    try:
        text = Path(points_path).read_bytes().decode("utf-8")
    except UnicodeDecodeError:
        raise FlowError(f"{points_path}: points file is not UTF-8 text") from None
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            x, y = (float(v) for v in line.split(","))
        except ValueError:
            raise FlowError(f"bad point line {line!r}; expected x,y")
        rows.append((x, y))
    tracked, valid = track(field, rows)
    with click.open_file(output or "-", "w") as fh:
        for (x, y), ok in zip(tracked, valid):
            fh.write(f"{x:.10g},{y:.10g},{int(ok)}\n")


@cli.command("viz")
@reads_flow
@click.option("--style", type=click.Choice(["wheel", "arrows"]), default="wheel")
@click.option("--stride", type=int, default=8, show_default=True)
@click.option("--max-magnitude", type=float, default=None)
@click.option("-o", "--output", required=True, type=click.Path(dir_okay=False))
def viz_cmd(field, style, stride, max_magnitude, output):
    """Render a flow as a color-wheel or arrow image."""
    if style == "wheel":
        image = render_colorwheel(field, max_magnitude)
    else:
        image = render_arrows(field, stride=stride)
    write_image(output, image)


@cli.command("fit-matrix")
@reads_flow
def fit_matrix_cmd(field):
    """Print the least-squares affine matrix of a flow and its RMS residual."""
    matrix, rms = fit_matrix(field)
    for row in matrix.matrix:
        click.echo(" ".join(f"{v: .10g}" for v in row))
    click.echo(f"rms_residual_px={rms:.10g}")


@cli.command("verify-compose")
@click.option("--trials", type=int, default=300, show_default=True)
@click.option("--size", default="150x250", show_default=True)
@click.option("--max-mag", type=float, default=50.0, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--mode", type=click.Choice(["1", "2", "3", "all"]), default="all", show_default=True)
def verify_compose_cmd(trials, size, max_mag, seed, mode):
    """Randomized verification of combine against the matrix oracle."""
    dims = parse_size(size)
    modes = [1, 2, 3] if mode == "all" else [int(mode)]
    for m in modes:
        report = run_trials(m, trials, dims, max_mag, seed)
        click.echo(report.format_block(label=f"mode {m}"))
        click.echo(report.format_record(label=str(m)))


@cli.command("demo-synthetic")
@click.option("-o", "--output", "out_dir", required=True, type=click.Path(file_okay=False))
def demo_synthetic_cmd(out_dir):
    """Run the synthetic ground-truth workflow, writing flows and images."""
    padding = " ".join(map(str, run_synthetic_demo(out_dir).pad1))
    click.echo(f"wrote f12, f13, f23 to {out_dir} (padding {padding})")


def main(argv=None) -> int:
    """Run the CLI; returns 0, 1 (usage error) or 2 (data error)."""
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.ClickException as exc:
        prefix = "usage error" if isinstance(exc, click.UsageError) else "error"
        click.echo(f"{prefix}: {exc.format_message()}", err=True)
        return 1
    except click.exceptions.Abort:
        return 1
    except (FlowError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 2
    return 0


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
