"""Command-line interface.

Flows travel as .flo files with a .ref reference sidecar (written on
output, consulted on input, overridable with --ref); images and masks
travel as binary pixmaps. Exit codes: 0 success, 1 usage error, 2 data
error. Kernels are always deterministic, so a fixed seed pins
`verify-compose` byte for byte.
"""

from __future__ import annotations

import sys

import click
import numpy as np

from . import __version__
from .compose import combine as combine_flows
from .core import FlowError, Padding, from_transforms
from .core import pad as pad_flow
from .core import resize as resize_flow
from .core import unpad as unpad_flow
from .demo import run_synthetic_demo
from .fileio import load_flow, read_image, save_flow, write_image, write_mask
from .ops import fit_matrix, get_padding, invert, switch_reference, track, valid_source, valid_target
from .verify import run_trials
from .viz import render_arrows, render_colorwheel

TRANSFORM_GRAMMAR = (
    "Transform spec grammar (v1): semicolon-separated steps, each "
    "'translation:TX,TY', 'rotation:CX,CY,DEGREES' or "
    "'scaling:CX,CY,FACTOR'; steps apply left to right."
)


_TRANSFORM_ARITY = {"translation": 2, "rotation": 3, "scaling": 3}


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
        if _TRANSFORM_ARITY.get(name) != len(values):
            raise click.UsageError(f"bad transform step {chunk!r}. {TRANSFORM_GRAMMAR}")
        transforms.append((name, *values))
    if not transforms:
        raise click.UsageError(f"empty transform spec. {TRANSFORM_GRAMMAR}")
    return transforms


def parse_size(text: str) -> tuple[int, int]:
    try:
        h, w = (int(v) for v in text.lower().split("x"))
    except ValueError:
        raise click.UsageError(f"size must look like HxW, got {text!r}")
    if h < 1 or w < 1:
        raise click.UsageError(f"size must be positive, got {text!r}")
    return h, w


def parse_padding(text: str) -> Padding:
    try:
        values = [int(v) for v in text.split(",")]
        return Padding.parse(values)
    except (ValueError, FlowError):
        raise click.UsageError(f"padding must be T,B,L,R non-negative integers, got {text!r}")


ref_option = click.option(
    "--ref", "ref_override", type=click.Choice(["s", "t"]), default=None,
    help="Override the reference of the input flow (default: .ref sidecar, else s).",
)


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
@click.option("-f", "--flow", "flow_path", required=True, type=click.Path(dir_okay=False))
@click.option("-i", "--image", "image_path", required=True, type=click.Path(dir_okay=False))
@click.option("-o", "--output", required=True, type=click.Path(dir_okay=False))
@click.option("--mask-out", default=None, type=click.Path(dir_okay=False))
@ref_option
def apply_cmd(flow_path, image_path, output, mask_out, ref_override):
    """Warp an image (P5/P6 pixmap) with a flow field."""
    from .ops import apply as apply_flow

    field = load_flow(flow_path, ref_override)
    image = read_image(image_path)
    warped, mask = apply_flow(field, image.astype(np.float64))
    write_image(output, np.clip(np.round(warped), 0, 255).astype(np.uint8))
    if mask_out:
        write_mask(mask_out, mask)


@cli.command("invert")
@click.option("-f", "--flow", "flow_path", required=True, type=click.Path(dir_okay=False))
@click.option("-o", "--output", required=True, type=click.Path(dir_okay=False))
@ref_option
def invert_cmd(flow_path, output, ref_override):
    """Invert the temporal direction of a flow."""
    save_flow(output, invert(load_flow(flow_path, ref_override)))


@cli.command("switch-ref")
@click.option("-f", "--flow", "flow_path", required=True, type=click.Path(dir_okay=False))
@click.option("-o", "--output", required=True, type=click.Path(dir_okay=False))
@ref_option
def switch_ref_cmd(flow_path, output, ref_override):
    """Switch a flow between source and target reference."""
    save_flow(output, switch_reference(load_flow(flow_path, ref_override)))


@cli.command("resize")
@click.option("-f", "--flow", "flow_path", required=True, type=click.Path(dir_okay=False))
@click.option("--scale", required=True, help="Scale factors as SY,SX.")
@click.option("-o", "--output", required=True, type=click.Path(dir_okay=False))
@ref_option
def resize_cmd(flow_path, scale, output, ref_override):
    """Resample a flow to new dimensions."""
    try:
        sy, sx = (float(v) for v in scale.split(","))
    except ValueError:
        raise click.UsageError(f"scale must be SY,SX, got {scale!r}")
    save_flow(output, resize_flow(load_flow(flow_path, ref_override), (sy, sx)))


@cli.command("pad")
@click.option("-f", "--flow", "flow_path", required=True, type=click.Path(dir_okay=False))
@click.option("--padding", required=True, help="Amounts as T,B,L,R.")
@click.option("-o", "--output", required=True, type=click.Path(dir_okay=False))
@ref_option
def pad_cmd(flow_path, padding, output, ref_override):
    """Extend a flow with an invalid zero border."""
    save_flow(output, pad_flow(load_flow(flow_path, ref_override), parse_padding(padding)))


@cli.command("unpad")
@click.option("-f", "--flow", "flow_path", required=True, type=click.Path(dir_okay=False))
@click.option("--padding", required=True, help="Amounts as T,B,L,R.")
@click.option("-o", "--output", required=True, type=click.Path(dir_okay=False))
@ref_option
def unpad_cmd(flow_path, padding, output, ref_override):
    """Crop a previously padded flow."""
    save_flow(output, unpad_flow(load_flow(flow_path, ref_override), parse_padding(padding)))


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
@click.option("-f", "--flow", "flow_path", required=True, type=click.Path(dir_okay=False))
@click.option("--which", type=click.Choice(["source", "target"]), required=True)
@click.option("-o", "--output", required=True, type=click.Path(dir_okay=False))
@ref_option
def valid_cmd(flow_path, which, output, ref_override):
    """Write the valid source/target area of a flow as a mask pixmap."""
    field = load_flow(flow_path, ref_override)
    mask = valid_source(field) if which == "source" else valid_target(field)
    write_mask(output, mask)


@cli.command("padding")
@click.option("-f", "--flow", "flow_path", required=True, type=click.Path(dir_okay=False))
@ref_option
def padding_cmd(flow_path, ref_override):
    """Print the minimal padding (top bottom left right) avoiding invalid areas."""
    p = get_padding(load_flow(flow_path, ref_override))
    click.echo(f"{p.top} {p.bottom} {p.left} {p.right}")


@cli.command("track")
@click.option("-f", "--flow", "flow_path", required=True, type=click.Path(dir_okay=False))
@click.option("--points", "points_path", required=True, type=click.Path(dir_okay=False))
@click.option("-o", "--output", default=None, type=click.Path(dir_okay=False))
@ref_option
def track_cmd(flow_path, points_path, output, ref_override):
    """Track csv points (x,y per line) through a flow; emits x,y,valid."""
    field = load_flow(flow_path, ref_override)
    rows = []
    with open(points_path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                x, y = (float(v) for v in line.split(","))
            except ValueError:
                raise FlowError(f"bad point line {line!r}; expected x,y")
            rows.append((x, y))
    tracked, valid = track(field, np.array(rows, dtype=np.float64).reshape(-1, 2))
    lines = [
        f"{pt[0]:.10g},{pt[1]:.10g},{int(ok)}"
        for pt, ok in zip(tracked.coords, valid)
    ]
    text = "\n".join(lines) + ("\n" if lines else "")
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


@cli.command("viz")
@click.option("-f", "--flow", "flow_path", required=True, type=click.Path(dir_okay=False))
@click.option("--style", type=click.Choice(["wheel", "arrows"]), default="wheel")
@click.option("--stride", type=int, default=8, show_default=True)
@click.option("--max-magnitude", type=float, default=None)
@click.option("-o", "--output", required=True, type=click.Path(dir_okay=False))
@ref_option
def viz_cmd(flow_path, style, stride, max_magnitude, output, ref_override):
    """Render a flow as a color-wheel or arrow image."""
    field = load_flow(flow_path, ref_override)
    if style == "wheel":
        image = render_colorwheel(field, max_magnitude)
    else:
        image = render_arrows(field, stride=stride)
    write_image(output, image)


@cli.command("fit-matrix")
@click.option("-f", "--flow", "flow_path", required=True, type=click.Path(dir_okay=False))
@ref_option
def fit_matrix_cmd(flow_path, ref_override):
    """Print the least-squares affine matrix of a flow and its RMS residual."""
    matrix, rms = fit_matrix(load_flow(flow_path, ref_override))
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
    flows = run_synthetic_demo(out_dir)
    p = flows.pad1
    click.echo(f"wrote f12, f13, f23 to {out_dir} (padding {p.top} {p.bottom} {p.left} {p.right})")


def main(argv=None) -> int:
    """Run the CLI; returns 0, 1 (usage error) or 2 (data error)."""
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.UsageError as exc:
        click.echo(f"usage error: {exc.format_message()}", err=True)
        return 1
    except click.ClickException as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
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
