"""Golden outputs: a simplification must not move a single printed digit or byte.

The expected values were recorded from the CLI before the duplicate code
paths were removed. A change that alters floating-point summation order may
update them, but only together with a CHANGES.md note stating the change
and its size.
"""

import hashlib
import itertools

import numpy as np

from flowfield import (
    FlowError,
    FlowField,
    apply,
    combine,
    invert,
    render_arrows,
    render_colorwheel,
    switch_reference,
    valid_source,
    valid_target,
)
from flowfield.cli import main

# The `mode=` record lines of `flowfield verify-compose --seed 0 --trials 10`
# (their sha256, newline-terminated, is 52bbb357...c12e).
VERIFY_COMPOSE_RECORDS = [
    "mode=1 n_vectors=302091 mean_abs_err=0.00228867373 max_abs_err=0.313479492"
    " frac_abs_below_005=0.997597 frac_abs_below_0005=0.829525"
    " frac_rel_below_0005=0.995256 frac_rel_below_00005=0.858271",
    "mode=2 n_vectors=306449 mean_abs_err=0.0026527343 max_abs_err=0.283481369"
    " frac_abs_below_005=0.994926 frac_abs_below_0005=0.868007"
    " frac_rel_below_0005=0.996574 frac_rel_below_00005=0.916231",
    "mode=3 n_vectors=311914 mean_abs_err=0.0011969306 max_abs_err=0.277697041"
    " frac_abs_below_005=0.995371 frac_abs_below_0005=0.960300"
    " frac_rel_below_0005=0.998525 frac_rel_below_00005=0.983685",
]

# sha256 of the .flo files `flowfield demo-synthetic` writes.
DEMO_FLO_SHA256 = {
    "f12.flo": "1651677bc03cb60dd18e195b6c732832444afe5da871de02e551e04f24542b13",
    "f13.flo": "8628d0c63d0b767c278730fe14205cf69c1b4619f1db98ad017c63d668758cfe",
    "f23.flo": "f205f492d0012b31d26444abb6fd4662def6e3c69c2c38d3da0bdd2d711a5278",
}


def test_verify_compose_records(capsys):
    assert main(["verify-compose", "--seed", "0", "--trials", "10"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.startswith("mode=")] == VERIFY_COMPOSE_RECORDS


def test_demo_synthetic_flo_bytes(tmp_path, capsys):
    assert main(["demo-synthetic", "-o", str(tmp_path)]) == 0
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in DEMO_FLO_SHA256
    }
    assert digests == DEMO_FLO_SHA256


# sha256 over every warp output of `_warp_outputs` below: apply, invert,
# switch_reference, the valid areas and all 24 combine branches on seeded
# flows with partial masks and junk under their false bits. Re-recorded
# when the splat began adding each block's four corners straight into one
# accumulator (a summation-order change; see CHANGES.md for its size).
WARP_SHA256 = "22fac9118e8c6e92c0e1302d221d01e488be1d96bedec7dc14f89be87f8bee5c"

WARP_SHAPES = [(1, 1), (1, 9), (7, 1), (30, 41)]
# Grids that span several kernel blocks (`interp._BLOCK` points each), so
# the order in which blocks are walked and summed shows in the bytes.
MULTIBLOCK_SHAPES = [(97, 131), (150, 250)]
WARP_VALID_SHARES = [0.0, 0.8, 1.0]
JUNK = np.array([np.nan, np.inf, -np.inf, 1e308])


def _with_junk(values, mask):
    """`values` with NaN, ±inf and 1e308 cycling under the false bits of `mask`."""
    junk = np.resize(JUNK, values.shape)
    keep = mask if values.ndim == 2 else mask[..., None]
    return np.where(keep, values, junk)


def _warp_outputs(shapes=WARP_SHAPES, seed=1010):
    """(label, output) for each warp on each seeded grid and valid share."""
    rng = np.random.default_rng(seed)
    for shape, share in itertools.product(shapes, WARP_VALID_SHARES):
        vectors = [rng.uniform(-2.5, 2.5, size=(*shape, 2)) for _ in range(2)]
        masks = [rng.uniform(size=shape) < share for _ in range(2)]
        data = rng.normal(size=(*shape, 3))
        data_mask = rng.uniform(size=shape) < 0.7
        label = f"{shape} {share}"
        flows = {
            ref: [FlowField(_with_junk(v, m), ref, m) for v, m in zip(vectors, masks)]
            for ref in "st"
        }
        for ref in "st":
            field = flows[ref][0]
            yield f"{label} apply {ref} 3d", apply(field, data)
            yield f"{label} apply {ref} 2d", apply(field, data[..., 0])
            yield f"{label} apply {ref} 3d masked", apply(
                field, _with_junk(data, data_mask), data_mask
            )
            yield f"{label} apply {ref} 2d masked", apply(
                field, _with_junk(data[..., 1], data_mask), data_mask
            )
            yield f"{label} invert {ref}", invert(field)
            yield f"{label} switch_reference {ref}", switch_reference(field)
            yield f"{label} valid_source {ref}", valid_source(field)
            yield f"{label} valid_target {ref}", valid_target(field)
        for mode, ref_1, ref_2, out_ref in itertools.product((1, 2, 3), "st", "st", "st"):
            branch = f"{label} combine {mode} {ref_1}{ref_2}>{out_ref}"
            try:
                yield branch, combine(flows[ref_1][0], flows[ref_2][1], mode, out_ref)
            except FlowError as exc:
                yield branch, f"FlowError: {exc}"


def _digest_update(digest, out):
    if isinstance(out, FlowField):
        _digest_update(digest, (str(out.reference), out.vectors, out.mask))
    elif isinstance(out, tuple):
        for item in out:
            _digest_update(digest, item)
    elif isinstance(out, np.ndarray):
        digest.update(f"{out.shape} {out.dtype.str}".encode())
        digest.update(np.ascontiguousarray(out).tobytes())
    else:
        digest.update(str(out).encode())


def _warp_digest(outputs) -> str:
    digest = hashlib.sha256()
    for label, out in outputs:
        digest.update(label.encode())
        _digest_update(digest, out)
    return digest.hexdigest()


def test_warp_outputs_sha256():
    assert _warp_digest(_warp_outputs()) == WARP_SHA256


# sha256 over the same warps on `MULTIBLOCK_SHAPES`, recorded before the
# kernels looped over channels instead of broadcasting over them, and
# re-recorded with `WARP_SHA256` for the splat's summation order.
MULTIBLOCK_WARP_SHA256 = "4ba47db2f7422d78b72652f0c2a0abfc3a0233467d9047500ad4d001645ed33d"


def test_multiblock_warp_outputs_sha256():
    assert _warp_digest(_warp_outputs(MULTIBLOCK_SHAPES, seed=1414)) == MULTIBLOCK_WARP_SHA256


# sha256 over every output of `_render_outputs` below, recorded before the
# renderers were rewritten from their closed forms.
RENDER_SHA256 = "19e7738a85103e8a24115845ba8b8052338ce1f11a7e449fc4aa2e9d520ccb27"

RENDER_SHAPES = [(1, 1), (1, 7), (5, 1), (40, 60), (150, 250)]
RENDER_VALID_SHARES = [1.0, 0.7, 0.0]
RENDER_MAGNITUDES = [0.0, 1e-300, 1.0, 60.0, 1e18, 1e300]


def _render_outputs(seed=1616):
    """(label, image) for both renderers on seeded flows of every shape, mask and size.

    Cells under false mask bits hold NaN. Each flow of magnitude 1 ends in
    the vector (1, 1e-300), whose hue reduces to exactly 360 degrees.
    """
    rng = np.random.default_rng(seed)
    for shape, ref, share, magnitude in itertools.product(
        RENDER_SHAPES, "st", RENDER_VALID_SHARES, RENDER_MAGNITUDES
    ):
        vectors = rng.uniform(-1.0, 1.0, size=(*shape, 2)) * magnitude
        if magnitude == 1.0:
            vectors[-1, -1] = [1.0, 1e-300]
        mask = rng.uniform(size=shape) < share
        vectors[~mask] = np.nan
        field = FlowField(vectors, ref, mask)
        label = f"{shape} {ref} {share} {magnitude}"
        for max_magnitude in (None, 1.0, 37.5):
            yield f"{label} wheel {max_magnitude}", render_colorwheel(field, max_magnitude)
        # Python draws arrows pixel by pixel: the largest grid gets the
        # sparse lattice that `flowfield viz` is run with in perfbench.
        for stride in (1, 3, 8) if field.mask.size < 10_000 else (8,):
            yield f"{label} arrows {stride}", render_arrows(field, stride)


def test_render_outputs_sha256():
    assert _warp_digest(_render_outputs()) == RENDER_SHA256
