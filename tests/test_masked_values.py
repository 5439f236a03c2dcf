"""Values under false mask bits never reach the output of a public op.

The constructor stores whatever sits under a false mask bit, so every op
that takes a `FlowField` must read only valid cells. Each op runs on a
field holding NaN, infinities or near-limit values there and on the same
field holding zeros; valid cells and masks must agree bit for bit.
"""

import numpy as np
import pytest

from flowfield import (
    AffineTransform,
    FlowField,
    Reference,
    apply,
    combine,
    fit_matrix,
    get_padding,
    from_matrix,
    invert,
    load_flow,
    map_vectors,
    pad,
    render_arrows,
    render_colorwheel,
    resize,
    save_flow,
    switch_reference,
    track,
    unpad,
    valid_source,
    valid_target,
    zeros,
)

from conftest import assert_fresh_output, random_affine_flow

SHAPE = (9, 11)
_RNG = np.random.default_rng(5)
DATA = _RNG.normal(size=(*SHAPE, 3))
DATA_MASK = _RNG.uniform(size=SHAPE) < 0.9
POINTS = _RNG.uniform(-1.0, 11.0, size=(25, 2))


def _saved_bytes(field, tmp_path):
    path = tmp_path / "f.flo"
    save_flow(path, field)
    return path.read_bytes(), path.with_suffix(".ref").read_bytes()


OPS = {
    "apply": lambda f, tmp: apply(f, DATA, DATA_MASK),
    "track": lambda f, tmp: track(f, POINTS),
    "switch_reference": lambda f, tmp: switch_reference(f),
    "invert": lambda f, tmp: invert(f),
    "valid_source": lambda f, tmp: valid_source(f),
    "valid_target": lambda f, tmp: valid_target(f),
    "get_padding": lambda f, tmp: get_padding(f),
    "fit_matrix": lambda f, tmp: fit_matrix(f),
    "map_vectors": lambda f, tmp: map_vectors(f, lambda v: 2.0 * v),
    "combine": lambda f, tmp: [combine(f, f, m, r) for m in (1, 2, 3) for r in "st"],
    "resize": lambda f, tmp: resize(f, (1.5, 0.7)),
    "pad": lambda f, tmp: pad(f, (1, 2, 3, 0)),
    "unpad": lambda f, tmp: unpad(f, (1, 1, 2, 0)),
    "render_colorwheel": lambda f, tmp: render_colorwheel(f),
    "render_arrows": lambda f, tmp: render_arrows(f, stride=2),
    "save_flow": _saved_bytes,
}


def canonical(out):
    """Comparable form of an op's output; a field counts only on valid cells."""
    if isinstance(out, FlowField):
        return (str(out.reference), out.mask.tobytes(), out.vectors[out.mask].tobytes())
    if isinstance(out, AffineTransform):
        return out.matrix.tobytes()
    if isinstance(out, np.ndarray):
        return out.shape, out.dtype.str, out.tobytes()
    if isinstance(out, (tuple, list)):
        return tuple(canonical(item) for item in out)
    return out


@pytest.mark.parametrize("fill", [np.nan, np.inf, -np.inf, 1e308, -1.7e308])
@pytest.mark.parametrize("ref", ["s", "t"])
@pytest.mark.parametrize("name", sorted(OPS))
def test_invalid_cell_values_do_not_change_output(name, ref, fill, tmp_path):
    rng = np.random.default_rng(11)
    flow, _ = random_affine_flow(rng, SHAPE, 3.0, ref)
    mask = rng.uniform(size=SHAPE) < 0.8
    zeroed = np.where(mask[..., None], flow.vectors, 0.0)
    poisoned = np.where(mask[..., None], flow.vectors, fill)
    op = OPS[name]
    expected = canonical(op(FlowField(zeroed, ref, mask), tmp_path))
    assert canonical(op(FlowField(poisoned, ref, mask), tmp_path)) == expected


def _reloaded(field, tmp_path):
    path = tmp_path / "f.flo"
    save_flow(path, field)
    return load_flow(path)


# Every public op that returns a FlowField, as (output, expected reference).
FIELD_OPS = {
    "zeros": lambda f, tmp: (zeros(f.shape, f.reference), f.reference),
    "from_matrix": lambda f, tmp: (
        from_matrix(AffineTransform.rotation(0.5, 0.5, 10.0), f.shape, f.reference, (1, 0, 2, 1)),
        f.reference,
    ),
    "pad": lambda f, tmp: (pad(f, (1, 2, 3, 0)), f.reference),
    "unpad": lambda f, tmp: (
        unpad(f, (0, (f.shape[0] - 1) // 2, (f.shape[1] - 1) // 2, 0)),
        f.reference,
    ),
    "resize-1": lambda f, tmp: (resize(f, (1.0, 1.0)), f.reference),
    "resize-1.5": lambda f, tmp: (resize(f, (1.5, 1.5)), f.reference),
    # `func` itself writes junk under the false bits.
    "map_vectors": lambda f, tmp: (
        map_vectors(f, lambda v: np.where(f.mask[..., None], 2.0 * v, np.inf)),
        f.reference,
    ),
    "invert": lambda f, tmp: (invert(f), f.reference),
    "switch_reference": lambda f, tmp: (switch_reference(f), f.reference.opposite),
    **{
        f"combine-{mode}{r}": lambda f, tmp, m=mode, r=r: (combine(f, f, m, r), Reference(r))
        for mode in (1, 2, 3)
        for r in "st"
    },
    "save_flow-load_flow": lambda f, tmp: (_reloaded(f, tmp), f.reference),
}


@pytest.mark.parametrize("valid_share", [1.0, 0.8, 0.0])
@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (6, 9)])
@pytest.mark.parametrize("ref", ["s", "t"])
@pytest.mark.parametrize("name", list(FIELD_OPS))
def test_field_output_keeps_invariants(name, ref, shape, valid_share, tmp_path):
    rng = np.random.default_rng(17)
    mask = rng.uniform(size=shape) < valid_share
    vectors = np.where(mask[..., None], rng.uniform(-2.0, 2.0, (*shape, 2)), np.nan)
    vectors[..., 1][~mask] = 1e308
    field = FlowField(vectors, ref, mask)
    out, reference = FIELD_OPS[name](field, tmp_path)
    assert out.reference is reference
    assert_fresh_output(out, field)
    assert out.vectors.flags.c_contiguous and out.mask.flags.c_contiguous
