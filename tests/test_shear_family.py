"""Composition accuracy on a non-affine family: sine shears plus a shift.

Each motion is three steps: an x-shear by ax·sin(wx·y + px), a y-shear by
ay·sin(wy·x + py), then a translation. Each step moves one coordinate by
an amount that depends only on the other, or on nothing, so undoing the
steps in reverse order inverts the motion exactly. Every flow of a triple
then has a closed-form oracle in both references: g + F(g) = M(g) in
source reference and g - F(g) = M⁻¹(g) in target reference.

The statistics over all 24 mode/reference branches are pinned as a golden
record, the way `tests/test_golden.py` pins the affine `verify-compose`
records. They are rounded to 6 significant digits, because `np.sin` may
differ in its last ulp between numpy builds. There is no pass/fail bound:
the record shows when a change moves the accuracy, and by how much.
"""

import itertools

import numpy as np

from flowfield import FlowField, combine
from flowfield.compose import _SPANS

SHAPE = (150, 250)
TRIPLES_PER_MODE = 20
SEED = 0
MAX_AMPLITUDE = 8.0  # px
WAVELENGTHS = (60.0, 250.0)  # px
MAX_SHIFT = 10.0  # px per axis

# Per mode: mean endpoint error, max endpoint error, and max endpoint error
# over valid cells whose four neighbours are valid, all in px, pooled over
# the mode's triples. Recorded before the far-end and kernel-entry rework.
GOLDEN = {
    1: ("0.00274236", "0.787072", "0.270737"),
    2: ("0.00449141", "0.935447", "0.443933"),
    3: ("0.00360702", "1.44363", "1.11182"),
}


def random_shear_motion(rng):
    """Steps of one motion: an x-shear, a y-shear, then a shift."""

    def shear():
        amplitude = rng.uniform(-MAX_AMPLITUDE, MAX_AMPLITUDE)
        frequency = 2.0 * np.pi / rng.uniform(*WAVELENGTHS)
        return amplitude, frequency, rng.uniform(0.0, 2.0 * np.pi)

    return (("x", *shear()), ("y", *shear()), ("shift", *rng.uniform(-MAX_SHIFT, MAX_SHIFT, 2)))


def move(steps, x, y, inverse=False):
    """Positions (x, y) after the motion of `steps`, or before it if `inverse`."""
    sign = -1.0 if inverse else 1.0
    for kind, *args in reversed(steps) if inverse else steps:
        if kind == "x":
            amplitude, frequency, phase = args
            x = x + sign * amplitude * np.sin(frequency * y + phase)
        elif kind == "y":
            amplitude, frequency, phase = args
            y = y + sign * amplitude * np.sin(frequency * x + phase)
        else:
            x, y = x + sign * args[0], y + sign * args[1]
    return x, y


def exact_flow(steps, reference):
    """The motion's flow on the grid of SHAPE: M(g) - g, or g - M⁻¹(g) in target reference."""
    h, w = SHAPE
    gy, gx = np.mgrid[0:h, 0:w].astype(np.float64)
    if reference == "s":
        x, y = move(steps, gx, gy)
        vectors = np.stack([x - gx, y - gy], axis=-1)
    else:
        x, y = move(steps, gx, gy, inverse=True)
        vectors = np.stack([gx - x, gy - y], axis=-1)
    return FlowField(vectors, reference)


def shear_trials(mode, rng):
    """(first, second, unknown) steps and (first, second, output) references per triple.

    The references are a seeded shuffle that holds each of the 8 reference
    combinations at least twice, so every branch of the mode runs.
    """
    combos = list(itertools.product("st", repeat=3))
    order = rng.permutation(np.resize(np.arange(len(combos)), TRIPLES_PER_MODE))
    for index in order:
        m12, m23 = random_shear_motion(rng), random_shear_motion(rng)
        by_span = {(1, 2): m12, (2, 3): m23, (1, 3): m12 + m23}
        yield tuple(by_span[span] for span in _SPANS[mode]), combos[index]


def interior(mask):
    """Valid cells whose four neighbours are valid cells of the grid."""
    padded = np.pad(mask, 1, constant_values=False)
    return mask & padded[:-2, 1:-1] & padded[2:, 1:-1] & padded[1:-1, :-2] & padded[1:-1, 2:]


def shear_record(mode):
    """Mean, max and interior-max endpoint error of the mode's triples, at 6 digits."""
    rng = np.random.default_rng([SEED, mode])
    errors, inner = [], []
    for (first, second, unknown), (ref_first, ref_second, ref_out) in shear_trials(mode, rng):
        known = exact_flow(first, ref_first), exact_flow(second, ref_second)
        computed = combine(*known, mode, ref_out)
        diff = computed.vectors - exact_flow(unknown, ref_out).vectors
        error = np.hypot(diff[..., 0], diff[..., 1])
        errors.append(error[computed.mask])
        inner.append(error[interior(computed.mask)])
    errors, inner = np.concatenate(errors), np.concatenate(inner)
    return tuple(f"{v:.6g}" for v in (errors.mean(), errors.max(), inner.max()))


def test_motion_inverse_is_exact():
    rng = np.random.default_rng(SEED)
    steps = random_shear_motion(rng) + random_shear_motion(rng)
    x, y = rng.uniform(-50.0, 300.0, (2, 1000))
    back = move(steps, *move(steps, x, y), inverse=True)
    np.testing.assert_allclose(back, (x, y), rtol=0, atol=1e-10)


def test_trials_cover_every_branch():
    for mode in (1, 2, 3):
        combos = {refs for _, refs in shear_trials(mode, np.random.default_rng([SEED, mode]))}
        assert len(combos) == 8


def test_golden_records():
    assert {mode: shear_record(mode) for mode in GOLDEN} == GOLDEN
