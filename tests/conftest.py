"""Shared test helpers: independent oracles and random-field builders."""

import numpy as np
import pytest

from flowfield import FlowField, from_matrix
from flowfield.interp import WEIGHT_THRESHOLD
from flowfield.verify import random_transform


def splat_bruteforce(positions, values, shape):
    """Reference splat: loop over every (sample, cell) pair with tent weights.

    Independent of the production implementation: weights come from the
    separable tent kernel max(0, 1-|dx|) * max(0, 1-|dy|) evaluated against
    every grid cell, not from corner enumeration.
    """
    h, w = shape
    positions = np.asarray(positions, dtype=np.float64).reshape(-1, 2)
    values = np.asarray(values, dtype=np.float64)
    squeeze = values.ndim == 1
    if squeeze:
        values = values[:, None]
    channels = values.shape[1]
    acc = np.zeros((h, w, channels))
    wacc = np.zeros((h, w))
    for (x, y), val in zip(positions, values):
        if not (-1.0 <= x <= w and -1.0 <= y <= h):
            continue
        for cy in range(h):
            wy = max(0.0, 1.0 - abs(y - cy))
            if wy == 0.0:
                continue
            for cx in range(w):
                wx = max(0.0, 1.0 - abs(x - cx))
                if wx == 0.0:
                    continue
                weight = wx * wy
                acc[cy, cx] += weight * val
                wacc[cy, cx] += weight
    mask = wacc > WEIGHT_THRESHOLD
    out = np.zeros((h, w, channels))
    np.divide(acc, wacc[..., None], out=out, where=mask[..., None])
    if squeeze:
        out = out[..., 0]
    return out, mask


def assert_invariants(out):
    """The data-model invariants: +0.0 bytes under false mask bits, finite values under true ones.

    The bytes are compared, not the values, so a -0.0 under a false bit fails.
    """
    assert not out.vectors[~out.mask].view(np.uint64).any()
    assert np.isfinite(out.vectors[out.mask]).all()


def assert_fresh_output(out, *inputs):
    """The data-model invariants a kernel output is built on without checks."""
    assert_invariants(out)
    assert not out.vectors.flags.writeable and not out.mask.flags.writeable
    for field in inputs:
        for mine in (out.vectors, out.mask):
            for theirs in (field.vectors, field.mask):
                assert not np.shares_memory(mine, theirs)


def mean_epe(field_a: FlowField, field_b: FlowField, mask=None) -> float:
    """Mean endpoint error between two co-anchored flows on a mask."""
    if mask is None:
        mask = field_a.mask & field_b.mask
    assert mask.any(), "no overlap to compare on"
    diff = field_a.vectors[mask] - field_b.vectors[mask]
    return float(np.hypot(diff[:, 0], diff[:, 1]).mean())


def max_epe(field_a: FlowField, field_b: FlowField, mask=None) -> float:
    if mask is None:
        mask = field_a.mask & field_b.mask
    assert mask.any()
    diff = field_a.vectors[mask] - field_b.vectors[mask]
    return float(np.hypot(diff[:, 0], diff[:, 1]).max())


def random_affine_flow(rng, shape, max_magnitude, reference=None):
    """Flow of a random bounded transform; matrix returned alongside."""
    matrix = random_transform(rng, shape, max_magnitude)
    if reference is None:
        reference = "s" if rng.integers(2) else "t"
    return from_matrix(matrix, shape, reference), matrix


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
