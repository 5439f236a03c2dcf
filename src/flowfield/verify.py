"""Randomized verification of the composition engine.

Each trial draws two random affine motions (rotation, translation or
scaling, centers inside the field, peak displacement uniform up to a cap),
builds the two known flows of the requested composition mode in random
references, composes them with a random output reference, and compares the
result against the exact flow of the matrix composition. Per-vector
endpoint errors are pooled over all trials, restricted to the valid area
of the computed flow.

Randomness comes from numpy's PCG64 generator, so a seed pins the entire
report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .compose import _SPANS, combine
from .core import _STEP_ARITY, AffineTransform, FlowError, Reference, from_matrix
from .core import _grid_shape, _integer, _mode, _number

__all__ = ["AccuracyReport", "run_trials", "random_transform"]

# Relative errors are undefined against (near-)zero true vectors.
REL_ERROR_MIN_MAGNITUDE = 1e-6

TRANSFORM_KINDS = tuple(_STEP_ARITY)


@dataclass(frozen=True)
class AccuracyReport:
    """Pooled endpoint-error statistics of a trial run.

    Absolute errors are in pixels; relative errors are absolute errors
    divided by the true vector magnitude (vectors shorter than 1e-6 px
    excluded). Fractions count vectors below the named threshold.
    """

    n_vectors: int
    mean_abs_err: float
    max_abs_err: float
    frac_abs_below_005: float
    frac_abs_below_0005: float
    frac_rel_below_0005: float
    frac_rel_below_00005: float

    def __post_init__(self):
        fractions = (
            self.frac_abs_below_005,
            self.frac_abs_below_0005,
            self.frac_rel_below_0005,
            self.frac_rel_below_00005,
        )
        if not all(0.0 <= f <= 1.0 for f in fractions):
            raise FlowError(f"fractions must lie in [0, 1]: {fractions}")
        if self.mean_abs_err > self.max_abs_err:
            raise FlowError("mean error cannot exceed max error")

    def format_block(self, label: str = "") -> str:
        title = f"composition accuracy{f' ({label})' if label else ''}"
        return "\n".join(
            [
                title,
                f"  vectors compared        {self.n_vectors}",
                f"  mean abs error [px]     {self.mean_abs_err:.6f}",
                f"  max abs error [px]      {self.max_abs_err:.6f}",
                f"  abs error < 0.05 px     {self.frac_abs_below_005:.4f}",
                f"  abs error < 0.005 px    {self.frac_abs_below_0005:.4f}",
                f"  rel error < 0.005       {self.frac_rel_below_0005:.4f}",
                f"  rel error < 0.0005      {self.frac_rel_below_00005:.4f}",
            ]
        )

    def format_record(self, label: str = "") -> str:
        prefix = f"mode={label} " if label else ""
        return (
            f"{prefix}n_vectors={self.n_vectors} "
            f"mean_abs_err={self.mean_abs_err:.9g} "
            f"max_abs_err={self.max_abs_err:.9g} "
            f"frac_abs_below_005={self.frac_abs_below_005:.6f} "
            f"frac_abs_below_0005={self.frac_abs_below_0005:.6f} "
            f"frac_rel_below_0005={self.frac_rel_below_0005:.6f} "
            f"frac_rel_below_00005={self.frac_rel_below_00005:.6f}"
        )


def random_transform(
    rng: np.random.Generator, shape: tuple[int, int], max_magnitude: float
) -> AffineTransform:
    """Draw a rotation, translation or scaling with a bounded displacement.

    Rotation and scaling centers are uniform inside the field; the
    transform parameter is scaled so the largest displacement of the
    source-reference flow over the grid (attained on the corner hull)
    equals a uniform draw from (0, max_magnitude]. A max_magnitude that
    is not one finite number >= 0 raises FlowError.
    """
    if not 0.0 <= (max_magnitude := _number(max_magnitude, "max_magnitude")) < np.inf:
        raise FlowError(f"max_magnitude must be finite and >= 0, got {max_magnitude!r}")
    h, w = _grid_shape(shape)
    kind = TRANSFORM_KINDS[rng.integers(len(TRANSFORM_KINDS))]
    magnitude = rng.uniform(0.0, max_magnitude + 0.0)  # -0.0 + 0.0 is +0.0
    if kind == "translation":
        angle = rng.uniform(0.0, 2.0 * np.pi)
        return AffineTransform.translation(
            magnitude * np.cos(angle), magnitude * np.sin(angle)
        )
    cx = rng.uniform(0.0, w - 1.0)
    cy = rng.uniform(0.0, h - 1.0)
    corners = np.array([[0.0, 0.0], [w - 1.0, 0.0], [0.0, h - 1.0], [w - 1.0, h - 1.0]])
    reach = float(np.max(np.hypot(corners[:, 0] - cx, corners[:, 1] - cy)))
    if kind == "rotation":
        # Displacement of a point at distance r under rotation a is 2 sin(a/2) r.
        half_sine = min(1.0, magnitude / (2.0 * reach)) if reach > 0 else 0.0
        degrees = np.degrees(2.0 * np.arcsin(half_sine))
        if rng.integers(2):
            degrees = -degrees
        return AffineTransform.rotation(cx, cy, degrees)
    delta = magnitude / reach if reach > 0 else 0.0
    factor = 1.0 + delta if rng.integers(2) or delta >= 0.95 else 1.0 - delta
    return AffineTransform.scaling(cx, cy, factor)


def _random_reference(rng: np.random.Generator) -> Reference:
    return Reference.SOURCE if rng.integers(2) else Reference.TARGET


def trial_matrices(
    rng: np.random.Generator, shape: tuple[int, int], max_magnitude: float
) -> tuple[AffineTransform, AffineTransform, AffineTransform]:
    """Matrices (M12, M23, M13) of one random trial, M13 = M23 after M12."""
    m12 = random_transform(rng, shape, max_magnitude)
    m23 = random_transform(rng, shape, max_magnitude)
    return m12, m23, m23 @ m12


def run_trials(
    mode: int,
    trials: int,
    size: tuple[int, int] = (150, 250),
    max_magnitude: float = 50.0,
    seed: int = 0,
) -> AccuracyReport:
    """Run randomized composition trials for one mode and pool the errors.

    Raises FlowError unless `trials` is a whole number >= 1 and `seed` one
    >= 0, and when no trial left a valid vector to compare: an empty
    comparison has no accuracy to report.
    """
    mode = _mode(mode)
    trials = _integer(trials, 1, "trials")
    if isinstance(seed, (int, np.integer)) and seed < 0:
        raise FlowError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(_integer(seed, 0, "seed"))

    n_total = 0
    err_sum = 0.0
    err_max = 0.0
    n_abs_005 = 0
    n_abs_0005 = 0
    n_rel = 0
    n_rel_0005 = 0
    n_rel_00005 = 0

    for _ in range(trials):
        m12, m23, m13 = trial_matrices(rng, size, max_magnitude)
        by_span = {(1, 2): m12, (2, 3): m23, (1, 3): m13}
        first, second, unknown = (by_span[span] for span in _SPANS[mode])
        ref_out = _random_reference(rng)
        f_first = from_matrix(first, size, _random_reference(rng))
        f_second = from_matrix(second, size, _random_reference(rng))
        computed = combine(f_first, f_second, mode, ref_out)
        del f_first, f_second
        truth = from_matrix(unknown, size, ref_out)

        # One difference plane and its error plane, formed on the valid cells
        # only; the statistics read their errors, in C order, selected from it.
        cells = computed.mask
        diff = computed.vectors - truth.vectors
        plane = np.empty(cells.shape)
        err = np.hypot(*np.moveaxis(diff, 2, 0), out=plane, where=cells)[cells]
        n_total += err.size
        if err.size:
            err_sum += float(err.sum())
            err_max = max(err_max, float(err.max()))
            n_abs_005 += int(np.count_nonzero(err < 0.05))
            n_abs_0005 += int(np.count_nonzero(err < 0.005))
            # `err` is a copy, so the plane is free for the true magnitudes.
            true_mag = np.hypot(*np.moveaxis(truth.vectors, 2, 0), out=plane, where=cells)[cells]
            eligible = true_mag >= REL_ERROR_MIN_MAGNITUDE
            rel = err[eligible] / true_mag[eligible]
            n_rel += rel.size
            n_rel_0005 += int(np.count_nonzero(rel < 0.005))
            n_rel_00005 += int(np.count_nonzero(rel < 0.0005))

    if n_total == 0:
        raise FlowError("no composed vector was valid, so there is nothing to compare")

    def frac(num: int, den: int) -> float:
        return num / den if den else 1.0

    return AccuracyReport(
        n_vectors=n_total,
        # A float sum of equal errors can round the mean one ulp above them.
        mean_abs_err=min(err_sum / n_total, err_max),
        max_abs_err=err_max,
        frac_abs_below_005=n_abs_005 / n_total,
        frac_abs_below_0005=n_abs_0005 / n_total,
        frac_rel_below_0005=frac(n_rel_0005, n_rel),
        frac_rel_below_00005=frac(n_rel_00005, n_rel),
    )
