"""compose-qhd: one `combine` call per op at 540x960, all 24 branches.

The ops cycle through mode {1, 2, 3} x first-input reference {s, t} x
second-input reference {s, t} x output reference {s, t}. The motions are
one random triple M12, M23, M13 = M23 . M12 drawn with
`verify.trial_matrices` (each a `random_transform` of at most 50 px). Every
input field and every `from_matrix` oracle is built in set-up; the timed
loop only calls `combine`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from flowfield import Reference, combine, from_matrix
from flowfield.verify import trial_matrices

SIZE = (540, 960)
MAX_MAGNITUDE = 50.0
BRANCHES = tuple(itertools.product((1, 2, 3), "st", "st", "st"))
# (first input, second input, unknown) flows per mode.
KNOWN = {1: ("23", "13", "12"), 2: ("12", "13", "23"), 3: ("12", "23", "13")}
# Acceptance test 2 bounds the mean endpoint error of every branch by this.
MAX_MEAN_EPE_PX = 0.05

CYCLE = len(BRANCHES)
MIN_OPS = 2 * CYCLE
TAIL_PCT = 75.0  # 48 ops leave 12 samples above it
TRACE_OPS = CYCLE
PEAK_RSS_CHILDREN = False


@dataclass
class State:
    fields: dict  # (flow name, reference) -> FlowField


def build(seed: int, work_dir) -> State:
    rng = np.random.default_rng(seed)
    m12, m23, m13 = trial_matrices(rng, SIZE, MAX_MAGNITUDE)
    matrices = {"12": m12, "23": m23, "13": m13}
    fields = {
        (name, ref): from_matrix(matrix, SIZE, ref)
        for name, matrix in matrices.items()
        for ref in "st"
    }
    return State(fields)


def ops(state: State):
    return itertools.cycle(BRANCHES)


def label(op) -> str:
    mode, ref_first, ref_second, ref_out = op
    return f"mode{mode} {ref_first}{ref_second}->{ref_out}"


def run_op(state: State, op):
    mode, ref_first, ref_second, ref_out = op
    first, second, _ = KNOWN[mode]
    return combine(state.fields[(first, ref_first)], state.fields[(second, ref_second)], mode, ref_out)


run_op_traced = run_op


def check_op(state: State, op, result, outcome) -> str | None:
    mode, _, _, ref_out = op
    truth = state.fields[(KNOWN[mode][2], ref_out)]
    if result.reference is not Reference.parse(ref_out):
        return f"reference {result.reference} != {ref_out}"
    if result.shape != SIZE:
        return f"shape {result.shape} != {SIZE}"
    mask = result.mask
    if not np.all(result.vectors[~mask] == 0.0):
        return "mask-false cells are not zero"
    valid = result.vectors[mask]
    if not np.all(np.isfinite(valid)):
        return "mask-true cells are not finite"
    if not mask.any():
        return "no valid cells"
    diff = valid - truth.vectors[mask]
    err = np.hypot(diff[:, 0], diff[:, 1])
    outcome.add_accuracy(float(err.sum()), err.size, mask.size, float(err.max()))
    mean = float(err.mean())
    if not mean < MAX_MEAN_EPE_PX:
        return f"mean EPE {mean:.4g} px >= {MAX_MEAN_EPE_PX}"
    return None


def finish(state: State, outcome) -> None:
    pass
