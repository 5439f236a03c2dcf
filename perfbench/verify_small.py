"""verify-small: one randomized `run_trials` trial per op at 150x250.

Op i is `run_trials(mode, 1, (150, 250), 50.0, seed=k)` with the mode
cycling 1, 2, 3 and k derived from the benchmark seed and i: one full trial
of `verify-compose` at its defaults, including its three `from_matrix`
calls and the error statistics.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from flowfield import run_trials

SIZE = (150, 250)
MAX_MAGNITUDE = 50.0
# Acceptance test 1 bounds the pooled mean error of a run.
MAX_POOLED_MEAN_PX = 0.01
# Acceptance test 1 also bounds the pooled max error of its fixed 900 trials
# by 1 px. Single random trials reach about 1.03 px (about 1 in 3600 at these
# defaults), so a per-op bound of 1 px would fail runs at random; the per-op
# guard is twice that. Trials above 1 px are counted as ops_over_1px.
MAX_ABS_ERR_PX = 2.0
# Trial seeds of different benchmark seeds do not overlap below this many ops.
SEED_STRIDE = 1_000_003

CYCLE = 3
MIN_OPS = 200
TAIL_PCT = 95.0  # 200 ops leave 10 samples above it
TRACE_OPS = 60
PEAK_RSS_CHILDREN = False


@dataclass
class State:
    seed: int


def build(seed: int, work_dir) -> State:
    return State(seed)


def ops(state: State):
    return ((1 + i % 3, state.seed * SEED_STRIDE + i) for i in itertools.count())


def label(op) -> str:
    return f"mode{op[0]}"


def run_op(state: State, op):
    mode, trial_seed = op
    return run_trials(mode, 1, SIZE, MAX_MAGNITUDE, seed=trial_seed)


run_op_traced = run_op


def check_op(state: State, op, report, outcome) -> str | None:
    if report.n_vectors == 0:
        return "no valid vectors"
    stats = (report.mean_abs_err, report.max_abs_err)
    if not all(np.isfinite(stats)):
        return f"non-finite error statistics {stats}"
    outcome.add_accuracy(
        report.mean_abs_err * report.n_vectors, report.n_vectors, SIZE[0] * SIZE[1], report.max_abs_err
    )
    if report.max_abs_err > MAX_ABS_ERR_PX:
        return f"max error {report.max_abs_err:.4g} px > {MAX_ABS_ERR_PX}"
    return None


def finish(state: State, outcome) -> None:
    if not outcome.epe_count:
        return
    pooled = outcome.epe_sum / outcome.epe_count
    if pooled > MAX_POOLED_MEAN_PX:
        outcome.run_check_ok = False
        outcome.failures.append(f"pooled mean error {pooled:.4g} px > {MAX_POOLED_MEAN_PX}")
