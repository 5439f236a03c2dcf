"""Shared pieces of the benchmark: paths, timing loop, statistics, provenance."""

from __future__ import annotations

import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"

# Acceptance test 1 bounds the max endpoint error of its trials by this; ops
# whose max error exceeds it are counted, whatever their own guard is.
ACCEPTANCE_MAX_PX = 1.0

# BLAS/OpenMP pools numpy may start. Unless the caller sets them, run.py pins
# each to one thread: the load is one client on one Python thread.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict[str, str]:
    """Environment for flowfield subprocesses: the checkout's src first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def make_work_dir() -> Path:
    WORK_DIR.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="run-", dir=WORK_DIR))


def remove_work_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        WORK_DIR.rmdir()
    except OSError:
        pass  # another run still uses it


def import_s(module: str, repeats: int) -> float:
    """Median in-child time of `import module`, interpreter start excluded."""
    code = (
        "import time; t = time.perf_counter(); "
        f"import {module}; print(time.perf_counter() - t)"
    )
    times = []
    for _ in range(repeats):
        out = subprocess.run(
            [sys.executable, "-c", code], env=child_env(), check=True, capture_output=True, text=True
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def percentile(values: list[float], pct: float) -> float:
    """Linear-interpolation percentile (numpy's default method).

    Pure Python because this module is imported before run.py has set the
    BLAS thread variables, which must precede the first numpy import.
    """
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


@dataclass
class Outcome:
    """What a workload hands back to run.py."""

    latencies_s: list[float] = field(default_factory=list)
    kinds: list[str] = field(default_factory=list)  # op label per latency
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    setup_s: float = 0.0
    timed_s: float = 0.0
    epe_sum: float = 0.0
    epe_count: int = 0
    epe_max: float = 0.0
    ops_over_1px: int = 0
    cells: int = 0
    run_check_ok: bool = True
    notes: dict = field(default_factory=dict)

    def fail(self, op: int, reason: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"op {op}: {reason}")

    def add_accuracy(self, epe_sum: float, valid: int, cells: int, epe_max: float) -> None:
        """Pool one checked output: error sum, valid and total cells, max error."""
        self.epe_sum += epe_sum
        self.epe_count += valid
        self.cells += cells
        self.epe_max = max(self.epe_max, epe_max)
        self.ops_over_1px += epe_max > ACCEPTANCE_MAX_PX

    def merge(self, other: "Outcome") -> None:
        """Add the counts of another pass over the same kind of ops."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures.extend(other.failures[: max(0, 20 - len(self.failures))])
        self.epe_sum += other.epe_sum
        self.epe_count += other.epe_count
        self.cells += other.cells
        self.epe_max = max(self.epe_max, other.epe_max)
        self.ops_over_1px += other.ops_over_1px


def closed_loop(ops, seconds: float, cycle: int, min_ops: int, run_op, check_op, label, outcome: Outcome):
    """Run ops back to back in whole cycles until `seconds` and `min_ops` are met.

    `ops` is an endless iterator of op descriptions; op i of each cycle is
    the same kind of work, so whole cycles keep the op mix fixed whatever
    the speed. Only `run_op` is timed; `check_op` runs between ops.
    """
    spent = 0.0
    while True:
        for _ in range(cycle):
            op_index = outcome.attempted
            op = next(ops)
            outcome.attempted += 1
            t0 = time.perf_counter()
            try:
                result = run_op(op)
            except Exception as exc:  # a failed op is counted, not fatal
                spent += time.perf_counter() - t0
                outcome.fail(op_index, f"raised {type(exc).__name__}: {exc}")
                continue
            elapsed = time.perf_counter() - t0
            spent += elapsed
            outcome.latencies_s.append(elapsed)
            outcome.kinds.append(label(op))
            try:
                reason = check_op(op, result, outcome)
            except Exception as exc:  # an unreadable output fails its op
                reason = f"check raised {type(exc).__name__}: {exc}"
            if reason:
                outcome.fail(op_index, reason)
        if spent >= seconds and outcome.attempted >= min_ops:
            outcome.timed_s = spent
            return


def provenance(seed: int) -> dict:
    import numpy as np

    def cache_size(level: int) -> str | None:
        for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
            try:
                if int((index / "level").read_text()) == level and (index / "type").read_text().strip() in (
                    "Unified",
                    "Data",
                ):
                    return (index / "size").read_text().strip()
            except OSError:
                continue
        return None

    try:
        # The ceiling keeps git from finding a repository above the checkout.
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None  # the checkout is not a git repository
    return {
        "seed": seed,
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "l2": cache_size(2),
        "l3": cache_size(3),
        "threads": {name: os.environ.get(name) for name in THREAD_VARS},
        "byte_counts": "computed from array sizes and file sizes, not measured traffic",
        "roofline": (
            "not reported: the largest workload array (540x960x2 float64, 8.3 MB) "
            "is far below four times the 300 MiB L3"
        ),
    }
