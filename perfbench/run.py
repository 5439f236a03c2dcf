"""flowfield benchmark: three closed-loop workloads, end-to-end and per-layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload compose-qhd --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Each workload is a closed loop with one client: one Python thread runs an
op, the op's output is checked outside the timed region, and the next op
starts. All inputs come from `--seed`; flowfield only sees the generated
arrays and files. `--trace 0` measures the end-to-end metrics; `--trace 1`
makes a separate run that wraps flowfield's public functions and reports
per-layer calls, self time and counts, plus the tracing overhead. The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.

The library is imported from `src/` of the checkout the script sits in; the
benchmark exits with code 2 if it is not there. See perfbench/README.md for
the workloads, the metrics and what each layer metric should move.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from common import (
    SRC,
    THREAD_VARS,
    Outcome,
    closed_loop,
    import_s,
    make_work_dir,
    peak_rss_mb,
    percentile,
    provenance,
    remove_work_dir,
)

WORKLOADS = {
    "compose-qhd": "compose_qhd",
    "verify-small": "verify_small",
    "cli-pipeline": "cli_pipeline",
}
SETUP_REPEATS = 5
IMPORT_REPEATS = 5
SPAN_DIR = Path(__file__).resolve().parent.parent / ".bench_spans"


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def mean_epe_px(outcome: Outcome) -> float:
    return outcome.epe_sum / outcome.epe_count if outcome.epe_count else 0.0


def run_untraced(module, seed: int, seconds: float) -> tuple[Outcome, dict]:
    outcome = Outcome()
    work = make_work_dir()
    try:
        # Set-up is repeated and its median reported, so that work moved into
        # set-up shows without the noise of a single sample; import is timed
        # in fresh interpreters.
        import_time = import_s("flowfield", SETUP_REPEATS)
        builds = []
        for repeat in range(SETUP_REPEATS):
            state = None  # release the previous build before timing the next
            target = work / f"setup{repeat}"
            target.mkdir()
            t0 = time.perf_counter()
            state = module.build(seed, target)
            builds.append(time.perf_counter() - t0)
        outcome.setup_s = import_time + statistics.median(builds)

        closed_loop(
            module.ops(state),
            seconds,
            module.CYCLE,
            module.MIN_OPS,
            lambda op: module.run_op(state, op),
            lambda op, result, out: module.check_op(state, op, result, out),
            module.label,
            outcome,
        )
        module.finish(state, outcome)
    finally:
        remove_work_dir(work)

    who = resource.RUSAGE_CHILDREN if module.PEAK_RSS_CHILDREN else resource.RUSAGE_SELF
    lat_ms = [t * 1e3 for t in outcome.latencies_s]
    passed = outcome.attempted - outcome.failed
    metrics = {
        "setup_s": _metric(outcome.setup_s, "s"),
        "ops_per_s": _metric(passed / outcome.timed_s, "1/s"),
        "op_ms_p50": _metric(statistics.median(lat_ms), "ms"),
        "op_ms_tail": _metric(percentile(lat_ms, module.TAIL_PCT), "ms"),
        "peak_rss_mb": _metric(peak_rss_mb(who), "MB"),
        "valid_frac": _metric(outcome.epe_count / outcome.cells if outcome.cells else 0.0, "1"),
    }
    outcome.notes.update({
        "tail_percentile": module.TAIL_PCT,
        "samples": len(lat_ms),
        "timed_s": outcome.timed_s,
        "mean_epe_px": mean_epe_px(outcome),
        "max_epe_px": outcome.epe_max,
        "ops_over_1px": outcome.ops_over_1px,
        "op_ms_p50_by_kind": {
            kind: statistics.median(t for k, t in zip(outcome.kinds, lat_ms) if k == kind)
            for kind in dict.fromkeys(outcome.kinds)
        },
    })
    return outcome, metrics


def run_traced(module, name: str, seed: int) -> tuple[Outcome, dict]:
    # Deferred: tracing imports flowfield, which is importable only once
    # main() has put src/ on the path.
    from tracing import COUNTER_SPAN, Tracer

    work = make_work_dir()
    tracer = Tracer()
    try:
        state = module.build(seed, work)

        def one_pass(run) -> Outcome:
            out = Outcome()
            closed_loop(
                module.ops(state), 0.0, module.TRACE_OPS, 0, run,
                lambda op, result, o: module.check_op(state, op, result, o),
                module.label,
                out,
            )
            return out

        def plain(op):
            return module.run_op_traced(state, op)

        def traced(op):
            tracer.op_id += 1
            tracer.active = True
            try:
                return module.run_op_traced(state, op)
            finally:
                tracer.active = False

        # Every pass makes the same ops. A whole warm-up pass takes first
        # touch and allocator growth; the traced pass then sits between two
        # untraced ones, so a drift in speed cancels from the overhead.
        warm_up, before = one_pass(plain), one_pass(plain)
        tracer.install(module)
        try:
            with_wrappers = one_pass(traced)
        finally:
            tracer.uninstall()
        after = one_pass(plain)
        outcome = Outcome()
        for done in (warm_up, before, with_wrappers, after):
            outcome.merge(done)
        module.finish(state, outcome)
    finally:
        remove_work_dir(work)

    SPAN_DIR.mkdir(exist_ok=True)
    with open(SPAN_DIR / f"{name}-seed{seed}.jsonl", "w") as fh:
        for span_name, start, end, parent, op_id in tracer.spans:
            fh.write(json.dumps({"name": span_name, "start": start, "end": end, "parent": parent, "op": op_id}) + "\n")

    traced_s = with_wrappers.timed_s
    untraced_s = (before.timed_s + after.timed_s) / 2
    metrics = {key: _metric(value, unit) for key, (value, unit) in tracer.layer_metrics(traced_s).items()}
    metrics["accuracy.mean_epe_px"] = _metric(mean_epe_px(with_wrappers), "px")
    metrics["accuracy.max_epe_px"] = _metric(with_wrappers.epe_max, "px")
    metrics["accuracy.ops_over_1px"] = _metric(with_wrappers.ops_over_1px, "count")
    metrics["cli.import_ms"] = _metric(import_s("flowfield.cli", IMPORT_REPEATS) * 1e3, "ms")
    counters_s = tracer.self_times().get(COUNTER_SPAN, (0, 0.0))[1]
    metrics["trace.untraced_ms"] = _metric(untraced_s * 1e3, "ms")
    metrics["trace.traced_ms"] = _metric(traced_s * 1e3, "ms")
    metrics["trace.overhead_ms"] = _metric((traced_s - untraced_s) * 1e3, "ms")
    metrics["trace.counters_ms"] = _metric(counters_s * 1e3, "ms")
    outcome.notes.update({
        "ops_per_pass": module.TRACE_OPS,
        "untraced_pass_ms": [before.timed_s * 1e3, after.timed_s * 1e3],
        "spans": len(tracer.spans),
    })
    return outcome, metrics


def result_line(outcome: Outcome, metrics: dict) -> dict:
    return {
        "correct": outcome.failed == 0 and outcome.run_check_ok,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }


def print_report(name: str, outcome: Outcome, metrics: dict, seed: int) -> None:
    print(f"workload {name}  seed {seed}")
    for key, metric in metrics.items():
        print(f"  {key:<48} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  {'attempted':<48} {outcome.attempted:>14d} ops")
    print(f"  {'failed':<48} {outcome.failed:>14d} ops")
    for line in outcome.failures:
        print(f"  failure: {line}")
    print(json.dumps({"details": outcome.notes, "provenance": provenance(seed)}))


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True,
            text=True,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        *report, last = proc.stdout.strip().splitlines()
        print("\n".join(report))
        result = json.loads(last)
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "flowfield" / "__init__.py").is_file():
        print(f"error: flowfield sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)

    import flowfield

    if Path(flowfield.__file__).resolve().parent != (SRC / "flowfield").resolve():
        print(f"error: imported flowfield from {flowfield.__file__}, not {SRC}", file=sys.stderr)
        return 2
    module = importlib.import_module(WORKLOADS[args.workload])
    if args.trace:
        outcome, metrics = run_traced(module, args.workload, args.seed)
    else:
        outcome, metrics = run_untraced(module, args.seed, args.seconds)
    print_report(args.workload, outcome, metrics, args.seed)
    print(json.dumps(result_line(outcome, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
