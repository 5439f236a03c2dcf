"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload compose-qhd --seeds 1-10 [--out FILE]

Runs `run.py --trace 0` once per seed with `run_seconds` from
BENCHMARK.json and reports, per metric, the median and the distance
between the first and third quartile (`statistics.quantiles(values, n=4)`)
as a share of the median, next to the metric's bound. Every spread but
that of `setup_s` must stay within its bound; `setup_s`'s bound limits how
far its median may move between two sets of runs. A spread above its
bound is flagged and makes the exit code 1, as does a run that reports
`correct: false`; one above a third of its bound is flagged only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = []
    for seed in seed_list(args.seeds):
        cmd = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        wall_s = time.perf_counter() - t0
        *_, details, last = proc.stdout.strip().splitlines()
        result = json.loads(last)
        result["seed"] = seed
        result["details"] = json.loads(details)["details"]
        result["wall_s"] = wall_s
        runs.append(result)
        values = {k: round(v["value"], 6) for k, v in result["metrics"].items()}
        print(f"seed {seed} correct={result['correct']} failed={result['failed']} "
              f"wall {wall_s:.1f} s {values}", flush=True)

    summary = {}
    steady = True
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        bound = bounds[name]
        summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound}
        flag = ""
        if spread > bound and name != "setup_s":
            flag = "  <-- ABOVE THE BOUND"
            steady = False
        elif spread > bound / 3:
            flag = "  <-- above a third of the bound"
        print(f"{name:<16} median {median:<12.6g} spread {spread:8.4f} bound {bound}{flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"workload": args.workload, "runs": runs, "summary": summary}, indent=1) + "\n")
    return 0 if steady and all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
