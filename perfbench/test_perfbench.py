"""Self-test of the benchmark at reduced frame sizes.

Run from the root of the checkout:

    python3 -m pytest -q perfbench/test_perfbench.py

It checks that every metric named in BENCHMARK.json is reported with its
unit, that corrupted outputs are counted as failed ops, that the untraced
run installs no wrapper, and that the script refuses to run without the
library sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import flowfield  # noqa: E402
import flowfield.interp  # noqa: E402
from flowfield import FlowField, AccuracyReport  # noqa: E402

import cli_pipeline  # noqa: E402
import compose_qhd  # noqa: E402
import run  # noqa: E402
import verify_small  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
MODULES = {"compose-qhd": compose_qhd, "verify-small": verify_small, "cli-pipeline": cli_pipeline}


@pytest.fixture
def small(monkeypatch):
    """Shrink every workload to a few small ops."""
    monkeypatch.setattr(compose_qhd, "SIZE", (40, 60))
    monkeypatch.setattr(compose_qhd, "MIN_OPS", compose_qhd.CYCLE)
    monkeypatch.setattr(verify_small, "MIN_OPS", 6)
    monkeypatch.setattr(verify_small, "TRACE_OPS", 6)
    monkeypatch.setattr(cli_pipeline, "SIZE", (40, 60))
    monkeypatch.setattr(cli_pipeline, "MIN_OPS", cli_pipeline.CYCLE)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "IMPORT_REPEATS", 1)


def assert_units(metrics, expected, capsys, outcome, name):
    run.print_report(name, outcome, metrics, 0)
    printed = capsys.readouterr().out
    for spec in expected:
        assert spec["name"] in metrics, spec["name"]
        assert metrics[spec["name"]]["unit"] == spec["unit"], spec["name"]
        assert spec["name"] in printed
    assert set(metrics) == {spec["name"] for spec in expected}
    line = run.result_line(outcome, metrics)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["attempted"] >= 1


@pytest.mark.parametrize("name", list(MODULES))
def test_untraced_reports_every_end_to_end_metric(name, small, capsys):
    bilinear = flowfield.interp.bilinear_sample
    outcome, metrics = run.run_untraced(MODULES[name], seed=3, seconds=0.0)
    assert flowfield.interp.bilinear_sample is bilinear  # nothing was wrapped
    assert outcome.failed == 0, outcome.failures
    assert run.result_line(outcome, metrics)["correct"], outcome.failures
    assert_units(metrics, SPEC["end_to_end"], capsys, outcome, name)


@pytest.mark.parametrize("name", list(MODULES))
def test_traced_reports_every_per_layer_metric(name, small, capsys):
    bilinear = flowfield.interp.bilinear_sample
    init = FlowField.__init__
    outcome, metrics = run.run_traced(MODULES[name], name, seed=3)
    assert flowfield.interp.bilinear_sample is bilinear  # wrappers removed
    assert FlowField.__init__ is init
    assert outcome.failed == 0, outcome.failures
    assert_units(metrics, SPEC["per_layer"], capsys, outcome, name)
    calls = metrics["core.from_matrix.calls"]["value"]
    if name == "compose-qhd":
        assert calls == 0
    if name == "verify-small":
        assert calls == 3 * verify_small.TRACE_OPS
    if name == "cli-pipeline":
        # Internal calls are seen through every module's own binding.
        assert metrics["interp.grid_from_unstructured_data.calls"]["value"] > 0
        assert metrics["fileio.load_flow.calls"]["value"] > 0


def test_perturbed_combine_fails_every_op(small, monkeypatch):
    original = compose_qhd.combine

    def perturbed(*args, **kwargs):
        out = original(*args, **kwargs)
        return FlowField(out.vectors + 0.1 * out.mask[..., None], out.reference, out.mask)

    monkeypatch.setattr(compose_qhd, "combine", perturbed)
    outcome, _ = run.run_untraced(compose_qhd, seed=3, seconds=0.0)
    assert outcome.failed == outcome.attempted > 0
    assert not run.result_line(outcome, {})["correct"]


def test_nonzero_invalid_cell_fails_op(small, monkeypatch):
    original = compose_qhd.combine

    def leaky(*args, **kwargs):
        out = original(*args, **kwargs)
        vectors = out.vectors.copy()
        vectors[~out.mask] = 1.0
        return FlowField(vectors, out.reference, out.mask)

    monkeypatch.setattr(compose_qhd, "combine", leaky)
    outcome, _ = run.run_untraced(compose_qhd, seed=3, seconds=0.0)
    # Branches whose result is fully valid have no invalid cell to corrupt.
    assert outcome.failed > 0
    assert all("not zero" in reason for reason in outcome.failures)


def test_inaccurate_trial_fails_op(small, monkeypatch):
    def bad_report(*args, **kwargs):
        return AccuracyReport(100, 0.5, 3.0, 0.5, 0.5, 0.5, 0.5)

    monkeypatch.setattr(verify_small, "run_trials", bad_report)
    outcome, _ = run.run_untraced(verify_small, seed=3, seconds=0.0)
    assert outcome.failed == outcome.attempted > 0
    assert not outcome.run_check_ok  # the pooled mean bound fails too


def test_trial_without_valid_vectors_fails_op(small, monkeypatch):
    def empty_report(*args, **kwargs):
        return AccuracyReport(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    monkeypatch.setattr(verify_small, "run_trials", empty_report)
    outcome, _ = run.run_untraced(verify_small, seed=3, seconds=0.0)
    assert outcome.failed == outcome.attempted > 0
    assert all("no valid vectors" in reason for reason in outcome.failures)


def test_wrong_flo_byte_fails_combine_op(small, monkeypatch):
    original = cli_pipeline.run_op

    def corrupting(state, op):
        code = original(state, op)
        if op[0] == "combine":
            path = state.work / "f13.flo"
            blob = bytearray(path.read_bytes())
            blob[-1] ^= 0x01
            path.write_bytes(bytes(blob))
        return code

    monkeypatch.setattr(cli_pipeline, "run_op", corrupting)
    outcome, _ = run.run_untraced(cli_pipeline, seed=3, seconds=0.0)
    assert outcome.failed == outcome.attempted // cli_pipeline.CYCLE
    assert all("differs from the in-process combine" in reason for reason in outcome.failures)


def test_command_prints_result_as_last_line():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-small", "--seed", "5",
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert {spec["name"] for spec in SPEC["end_to_end"]} == set(result["metrics"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "compose-qhd", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
