"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
complete; the whole suite stays well under five minutes on a laptop CPU.
"""

import itertools
import struct
import time

import numpy as np
import pytest

from flowfield import (
    FlowField,
    Reference,
    apply,
    bilinear_sample,
    combine,
    from_matrix,
    grid_from_unstructured_data,
    invert,
    load_flow,
    map_vectors,
    render_colorwheel,
    run_trials,
    save_flow,
    switch_reference,
    zeros,
)
from flowfield.demo import analytic_flow_2_to_3, run_synthetic_demo
from flowfield.fileio import FLO_MAGIC, INVALID_SENTINEL
from flowfield.verify import random_transform, trial_matrices

from conftest import mean_epe, splat_bruteforce
from test_viz import hue_saturation


def report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def test_01_composition_accuracy_table():
    t0 = time.time()
    stats = {mode: run_trials(mode, 300, (150, 250), 50.0, seed=42 + mode) for mode in (1, 2, 3)}
    elapsed = time.time() - t0
    ok = all(
        r.mean_abs_err <= 0.01 and r.max_abs_err <= 1.0 and r.frac_abs_below_005 >= 0.99
        for r in stats.values()
    )
    detail = "; ".join(
        f"mode {m}: mean={r.mean_abs_err:.4f} max={r.max_abs_err:.3f} "
        f"frac<0.05px={r.frac_abs_below_005:.4f}"
        for m, r in stats.items()
    )
    assert report("1 composition accuracy, 300 trials/mode", ok, f"{detail}; {elapsed:.0f}s")


def test_02_oracle_equivalence_all_branches():
    rng = np.random.default_rng(24)
    size = (80, 100)
    worst = 0.0
    ok = True
    for mode, ref1, ref2, out_ref in itertools.product((1, 2, 3), "st", "st", "st"):
        for _ in range(10):
            m12, m23, m13 = trial_matrices(rng, size, 12.0)
            known, unknown = {
                1: ((m23, m13), m12),
                2: ((m12, m13), m23),
                3: ((m12, m23), m13),
            }[mode]
            out = combine(
                from_matrix(known[0], size, ref1),
                from_matrix(known[1], size, ref2),
                mode,
                out_ref,
            )
            err = mean_epe(out, from_matrix(unknown, size, out_ref), out.mask)
            worst = max(worst, err)
            ok = ok and err < 0.05
    assert report("2 oracle equivalence, 24 branches x 10 trials", ok, f"worst mean EPE {worst:.4f} px")


def test_03_splatting_matches_bruteforce():
    rng = np.random.default_rng(3)
    ok = True
    worst = 0.0
    for _ in range(200):
        h, w = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        n = int(rng.integers(0, 21))
        positions = rng.uniform((-2.0, -2.0), (w + 1.0, h + 1.0), size=(n, 2))
        values = rng.normal(size=(n, int(rng.integers(1, 4))))
        got, got_mask = grid_from_unstructured_data(positions, values, (h, w))
        want, want_mask = splat_bruteforce(positions, values, (h, w))
        ok = ok and np.array_equal(got_mask, want_mask)
        diff = float(np.abs(got - want).max()) if got.size else 0.0
        worst = max(worst, diff)
        ok = ok and diff <= 1e-6
    assert report("3 splatting vs brute-force oracle, 200 instances", ok, f"worst |diff| {worst:.2e}")


def test_04_involution_and_roundtrip():
    rng = np.random.default_rng(4)
    size = (100, 150)
    worst_inv = worst_sw = 0.0
    for _ in range(100):
        matrix = random_transform(rng, size, 20.0)
        f = from_matrix(matrix, size, "s" if rng.integers(2) else "t")
        back = invert(invert(f))
        worst_inv = max(worst_inv, mean_epe(back, f, back.mask))
        back = switch_reference(switch_reference(f))
        worst_sw = max(worst_sw, mean_epe(back, f, back.mask))
    ok = worst_inv < 0.05 and worst_sw < 0.05
    assert report(
        "4 involution/roundtrip, 100 flows at 100x150",
        ok,
        f"invert-twice worst {worst_inv:.4f} px, switch-twice worst {worst_sw:.4f} px",
    )


def test_05_apply_distributivity():
    rng = np.random.default_rng(5)
    size = (60, 80)
    worst = 0.0
    ok = True
    for k in range(50):
        ref = "s" if k % 2 else "t"
        f = from_matrix(random_transform(rng, size, 10.0), size, ref)
        i = rng.normal(size=(*size, 2))
        j = rng.normal(size=(*size, 2))
        both, mask_b = apply(f, i + j)
        one, mask_i = apply(f, i)
        two, mask_j = apply(f, j)
        joint = mask_b & mask_i & mask_j
        diff = float(np.abs((one + two - both))[joint].max()) if joint.any() else 0.0
        worst = max(worst, diff)
        ok = ok and diff <= 1e-4
    assert report("5 distributivity over data, 50 triples", ok, f"worst |diff| {worst:.2e}")


def test_06_synthetic_workflow(tmp_path):
    flows = run_synthetic_demo(tmp_path / "demo")
    oracle = analytic_flow_2_to_3()
    mask_ok = bool(flows.f23.mask.all())
    err = mean_epe(flows.f23, oracle)
    ok = mask_ok and err < 0.05 and flows.f23.shape == (200, 250)
    assert report(
        "6 synthetic ground-truth workflow",
        ok,
        f"f23 mask all-true={mask_ok}, mean EPE vs analytic oracle {err:.5f} px",
    )


def test_07_flo_interchange(tmp_path):
    rng = np.random.default_rng(7)
    ok = True
    for k in range(100):
        h, w = int(rng.integers(1, 20)), int(rng.integers(1, 20))
        vec = rng.normal(scale=50.0, size=(h, w, 2)).astype(np.float32).astype(np.float64)
        mask = rng.uniform(size=(h, w)) > 0.25
        vec[~mask] = 0.0
        f = FlowField(vec, "s", mask)
        path = tmp_path / f"r{k}.flo"
        save_flow(path, f)
        back = load_flow(path)
        ok = ok and np.array_equal(back.vectors, f.vectors) and np.array_equal(back.mask, f.mask)
    golden = tmp_path / "golden.flo"
    golden.write_bytes(
        struct.pack("<fii", FLO_MAGIC, 2, 1)
        + struct.pack("<4f", 1.5, -2.25, INVALID_SENTINEL, INVALID_SENTINEL)
    )
    g = load_flow(golden)
    ok = ok and np.array_equal(g.vectors, [[[1.5, -2.25], [0.0, 0.0]]])
    ok = ok and list(g.mask[0]) == [True, False]
    assert report("7 .flo interchange, 100 roundtrips + golden file", ok, "bit-exact")


def test_08_performance_smoke():
    size = (250, 400)
    matrix = random_transform(np.random.default_rng(8), size, 20.0)
    data = np.random.default_rng(80).uniform(0.0, 255.0, (*size, 3))
    flows = {ref: from_matrix(matrix, size, ref) for ref in ("t", "s")}
    timings = {}
    for ref, field in flows.items():
        best = np.inf
        for _ in range(7):
            t0 = time.perf_counter()
            apply(field, data)
            best = min(best, time.perf_counter() - t0)
        timings[ref] = best
    ok = timings["t"] < 0.050
    ratio = timings["s"] / timings["t"]
    assert report(
        "8 performance smoke, 250x400 apply",
        ok,
        f"target {timings['t'] * 1000:.1f} ms (< 50 ms), source {timings['s'] * 1000:.1f} ms, "
        f"source/target ratio {ratio:.2f}x",
    )


def test_09_visualization_properties():
    rng = np.random.default_rng(9)
    ok = True
    worst_hue = worst_sat = 0.0
    for _ in range(20):
        vec = rng.normal(scale=5.0, size=(10, 14, 2))
        f = FlowField(vec, "s")
        peak = float(np.hypot(vec[..., 0], vec[..., 1]).max())
        phi = float(rng.uniform(15.0, 345.0))
        c, s = np.cos(np.radians(phi)), np.sin(np.radians(phi))

        def rotate(v, c=c, s=s):
            out = np.empty_like(v)
            out[..., 0] = c * v[..., 0] + s * v[..., 1]
            out[..., 1] = -s * v[..., 0] + c * v[..., 1]
            return out

        hue_a, sat_a = hue_saturation(render_colorwheel(f, peak))
        hue_b, sat_b = hue_saturation(render_colorwheel(map_vectors(f, rotate), peak))
        strong = (sat_a > 0.5) & (sat_b > 0.5)
        delta = (hue_b - hue_a - phi) % 360.0
        delta = np.minimum(delta, 360.0 - delta)
        if strong.any():
            worst_hue = max(worst_hue, float(delta[strong].max()))

        k = float(rng.uniform(0.1, 1.0))
        _, sat_k = hue_saturation(render_colorwheel(map_vectors(f, lambda v: k * v), peak))
        worst_sat = max(worst_sat, float(np.abs(sat_k - k * sat_a).max()))
    ok = worst_hue <= 1.0 and worst_sat <= 1.0 / 255.0 + 1e-9
    assert report(
        "9 visualization invariants, 20 fields",
        ok,
        f"hue shift error {worst_hue:.3f} deg (<= 1), saturation error {worst_sat * 255:.3f}/255 (<= 1)",
    )
