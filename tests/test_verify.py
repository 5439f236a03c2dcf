"""Verification harness tests: determinism, exact cases, report contract."""

import numpy as np
import pytest

from flowfield import AccuracyReport, FlowError, FlowField, run_trials
from flowfield.verify import random_transform, trial_matrices


class TestAccuracyReport:
    def test_fraction_bounds_enforced(self):
        with pytest.raises(FlowError):
            AccuracyReport(1, 0.0, 0.0, 1.5, 0.0, 0.0, 0.0)

    def test_mean_cannot_exceed_max(self):
        with pytest.raises(FlowError):
            AccuracyReport(1, 2.0, 1.0, 0.5, 0.5, 0.5, 0.5)

    def test_formats_contain_all_fields(self):
        report = AccuracyReport(10, 0.001, 0.1, 0.99, 0.9, 0.98, 0.8)
        block = report.format_block("mode 3")
        record = report.format_record("3")
        for needle in ("mean", "max", "0.05", "0.005"):
            assert needle in block
        assert "mean_abs_err=0.001" in record
        assert record.startswith("mode=3 ")
        assert "\n" not in record


class TestRandomTransform:
    def test_magnitude_cap_respected(self, rng):
        from flowfield import from_matrix

        for _ in range(50):
            m = random_transform(rng, (40, 60), 10.0)
            f = from_matrix(m, (40, 60), "s")
            peak = float(np.hypot(f.vectors[..., 0], f.vectors[..., 1]).max())
            assert peak <= 10.0 + 1e-6

    def test_centers_inside_field(self, rng):
        # Scaling centers are fixed points; rotation centers likewise.
        for _ in range(50):
            m = random_transform(rng, (30, 30), 5.0)
            fixed = np.linalg.lstsq(
                m.matrix[:2, :2] - np.eye(2), -m.matrix[:2, 2], rcond=None
            )[0]
            if np.allclose(m.matrix[:2, :2], np.eye(2)):
                continue  # translation has no fixed point
            assert -1e-6 <= fixed[0] <= 29 + 1e-6
            assert -1e-6 <= fixed[1] <= 29 + 1e-6

    @pytest.mark.parametrize("max_magnitude", [np.nan, np.inf, -np.inf, -5.0])
    def test_invalid_max_magnitude_rejected(self, rng, max_magnitude):
        with pytest.raises(FlowError, match="max_magnitude"):
            random_transform(rng, (10, 12), max_magnitude)

    def test_composition_matrix_order(self, rng):
        m12, m23, m13 = trial_matrices(rng, (20, 20), 3.0)
        assert np.allclose(m13.matrix, m23.matrix @ m12.matrix)


class TestRunTrials:
    def test_same_seed_same_report(self):
        a = run_trials(3, 5, (30, 40), 10.0, seed=7)
        b = run_trials(3, 5, (30, 40), 10.0, seed=7)
        assert a == b

    def test_different_seed_differs(self):
        a = run_trials(3, 5, (30, 40), 10.0, seed=7)
        b = run_trials(3, 5, (30, 40), 10.0, seed=8)
        assert a != b

    def test_equal_errors_report_mean_at_most_max(self):
        # Two translations compose with one error, 5.02e-15 px, on every
        # vector; summed, their mean rounds one ulp above it.
        report = run_trials(2, 1, (150, 250), 50.0, seed=2000262)
        assert report.mean_abs_err == report.max_abs_err < 1e-12

    def test_invalid_trials_rejected(self):
        with pytest.raises(FlowError):
            run_trials(3, 0)

    @pytest.mark.parametrize("trials", [1.5, "3", None])
    def test_trials_that_are_not_whole_numbers_rejected(self, trials):
        with pytest.raises(FlowError, match="trials must be an integer >= 1"):
            run_trials(3, trials)

    @pytest.mark.parametrize("mode", [0, 4, "all", "1", 2.5, None, [1]])
    def test_invalid_mode_rejected(self, mode):
        with pytest.raises(FlowError, match="mode must be 1, 2 or 3"):
            run_trials(mode, 1, (10, 12))

    @pytest.mark.parametrize("max_magnitude", [np.nan, np.inf, -np.inf, -5.0])
    def test_invalid_max_magnitude_rejected(self, max_magnitude):
        with pytest.raises(FlowError, match="max_magnitude"):
            run_trials(3, 1, (10, 12), max_magnitude)

    def test_negative_seed_rejected(self):
        with pytest.raises(FlowError, match="seed must be >= 0"):
            run_trials(3, 1, (10, 12), seed=-1)

    @pytest.mark.parametrize("seed", [1.5, -0.5, "7", None])
    def test_seed_that_is_not_a_whole_number_rejected(self, seed):
        with pytest.raises(FlowError, match="seed must be an integer >= 0"):
            run_trials(3, 1, (10, 12), seed=seed)

    def test_empty_comparison_rejected(self, monkeypatch):
        # A run whose composed flows are all invalid compared nothing, so it
        # must not report full accuracy.
        import flowfield.verify as verify

        def nothing_valid(f_first, f_second, mode, ref_out):
            shape = f_first.shape
            return FlowField(np.zeros((*shape, 2)), ref_out, np.zeros(shape, bool))

        monkeypatch.setattr(verify, "combine", nothing_valid)
        with pytest.raises(FlowError, match="nothing to compare"):
            verify.run_trials(3, 2, (10, 12), 5.0)

    def test_zero_max_magnitude_is_exact(self):
        report = run_trials(3, 2, (10, 12), 0.0)
        assert report.n_vectors == 2 * 10 * 12
        assert report.max_abs_err == 0.0

    @pytest.mark.parametrize("mode", [1, 2, 3])
    def test_small_run_is_accurate(self, mode):
        report = run_trials(mode, 20, (60, 80), 15.0, seed=5)
        assert report.n_vectors > 0
        assert report.mean_abs_err <= 0.02
        assert report.frac_abs_below_005 >= 0.95

    def test_translations_are_exact(self, monkeypatch):
        # Constant fields involve no interpolation at all, so a harness
        # stream of pure translations reports zero error.
        import flowfield.verify as verify

        def translations_only(rng, shape, max_magnitude):
            angle = rng.uniform(0.0, 2.0 * np.pi)
            mag = rng.uniform(0.0, max_magnitude)
            from flowfield import AffineTransform

            return AffineTransform.translation(mag * np.cos(angle), mag * np.sin(angle))

        monkeypatch.setattr(verify, "random_transform", translations_only)
        report = verify.run_trials(3, 10, (40, 50), 8.0, seed=3)
        assert report.max_abs_err <= 1e-9
        assert report.frac_abs_below_005 == 1.0
