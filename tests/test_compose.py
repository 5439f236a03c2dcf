"""Composition engine tests: dispatch table, oracles, mode-3 formula, masks."""

import itertools
import warnings

import numpy as np
import pytest

from flowfield import (
    AffineTransform,
    ComposeMode,
    FlowError,
    FlowField,
    Reference,
    apply,
    combine,
    from_matrix,
    from_transforms,
    zeros,
)
from flowfield.compose import _abc_times
from flowfield.verify import trial_matrices

from conftest import assert_fresh_output, mean_epe, max_epe


def known_flows(mode, m12, m23, m13):
    """(first, second, unknown) matrices for a composition mode."""
    return {
        1: ((m23, m13), m12),
        2: ((m12, m13), m23),
        3: ((m12, m23), m13),
    }[mode]


class TestDispatchTable:
    # The relabeling is frozen; each row pins one branch of the engine.
    @pytest.mark.parametrize(
        "mode, ref, expected",
        [
            (1, Reference.SOURCE, (1, 3, 2)),
            (1, Reference.TARGET, (2, 3, 1)),
            (2, Reference.SOURCE, (2, 1, 3)),
            (2, Reference.TARGET, (3, 1, 2)),
            (3, Reference.SOURCE, (1, 2, 3)),
            (3, Reference.TARGET, (3, 2, 1)),
        ],
    )
    def test_abc_assignment(self, mode, ref, expected):
        assert _abc_times(ComposeMode(mode), ref) == expected


class TestCombineBasics:
    def test_mode3_translations_add(self):
        f12 = from_transforms([("translation", 20, -10)], (60, 80), "t")
        f23 = from_transforms([("translation", -10, -20)], (60, 80), "t")
        f13 = combine(f12, f23, 3)
        assert f13.reference is Reference.TARGET
        assert f13.mask.any()
        assert np.allclose(f13.vectors[f13.mask], [10.0, -30.0], atol=1e-9)

    def test_mode3_zero_flow_is_right_identity(self):
        f12 = from_transforms([("rotation", 30, 20, 5)], (50, 60), "t")
        f13 = combine(f12, zeros((50, 60), "t"), 3)
        assert mean_epe(f13, f12, f13.mask) < 1e-9

    def test_default_output_reference_follows_first_input(self):
        f12 = from_transforms([("translation", 1, 0)], (10, 10), "s")
        f23 = from_transforms([("translation", 0, 1)], (10, 10), "t")
        assert combine(f12, f23, 3).reference is Reference.SOURCE
        assert combine(f12, f23, 3, "t").reference is Reference.TARGET

    def test_mode2_matches_matrix_composition(self, rng):
        # The unknown flow 2->3 equals M13 * M12^-1 exactly; with these
        # reference choices the engine's only interpolation is one
        # backward sampling, keeping errors at the 0.01 px scale.
        for refs in (("s", "t"), ("t", "t")):
            for _ in range(5):
                m12, m23, m13 = trial_matrices(rng, (60, 80), 10.0)
                f12 = from_matrix(m12, (60, 80), refs[0])
                f13 = from_matrix(m13, (60, 80), refs[1])
                out = combine(f12, f13, 2, "t")
                truth = from_matrix(m23, (60, 80), "t")
                assert mean_epe(out, truth, out.mask) <= 0.01

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(FlowError):
            combine(zeros((4, 5)), zeros((5, 4)), 3)

    def test_bad_mode_rejected(self):
        with pytest.raises(FlowError):
            combine(zeros((4, 4)), zeros((4, 4)), 4)


class TestCombineOracle:
    @pytest.mark.parametrize("mode", [1, 2, 3])
    @pytest.mark.parametrize("ref1, ref2, out_ref", list(itertools.product("st", "st", "st")))
    def test_all_branches_match_matrix_oracle(self, mode, ref1, ref2, out_ref, rng):
        size = (80, 100)
        for _ in range(3):
            matrices, unknown = known_flows(mode, *trial_matrices(rng, size, 12.0))
            out = combine(
                from_matrix(matrices[0], size, ref1),
                from_matrix(matrices[1], size, ref2),
                mode,
                out_ref,
            )
            truth = from_matrix(unknown, size, out_ref)
            assert mean_epe(out, truth, out.mask) < 0.05

    def test_mode_consistency(self, rng):
        # Composing forward then solving for either operand recovers it.
        size = (70, 90)
        for _ in range(5):
            m12, m23, m13 = trial_matrices(rng, size, 10.0)
            f12 = from_matrix(m12, size, "t")
            f23 = from_matrix(m23, size, "t")
            f13 = combine(f12, f23, 3)
            back12 = combine(f23, f13, 1, "t")
            back23 = combine(f12, f13, 2, "t")
            assert mean_epe(back12, f12, back12.mask) < 0.05
            assert mean_epe(back23, f23, back23.mask) < 0.05

    def test_associativity_at_desk_scale(self, rng):
        size = (70, 90)
        for _ in range(5):
            m12 = trial_matrices(rng, size, 6.0)[0]
            m23 = trial_matrices(rng, size, 6.0)[0]
            m34 = trial_matrices(rng, size, 6.0)[0]
            f12 = from_matrix(m12, size, "t")
            f23 = from_matrix(m23, size, "t")
            f34 = from_matrix(m34, size, "t")
            left = combine(combine(f12, f23, 3), f34, 3)
            right = combine(f12, combine(f23, f34, 3), 3)
            assert mean_epe(left, right, left.mask & right.mask) < 0.1

    def test_mask_soundness(self, rng):
        # Every cell the engine marks valid is actually trustworthy.
        size = (80, 100)
        for _ in range(20):
            mode = int(rng.integers(1, 4))
            refs = ["s" if rng.integers(2) else "t" for _ in range(3)]
            matrices, unknown = known_flows(mode, *trial_matrices(rng, size, 20.0))
            out = combine(
                from_matrix(matrices[0], size, refs[0]),
                from_matrix(matrices[1], size, refs[1]),
                mode,
                refs[2],
            )
            truth = from_matrix(unknown, size, refs[2])
            assert max_epe(out, truth, out.mask) < 0.5


class TestMode3Target:
    # With target-reference inputs and output, mode 3 is the flow 2->3 plus
    # the flow 1->2 backward-warped by the flow 2->3.
    def test_zero_flows(self):
        out = combine(zeros((5, 6), "t"), zeros((5, 6), "t"), 3, "t")
        assert np.allclose(out.vectors, 0.0)
        assert out.mask.all()

    def test_constant_flows_add(self):
        f12 = from_transforms([("translation", 3, 4)], (40, 50), "t")
        f23 = from_transforms([("translation", -1, 2)], (40, 50), "t")
        out = combine(f12, f23, 3, "t")
        assert out.mask.any()
        assert np.allclose(out.vectors[out.mask], [2.0, 6.0], atol=1e-9)

    def test_equals_warp_then_add(self, rng):
        size = (60, 80)
        for _ in range(10):
            m12, m23, _ = trial_matrices(rng, size, 15.0)
            f12 = from_matrix(m12, size, "t")
            f23 = from_matrix(m23, size, "t")
            warped, warped_mask = apply(f23, f12.masked_vectors(), data_mask=f12.mask)
            mask = f23.mask & warped_mask
            vectors = np.where(mask[..., None], f23.masked_vectors() + warped, 0.0)
            out = combine(f12, f23, 3, "t")
            assert np.array_equal(out.vectors, vectors)
            assert np.array_equal(out.mask, mask)


BRANCHES = [
    (mode, *refs) for mode in (1, 2, 3) for refs in itertools.product("st", "st", "st")
]


class TestCombineOutputInvariants:
    @pytest.mark.parametrize("valid_share", [0.8, 1.0])
    @pytest.mark.parametrize("mode, ref1, ref2, out_ref", BRANCHES)
    def test_kernel_output(self, mode, ref1, ref2, out_ref, valid_share, rng):
        size = (40, 50)
        matrices, _ = known_flows(mode, *trial_matrices(rng, size, 8.0))
        fields = []
        for matrix, ref in zip(matrices, (ref1, ref2)):
            vectors = from_matrix(matrix, size, ref).vectors.copy()
            mask = rng.uniform(size=size) < valid_share
            vectors[~mask] = np.nan  # unconstrained under a false mask bit
            fields.append(FlowField(vectors, ref, mask))
        out = combine(*fields, mode, out_ref)
        assert out.mask.any()
        assert_fresh_output(out, *fields)

    @pytest.mark.parametrize("mode, ref1, ref2, out_ref", BRANCHES)
    def test_huge_vectors_raise_or_stay_finite(self, mode, ref1, ref2, out_ref):
        # Finite vectors near the float64 limit can overflow when added or
        # splatted; the overflow must raise one FlowError that names it, with
        # no numpy warning, and never reach a valid cell.
        draws = []
        for seed in range(4):
            rng = np.random.default_rng(seed)
            fields = []
            for ref in (ref1, ref2):
                vectors = rng.uniform(-2.0, 2.0, size=(6, 7, 2))
                huge = rng.uniform(size=(6, 7)) < 0.3
                vectors[huge] = 1e308 * rng.choice([-1.0, 1.0], size=(huge.sum(), 2))
                fields.append(FlowField(vectors, ref))
            draws.append(fields)
        for scale in (1e308, 1.7e308):
            # Every cell huge: the sum overflows before the warp onto A's grid.
            rng = np.random.default_rng(0)
            v1 = rng.uniform(-1.0, 1.0, size=(6, 7, 2)) * scale
            v2 = rng.uniform(-1.0, 1.0, size=(6, 7, 2)) * scale
            draws.append([FlowField(v1, ref1), FlowField(v2, ref2)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for first, second in draws:
                try:
                    out = combine(first, second, mode, out_ref)
                except FlowError as err:
                    assert "overflow" in str(err)
                    continue
                assert_fresh_output(out, first, second)
