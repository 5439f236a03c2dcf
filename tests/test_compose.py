"""Composition engine tests: dispatch table, oracles, mode-3 formula, masks."""

import itertools
import tracemalloc
import warnings

import numpy as np
import pytest

import flowfield.ops
from flowfield import (
    AffineTransform,
    FlowError,
    FlowField,
    Reference,
    apply,
    combine,
    from_matrix,
    from_transforms,
    invert,
    switch_reference,
    zeros,
)
from flowfield.compose import _SPANS, _abc_times, _anchor_time
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
        assert _abc_times(mode, ref) == expected


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
        for mode in (4, "1", 2.5, None, [1]):
            with pytest.raises(FlowError, match="mode must be 1, 2 or 3"):
                combine(zeros((4, 4)), zeros((4, 4)), mode)

    def test_numbers_equal_to_a_mode_are_that_mode(self):
        f12 = from_transforms([("translation", 2, -1)], (6, 7), "s")
        f23 = from_transforms([("rotation", 3, 2, 5)], (6, 7), "t")
        want = combine(f12, f23, 3)
        for mode in (3.0, np.int64(3)):
            got = combine(f12, f23, mode)
            assert np.array_equal(got.vectors, want.vectors)
            assert np.array_equal(got.mask, want.mask)


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


def combine_via_invert(f_first, f_second, mode, out_ref):
    """`combine` with every B-to-A warp taken from `invert(f_ab)` when f_ab runs A to B.

    Kept as the accuracy oracle of the A-anchored branches, which now sample
    the B-anchored operand at f_ab's far ends instead of warping it with the
    inverted flow.
    """
    out_ref = Reference.parse(out_ref)
    first_span, second_span, unknown_span = _SPANS[mode]
    a, b, c = _abc_times(mode, out_ref)
    if set(first_span) == {a, b}:
        (f_ab, ab_span), (f_bc, bc_span) = (f_first, first_span), (f_second, second_span)
    else:
        (f_ab, ab_span), (f_bc, bc_span) = (f_second, second_span), (f_first, first_span)
    sign_ab = 1.0 if ab_span[0] == a else -1.0
    sign_bc = 1.0 if bc_span[0] == b else -1.0
    if unknown_span[0] == c:
        sign_ab, sign_bc = -sign_ab, -sign_bc
    if _anchor_time(f_bc, bc_span) == c:
        f_bc = switch_reference(f_bc)
    warp = invert(f_ab) if ab_span[0] == a else f_ab
    bc_vectors, bc_mask = f_bc.masked_vectors(), f_bc.mask
    anchored_at_a = _anchor_time(f_ab, ab_span) == a
    if anchored_at_a:
        bc_vectors, bc_mask = apply(warp, bc_vectors, data_mask=bc_mask)
    vectors = sign_ab * f_ab.masked_vectors() + sign_bc * bc_vectors
    mask = f_ab.mask & bc_mask
    if not anchored_at_a:
        vectors, mask = apply(warp, vectors, data_mask=mask)
    return FlowField(np.where(mask[..., None], vectors, 0.0), out_ref, mask)


# Splats (calls of the private splat entry the warps use) per branch: 24 over all 24.
SPLATS = {
    (1, "s", "s", "s"): 1, (1, "s", "s", "t"): 1, (1, "s", "t", "s"): 2, (1, "s", "t", "t"): 0,
    (1, "t", "s", "s"): 0, (1, "t", "s", "t"): 2, (1, "t", "t", "s"): 1, (1, "t", "t", "t"): 1,
    (2, "s", "s", "s"): 1, (2, "s", "s", "t"): 1, (2, "s", "t", "s"): 2, (2, "s", "t", "t"): 0,
    (2, "t", "s", "s"): 0, (2, "t", "s", "t"): 2, (2, "t", "t", "s"): 1, (2, "t", "t", "t"): 1,
    (3, "s", "s", "s"): 0, (3, "s", "s", "t"): 2, (3, "s", "t", "s"): 1, (3, "s", "t", "t"): 1,
    (3, "t", "s", "s"): 1, (3, "t", "s", "t"): 1, (3, "t", "t", "s"): 2, (3, "t", "t", "t"): 0,
}

# The A-anchored branches where f_ab runs A to B: a sample at its far ends
# replaced `invert(f_ab)` and a splat of the operand.
SAMPLED_NOT_INVERTED = {
    (1, "s", "s", "s"), (1, "s", "s", "t"), (1, "s", "t", "t"), (1, "t", "s", "s"),
    (3, "s", "s", "s"), (3, "s", "t", "s"),
}


def _branch_inputs(branch, seed, size=(60, 80), max_magnitude=12.0):
    mode, ref1, ref2, out_ref = branch
    rng = np.random.default_rng(seed)
    matrices, unknown = known_flows(mode, *trial_matrices(rng, size, max_magnitude))
    first = from_matrix(matrices[0], size, ref1)
    second = from_matrix(matrices[1], size, ref2)
    return first, second, from_matrix(unknown, size, out_ref)


class TestWarpAtFarEnds:
    def test_pinned_splat_count(self, monkeypatch):
        splat = flowfield.ops._splat
        counts = []

        def counting(*args, **kwargs):
            counts[-1] += 1
            return splat(*args, **kwargs)

        monkeypatch.setattr(flowfield.ops, "_splat", counting)
        seen = {}
        for branch in BRANCHES:
            first, second, _ = _branch_inputs(branch, seed=0, size=(20, 30), max_magnitude=4.0)
            counts.append(0)
            combine(first, second, branch[0], branch[3])
            seen[branch] = counts[-1]
        assert seen == SPLATS
        assert sum(seen.values()) == 24

    @pytest.mark.parametrize("branch", BRANCHES, ids=lambda b: "{}-{}{}-{}".format(*b))
    def test_no_worse_than_inverting(self, branch):
        mode, _, _, out_ref = branch
        for seed in range(3):
            first, second, truth = _branch_inputs(branch, seed)
            got = combine(first, second, mode, out_ref)
            old = combine_via_invert(first, second, mode, out_ref)
            if branch in SAMPLED_NOT_INVERTED:
                assert mean_epe(got, truth, got.mask) <= mean_epe(old, truth, old.mask)
            else:
                assert np.array_equal(got.vectors, old.vectors)
                assert np.array_equal(got.mask, old.mask)


class TestTransientMemory:
    """A warp's tracemalloc peak stays near the size of what it returns.

    On 200x300 fields with about 10% of cells masked out (NaN under the
    false bits), the warps with whole-grid far ends, a compressed copy of
    the kept cells and defensive copies in `combine` peaked at 4.6-10.2
    times the bytes of a `combine` result, and at 6.3 (`switch_reference`)
    and 7.2 (`invert`) times theirs. Forming far ends per kernel block and
    dropping those copies brought them to 3.7-5.9 and 4.8. Adding each
    block's corners straight into the splat's one accumulator, with no
    second accumulator and no per-sample arrays, brought them to 3.6-4.8
    and 2.6.
    """

    size = (200, 300)

    def _masked(self, field, rng):
        mask = field.mask & (rng.uniform(size=self.size) < 0.9)
        vectors = np.where(mask[..., None], field.vectors, np.nan)
        return FlowField(vectors, field.reference, mask)

    @staticmethod
    def _peak_over_output(op):
        tracemalloc.start()
        try:
            out = op()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / (out.vectors.nbytes + out.mask.nbytes)

    @pytest.mark.parametrize("branch", BRANCHES, ids=lambda b: "{}-{}{}-{}".format(*b))
    def test_combine_peak(self, branch):
        mode, ref_1, ref_2, out_ref = branch
        rng = np.random.default_rng(0)
        matrices, _ = known_flows(mode, *trial_matrices(rng, self.size, 20.0))
        first = self._masked(from_matrix(matrices[0], self.size, ref_1), rng)
        second = self._masked(from_matrix(matrices[1], self.size, ref_2), rng)
        assert self._peak_over_output(lambda: combine(first, second, mode, out_ref)) < 5.5

    @pytest.mark.parametrize("ref", "st")
    @pytest.mark.parametrize("op", [switch_reference, invert])
    def test_push_peak(self, op, ref):
        rng = np.random.default_rng(0)
        matrix = trial_matrices(rng, self.size, 20.0)[0]
        field = self._masked(from_matrix(matrix, self.size, ref), rng)
        assert self._peak_over_output(lambda: op(field)) < 3.0
