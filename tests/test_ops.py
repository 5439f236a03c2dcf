"""Tests for warping, tracking, inversion, valid areas, padding and fitting."""

import numpy as np
import pytest

from flowfield import (
    AffineTransform,
    FlowError,
    FlowField,
    Reference,
    apply,
    fit_matrix,
    from_matrix,
    from_transforms,
    get_padding,
    grid_coordinates,
    invert,
    map_vectors,
    switch_reference,
    track,
    valid_source,
    valid_target,
    zeros,
)

from conftest import assert_fresh_output, mean_epe, random_affine_flow


def constant_flow(shape, vx, vy, ref):
    vec = np.broadcast_to(np.array([vx, vy], dtype=float), (*shape, 2)).copy()
    return FlowField(vec, ref)


class TestApply:
    @pytest.mark.parametrize("ref", ["s", "t"])
    def test_zero_flow_is_identity(self, ref):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(4, 6, 3))
        dmask = rng.uniform(size=(4, 6)) > 0.3
        data[~dmask] = np.pi  # arbitrary but finite
        warped, mask = apply(zeros((4, 6), ref), data, dmask)
        assert np.array_equal(mask, dmask)
        assert np.array_equal(warped[dmask], data[dmask])

    def test_source_constant_shift_on_ramp(self):
        f = constant_flow((1, 5), 2.0, 0.0, "s")
        warped, mask = apply(f, np.array([[0.0, 1.0, 2.0, 3.0, 4.0]]))
        assert np.array_equal(warped, [[0.0, 0.0, 0.0, 1.0, 2.0]])
        assert np.array_equal(mask, [[False, False, True, True, True]])

    def test_target_constant_shift_on_ramp(self):
        # Backward-sampling oracle: output(x) = data(x - 2), invalid when
        # x - 2 is outside the row.
        f = constant_flow((1, 5), 2.0, 0.0, "t")
        warped, mask = apply(f, np.array([[0.0, 1.0, 2.0, 3.0, 4.0]]))
        assert np.array_equal(warped, [[0.0, 0.0, 0.0, 1.0, 2.0]])
        assert np.array_equal(mask, [[False, False, True, True, True]])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(FlowError):
            apply(zeros((3, 4)), np.zeros((4, 3)))

    @pytest.mark.parametrize("ref", ["s", "t"])
    def test_distributive_over_data(self, ref, rng):
        for _ in range(5):
            f, _ = random_affine_flow(rng, (20, 30), 6.0, ref)
            i = rng.normal(size=(20, 30, 2))
            j = rng.normal(size=(20, 30, 2))
            both, mask_both = apply(f, i + j)
            one, mask_i = apply(f, i)
            two, mask_j = apply(f, j)
            joint = mask_both & mask_i & mask_j
            assert np.allclose((one + two)[joint], both[joint], atol=1e-4)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_target_non_finite_data_on_valid_cells_rejected(self, bad):
        data = np.ones((4, 5, 3))
        data[1, 2, 0] = bad
        with pytest.raises(FlowError):
            apply(zeros((4, 5), "t"), data)
        dmask = np.ones((4, 5), dtype=bool)
        dmask[1, 2] = False
        warped, mask = apply(zeros((4, 5), "t"), data, dmask)
        assert np.isfinite(warped).all() and not mask[1, 2]

    def test_source_overflow_rejected(self):
        # Both cells of a 1x2 source flow land on cell 0; their finite data
        # sums past the float64 limit there.
        field = FlowField(np.array([[[0.0, 0.0], [-1.0, 0.0]]]), "s")
        with pytest.raises(FlowError, match="overflow"):
            apply(field, np.full((1, 2), 1.5e308))

    def test_flow_mask_limits_output(self):
        f = FlowField(np.zeros((1, 4, 2)), "t", np.array([[True, False, True, True]]))
        warped, mask = apply(f, np.arange(4.0).reshape(1, 4))
        assert np.array_equal(mask, [[True, False, True, True]])
        assert warped[0, 1] == 0.0


class TestTrack:
    def test_zero_flow_keeps_points(self):
        pts, ok = track(zeros((5, 5)), [[1.25, 3.5], [0.0, 0.0]])
        assert np.array_equal(pts, [[1.25, 3.5], [0.0, 0.0]])
        assert ok.all()

    def test_constant_flow_translates(self):
        f = constant_flow((20, 20), 3.0, -1.0, "s")
        pts, ok = track(f, [[10.0, 10.0]])
        assert np.allclose(pts, [[13.0, 9.0]])
        assert ok.all()

    def test_rotation_matches_matrix(self):
        # 30 degrees about the origin sends (1, 0) to (cos 30, sin 30);
        # positive y is downward, so this looks clockwise on screen.
        f = from_transforms([("rotation", 0, 0, 30)], (8, 8), "s")
        pts, ok = track(f, [[1.0, 0.0]])
        assert ok.all()
        assert np.allclose(pts, [[np.cos(np.pi / 6), np.sin(np.pi / 6)]], atol=1e-9)

    def test_target_reference_goes_through_switch(self):
        f = constant_flow((30, 30), 4.0, 2.0, "t")
        pts, ok = track(f, [[12.0, 12.0]])
        assert ok.all()
        assert np.allclose(pts, [[16.0, 14.0]], atol=1e-9)

    def test_out_of_bounds_and_invalid_points_flagged(self):
        mask = np.ones((6, 6), dtype=bool)
        mask[:3, :3] = False
        f = FlowField(np.zeros((6, 6, 2)), "s", mask)
        _, ok = track(f, [[1.0, 1.0], [4.0, 4.0], [7.0, 2.0]])
        assert list(ok) == [False, True, False]

    def test_full_lattice_tracking_matches_vectors_exactly(self):
        rng = np.random.default_rng(4)
        vec = rng.normal(size=(5, 7, 2))
        f = FlowField(vec, "s")
        ys, xs = np.mgrid[0:5, 0:7]
        lattice = np.column_stack([xs.ravel(), ys.ravel()]).astype(float)
        pts, ok = track(f, lattice)
        assert ok.all()
        assert np.array_equal(pts, lattice + vec.reshape(-1, 2))
        assert not np.shares_memory(pts, lattice)

    def test_empty_point_set(self):
        points = np.zeros((0, 2))
        pts, ok = track(zeros((3, 3)), points)
        assert pts.shape == (0, 2) and ok.shape == (0,)
        assert pts is not points


class TestSwitchReference:
    def test_zero_flow_switches_reference_only(self):
        out = switch_reference(zeros((4, 5), "s"))
        assert out.reference is Reference.TARGET
        assert np.allclose(out.vectors, 0.0)
        assert out.mask.all()

    def test_constant_source_flow(self):
        out = switch_reference(constant_flow((3, 8), 5.0, 0.0, "s"))
        assert out.reference is Reference.TARGET
        assert np.allclose(out.vectors[out.mask][:, 0], 5.0)
        assert np.array_equal(out.mask[0], [False] * 5 + [True] * 3)

    def test_constant_target_flow(self):
        out = switch_reference(constant_flow((3, 8), 5.0, 0.0, "t"))
        assert out.reference is Reference.SOURCE
        assert np.allclose(out.vectors[out.mask][:, 0], 5.0)
        # source cells whose endpoints leave the grid get no coverage
        assert np.array_equal(out.mask[0], [True] * 3 + [False] * 5)

    @pytest.mark.parametrize("ref", ["s", "t"])
    def test_matches_analytic_construction(self, ref, rng):
        for _ in range(10):
            f, matrix = random_affine_flow(rng, (40, 60), 8.0, ref)
            switched = switch_reference(f)
            analytic = from_matrix(matrix, (40, 60), switched.reference)
            assert mean_epe(switched, analytic) < 0.05

    def test_roundtrip_recovers_flow(self, rng):
        for _ in range(10):
            f, _ = random_affine_flow(rng, (40, 60), 8.0)
            back = switch_reference(switch_reference(f))
            assert back.reference is f.reference
            assert mean_epe(back, f, back.mask) < 0.05


class TestCarryOutputInvariants:
    @pytest.mark.parametrize("valid_share", [0.8, 1.0])
    @pytest.mark.parametrize("op", [invert, switch_reference])
    @pytest.mark.parametrize("ref", ["s", "t"])
    def test_kernel_output(self, op, ref, valid_share, rng):
        flow, _ = random_affine_flow(rng, (30, 40), 6.0, ref)
        vectors = flow.vectors.copy()
        mask = rng.uniform(size=(30, 40)) < valid_share
        vectors[~mask] = np.nan
        field = FlowField(vectors, ref, mask)
        out = op(field)
        assert out.mask.any()
        assert_fresh_output(out, field)


class TestInvert:
    def test_zero_flow_is_self_inverse(self):
        out = invert(zeros((4, 4), "t"))
        assert out.reference is Reference.TARGET
        assert np.allclose(out.vectors, 0.0)

    @pytest.mark.parametrize("ref", ["s", "t"])
    def test_constant_flow_negates(self, ref):
        out = invert(constant_flow((10, 10), 3.0, -2.0, ref))
        assert out.reference is Reference.parse(ref)
        assert np.allclose(out.vectors[out.mask], [-3.0, 2.0])
        assert out.mask.any()

    def test_rotation_inverts_to_negative_angle(self):
        f = invert(from_transforms([("rotation", 25, 20, 20)], (40, 50), "s"))
        analytic = from_transforms([("rotation", 25, 20, -20)], (40, 50), "s")
        assert mean_epe(f, analytic) < 0.05

    @pytest.mark.parametrize("ref", ["s", "t"])
    def test_involution(self, ref, rng):
        for _ in range(10):
            f, _ = random_affine_flow(rng, (40, 60), 8.0, ref)
            back = invert(invert(f))
            assert mean_epe(back, f, back.mask) < 0.05

    def test_inversion_identity_across_references(self, rng):
        # Inverting a source flow yields the negated target flow of the
        # same motion: both anchor on the second frame's grid, and their
        # vectors coincide (the reference switch is implicit in the
        # relabeling, no warp is needed to compare them).
        for _ in range(10):
            f, matrix = random_affine_flow(rng, (40, 60), 8.0, "s")
            inv_s = invert(f)  # flow 2->1, anchored on frame 2
            neg_t = FlowField(-from_matrix(matrix, (40, 60), "t").vectors, "t")
            assert mean_epe(inv_s, neg_t) < 0.05


class TestValidAreas:
    def test_zero_flow_all_valid(self):
        f = zeros((4, 5))
        assert valid_source(f).all()
        assert valid_target(f).all()

    def test_target_constant_flow_fast_path(self):
        f = constant_flow((5, 10), 3.0, -2.0, "t")
        vt = valid_target(f)
        ys, xs = np.mgrid[0:5, 0:10]
        expected = (xs - 3 >= 0) & (ys + 2 <= 4)
        assert np.array_equal(vt, expected)

    def test_source_constant_flow_fast_path(self):
        f = constant_flow((5, 10), 3.0, -2.0, "s")
        vs = valid_source(f)
        ys, xs = np.mgrid[0:5, 0:10]
        expected = (xs + 3 <= 9) & (ys - 2 >= 0)
        assert np.array_equal(vs, expected)

    def test_rotation_loses_corner_wedges(self):
        f = from_transforms([("rotation", 24.5, 19.5, 30)], (40, 50), "s")
        vs = valid_source(f)
        assert not vs[0, 0] and not vs[-1, -1]  # wedges swept out of frame
        assert vs[20, 25]  # center stays

    @staticmethod
    def _erode(mask, iterations):
        out = mask.copy()
        for _ in range(iterations):
            shrunk = np.zeros_like(out)
            shrunk[1:-1, 1:-1] = (
                out[1:-1, 1:-1]
                & out[:-2, 1:-1]
                & out[2:, 1:-1]
                & out[1:-1, :-2]
                & out[1:-1, 2:]
            )
            out = shrunk
        return out

    def test_fast_and_general_paths_agree(self, rng):
        # 200 random affine flows at protocol scale: the warping definition
        # (an all-ones matrix warped by the flow, or by its inverse for the
        # source area) may erode a strip of cells along the valid-area
        # boundary, but pooled over all flows fewer than 1% of cells differ
        # and none of them sit in the interior.
        differing = 0
        total = 0
        for _ in range(200):
            f, _ = random_affine_flow(rng, (150, 250), 50.0)
            ones = np.ones(f.shape)
            if f.reference is Reference.SOURCE:
                fast, (_, general) = valid_source(f), apply(invert(f), ones)
            else:
                fast, (_, general) = valid_target(f), apply(f, ones)
            diff = fast ^ general
            differing += int(diff.sum())
            total += diff.size
            interior = self._erode(fast, 3)
            assert not (diff & interior).any()
        assert differing / total < 0.01

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("shape", [(1, 1), (1, 17), (9, 1), (12, 15)])
    def test_target_source_area_matches_warp_of_ones(self, shape, seed):
        # The source area of a target flow is the in-bounds area of its
        # inverse; warping an all-ones matrix with the inverse gives the
        # same mask bit for bit, whatever the invalid cells hold.
        rng = np.random.default_rng(seed)
        reach = 0.6 * max(shape)
        vec = rng.uniform(-reach, reach, (*shape, 2))
        mask = rng.uniform(size=shape) < 0.8
        junk = rng.choice([np.nan, np.inf, -np.inf, 1e308], size=(*shape, 2))
        vec[~mask] = junk[~mask]
        f = FlowField(vec, "t", mask)
        _, oracle = apply(invert(f), np.ones(f.shape))
        assert np.array_equal(valid_source(f), oracle)


class TestGetPadding:
    def test_zero_flow_needs_none(self):
        assert get_padding(zeros((5, 5))) == (0, 0, 0, 0)

    def test_target_constant_flow(self):
        f = constant_flow((5, 10), 3.0, -2.0, "t")
        p = get_padding(f)
        assert p == (0, 2, 3, 0)
        assert type(p) is tuple and all(type(v) is int for v in p)

    def test_source_constant_flow(self):
        f = constant_flow((5, 10), 3.0, -2.0, "s")
        assert get_padding(f) == (2, 0, 0, 3)

    def test_padded_flow_valid_over_original_region(self, rng):
        from flowfield import pad

        for _ in range(20):
            f, _ = random_affine_flow(rng, (25, 35), 7.0)
            top, _, left, _ = p = get_padding(f)
            padded = pad(f, p)
            if f.reference is Reference.TARGET:
                ok = valid_target(padded)
            else:
                ok = valid_source(padded)
            interior = ok[top : top + 25, left : left + 35]
            assert interior.all()

    def test_padding_is_minimal(self):
        f = constant_flow((5, 10), 3.0, -2.0, "t")
        from flowfield import pad

        top, bottom, left, right = get_padding(f)
        left -= 1
        ok = valid_target(pad(f, (top, bottom, left, right)))
        assert not ok[top : top + 5, left : left + 10].all()


class TestFitMatrix:
    def test_recovers_rotation_exactly(self):
        m = AffineTransform.rotation(50, 60, 10)
        f = from_matrix(m, (80, 120), "s")
        fitted, rms = fit_matrix(f)
        assert np.allclose(fitted.matrix, m.matrix, atol=1e-4)
        assert rms < 1e-4

    def test_target_reference_fit(self):
        m = AffineTransform.scaling(30, 20, 1.1)
        f = from_matrix(m, (50, 70), "t")
        fitted, rms = fit_matrix(f)
        assert np.allclose(fitted.matrix, m.matrix, atol=1e-4)
        assert rms < 1e-4

    def test_zero_flow_gives_identity(self):
        fitted, rms = fit_matrix(zeros((6, 7)))
        assert np.allclose(fitted.matrix, np.eye(3), atol=1e-12)
        assert rms == pytest.approx(0.0, abs=1e-12)

    def test_too_few_valid_cells_rejected(self):
        mask = np.zeros((5, 5), dtype=bool)
        mask[0, 0] = mask[1, 1] = True
        with pytest.raises(FlowError):
            fit_matrix(FlowField(np.zeros((5, 5, 2)), "s", mask))

    def test_collinear_support_rejected(self):
        mask = np.zeros((5, 5), dtype=bool)
        mask[2, :] = True  # a single row is collinear
        with pytest.raises(FlowError):
            fit_matrix(FlowField(np.zeros((5, 5, 2)), "s", mask))

    @pytest.mark.parametrize("scale", [1e307, 1.7e308])
    def test_overflow_rejected(self, scale):
        # The support is a full grid; the fit of its far ends overflows in
        # the residual (and at 1.7e308 in its subtraction).
        vectors = np.random.default_rng(0).uniform(-1.0, 1.0, (6, 7, 2)) * scale
        with pytest.raises(FlowError, match="overflow"):
            fit_matrix(FlowField(vectors, "s"))

    def test_large_target_start_points_that_span_the_plane_fit(self):
        # All 42 cells are valid and their start points g - F(g) span the
        # plane; the unscaled design [x, y, 1] ranked them as a line.
        vectors = np.random.default_rng(0).uniform(-1.0, 1.0, (6, 7, 2)) * 1e15
        fitted, rms = fit_matrix(FlowField(vectors, "t"))
        grid = grid_coordinates((6, 7)).reshape(-1, 2)
        # Random start points: no map fits them exactly. The returned
        # matrix, mapped back from scaled units, has the reported residual.
        mapped = fitted.apply(grid - vectors.reshape(-1, 2))
        explicit = np.sqrt(np.mean(np.sum((mapped - grid) ** 2, axis=1)))
        assert 0.0 < rms < 5.0
        assert explicit == pytest.approx(rms, rel=1e-6)

    @pytest.mark.parametrize("scale", [1e307, 1.7e308])
    def test_huge_target_start_points_not_blamed_on_cells(self, scale):
        # All 42 cells are valid and span the plane; only the start points
        # g - F(g) are too large for the fit.
        vectors = np.random.default_rng(0).uniform(-1.0, 1.0, (6, 7, 2)) * scale
        with pytest.raises(FlowError, match="too large") as info:
            fit_matrix(FlowField(vectors, "t"))
        assert "collinear" not in str(info.value)


class TestMapVectors:
    def test_cube_components(self):
        f = constant_flow((3, 3), 2.0, -1.0, "s")
        out = map_vectors(f, lambda v: v**3)
        assert np.allclose(out.vectors[..., 0], 8.0)
        assert np.allclose(out.vectors[..., 1], -1.0)

    def test_identity_function(self):
        f = constant_flow((3, 3), 2.0, -1.0, "t")
        out = map_vectors(f, lambda v: v)
        assert np.array_equal(out.vectors, f.vectors)
        assert out.reference is f.reference

    def test_negation_keeps_mask(self):
        mask = np.array([[True, False], [False, True]])
        f = FlowField(np.ones((2, 2, 2)), "s", mask)
        out = map_vectors(f, lambda v: -v)
        assert np.array_equal(out.mask, mask)
        assert np.allclose(out.vectors[mask], -1.0)

    def test_non_finite_output_rejected(self):
        f = constant_flow((2, 2), 1.0, 1.0, "s")
        with np.errstate(divide="ignore"), pytest.raises(FlowError):
            map_vectors(f, lambda v: v / 0.0)

    def test_shape_change_rejected(self):
        f = constant_flow((2, 2), 1.0, 1.0, "s")
        with pytest.raises(FlowError):
            map_vectors(f, lambda v: v[..., :1])
