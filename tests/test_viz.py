"""Visualization tests: color-wheel mapping properties and arrow rendering."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowfield import FlowError, FlowField, map_vectors, render_arrows, render_colorwheel, zeros
from flowfield.viz import _draw_line, _wheel_rgb


def constant_flow(shape, vx, vy, ref="s", mask=None):
    vec = np.broadcast_to(np.array([vx, vy], dtype=float), (*shape, 2)).copy()
    return FlowField(vec, ref, mask)


def draw_line_every_step(image, x0, y0, x1, y1, color):
    """Bresenham raster that walks every step of the segment.

    Kept as the pixel oracle of `_draw_line`, which walks only the steps
    inside the image.
    """
    h, w = image.shape[:2]
    dx, dy = abs(x1 - x0), -abs(y1 - y0)
    sx = 1 if x0 < x1 else -1
    sy = 1 if y0 < y1 else -1
    err = dx + dy
    x, y = x0, y0
    while True:
        if 0 <= x < w and 0 <= y < h:
            image[y, x] = color
        if x == x1 and y == y1:
            break
        e2 = 2 * err
        if e2 >= dy:
            err += dy
            x += sx
        if e2 <= dx:
            err += dx
            y += sy


def hsv_to_rgb(hue_deg, sat, val):
    """Vectorized HSV (hue in degrees) to float RGB in [0, 1].

    Kept as the bit-for-bit oracle of `_wheel_rgb`, the value-1 wheel that
    replaced it: the renderer passed value 1 on valid cells and 0 on
    invalid ones.
    """
    h = (hue_deg % 360.0) / 60.0
    i = np.floor(h).astype(int) % 6
    f = h - np.floor(h)
    p = val * (1.0 - sat)
    q = val * (1.0 - f * sat)
    t = val * (1.0 - (1.0 - f) * sat)
    channels = [
        np.choose(i, [val, q, p, p, t, val]),
        np.choose(i, [t, val, val, q, p, p]),
        np.choose(i, [p, p, t, val, val, q]),
    ]
    return np.stack(channels, axis=-1)


def colorwheel_via_hsv(field, max_magnitude):
    """The renderer as it was written on `hsv_to_rgb`, for a finite `max_magnitude`."""
    vec = field.masked_vectors()
    hue = np.degrees(np.arctan2(-vec[..., 1], vec[..., 0])) % 360.0
    sat = np.minimum(np.hypot(vec[..., 0], vec[..., 1]), max_magnitude) / max_magnitude
    rgb = hsv_to_rgb(hue, sat, field.mask.astype(np.float64))
    return np.round(rgb * 255.0).astype(np.uint8)


# Sector edges, the top of the range and the hue that reduces to 360 itself.
EDGE_HUES = [0.0, 60.0, 120.0, 180.0, 240.0, 300.0, 360.0, float(np.nextafter(360.0, 0.0))]
HUES = st.one_of(st.floats(0.0, 360.0), st.sampled_from(EDGE_HUES))
SATURATIONS = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 5e-324, 1e-300, 1.0]))


class TestWheelClosedForm:
    @given(pairs=st.lists(st.tuples(HUES, SATURATIONS), min_size=1, max_size=64))
    @settings(max_examples=100, deadline=None)
    def test_bit_identical_to_hsv_at_value_one(self, pairs):
        hue, sat = np.array(pairs).T
        want = hsv_to_rgb(hue, sat, np.ones_like(hue))
        assert _wheel_rgb(hue, sat).tobytes() == want.tobytes()

    def test_hue_of_exactly_360_is_sector_zero(self):
        hue = np.degrees(np.arctan2(-np.array([1e-300]), np.array([1.0]))) % 360.0
        assert hue[0] == 360.0
        assert _wheel_rgb(hue, np.ones(1)).tolist() == [[1.0, 0.0, 0.0]]

    @given(
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([1e-300, 1e-5, 1.0, 60.0, 1e18, 1e300]),
        share=st.sampled_from([0.0, 0.7, 1.0]),
        max_magnitude=st.sampled_from([1e-300, 0.5, 1.0, 37.5, 1e300]),
    )
    @settings(max_examples=60, deadline=None)
    def test_renderer_bytes_match_hsv(self, seed, scale, share, max_magnitude):
        rng = np.random.default_rng(seed)
        shape = tuple(int(n) for n in rng.integers(1, 20, size=2))
        mask = rng.uniform(size=shape) < share
        vectors = np.where(mask[..., None], rng.normal(size=(*shape, 2)) * scale, np.nan)
        field = FlowField(vectors, "s", mask)
        got = render_colorwheel(field, max_magnitude)
        assert got.tobytes() == colorwheel_via_hsv(field, max_magnitude).tobytes()


def hue_saturation(rgb_u8):
    """Invert the HSV mapping for value-1 pixels (max channel = 255)."""
    rgb = rgb_u8.astype(np.float64) / 255.0
    mx = rgb.max(axis=-1)
    mn = rgb.min(axis=-1)
    delta = mx - mn
    sat = np.where(mx > 0, delta / np.where(mx > 0, mx, 1.0), 0.0)
    hue = np.zeros_like(mx)
    r, g, b = rgb[..., 0], rgb[..., 1], rgb[..., 2]
    safe = np.where(delta > 0, delta, 1.0)
    hue = np.where(mx == r, (g - b) / safe % 6.0, hue)
    hue = np.where(mx == g, (b - r) / safe + 2.0, hue)
    hue = np.where(mx == b, (r - g) / safe + 4.0, hue)
    return (hue * 60.0) % 360.0, sat


class TestColorwheel:
    def test_zero_flow_renders_white(self):
        img = render_colorwheel(zeros((3, 4)))
        assert img.shape == (3, 4, 3)
        assert np.array_equal(img, np.full((3, 4, 3), 255, np.uint8))

    def test_rightward_vector_is_saturated_red(self):
        img = render_colorwheel(constant_flow((2, 2), 4.0, 0.0), max_magnitude=4.0)
        assert np.array_equal(img, np.full((2, 2, 3), [255, 0, 0], np.uint8))

    def test_invalid_cells_are_black(self):
        mask = np.array([[True, False]])
        img = render_colorwheel(constant_flow((1, 2), 1.0, 0.0, mask=mask))
        assert np.array_equal(img[0, 1], [0, 0, 0])
        assert np.array_equal(img[0, 0], [255, 0, 0])

    def test_default_max_magnitude_saturates_peak(self):
        vec = np.zeros((1, 2, 2))
        vec[0, 1] = [3.0, 0.0]
        img = render_colorwheel(FlowField(vec, "s"))
        assert np.array_equal(img[0, 1], [255, 0, 0])
        assert np.array_equal(img[0, 0], [255, 255, 255])

    def test_non_positive_max_magnitude_rejected(self):
        with pytest.raises(FlowError):
            render_colorwheel(zeros((2, 2)), max_magnitude=0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_max_magnitude_rejected(self, bad):
        with pytest.raises(FlowError):
            render_colorwheel(zeros((2, 2)), max_magnitude=bad)

    def test_overflowing_magnitude_rejected(self):
        # hypot(1.7e308, 1.7e308) exceeds the float64 limit.
        with pytest.raises(FlowError, match="overflow"):
            render_colorwheel(constant_flow((3, 4), 1.7e308, 1.7e308))

    def test_tiny_max_magnitude_saturates(self):
        img = render_colorwheel(constant_flow((3, 4), 1e10, 0.0), max_magnitude=1e-300)
        assert np.array_equal(img, np.broadcast_to([255, 0, 0], (3, 4, 3)))

    def test_every_pixel_valid_rgb_and_dims_match(self, rng):
        vec = rng.normal(scale=3.0, size=(7, 9, 2))
        img = render_colorwheel(FlowField(vec, "t"))
        assert img.shape == (7, 9, 3)
        assert img.dtype == np.uint8

    def test_hue_rotates_with_vectors(self, rng):
        # Rotating vectors by phi (counter-clockwise on screen) advances
        # every rendered hue by phi, up to 1 degree after wraparound.
        for _ in range(20):
            vec = rng.normal(scale=4.0, size=(6, 8, 2))
            f = FlowField(vec, "s")
            phi = float(rng.uniform(10.0, 350.0))
            c, s = np.cos(np.radians(phi)), np.sin(np.radians(phi))

            def rotate(v, c=c, s=s):
                out = np.empty_like(v)
                out[..., 0] = c * v[..., 0] + s * v[..., 1]
                out[..., 1] = -s * v[..., 0] + c * v[..., 1]
                return out

            peak = float(np.hypot(vec[..., 0], vec[..., 1]).max())
            hue_a, sat_a = hue_saturation(render_colorwheel(f, peak))
            hue_b, sat_b = hue_saturation(render_colorwheel(map_vectors(f, rotate), peak))
            # hue is ill-conditioned near the wheel center: a half-step of
            # uint8 quantization already moves it by 60/(255*sat) degrees
            strong = (sat_a > 0.5) & (sat_b > 0.5)
            assert strong.any()
            delta = (hue_b - hue_a - phi) % 360.0
            delta = np.minimum(delta, 360.0 - delta)
            assert delta[strong].max() <= 1.0

    def test_saturation_scales_with_magnitude(self, rng):
        for _ in range(20):
            vec = rng.normal(scale=4.0, size=(6, 8, 2))
            f = FlowField(vec, "s")
            k = float(rng.uniform(0.1, 1.0))
            peak = float(np.hypot(vec[..., 0], vec[..., 1]).max())
            _, sat_a = hue_saturation(render_colorwheel(f, peak))
            _, sat_b = hue_saturation(render_colorwheel(map_vectors(f, lambda v: k * v), peak))
            assert np.abs(sat_b - k * sat_a).max() <= 1.0 / 255.0 + 1e-9


class TestArrows:
    def test_zero_flow_leaves_background_except_dots(self):
        img = render_arrows(zeros((6, 8)), stride=3)
        changed = np.argwhere((img != 255).any(axis=-1))
        assert len(changed) > 0
        for y, x in changed:
            assert (y - 1) % 3 == 0 and (x - 1) % 3 == 0  # lattice starts at stride//2

    def test_stride_larger_than_dims_draws_at_most_one_arrow(self):
        img = render_arrows(constant_flow((5, 7), 1.0, 0.0), stride=9)
        dots = ((img != 255).any(axis=-1)).sum()
        assert dots <= 3  # one short arrow: a dot plus at most two line pixels

    def test_stride_beyond_a_c_long_draws_nothing(self):
        # From stride 2 * max(H, W) on, the first lattice point is off the image.
        f = constant_flow((7, 7), 1.0, 0.0)
        img = render_arrows(f, stride=10**20)
        assert np.array_equal(img, render_arrows(f, stride=14))
        assert (img == 255).all()
        assert (render_arrows(f, stride=13) != 255).any()  # the lattice point (6, 6)

    def test_constant_source_flow_draws_horizontal_lines(self):
        f = constant_flow((9, 12), 5.0, 0.0)
        img = render_arrows(f, stride=4)
        marked = (img != 255).any(axis=-1)
        ys, xs = np.nonzero(marked)
        assert set(ys) <= {2, 6}  # arrows stay on their lattice rows
        assert marked.sum() >= 2 * 5

    def test_target_reference_anchors_at_end(self):
        f = constant_flow((7, 7), 3.0, 0.0, "t")
        img = render_arrows(f, stride=7)
        marked = (img != 255).any(axis=-1)
        ys, xs = np.nonzero(marked)
        assert set(ys) == {3}
        assert xs.min() == 0 and xs.max() == 3  # line from g - F to g

    def test_masked_origins_skipped(self):
        mask = np.zeros((5, 5), dtype=bool)
        f = constant_flow((5, 5), 2.0, 0.0, mask=mask)
        img = render_arrows(f, stride=2)
        assert np.array_equal(img, np.full((5, 5, 3), 255, np.uint8))

    def test_bad_stride_rejected(self):
        for stride in [0, -2, 2.5, np.nan, np.inf, "2", None]:
            with pytest.raises(FlowError, match="stride"):
                render_arrows(zeros((4, 4)), stride=stride)

    @pytest.mark.parametrize("stride", [3.0, np.float64(3.0), np.int64(3)])
    def test_integer_valued_stride_accepted(self, stride):
        field = constant_flow((7, 8), 2.0, 1.0)
        assert np.array_equal(render_arrows(field, stride=stride), render_arrows(field, stride=3))


class TestDrawLine:
    def test_matches_every_step_walk_on_short_segments(self):
        # Every segment between points of a window around small images.
        coords = range(-3, 8)
        for shape in [(1, 1), (1, 4), (3, 1), (4, 5)]:
            for x0 in coords:
                for y0 in coords:
                    for x1 in coords[::2]:
                        for y1 in coords[::2]:
                            got = np.zeros(shape, np.uint8)
                            want = np.zeros(shape, np.uint8)
                            _draw_line(got, x0, y0, x1, y1, 1)
                            draw_line_every_step(want, x0, y0, x1, y1, 1)
                            assert np.array_equal(got, want), (shape, x0, y0, x1, y1)

    def test_matches_every_step_walk_on_long_segments(self, rng):
        # Segments of up to about 2000 px with one end near the image, so
        # many of them enter it late or leave it early.
        hits = 0
        for _ in range(400):
            h, w = int(rng.integers(1, 50)), int(rng.integers(1, 70))
            x0, y0 = int(rng.integers(-30, w + 30)), int(rng.integers(-30, h + 30))
            x1, y1 = (int(v) for v in rng.integers(-1000, 1000, size=2))
            if rng.integers(2):
                x0, y0, x1, y1 = x1 + x0, y1 + y0, x0, y0
            else:
                x1, y1 = x1 + x0, y1 + y0
            got = np.zeros((h, w), np.uint8)
            want = np.zeros((h, w), np.uint8)
            _draw_line(got, x0, y0, x1, y1, 1)
            draw_line_every_step(want, x0, y0, x1, y1, 1)
            assert np.array_equal(got, want), ((h, w), x0, y0, x1, y1)
            hits += bool(want.any())
        assert hits > 80

    @pytest.mark.parametrize("direction", [(1.0, 0.0), (1.0, 1.0)], ids=["horizontal", "diagonal"])
    def test_huge_vector_draws_like_a_ray_just_past_the_image(self, direction):
        shape = (30, 40)
        mask = np.zeros(shape, dtype=bool)
        mask[5, 7] = True
        reach = 2 * max(shape)
        huge, ray = (
            constant_flow(shape, direction[0] * length, direction[1] * length, mask=mask)
            for length in (1e12, reach)
        )
        assert np.array_equal(render_arrows(huge), render_arrows(ray))
