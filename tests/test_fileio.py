"""File interchange tests: .flo bytes, sidecars, pixmaps."""

import struct
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowfield import FlowError, FlowField, Reference, zeros
from flowfield.fileio import (
    _PNM_HEADER,
    FLO_MAGIC,
    INVALID_SENTINEL,
    load_flow,
    read_image,
    save_flow,
    write_image,
    write_mask,
)


def random_f32_field(rng, h, w, invalid_frac=0.3):
    vec = rng.normal(scale=100.0, size=(h, w, 2)).astype(np.float32).astype(np.float64)
    mask = rng.uniform(size=(h, w)) > invalid_frac
    vec[~mask] = 0.0
    return FlowField(vec, "s" if rng.integers(2) else "t", mask)


class TestFloRoundtrip:
    def test_vectors_and_mask_survive(self, tmp_path, rng):
        f = random_f32_field(rng, 7, 9)
        path = tmp_path / "field.flo"
        save_flow(path, f)
        back = load_flow(path)
        assert np.array_equal(back.vectors, f.vectors)
        assert np.array_equal(back.mask, f.mask)
        assert back.reference is f.reference

    def test_second_roundtrip_is_byte_stable(self, tmp_path, rng):
        f = random_f32_field(rng, 5, 6)
        first = tmp_path / "a.flo"
        second = tmp_path / "b.flo"
        save_flow(first, f)
        save_flow(second, load_flow(first))
        assert first.read_bytes() == second.read_bytes()

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_property_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        h, w = int(rng.integers(1, 12)), int(rng.integers(1, 12))
        f = random_f32_field(rng, h, w)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "field.flo"
            save_flow(path, f)
            back = load_flow(path)
        assert np.array_equal(back.vectors, f.vectors)
        assert np.array_equal(back.mask, f.mask)


class TestFloFormat:
    def test_golden_bytes_parse_to_known_values(self, tmp_path):
        # 2 wide x 1 high: one real vector, one sentinel-invalid cell.
        blob = struct.pack("<fii", FLO_MAGIC, 2, 1)
        blob += struct.pack("<4f", 1.5, -2.25, INVALID_SENTINEL, INVALID_SENTINEL)
        path = tmp_path / "golden.flo"
        path.write_bytes(blob)
        f = load_flow(path)
        assert f.shape == (1, 2)
        assert f.reference is Reference.SOURCE
        assert np.array_equal(f.vectors[0, 0], [1.5, -2.25])
        assert np.array_equal(f.vectors[0, 1], [0.0, 0.0])
        assert list(f.mask[0]) == [True, False]

    def test_written_bytes_are_little_endian_interleaved(self, tmp_path):
        vec = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        path = tmp_path / "layout.flo"
        save_flow(path, FlowField(vec, "s"))
        blob = path.read_bytes()
        magic, w, h = struct.unpack("<fii", blob[:12])
        assert (magic, w, h) == (FLO_MAGIC, 2, 1)
        assert blob[:4] == b"PIEH"
        assert struct.unpack("<4f", blob[12:]) == (1.0, 2.0, 3.0, 4.0)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.flo"
        path.write_bytes(struct.pack("<fii", 0.0, 1, 1) + b"\0" * 8)
        with pytest.raises(FlowError, match="magic"):
            load_flow(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.flo"
        path.write_bytes(b"")
        with pytest.raises(FlowError, match="truncated"):
            load_flow(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "short.flo"
        path.write_bytes(struct.pack("<fii", FLO_MAGIC, 4, 4) + b"\0" * 10)
        with pytest.raises(FlowError, match="truncated"):
            load_flow(path)

    @pytest.mark.parametrize("w, h", [(0, 4), (-1, 4), (4, 70000)])
    def test_implausible_dims_rejected(self, tmp_path, w, h):
        path = tmp_path / "dims.flo"
        path.write_bytes(struct.pack("<fii", FLO_MAGIC, w, h) + b"\0" * 64)
        with pytest.raises(FlowError, match="dims"):
            load_flow(path)

    def test_claimed_dims_do_not_size_the_read(self, tmp_path):
        # The header claims a 32 GiB payload; only the 64 real bytes count.
        path = tmp_path / "claims.flo"
        path.write_bytes(struct.pack("<fii", FLO_MAGIC, 65535, 65535) + b"\0" * 64)
        with pytest.raises(FlowError, match="truncated"):
            load_flow(path)

    def test_oversized_field_refused_on_write(self, tmp_path):
        wide = zeros((1, 65536))
        with pytest.raises(FlowError, match="dims"):
            save_flow(tmp_path / "wide.flo", wide)


class TestSidecar:
    def test_save_load_carries_reference(self, tmp_path):
        path = tmp_path / "f.flo"
        save_flow(path, zeros((3, 3), "t"))
        assert (tmp_path / "f.ref").read_text().strip() == "t"
        assert load_flow(path).reference is Reference.TARGET

    def test_explicit_reference_overrides_sidecar(self, tmp_path):
        path = tmp_path / "f.flo"
        save_flow(path, zeros((3, 3), "t"))
        assert load_flow(path, "s").reference is Reference.SOURCE

    def test_missing_sidecar_defaults_to_source(self, tmp_path):
        path = tmp_path / "f.flo"
        save_flow(path, zeros((3, 3), "t"))
        (tmp_path / "f.ref").unlink()
        assert load_flow(path).reference is Reference.SOURCE

    def test_non_utf8_sidecar_rejected(self, tmp_path):
        path = tmp_path / "f.flo"
        save_flow(path, zeros((3, 3), "t"))
        (tmp_path / "f.ref").write_bytes(b"\xff\n")
        with pytest.raises(FlowError, match="sidecar"):
            load_flow(path)


def read_pnm_tokens_loop(blob: bytes, count: int) -> tuple[list[int], int]:
    """Byte-at-a-time header tokenizer that `_PNM_HEADER` replaced; the oracle.

    Returns the first `count` whitespace/comment-delimited integers and the
    offset just past the whitespace byte that ends the last one.
    """
    tokens: list[int] = []
    pos = 0
    current = bytearray()
    while len(tokens) < count and pos < len(blob):
        ch = blob[pos : pos + 1]
        pos += 1
        if ch == b"#":
            while pos < len(blob) and blob[pos : pos + 1] not in (b"\n", b"\r"):
                pos += 1
        elif ch.isspace():
            if current:
                try:
                    tokens.append(int(current))
                except ValueError:
                    raise FlowError(f"bad pixmap header token {bytes(current[:20])!r}") from None
                current = bytearray()
        else:
            current += ch
    if len(tokens) < count:
        raise FlowError("truncated pixmap header")
    return tokens, pos


_NEWLINE_FREE = st.lists(st.sampled_from(b" \t\x0b\x0c#x0\xff"), max_size=8).map(bytes)
_PNM_GAP = st.sampled_from([b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c"]) | st.builds(
    lambda text, end: b"#" + text + end, _NEWLINE_FREE, st.sampled_from([b"\n", b"\r\n", b"\r", b""])
)


@st.composite
def pnm_header_bytes(draw) -> bytes:
    """Pixmap bytes after the magic: three tokens between gaps, then a payload.

    Tokens are up to ten decimal digits, leading zeros included, or junk that
    `int()` refuses; gaps mix whitespace and comments, and the result may be
    truncated anywhere.
    """
    digits = st.text("0123456789", min_size=1, max_size=10).map(str.encode)
    junk = st.sampled_from([b"x", b"2x", b"1.5", b"0x1", b"\xff"])
    parts = [b"".join(draw(st.lists(_PNM_GAP, max_size=3)))]
    for _ in range(3):
        parts.append(draw(junk if draw(st.integers(0, 9)) == 0 else digits))
        parts.append(b"".join(draw(st.lists(_PNM_GAP, min_size=1, max_size=3))))
    data = b"".join(parts) + draw(st.binary(max_size=4))
    if draw(st.integers(0, 3)) == 0:
        data = data[: draw(st.integers(0, len(data)))]
    return data


class TestPixmaps:
    def test_rgb_roundtrip_bit_exact(self, tmp_path, rng):
        image = rng.integers(0, 256, size=(2, 2, 3), dtype=np.uint8)
        path = tmp_path / "img.ppm"
        write_image(path, image)
        assert np.array_equal(read_image(path), image)

    def test_gray_roundtrip_bit_exact(self, tmp_path, rng):
        image = rng.integers(0, 256, size=(5, 3), dtype=np.uint8)
        path = tmp_path / "img.pgm"
        write_image(path, image)
        assert np.array_equal(read_image(path), image)

    def test_mask_encodes_0_255(self, tmp_path):
        path = tmp_path / "mask.pgm"
        write_mask(path, np.array([[True, False]]))
        assert np.array_equal(read_image(path), [[255, 0]])
        write_mask(path, np.ones((2, 2), bool))
        assert np.array_equal(read_image(path), np.full((2, 2), 255))
        write_mask(path, np.zeros((2, 2), bool))
        assert np.array_equal(read_image(path), np.zeros((2, 2)))

    def test_comments_in_header_are_skipped(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# a comment\n2 1\n255\n\x07\x09")
        assert np.array_equal(read_image(path), [[7, 9]])

    @pytest.mark.parametrize(
        "header",
        [
            b"P5\n-2 -3\n255\n",
            b"P6\nab 3\n255\n",
            b"P5\n0 3\n255\n",
            b"P6\n2 3x\n255\n",
            b"P5\n+2 3\n255\n",
            b"P5\n1_0 3\n255\n",
            b"P5\n00000000002 3\n255\n",
        ],
        ids=[
            "negative-dims",
            "non-integer",
            "zero-width",
            "trailing-junk",
            "plus-sign",
            "underscore",
            "eleven-digits",
        ],
    )
    def test_bad_header_rejected(self, tmp_path, header):
        path = tmp_path / "bad.pnm"
        path.write_bytes(header + b"\0" * 64)
        with pytest.raises(FlowError):
            read_image(path)

    def test_long_header_token_rejected_quickly(self, tmp_path):
        path = tmp_path / "long.pgm"
        path.write_bytes(b"P5\n" + b"7" * 20_000_000)
        start = time.perf_counter()
        with pytest.raises(FlowError):
            read_image(path)
        assert time.perf_counter() - start < 1.0

    @given(data=pnm_header_bytes())
    @settings(max_examples=500, deadline=None)
    def test_header_regex_matches_tokenizer_loop(self, data):
        header = _PNM_HEADER.match(data)
        try:
            tokens, offset = read_pnm_tokens_loop(data, 3)
        except FlowError:
            assert header is None
        else:
            assert header is not None
            assert [int(t) for t in header.groups()] == tokens
            assert header.end() == offset

    def test_non_uint8_rejected(self, tmp_path):
        with pytest.raises(FlowError):
            write_image(tmp_path / "x.ppm", np.zeros((2, 2, 3), dtype=np.float64))

    def test_unwritable_path_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            write_image(tmp_path / "no" / "dir.ppm", np.zeros((2, 2, 3), np.uint8))


@st.composite
def mutated(draw, blob: bytes) -> bytes:
    """`blob` with a few bytes set, inserted or deleted, then maybe truncated."""
    data = bytearray(blob)
    for _ in range(draw(st.integers(0, 6))):
        # Half of the edits land in the first 16 bytes, where headers live.
        pos = draw(st.integers(0, min(len(data), 16)) | st.integers(0, len(data)))
        byte = draw(st.sampled_from(b"-+ \n#0123456789abP.") | st.integers(0, 255))
        kind = draw(st.sampled_from(["set", "insert", "delete"]))
        if kind == "insert" or pos == len(data):
            data.insert(pos, byte)
        elif kind == "set":
            data[pos] = byte
        else:
            del data[pos]
    cut = draw(st.none() | st.integers(0, len(data)))
    return bytes(data if cut is None else data[:cut])


def _valid_flo() -> bytes:
    vec = np.arange(12, dtype=np.float64).reshape(2, 3, 2)
    blob = struct.pack("<fii", FLO_MAGIC, 3, 2) + vec.astype("<f4").tobytes()
    return blob[:-8] + struct.pack("<2f", INVALID_SENTINEL, INVALID_SENTINEL)


def _valid_pixmap(kind: bytes) -> bytes:
    channels = 3 if kind == b"P6" else 1
    return kind + b"\n3 2\n255\n" + bytes(range(6 * channels))


def _reads_or_raises_flow_error(read, name: str, blob: bytes, sidecar: bytes | None = None):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_bytes(blob)
        if sidecar is not None:
            path.with_suffix(".ref").write_bytes(sidecar)
        try:
            read(path)
        except FlowError:
            pass


class TestReaderFuzz:
    """Truncated or mutated input bytes may only ever raise FlowError."""

    @given(blob=mutated(_valid_flo()))
    @settings(max_examples=300, deadline=None)
    def test_flo(self, blob):
        _reads_or_raises_flow_error(load_flow, "f.flo", blob)

    @given(sidecar=mutated(b"t\n") | st.binary(max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_ref_sidecar(self, sidecar):
        _reads_or_raises_flow_error(load_flow, "f.flo", _valid_flo(), sidecar)

    @given(blob=mutated(_valid_pixmap(b"P5")))
    @settings(max_examples=300, deadline=None)
    def test_p5(self, blob):
        _reads_or_raises_flow_error(read_image, "f.pgm", blob)

    @given(blob=mutated(_valid_pixmap(b"P6")))
    @settings(max_examples=300, deadline=None)
    def test_p6(self, blob):
        _reads_or_raises_flow_error(read_image, "f.ppm", blob)
