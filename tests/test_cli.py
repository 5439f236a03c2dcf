"""End-to-end CLI tests through the real entry point."""

import numpy as np
import pytest

from flowfield import Reference, load_flow, read_image, save_flow, write_image, zeros
from flowfield.cli import main


def run(*args, capsys=None):
    code = main(list(args))
    if capsys is None:
        return code, None
    return code, capsys.readouterr()


class TestMake:
    def test_translation_field_with_sidecar(self, tmp_path):
        out = tmp_path / "t.flo"
        code = main(
            ["make", "--transforms", "translation:20,-10", "--size", "200x250",
             "--ref", "t", "-o", str(out)]
        )
        assert code == 0
        f = load_flow(out)
        assert f.reference is Reference.TARGET
        assert f.shape == (200, 250)
        assert np.allclose(f.vectors[..., 0], 20.0)
        assert np.allclose(f.vectors[..., 1], -10.0)

    def test_multi_step_grammar_and_padding(self, tmp_path):
        out = tmp_path / "m.flo"
        code = main(
            ["make", "--transforms", "rotation:10,10,5; scaling:0,0,1.1",
             "--size", "20x30", "--ref", "s", "--padding", "1,2,3,4", "-o", str(out)]
        )
        assert code == 0
        assert load_flow(out).shape == (23, 37)

    @pytest.mark.parametrize("spec", ["swirl:1,2", "rotation:a,b,c", "rotation:1,2", ""])
    def test_bad_grammar_is_usage_error(self, tmp_path, spec):
        code = main(
            ["make", "--transforms", spec, "--size", "4x4", "--ref", "s",
             "-o", str(tmp_path / "x.flo")]
        )
        assert code == 1

    def test_bad_size_is_usage_error(self, tmp_path):
        code = main(
            ["make", "--transforms", "translation:1,1", "--size", "4by4",
             "--ref", "s", "-o", str(tmp_path / "x.flo")]
        )
        assert code == 1

    def test_bad_scale_is_usage_error(self, tmp_path):
        flo = tmp_path / "f.flo"
        save_flow(flo, zeros((4, 4)))
        code = main(["resize", "-f", str(flo), "--scale", "0.5", "-o",
                     str(tmp_path / "o.flo")])
        assert code == 1


class TestPipelines:
    def test_combine_translations(self, tmp_path, capsys):
        a, b, out = (tmp_path / n for n in ("a.flo", "b.flo", "c.flo"))
        main(["make", "--transforms", "translation:20,-10", "--size", "60x80",
              "--ref", "t", "-o", str(a)])
        main(["make", "--transforms", "translation:-10,-20", "--size", "60x80",
              "--ref", "t", "-o", str(b)])
        code = main(["combine", "-a", str(a), "-b", str(b), "--mode", "3", "-o", str(out)])
        assert code == 0
        f = load_flow(out)
        assert f.reference is Reference.TARGET
        assert np.allclose(f.vectors[f.mask], [10.0, -30.0], atol=1e-6)

    def test_padding_prints_tblr(self, tmp_path, capsys):
        flo = tmp_path / "f.flo"
        main(["make", "--transforms", "translation:3,-2", "--size", "5x10",
              "--ref", "t", "-o", str(flo)])
        code = main(["padding", "-f", str(flo)])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.strip() == "0 2 3 0"

    def test_apply_warps_image(self, tmp_path):
        flo = tmp_path / "f.flo"
        img = tmp_path / "in.ppm"
        out = tmp_path / "out.ppm"
        mask_out = tmp_path / "m.pgm"
        main(["make", "--transforms", "translation:2,0", "--size", "1x5",
              "--ref", "t", "-o", str(flo)])
        write_image(img, np.arange(15, dtype=np.uint8).reshape(1, 5, 3))
        code = main(["apply", "-f", str(flo), "-i", str(img), "-o", str(out),
                     "--mask-out", str(mask_out)])
        assert code == 0
        warped = read_image(out)
        assert np.array_equal(warped[0, 2], [0, 1, 2])
        assert np.array_equal(read_image(mask_out)[0], [0, 0, 255, 255, 255])

    def test_invert_switch_resize_pad_unpad(self, tmp_path):
        flo = tmp_path / "f.flo"
        main(["make", "--transforms", "translation:4,2", "--size", "20x30",
              "--ref", "s", "-o", str(flo)])
        for sub, extra, expect_shape in [
            ("invert", [], (20, 30)),
            ("switch-ref", [], (20, 30)),
            ("resize", ["--scale", "0.5,0.5"], (10, 15)),
            ("pad", ["--padding", "1,1,2,2"], (22, 34)),
        ]:
            out = tmp_path / f"{sub}.flo"
            code = main([sub, "-f", str(flo), *extra, "-o", str(out)])
            assert code == 0, sub
            assert load_flow(out).shape == expect_shape
        padded = tmp_path / "pad.flo"
        out = tmp_path / "unpad.flo"
        code = main(["unpad", "-f", str(padded), "--padding", "1,1,2,2", "-o", str(out)])
        assert code == 0
        back = load_flow(out)
        assert back.shape == (20, 30)
        assert np.array_equal(back.vectors, load_flow(flo).vectors)

    def test_track_points_csv(self, tmp_path, capsys):
        flo = tmp_path / "f.flo"
        pts = tmp_path / "p.csv"
        main(["make", "--transforms", "translation:3,-1", "--size", "20x20",
              "--ref", "s", "-o", str(flo)])
        pts.write_text("10,10\n1,19\n")
        code = main(["track", "-f", str(flo), "--points", str(pts)])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.splitlines() == ["13,9,1", "4,18,1"]

    def test_valid_writes_mask(self, tmp_path):
        flo = tmp_path / "f.flo"
        out = tmp_path / "v.pgm"
        main(["make", "--transforms", "translation:3,-2", "--size", "5x10",
              "--ref", "t", "-o", str(flo)])
        code = main(["valid", "-f", str(flo), "--which", "target", "-o", str(out)])
        assert code == 0
        mask = read_image(out)
        assert mask[0, 0] == 0 and mask[0, 5] == 255

    def test_viz_styles(self, tmp_path):
        flo = tmp_path / "f.flo"
        main(["make", "--transforms", "rotation:10,10,10", "--size", "20x20",
              "--ref", "s", "-o", str(flo)])
        for style in ("wheel", "arrows"):
            out = tmp_path / f"{style}.ppm"
            assert main(["viz", "-f", str(flo), "--style", style, "-o", str(out)]) == 0
            assert read_image(out).shape == (20, 20, 3)

    def test_fit_matrix_prints_matrix(self, tmp_path, capsys):
        flo = tmp_path / "f.flo"
        main(["make", "--transforms", "translation:2.5,1", "--size", "10x10",
              "--ref", "s", "-o", str(flo)])
        code = main(["fit-matrix", "-f", str(flo)])
        captured = capsys.readouterr()
        assert code == 0
        lines = captured.out.strip().splitlines()
        assert len(lines) == 4
        assert lines[0].split() == ["1", "0", "2.5"]
        assert lines[3].startswith("rms_residual_px=")

    def test_ref_override_changes_semantics(self, tmp_path, capsys):
        flo = tmp_path / "f.flo"
        main(["make", "--transforms", "translation:3,-2", "--size", "5x10",
              "--ref", "t", "-o", str(flo)])
        code = main(["padding", "-f", str(flo), "--ref", "s"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.strip() == "2 0 0 3"


class TestVerifyCompose:
    def test_prints_block_and_record(self, capsys):
        code = main(["verify-compose", "--trials", "3", "--size", "30x40",
                     "--max-mag", "5", "--seed", "9", "--mode", "3"])
        captured = capsys.readouterr()
        assert code == 0
        assert "composition accuracy (mode 3)" in captured.out
        assert "mode=3 n_vectors=" in captured.out

    def test_reproducible_output(self, capsys):
        args = ["verify-compose", "--trials", "3", "--size", "30x40",
                "--max-mag", "5", "--seed", "9"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        second = capsys.readouterr().out
        assert first == second


class TestDemoSynthetic:
    def test_writes_flows_and_images(self, tmp_path, capsys):
        out = tmp_path / "demo"
        code = main(["demo-synthetic", "-o", str(out)])
        assert code == 0
        for name in ("f12", "f13", "f23"):
            assert (out / f"{name}.flo").exists()
            assert (out / f"{name}.ref").exists()
            assert (out / f"{name}.ppm").exists()
        f23 = load_flow(out / "f23.flo")
        assert f23.reference is Reference.TARGET
        assert f23.mask.all()


class TestExitCodes:
    def test_missing_required_flag(self):
        assert main(["make", "--size", "4x4", "--ref", "s", "-o", "x.flo"]) == 1

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 1

    def test_missing_file_is_data_error(self, tmp_path):
        assert main(["invert", "-f", str(tmp_path / "no.flo"), "-o",
                     str(tmp_path / "o.flo")]) == 2

    def test_corrupt_flo_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.flo"
        bad.write_bytes(b"nope")
        assert main(["invert", "-f", str(bad), "-o", str(tmp_path / "o.flo")]) == 2

    def test_dimension_mismatch_is_data_error(self, tmp_path):
        a, b = tmp_path / "a.flo", tmp_path / "b.flo"
        save_flow(a, zeros((4, 5)))
        save_flow(b, zeros((5, 4)))
        assert main(["combine", "-a", str(a), "-b", str(b), "--mode", "3",
                     "-o", str(tmp_path / "c.flo")]) == 2

    def test_nan_scale_is_data_error(self, tmp_path, capsys):
        flo = tmp_path / "f.flo"
        save_flow(flo, zeros((4, 4)))
        code = main(["resize", "-f", str(flo), "--scale", "nan,1", "-o",
                     str(tmp_path / "o.flo")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: scale factors")

    def test_nan_max_magnitude_is_data_error(self, tmp_path):
        flo = tmp_path / "f.flo"
        save_flow(flo, zeros((4, 4)))
        assert main(["viz", "-f", str(flo), "--max-magnitude", "nan", "-o",
                     str(tmp_path / "v.ppm")]) == 2
