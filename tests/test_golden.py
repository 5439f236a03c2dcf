"""Golden outputs: a simplification must not move a single printed digit or byte.

The expected values were recorded from the CLI before the duplicate code
paths were removed. A change that alters floating-point summation order may
update them, but only together with a CHANGES.md note stating the change
and its size.
"""

import hashlib

from flowfield.cli import main

# The `mode=` record lines of `flowfield verify-compose --seed 0 --trials 10`
# (their sha256, newline-terminated, is 52bbb357...c12e).
VERIFY_COMPOSE_RECORDS = [
    "mode=1 n_vectors=302091 mean_abs_err=0.00228867373 max_abs_err=0.313479492"
    " frac_abs_below_005=0.997597 frac_abs_below_0005=0.829525"
    " frac_rel_below_0005=0.995256 frac_rel_below_00005=0.858271",
    "mode=2 n_vectors=306449 mean_abs_err=0.0026527343 max_abs_err=0.283481369"
    " frac_abs_below_005=0.994926 frac_abs_below_0005=0.868007"
    " frac_rel_below_0005=0.996574 frac_rel_below_00005=0.916231",
    "mode=3 n_vectors=311914 mean_abs_err=0.0011969306 max_abs_err=0.277697041"
    " frac_abs_below_005=0.995371 frac_abs_below_0005=0.960300"
    " frac_rel_below_0005=0.998525 frac_rel_below_00005=0.983685",
]

# sha256 of the .flo files `flowfield demo-synthetic` writes.
DEMO_FLO_SHA256 = {
    "f12.flo": "1651677bc03cb60dd18e195b6c732832444afe5da871de02e551e04f24542b13",
    "f13.flo": "8628d0c63d0b767c278730fe14205cf69c1b4619f1db98ad017c63d668758cfe",
    "f23.flo": "f205f492d0012b31d26444abb6fd4662def6e3c69c2c38d3da0bdd2d711a5278",
}


def test_verify_compose_records(capsys):
    assert main(["verify-compose", "--seed", "0", "--trials", "10"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.startswith("mode=")] == VERIFY_COMPOSE_RECORDS


def test_demo_synthetic_flo_bytes(tmp_path, capsys):
    assert main(["demo-synthetic", "-o", str(tmp_path)]) == 0
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in DEMO_FLO_SHA256
    }
    assert digests == DEMO_FLO_SHA256
