"""Golden outputs: a simplification must not move a single printed digit or byte.

The expected values were recorded from the CLI before the duplicate code
paths were removed. A change that alters floating-point summation order may
update them, but only together with a CHANGES.md note stating the change
and its size.
"""

import hashlib

from flowfield.cli import main

# The `mode=` record lines of `flowfield verify-compose --seed 0 --trials 10`
# (their sha256, newline-terminated, is 71428b67...65ae).
VERIFY_COMPOSE_RECORDS = [
    "mode=1 n_vectors=305000 mean_abs_err=0.0128108428 max_abs_err=0.371149872"
    " frac_abs_below_005=0.892026 frac_abs_below_0005=0.716433"
    " frac_rel_below_0005=0.906764 frac_rel_below_00005=0.668298",
    "mode=2 n_vectors=306449 mean_abs_err=0.0026527343 max_abs_err=0.283481369"
    " frac_abs_below_005=0.994926 frac_abs_below_0005=0.868007"
    " frac_rel_below_0005=0.996574 frac_rel_below_00005=0.916231",
    "mode=3 n_vectors=313074 mean_abs_err=0.00439331613 max_abs_err=0.277697041"
    " frac_abs_below_005=0.994468 frac_abs_below_0005=0.838243"
    " frac_rel_below_0005=0.996228 frac_rel_below_00005=0.888985",
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
