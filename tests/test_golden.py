"""Sweeps of the bundled configs against committed golden CSVs.

The golden files hold `sweep --schemes rr,nsnr,et --orders 1-N --set 1-2
--set 1-N --mode analytic` for every file in configs/, and
golden/simulated/ the same sweep of indoor_ricean_n7 in mode both at 20000
slots and seed 7, which pins the simulator's stream layout. Text cells and
comment lines must match exactly; numbers match to 1e-9 relative, so a
different scipy build's last-digit rounding does not fail the comparison.
"""

import csv
import math
import pathlib

import pytest

from swiptsched.cli import main
from swiptsched.config import parse_config

ROOT = pathlib.Path(__file__).resolve().parent.parent
CONFIGS = sorted((ROOT / "configs").glob("*.ini"))
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


def _cells_match(got, want):
    if got == want:
        return True
    try:
        g, w = float(got), float(want)
    except ValueError:
        return False
    return math.isclose(g, w, rel_tol=1e-9, abs_tol=0.0)


def test_every_bundled_config_has_a_golden_file():
    assert CONFIGS
    assert sorted(p.stem for p in GOLDEN.glob("*.csv")) == [p.stem for p in CONFIGS]


def _sweep_matches(config, golden, extra, tmp_path):
    n = parse_config(str(config)).n_users
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--config", str(config), "--schemes", "rr,nsnr,et"]
    argv += ["--orders", f"1-{n}", "--set", "1-2", "--set", f"1-{n}"]
    assert main(argv + extra + ["--out", str(out)]) == 0

    got = out.read_text(encoding="utf-8").splitlines()
    want = golden.read_text(encoding="utf-8").splitlines()
    assert [ln for ln in got if ln.startswith("#")] == [ln for ln in want if ln.startswith("#")]
    got_rows = list(csv.reader(ln for ln in got if not ln.startswith("#")))
    want_rows = list(csv.reader(ln for ln in want if not ln.startswith("#")))
    assert len(got_rows) == len(want_rows)
    for r, (g_row, w_row) in enumerate(zip(got_rows, want_rows)):
        assert len(g_row) == len(w_row), r
        for c, (g, w) in enumerate(zip(g_row, w_row)):
            assert _cells_match(g, w), (r, want_rows[0][c], g, w)


@pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.stem)
def test_analytic_sweep_matches_golden(config, tmp_path):
    _sweep_matches(config, GOLDEN / f"{config.stem}.csv", ["--mode", "analytic"], tmp_path)


def test_simulated_sweep_matches_golden(tmp_path):
    config = ROOT / "configs" / "indoor_ricean_n7.ini"
    extra = ["--mode", "both", "--slots", "20000", "--seed", "7"]
    _sweep_matches(config, GOLDEN / "simulated" / f"{config.stem}.csv", extra, tmp_path)
