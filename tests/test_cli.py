"""Config parsing, CSV emission, and subcommand behavior.

Subcommands run in-process through cli.main so exit codes and output can
be asserted without shelling out; one test covers the installed console
script for the wiring itself.
"""

import csv
import json
import math
import pathlib
import shutil
import subprocess
import sys

import numpy as np
import pytest

from swiptsched import __version__
from swiptsched.analytic import AllowedOrderSet
from swiptsched.channel import sample_gains
from swiptsched.cli import CSV_HEADER, SweepSpec, main, parse_allowed, run_sweep
from swiptsched.config import (
    ConfigError,
    link_budget_omega,
    parse_config,
    scenario_to_config_text,
)
from swiptsched.sim import OrderET, OrderNSNR, RoundRobin, SimConfig, run

GOOD_CONFIG = """
[system]
n_users = 3
tx_power = 1 W
noise_power = -96 dBm
eta = 0.5

[fading]
model = ricean
k_factor = 6

[gains]
omega = 1e-5, 2e-5, 3e-5
"""


def write_config(tmp_path, body, name="scenario.ini"):
    path = tmp_path / name
    path.write_text(body, encoding="utf-8")
    return str(path)


def read_rows(text):
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def test_parse_config_happy_path(tmp_path):
    sc = parse_config(write_config(tmp_path, GOOD_CONFIG))
    assert sc.n_users == 3
    assert sc.tx_power_w == 1.0
    assert sc.noise_power_w == pytest.approx(10.0 ** (-12.6), rel=1e-15)
    assert sc.eta == 0.5
    assert sc.shared_k_factor() == 6.0
    assert [u.omega for u in sc.users] == [1e-5, 2e-5, 3e-5]


def test_parse_config_power_units(tmp_path):
    body = GOOD_CONFIG.replace("1 W", "30 dBm").replace("-96 dBm", "2.5e-13W")
    sc = parse_config(write_config(tmp_path, body))
    assert sc.tx_power_w == pytest.approx(1.0, rel=1e-15)
    assert sc.noise_power_w == 2.5e-13


@pytest.mark.parametrize(
    "mangle,needle",
    [
        (lambda b: b.replace("[system]", "[core]"), "system"),
        (lambda b: b.replace("n_users = 3", ""), "n_users"),
        (lambda b: b.replace("1 W", "1 J"), "tx_power"),
        (lambda b: b.replace("model = ricean", "model = nakagami"), "model"),
        (lambda b: b.replace("omega = 1e-5, 2e-5, 3e-5", "omega = 1e-5, 2e-5"), "expected 3"),
        (lambda b: b.replace("eta = 0.5", "eta = maybe"), "eta"),
        (lambda b: b.replace("eta = 0.5", "eta = 1.4"), "eta"),
        (lambda b: b + "\n[link_budget]\nfrequency_hz = 915e6\n", "exactly one"),
    ],
)
def test_parse_config_errors_identify_the_field(tmp_path, mangle, needle):
    path = write_config(tmp_path, mangle(GOOD_CONFIG))
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    assert needle in str(err.value)


def test_parse_config_rejects_k_factor_for_rayleigh(tmp_path):
    body = GOOD_CONFIG.replace("model = ricean", "model = rayleigh")
    with pytest.raises(ConfigError):
        parse_config(write_config(tmp_path, body))
    body_ok = body.replace("k_factor = 6", "k_factor = 0")
    sc = parse_config(write_config(tmp_path, body_ok))
    assert sc.shared_k_factor() == 0.0


def test_parse_config_missing_file():
    with pytest.raises(ConfigError):
        parse_config("/nonexistent/path.ini")


def test_parse_config_link_budget(tmp_path):
    body = """
[system]
n_users = 2
tx_power = 1 W
noise_power = -96 dBm
eta = 0.5

[fading]
model = rayleigh

[link_budget]
frequency_hz = 915e6
path_loss_exponent = 2.76
distances_m = 4.612173, 2.278823
"""
    sc = parse_config(write_config(tmp_path, body))
    assert sc.users[0].omega == pytest.approx(1e-5, rel=1e-5)
    assert sc.users[1].omega == pytest.approx(7e-5, rel=1e-5)


def test_scenario_round_trips_through_config_text(tmp_path):
    sc = parse_config(write_config(tmp_path, GOOD_CONFIG))
    again = parse_config(write_config(tmp_path, scenario_to_config_text(sc), "again.ini"))
    assert again == sc


def test_parse_allowed_forms():
    assert parse_allowed("1-3").orders == (1, 2, 3)
    assert parse_allowed("1,3,5").orders == (1, 3, 5)
    assert parse_allowed("4").orders == (4,)
    assert parse_allowed("2-4", 4).orders == (2, 3, 4)
    for text, n_users in (("3-1", None), ("a,b", None), ("", None), ("0-2", None), ("3-5", 4)):
        with pytest.raises(ConfigError):
            parse_allowed(text, n_users)


def test_link_budget_omega_free_space_reference():
    # reference loss at 1 m is 20 log10(4 pi f / c); exponent then scales
    # with distance decades
    f_hz, d = 915e6, 10.0
    ref_db = 20.0 * math.log10(4.0 * math.pi * f_hz / 299792458.0)
    want = 10.0 ** (-(ref_db + 27.6) / 10.0)
    assert link_budget_omega(f_hz, d, 2.76) == pytest.approx(want, rel=1e-12)


def test_link_budget_omega_overrides_and_gains():
    base = link_budget_omega(915e6, 3.0, 2.0, ref_loss_db=40.0)
    assert base == pytest.approx(10.0 ** (-(40.0 + 20.0 * math.log10(3.0)) / 10.0), rel=1e-12)
    boosted = link_budget_omega(915e6, 3.0, 2.0, ref_loss_db=40.0, tx_gain_dbi=10.0, rx_gain_dbi=2.0)
    assert boosted == pytest.approx(base * 10.0 ** 1.2, rel=1e-12)
    with pytest.raises(ValueError):
        link_budget_omega(915e6, 0.0, 2.0)
    with pytest.raises(ValueError):
        link_budget_omega(-1.0, 3.0, 2.0)


def test_analyze_csv_shape(tmp_path, capsys):
    path = write_config(tmp_path, GOOD_CONFIG)
    assert main(["analyze", "--config", path, "--scheme", "nsnr", "--order", "2"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == f"# swiptsched {__version__}"
    header_line = next(ln for ln in out.splitlines() if not ln.startswith("#"))
    assert header_line == ",".join(CSV_HEADER)
    rows = read_rows(out)
    assert len(rows) == 3
    assert rows[0]["scheme"] == "nsnr"
    assert rows[0]["param"] == "j=2"
    assert rows[0]["feasible"] == "true"
    assert rows[0]["cap_stderr"] == ""
    assert rows[2]["user"] == "3"
    assert float(rows[2]["sched_prob"]) == pytest.approx(1 / 3, rel=1e-9)


def test_analyze_rr_and_et(tmp_path, capsys):
    path = write_config(tmp_path, GOOD_CONFIG)
    assert main(["analyze", "--config", path, "--scheme", "rr"]) == 0
    rows = read_rows(capsys.readouterr().out)
    assert {r["scheme"] for r in rows} == {"rr"}
    assert main(["analyze", "--config", path, "--scheme", "et", "--allowed", "2-3"]) == 0
    rows = read_rows(capsys.readouterr().out)
    assert rows[0]["param"] == "Sa={2,3}"
    caps = {r["capacity_bps_hz"] for r in rows}
    assert len(caps) == 1  # equal throughput
    probs = [float(r["sched_prob"]) for r in rows]
    assert math.fsum(probs) == pytest.approx(1.0, abs=1e-8)


def test_analyze_infeasible_et_leaves_numbers_blank(tmp_path, capsys):
    body = """
[system]
n_users = 4
tx_power = 1 W
noise_power = 2.3255813953488373e-13 W
eta = 0.5

[fading]
model = rayleigh

[gains]
omega = 1, 1, 1e-11, 1e-11
"""
    path = write_config(tmp_path, body)
    assert main(["analyze", "--config", path, "--scheme", "et", "--allowed", "3-4"]) == 0
    rows = read_rows(capsys.readouterr().out)
    assert all(r["feasible"] == "false" for r in rows)
    assert all(r["capacity_bps_hz"] == "" for r in rows)
    assert all(r["harvest_w"] == "" for r in rows)
    assert "infeasible" in rows[0]["notes"]


def test_simulate_csv_has_errors_and_seed(tmp_path, capsys):
    path = write_config(tmp_path, GOOD_CONFIG)
    code = main(
        ["simulate", "--config", path, "--scheme", "rr", "--slots", "5000", "--seed", "9"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "# run:" in out and "seed=9" in out
    rows = read_rows(out)
    assert all(r["notes"] == "simulated" for r in rows)
    assert all(float(r["cap_stderr"]) > 0.0 for r in rows)


BUDGET_CONFIG = """
[system]
n_users = 2
tx_power = 1 W
noise_power = -96 dBm
eta = 0.5

[fading]
model = rayleigh

[link_budget]
frequency_hz = 915e6
path_loss_exponent = 2.76
distances_m = 4.612173, 2.278823
"""


def test_usage_errors_exit_one(tmp_path, capsys):
    path = write_config(tmp_path, GOOD_CONFIG)
    rayleigh_k = write_config(
        tmp_path,
        GOOD_CONFIG.replace("model = ricean", "model = rayleigh").replace(
            "k_factor = 6", "k_factor = abc"
        ),
        "rayleigh_k.ini",
    )
    budget = write_config(
        tmp_path, BUDGET_CONFIG.replace("915e6", "fast"), "budget.ini"
    )
    sim = ["simulate", "--config", path, "--scheme", "rr"]
    cases = [
        ["analyze", "--config", path, "--scheme", "nsnr"],
        ["analyze", "--config", path, "--scheme", "et"],
        ["analyze", "--config", path, "--scheme", "rr", "--order", "2"],
        ["analyze", "--config", path, "--scheme", "nsnr", "--order", "9"],
        ["analyze", "--config", "/missing.ini", "--scheme", "rr"],
        ["analyze", "--config", path, "--scheme", "et", "--allowed", "0-2"],
        ["feasibility", "--config", path, "--allowed", "3-9"],
        ["sweep", "--config", path, "--schemes", "et", "--set", "2-5"],
        ["sweep", "--config", path, "--schemes", "rr", "--jobs", "-1"],
        sim + ["--slots", "0"],
        sim + ["--slots", "100", "--warmup", "100"],
        ["analyze", "--config", rayleigh_k, "--scheme", "rr"],
        ["analyze", "--config", budget, "--scheme", "rr"],
        ["linkbudget", "--frequency-hz", "915e6", "--exponent", "2", "--distance", "0"],
        ["analyze", "--config", path, "--scheme", "et", "--allowed", "1-2", "--order", "9"],
        ["analyze", "--config", path, "--scheme", "nsnr", "--order", "1", "--allowed", "1-2"],
        sim[:-1] + ["nsnr", "--order", "1", "--allowed", "1-2", "--slots", "100"],
        sim[:-1] + ["et", "--allowed", "1-2", "--order", "1", "--slots", "100"],
        ["compare", "--config", path, "--scheme", "et", "--allowed", "1-2", "--order", "1",
         "--slots", "100"],
    ]
    for argv in cases:
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("swiptsched: error: ") and err.count("\n") == 1, argv


def test_argparse_errors_remap_to_exit_one(tmp_path, capsys):
    with pytest.raises(SystemExit) as e:
        main(["bogus-command"])
    assert e.value.code == 1
    with pytest.raises(SystemExit) as e:
        main(["analyze", "--config"])
    assert e.value.code == 1
    capsys.readouterr()


def test_config_dir_env_fallback(tmp_path, capsys, monkeypatch):
    write_config(tmp_path, GOOD_CONFIG, "byname.ini")
    monkeypatch.setenv("SWIPTSCHED_CONFIG_DIR", str(tmp_path))
    assert main(["analyze", "--config", "byname.ini", "--scheme", "rr"]) == 0
    capsys.readouterr()
    monkeypatch.delenv("SWIPTSCHED_CONFIG_DIR")
    assert main(["analyze", "--config", "byname.ini", "--scheme", "rr"]) == 1
    capsys.readouterr()


def test_feasibility_exit_codes_and_json(tmp_path, capsys):
    feasible = """
[system]
n_users = 4
tx_power = 1 W
noise_power = 2.3255813953488373e-13 W
eta = 0.5

[fading]
model = rayleigh

[gains]
omega = 1, 1, 1e-10, 1e-10
"""
    path = write_config(tmp_path, feasible)
    report = tmp_path / "verdict.json"
    assert main(["feasibility", "--config", path, "--allowed", "3-4", "--json", str(report)]) == 0
    out = capsys.readouterr().out
    assert "verdict: feasible" in out
    payload = json.loads(report.read_text())
    assert payload["feasible"] is True
    assert payload["probabilities"][2] == pytest.approx(0.4116, abs=1e-4)

    infeasible = feasible.replace("1e-10, 1e-10", "1e-11, 1e-11")
    path2 = write_config(tmp_path, infeasible, "bad.ini")
    report2 = tmp_path / "verdict2.json"
    assert main(["feasibility", "--config", path2, "--allowed", "3-4", "--json", str(report2)]) == 2
    out = capsys.readouterr().out
    assert "INFEASIBLE" in out
    assert "L=2" in out
    payload2 = json.loads(report2.read_text())
    assert payload2["feasible"] is False
    assert any(v["l"] == 2 for v in payload2["violations"])


def test_sweep_row_inventory(tmp_path):
    path = write_config(tmp_path, GOOD_CONFIG)
    out_csv = tmp_path / "grid.csv"
    code = main(
        [
            "sweep",
            "--config",
            path,
            "--schemes",
            "rr,nsnr,et",
            "--orders",
            "1-3",
            "--set",
            "1-2",
            "--set",
            "2-3",
            "--out",
            str(out_csv),
        ]
    )
    assert code == 0
    rows = read_rows(out_csv.read_text())
    # (rr) + (3 orders) + (2 sets) = 6 points, 3 users each
    assert len(rows) == 18
    schemes = [r["scheme"] for r in rows]
    assert schemes.count("rr") == 3
    assert schemes.count("nsnr") == 9
    assert schemes.count("et") == 6


def test_sweep_parallel_output_is_identical(tmp_path):
    path = write_config(tmp_path, GOOD_CONFIG)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["sweep", "--config", path, "--schemes", "nsnr,et", "--orders", "1-3", "--set", "1-2"]
    assert main(args + ["--jobs", "1", "--out", str(a)]) == 0
    assert main(args + ["--jobs", "3", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_both_mode_parallel_output_is_identical(tmp_path):
    path = write_config(tmp_path, GOOD_CONFIG)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["sweep", "--config", path, "--schemes", "rr,nsnr,et", "--orders", "1-3",
            "--set", "1-2", "--mode", "both", "--slots", "3000"]
    assert main(args + ["--jobs", "1", "--out", str(a)]) == 0
    assert main(args + ["--jobs", "2", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_shared_draw_rows_equal_per_point_runs(tmp_path):
    scenario = parse_config(write_config(tmp_path, GOOD_CONFIG))
    config = SimConfig(n_slots=3000, seed=21)
    allowed = AllowedOrderSet((1, 2))
    spec = SweepSpec(
        schemes=("rr", "nsnr", "et"),
        nsnr_orders=(1, 3),
        et_sets=(allowed,),
        mode="simulate",
        sim=config,
    )
    rows = run_sweep(scenario, spec)
    policies = (
        RoundRobin(),
        OrderNSNR(order_j=1),
        OrderNSNR(order_j=3),
        OrderET(allowed=allowed),
    )
    assert len(rows) == 3 * len(policies)
    for k, policy in enumerate(policies):
        result = run(scenario, policy, config)
        for u in range(3):
            row = rows[3 * k + u]
            assert row["capacity_bps_hz"] == result.per_user_capacity_mean[u]
            assert row["harvest_w"] == result.per_user_harvest_mean[u]
            assert row["sched_prob"] == result.per_user_schedule_frequency[u]
            assert row["cap_stderr"] == result.per_user_capacity_stderr[u]
            assert row["harv_stderr"] == result.per_user_harvest_stderr[u]


def test_serial_sweep_draws_each_user_once(tmp_path, monkeypatch):
    drawn = []

    def counted(params, rng, size=None):
        drawn.append(params)
        return sample_gains(params, rng, size)

    monkeypatch.setattr("swiptsched.sim.sample_gains", counted)
    config = pathlib.Path(__file__).resolve().parent.parent / "configs" / "indoor_ricean_n7.ini"
    out_csv = tmp_path / "sweep.csv"
    argv = ["sweep", "--config", str(config), "--schemes", "rr,nsnr,et", "--orders", "1-7",
            "--set", "1-2", "--set", "3-4", "--set", "6-7", "--mode", "both",
            "--slots", "2000", "--jobs", "1", "--out", str(out_csv)]
    assert main(argv) == 0
    assert len(read_rows(out_csv.read_text())) == 2 * 11 * 7
    assert len(drawn) == 7


def test_sweep_sorts_ranks_at_most_once(tmp_path, monkeypatch):
    sorted_rows = []
    argsort = np.argsort

    def counted(*args, **kwargs):
        sorted_rows.append(len(args[0]))
        return argsort(*args, **kwargs)

    monkeypatch.setattr(np, "argsort", counted)
    path = write_config(tmp_path, GOOD_CONFIG)
    argv = ["sweep", "--config", path, "--mode", "simulate", "--slots", "2000",
            "--jobs", "1", "--out", str(tmp_path / "s.csv"), "--schemes"]
    assert main(argv + ["rr"]) == 0
    assert sorted_rows == []
    assert main(argv + ["rr,nsnr,et", "--orders", "1-3", "--set", "1-2", "--set", "2-3"]) == 0
    assert sum(sorted_rows) == 2000


def test_sweep_both_mode_tags_rows(tmp_path):
    path = write_config(tmp_path, GOOD_CONFIG)
    out_csv = tmp_path / "both.csv"
    code = main(
        [
            "sweep",
            "--config",
            path,
            "--schemes",
            "rr",
            "--mode",
            "both",
            "--slots",
            "3000",
            "--out",
            str(out_csv),
        ]
    )
    assert code == 0
    rows = read_rows(out_csv.read_text())
    assert len(rows) == 6
    notes = [r["notes"] for r in rows]
    assert notes.count("analytic") == 3
    assert notes.count("simulated") == 3


def test_sweep_requires_params_for_selected_schemes(tmp_path, capsys):
    path = write_config(tmp_path, GOOD_CONFIG)
    assert main(["sweep", "--config", path, "--schemes", "nsnr"]) == 1
    assert main(["sweep", "--config", path, "--schemes", "et"]) == 1
    assert main(["sweep", "--config", path, "--schemes", "rrr"]) == 1
    capsys.readouterr()


def test_compare_flags_agreement(tmp_path, capsys):
    path = write_config(tmp_path, GOOD_CONFIG)
    code = main(
        ["compare", "--config", path, "--scheme", "rr", "--slots", "40000", "--seed", "2"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "all values within 4 standard errors" in out


def test_linkbudget_table(capsys):
    code = main(
        [
            "linkbudget",
            "--frequency-hz",
            "915e6",
            "--exponent",
            "2.76",
            "--distance",
            "4.612173",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    omega = float(out.splitlines()[1].split()[1])
    assert omega == pytest.approx(1e-5, rel=1e-5)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as e:
        main(["--version"])
    assert e.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_console_script_is_wired():
    exe = shutil.which("swiptsched")
    if exe is None:
        pytest.skip("console script not installed")
    proc = subprocess.run([exe, "--version"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert __version__ in proc.stdout


def test_bundled_configs_parse():
    # the files shipped in configs/ must stay loadable
    here = pathlib.Path(__file__).resolve().parent.parent / "configs"
    names = sorted(p.name for p in here.glob("*.ini"))
    assert len(names) >= 4
    for name in names:
        sc = parse_config(str(here / name))
        assert sc.n_users >= 2


def test_library_import_leaves_the_cli_unloaded():
    # the package is the library; only the console entry point loads the CLI
    import swiptsched

    src = str(pathlib.Path(swiptsched.__file__).resolve().parent.parent)
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import swiptsched; "
        "print(' '.join(m for m in ('swiptsched.cli', 'argparse') if m in sys.modules))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""
