"""Self-test of the benchmark harness: python3 -m pytest -q bench/test_harness.py

Checks that injected faults count as failed ops, that the traced-run
wrappers put every attribute back, that inputs depend on the seed alone,
and that the benchmark refuses to run without the program.
"""

import argparse
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

sw = worker.set_up("sim-long", 1)

SMALL = [
    {
        "n_users": 3,
        "k_factor": 0.0,
        "omegas": (1e-9, 3e-9, 1e-8),
        "tx_power_w": 1.0,
        "noise_power_w": 1e-12,
        "eta": 0.5,
        "et_sets": ((1, 2), (3,)),
        "repeat_order": 3,
    },
    {
        "n_users": 2,
        "k_factor": 6.0,
        "omegas": (1e-10, 1e-9),
        "tx_power_w": 1.0,
        "noise_power_w": 1e-12,
        "eta": 0.4,
        "et_sets": ((1,), (1, 2)),
        "repeat_order": 1,
    },
]
SMALL_OPS = sum(len(workloads.analytic_ops(d)) for d in SMALL)
SWEEP = workloads.round_inputs("sim-sweep", 5, 0)[0]
SMALL_SWEEP = [a if a != str(workloads.SWEEP_SLOTS) else "20000" for a in SWEEP["argv"]]
SWEEP_POINTS = SWEEP["points"]


def failed_labels(rnd):
    return {label for label, _ in rnd.failures}


def test_clean_round_has_no_failures():
    rnd = worker.analytic_round(sw, SMALL, None)
    assert rnd.ops == SMALL_OPS
    assert rnd.failures == []
    assert len(rnd.point_ms) == SMALL_OPS


def test_perturbed_capacity_fails(monkeypatch):
    real = sw.nsnr_analysis

    def perturbed(scenario, j):
        a = real(scenario, j)
        if j != 2:
            return a
        caps = [c * (1.0 + 1e-4) for c in a.per_user_capacity]
        return type(a)(caps, a.per_user_harvest, a.policy_descriptor)

    monkeypatch.setattr(sw, "nsnr_analysis", perturbed)
    labels = failed_labels(worker.analytic_round(sw, SMALL, None))
    # the partition identity ties rr and every rank of both scenarios
    assert len(labels) == (1 + 3) + (1 + 2)
    assert all(" et " not in label for label in labels)


def test_nan_fails(monkeypatch):
    real = sw.rr_analysis

    def with_nan(scenario):
        a = real(scenario)
        caps = list(a.per_user_capacity)
        caps[0] = math.nan
        return type(a)(caps, a.per_user_harvest, a.policy_descriptor)

    monkeypatch.setattr(sw, "rr_analysis", with_nan)
    labels = failed_labels(worker.analytic_round(sw, SMALL, None))
    assert labels == {"s0 N=3 K=0 rr", "s1 N=2 K=6 rr"}


def test_convergence_error_fails(monkeypatch):
    def diverges(scenario, allowed):
        raise sw.ConvergenceError("quadrature did not converge")

    monkeypatch.setattr(sw, "et_analysis", diverges)
    rnd = worker.analytic_round(sw, SMALL, None)
    assert rnd.ops == SMALL_OPS
    assert len(failed_labels(rnd)) == 4
    assert all("ConvergenceError" in problem for _, problem in rnd.failures)


def test_cli_checks_catch_a_wrong_simulated_value(monkeypatch):
    monkeypatch.chdir(worker.ROOT)
    text = worker.run_cli(sw, SMALL_SWEEP)
    outcome = worker.check_cli_output(text, SWEEP_POINTS, 7, None)
    assert len(outcome) == 2 * (1 + 7 + 3)
    assert all(problems == [] for problems in outcome.values()), outcome
    lines = text.splitlines()
    target = next(i for i, ln in enumerate(lines) if ln.startswith("nsnr,j=3,4,") and "simulated" in ln)
    cells = lines[target].split(",")
    cells[5] = repr(float(cells[5]) * 1.5)
    lines[target] = ",".join(cells)
    outcome = worker.check_cli_output("\n".join(lines), SWEEP_POINTS, 7, None)
    bad = [key for key, problems in outcome.items() if problems]
    assert bad == [("nsnr", "j=3", "simulated")]


def test_sim_long_round_checks_against_the_analytic_reference(monkeypatch):
    monkeypatch.setattr(workloads, "LONG_SLOTS", 20_000)
    monkeypatch.chdir(worker.ROOT)
    runner = worker.Runner(sw, "sim-long", 1)
    tracer = spans.Tracer()
    tracer.install()
    try:
        rnd = runner.round(0, tracer)
    finally:
        tracer.uninstall()
    assert rnd.ops == 1 + workloads.LONG_NSNR_RANKS
    assert rnd.failures == []
    # every point draws its own seed's gains once: sim.redraw_ratio is 1
    assert tracer.counters["gains_drawn"] == tracer.distinct_gains > 0
    command = workloads.round_inputs("sim-long", 1, 0)[1]
    scheme, param, kind = command["points"][0]
    caps, harvests = runner.reference[(scheme, param)]
    runner.reference[(scheme, param)] = ([c * 1.5 for c in caps], harvests)
    assert failed_labels(runner.round(0)) == {f"simulate {scheme} {param} {kind}"}


def test_cli_failure_counts_every_point(monkeypatch):
    monkeypatch.setattr(sw.cli, "main", lambda argv: 3)
    rnd = worker.cli_round(sw, [{**SWEEP, "argv": SMALL_SWEEP}], None, 7, None)
    assert rnd.ops == 22 and len(failed_labels(rnd)) == 22


def module_state():
    return {
        (m.__name__, name): id(value)
        for m in spans.package_modules()
        for name, value in vars(m).items()
    }


def test_wrappers_restore_every_attribute():
    before = module_state()
    original = sw.orderstats.ordered_pdf
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert sw.orderstats.ordered_pdf is not original
        # names bound by `from ... import` are wrapped too
        assert sw.analytic.ordered_pdf is sw.orderstats.ordered_pdf
        assert sw.sim.sample_gains is sw.channel.sample_gains
        assert sw.orderstats.normalized_cdf.__wrapped__ is not None
        changed = {k for k, v in module_state().items() if before.get(k) != v}
        assert ("swiptsched.sim", "sample_gains") in changed
        assert ("swiptsched", "nsnr_analysis") in changed
    finally:
        tracer.uninstall()
    assert module_state() == before


def test_traced_round_spans_and_self_time(tmp_path):
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.begin_round()
        rnd = worker.analytic_round(sw, SMALL, tracer)
        tracer.end_round()
    finally:
        tracer.uninstall()
    assert rnd.failures == []
    tracer.dump(tmp_path / "spans.jsonl")
    written = [json.loads(ln) for ln in (tmp_path / "spans.jsonl").read_text().splitlines()]
    assert len(written) == len(tracer.spans) > 0
    for i, span in enumerate(written):
        assert span["start"] <= span["end"] and span["parent"] < i and span["point"] is not None
        if span["parent"] >= 0:
            p = written[span["parent"]]
            assert p["start"] <= span["start"] and span["end"] <= p["end"]
    calls, incl, self_s, errors = tracer.layer("specfun.quad")
    assert calls > 0 and 0.0 < self_s <= incl and errors == 0
    assert tracer.integrand_evals[0] > 10 * calls
    # the exhaustive oracle runs in the checks, with the tracer paused
    assert tracer.layer("analytic.feasibility")[0] == 4


def test_same_seed_same_inputs():
    for workload in workloads.WORKLOADS:
        for r in (0, 3):
            assert workloads.round_inputs(workload, 7, r) == workloads.round_inputs(workload, 7, r)
        assert workloads.round_inputs(workload, 7, 0) != workloads.round_inputs(workload, 8, 0)
    code = (
        "import json, workloads; print(json.dumps("
        "[workloads.round_inputs(w, 7, 2) for w in workloads.WORKLOADS]))"
    )
    outs = [
        subprocess.run(
            [sys.executable, "-c", code], cwd=HERE, capture_output=True, text=True,
            env={"PYTHONHASHSEED": str(h)}, check=True,
        ).stdout
        for h in (1, 2)
    ]
    assert outs[0] == outs[1]
    assert json.loads(outs[0]) == json.loads(
        json.dumps([workloads.round_inputs(w, 7, 2) for w in workloads.WORKLOADS])
    )


def test_analytic_rounds_cover_the_stated_range():
    inputs = workloads.round_inputs("analytic-cold", 3, 0)
    lo, hi = workloads.SNR_LOG10_RANGE
    snrs = [
        math.log10(om * d["tx_power_w"] / d["noise_power_w"]) for d in inputs for om in d["omegas"]
    ]
    assert min(snrs) >= lo and max(snrs) <= hi + 1e-9
    assert max(snrs) - min(snrs) > 0.6 * (hi - lo)
    assert {d["k_factor"] for d in inputs} == {0.0, 0.5, 6.0, 300.0}
    assert max(d["n_users"] for d in inputs) >= 31


def test_parse_importtime_counts_outermost_scipy_once():
    stderr = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       10 |         10 |     scipy._lib",
            "import time:       20 |         30 |   scipy",
            "import time:        5 |          5 |     scipy.special._ufuncs",
            "import time:        7 |         12 |   scipy.special",
            "import time:        3 |         50 | swiptsched",
        ]
    )
    total, scipy_s = run.parse_importtime(stderr)
    assert total == pytest.approx(50e-6)
    assert scipy_s == pytest.approx(42e-6)


def test_times_are_scaled_by_the_reference_job(monkeypatch):
    slow = 2 * run.REF_S  # the host ran at half the reference speed
    raw = {
        "setup_s": 0.8,
        "setup_ref_s": slow,
        "probes": [{"setup_s": 0.6, "ref_s": run.REF_S}, {"setup_s": 1.2, "ref_s": slow}],
        "rounds": [
            {"wall_s": 4.0, "points": 8, "slots": 0, "point_ms": [500.0] * 8, "ref_s": slow},
            {"wall_s": 2.0, "points": 8, "slots": 0, "point_ms": [250.0] * 8, "ref_s": run.REF_S},
        ],
        "peak_rss_mb": 100.0,
    }
    monkeypatch.setattr(run, "worker", lambda *args: raw)
    _, metrics, notes = run.end_to_end(argparse.Namespace(seconds=1), None)
    assert metrics["setup_s"] == pytest.approx(0.6)
    assert metrics["wall_s"] == pytest.approx(2.0)
    assert metrics["points_per_s"] == pytest.approx(4.0)
    assert metrics["point_p50_ms"] == metrics["point_p90_ms"] == pytest.approx(250.0)
    assert notes["unscaled_wall_s"] == pytest.approx(3.0)
    assert 0.0 < worker.reference_s() < 10.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sim-long", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
