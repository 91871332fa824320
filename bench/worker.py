"""The workload process: set up, run rounds of one workload, check every op.

Started by run.py. With --probe it stops after set-up and prints only the
monotonic time at which set-up ended; otherwise it runs rounds until they
have taken --seconds and prints one JSON line with the raw figures. An
untraced run starts one such probe after every round and waits for it, so
the set-up samples fall in the same phases of the host as the rounds. It
also times a fixed reference job after its set-up and after every round
and probe; run.py scales each time by the reference time around it.
checks and spans are imported inside functions, after set-up, so that
set-up time holds the program's imports and little of the harness's.

A round is the workload's fixed batch of calls (see workloads.py). Every
functools cache of the package is cleared before each round, so each round
is as cold as a fresh process apart from the imports. The figures of a
round are the wall times of its calls; cache clearing, scenario building
and the checks stay outside them.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PROBE_TIMEOUT_S = 30.0  # a probe takes about a second
# size of the reference job, 0.1–0.15 s on the machine the bounds were set on
REF_QUADS = 100
REF_LOOP = 600_000
REF_SORTS = 10
REF_DRAWS = 20_000  # small arrays: the job must not set the worker's peak RSS
SPANS = ROOT / "bench" / "spans.jsonl"  # spans of the last traced run, one JSON object a line
_perf = time.perf_counter


def monotonic():
    # CLOCK_MONOTONIC is one clock for every process of the machine
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def set_up(workload, seed):
    """Import the package and build or parse the first scenario."""
    sys.path.insert(0, str(SRC))
    import swiptsched

    if not Path(swiptsched.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"swiptsched came from {swiptsched.__file__}, not {SRC}")
    if workload == "analytic-cold":
        build_scenario(swiptsched, workloads.round_inputs(workload, seed, 0)[0])
    else:
        import swiptsched.cli  # noqa: F401  (what the console script loads)

        swiptsched.parse_config(str(ROOT / workloads.CONFIG))
    return swiptsched


def build_scenario(sw, desc):
    users = tuple(sw.FadingParams(omega=om, k_factor=desc["k_factor"]) for om in desc["omegas"])
    return sw.Scenario(
        users=users,
        tx_power_w=desc["tx_power_w"],
        noise_power_w=desc["noise_power_w"],
        eta=desc["eta"],
    )


def clear_caches():
    from spans import package_caches, package_modules

    for module in package_modules():
        for cache in package_caches(module):
            cache.cache_clear()


class Round:
    """What one round did: call latencies and op outcomes."""

    def __init__(self):
        self.wall_s = 0.0
        self.point_ms = []  # one latency per point; a call of k points adds k
        self.ops = 0
        self.failures = []  # (op label, problem)
        self.cancellations = 0

    def call(self, fn, *args):
        """Time one call into the program: (result, exception or None, seconds)."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            start = _perf()
            try:
                result, error = fn(*args), None
            except Exception as exc:  # every failure of the program is an op failure
                result, error = None, exc
            dt = _perf() - start
        self.wall_s += dt
        self.cancellations += sum(
            1 for w in caught if w.category.__name__ == "CancellationWarning"
        )
        return result, error, dt

    def record(self, label, problems):
        self.ops += 1
        self.failures += [(label, p) for p in problems]

    def latency(self, dt, points):
        self.point_ms += [1e3 * dt / points] * points


# -- analytic-cold ------------------------------------------------------------


def analytic_round(sw, inputs, tracer):
    """Drive the library API over the round's scenarios, as the demos do."""
    from checks import check_analysis, check_et, check_partition

    rnd = Round()
    for s_index, desc in enumerate(inputs):
        scenario = build_scenario(sw, desc)
        n = scenario.n_users
        ranks, rr, labels = {}, None, {}
        for kind, param in workloads.analytic_ops(desc):
            label = f"s{s_index} N={n} K={desc['k_factor']:g} {kind} {param or ''}".rstrip()
            if tracer is not None:
                tracer.point = label
            if kind == "rr":
                res, err, dt = rnd.call(sw.rr_analysis, scenario)
            elif kind in ("nsnr", "repeat"):
                res, err, dt = rnd.call(sw.nsnr_analysis, scenario, param)
            else:
                allowed = sw.AllowedOrderSet(param)
                res, err, dt = rnd.call(sw.et_analysis, scenario, allowed)
            rnd.latency(dt, 1)
            paused(tracer)
            if err is not None:
                problems = [f"{type(err).__name__}: {err}"]
            elif kind == "et":
                analysis, solution = res
                problems = check_et(
                    analysis, solution, allowed.size, n, sw.et_feasibility_exhaustive
                )
            else:
                problems = check_analysis(res, n)
            if not problems and kind == "repeat":
                first = ranks.get(param)
                if first is None or first.per_user_capacity != res.per_user_capacity or (
                    first.per_user_harvest != res.per_user_harvest
                ):
                    problems = ["repeated rank differs from its first computation"]
            if not problems and kind == "rr":
                rr = res
            if not problems and kind == "nsnr":
                ranks[param] = res
            labels[(kind, param)] = label
            rnd.record(label, problems)
            resumed(tracer)
        if rr is not None and len(ranks) == n:
            problems = check_partition(
                [ranks[j].per_user_capacity for j in range(1, n + 1)], rr.per_user_capacity
            )
            if problems:
                # the identity ties rr to every rank: all of them fail
                for key in [("rr", None)] + [("nsnr", j) for j in range(1, n + 1)]:
                    rnd.failures.append((labels[key], "partition: " + problems[0]))
    if tracer is not None:
        tracer.point = None
    return rnd


def paused(tracer):
    if tracer is not None:
        tracer.active = False


def resumed(tracer):
    if tracer is not None:
        tracer.active = True


# -- CLI workloads -------------------------------------------------------------


def run_cli(sw, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = sw.cli.main(list(argv))
        except SystemExit as exc:  # argparse exits on usage errors
            code = exc.code
    if code != 0:
        raise RuntimeError(f"exit code {code}")
    return out.getvalue()


def check_cli_output(text, expected, n, reference):
    """{(scheme, param, kind): problems} for every expected point.

    reference maps (scheme, param) to analytic (capacities, harvests) for
    commands without analytic rows of their own.
    """
    from checks import (
        check_analytic_rows,
        check_partition,
        check_simulated_rows,
        group_points,
        parse_csv,
    )

    try:
        points = group_points(parse_csv(text))
    except (ValueError, KeyError) as exc:
        return {key: [f"CSV does not parse: {exc}"] for key in expected}
    result = {}
    analytic = {}
    for scheme, param, kind in expected:
        rows = points.get((scheme, param, kind))
        if rows is None:
            result[(scheme, param, kind)] = ["point missing from the CSV"]
            continue
        if kind == "analytic":
            problems = check_analytic_rows(rows, n)
            if not problems and rows[0]["feasible"] != "false":
                analytic[(scheme, param)] = (
                    [float(r["capacity_bps_hz"]) for r in rows],
                    [float(r["harvest_w"]) for r in rows],
                )
            result[(scheme, param, kind)] = problems
            continue
        a_rows = points.get((scheme, param, "analytic"))
        if a_rows is None:
            ref = (reference or {}).get((scheme, param))
        elif a_rows[0]["feasible"] != rows[0]["feasible"]:
            result[(scheme, param, kind)] = ["feasibility flag differs from analytic row"]
            continue
        else:
            ref = analytic.get((scheme, param))
        result[(scheme, param, kind)] = check_simulated_rows(
            rows, n, None if ref is None else ref[0], None if ref is None else ref[1],
            et=scheme == "et",
        )
    rank_keys = [k for k in analytic if k[0] == "nsnr"]
    if ("rr", "") in analytic and len(rank_keys) == n:
        problems = check_partition(
            [analytic[("nsnr", f"j={j}")][0] for j in range(1, n + 1)], analytic[("rr", "")][0]
        )
        if problems:
            for key in [("rr", "")] + rank_keys:
                result[key + ("analytic",)].append("partition: " + problems[0])
    return result


def cli_round(sw, inputs, tracer, n, reference):
    rnd = Round()
    for command in inputs:
        argv, expected = command["argv"], command["points"]
        if tracer is not None:
            tracer.point = " ".join(argv)
        text, err, dt = rnd.call(run_cli, sw, argv)
        rnd.latency(dt, len(expected))
        paused(tracer)
        if err is not None:
            outcome = {key: [f"{type(err).__name__}: {err}"] for key in expected}
        else:
            outcome = check_cli_output(text, expected, n, reference)
        for key, problems in outcome.items():
            rnd.record(" ".join(argv[:1] + list(key)), problems)
        resumed(tracer)
    if tracer is not None:
        tracer.point = None
    return rnd


# -- runs ----------------------------------------------------------------------


class Runner:
    def __init__(self, sw, workload, seed):
        self.sw = sw
        self.workload = workload
        self.seed = seed
        self.reference = None
        self.n = None
        if workload != "analytic-cold":
            scenario = sw.parse_config(str(ROOT / workloads.CONFIG))
            self.n = scenario.n_users
            if workload == "sim-long":
                # simulate commands print no analytic rows; compare against these
                self.reference = {("rr", ""): _values(sw.rr_analysis(scenario))}
                for j in range(1, self.n + 1):
                    self.reference[("nsnr", f"j={j}")] = _values(sw.nsnr_analysis(scenario, j))

    def round(self, index, tracer=None):
        inputs = workloads.round_inputs(self.workload, self.seed, index)
        clear_caches()
        if tracer is not None:
            tracer.begin_round()
        try:
            if self.workload == "analytic-cold":
                rnd = analytic_round(self.sw, inputs, tracer)
            else:
                rnd = cli_round(self.sw, inputs, tracer, self.n, self.reference)
        finally:
            if tracer is not None:
                tracer.end_round()
        rnd.points = workloads.points_in(self.workload, inputs)
        rnd.slots = workloads.slots_in(self.workload, inputs)
        return rnd


def _values(analysis):
    return list(analysis.per_user_capacity), list(analysis.per_user_harvest)


def _outcome(rounds):
    failures = [f for r in rounds for f in r.failures]
    return {
        "attempted": sum(r.ops for r in rounds),
        "failed": sum(len({label for label, _ in r.failures}) for r in rounds),
        "failures": [f"{label}: {problem}" for label, problem in failures[:20]],
    }


def probe_setup(workload, seed):
    """Seconds from launching a fresh interpreter to the end of its set-up."""
    argv = [sys.executable, str(Path(__file__).resolve()),
            "--workload", workload, "--seed", str(seed), "--probe"]
    launched = monotonic()
    proc = subprocess.run(
        argv, cwd=ROOT, capture_output=True, text=True, check=True, timeout=PROBE_TIMEOUT_S
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["ready"] - launched


def reference_s():
    """Seconds of a fixed reference job that calls nothing of the program.

    It does the three kinds of work the workloads do: QUADPACK over a Python
    integrand with a scipy.special call in it, a pure-Python loop, and a
    numpy draw and argsort. The speed of this shared host changes in phases
    of seconds to minutes, by up to ~2x; run.py scales every time it reports
    by the reference time measured around it, so a run reads the program's
    speed rather than the phase the host was in.
    """
    import math

    import numpy as np
    from scipy import integrate, special

    start = _perf()
    for k in range(1, REF_QUADS + 1):
        integrate.quad(
            lambda x: math.log2(1.0 + k * x) * math.exp(-x) * special.i0e(2.0 * math.sqrt(x)),
            0.0, math.inf, limit=200,
        )
    acc = 0
    for i in range(REF_LOOP):
        acc += i * i % 7
    rng = np.random.default_rng(acc)
    for _ in range(REF_SORTS):
        np.argsort(rng.exponential(size=(7, REF_DRAWS)), axis=0)
    return _perf() - start


def untraced_run(runner, seconds):
    """Rounds until they have taken --seconds, a set-up probe after each,
    and the reference job before and after every round and probe."""
    done, rounds, probes = [], [], []
    busy = 0.0
    ref = setup_ref = reference_s()
    while not rounds or busy < seconds:
        start = _perf()
        rnd = runner.round(len(rounds))
        busy += _perf() - start
        after = reference_s()
        done.append(rnd)
        rounds.append({
            "wall_s": rnd.wall_s,
            "points": sum(rnd.points),
            "slots": rnd.slots,
            "point_ms": rnd.point_ms,
            "ref_s": (ref + after) / 2,
        })
        setup_s = probe_setup(runner.workload, runner.seed)
        ref = reference_s()
        probes.append({"setup_s": setup_s, "ref_s": (after + ref) / 2})
    return {"setup_ref_s": setup_ref, "probes": probes, "rounds": rounds, **_outcome(done)}


def traced_run(runner, seconds):
    """One tracemalloc round (sim workloads), then pairs of an untraced and a
    traced round on the same inputs until the time is up. The spans of every
    traced round are written to SPANS at the end."""
    from spans import Tracer, cache_counts

    peak_mb = 0.0
    rounds = []
    if runner.workload != "analytic-cold":
        tracemalloc.start()
        try:
            rounds.append(runner.round(0))
            peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
    tracer = Tracer()
    caches = {"swiptsched.analytic": [0, 0], "swiptsched.orderstats": [0, 0]}
    plain, traced = [], []
    start = _perf()
    index = 0
    while not traced or _perf() - start < seconds:
        plain.append(runner.round(index))
        tracer.install()
        try:
            traced.append(runner.round(index, tracer))
        finally:
            tracer.uninstall()
        for name, acc in caches.items():
            hits, misses = cache_counts(name)
            acc[0] += hits
            acc[1] += misses
        index += 1
    tracer.dump(SPANS)
    rounds += plain + traced
    return {
        "layers": layer_metrics(tracer, traced, caches, peak_mb),
        "plain_wall_s": [r.wall_s for r in plain],
        "traced_wall_s": [r.wall_s for r in traced],
        **_outcome(rounds),
    }


def layer_metrics(tracer, rounds, caches, peak_mb):
    """Per-layer figures, per round where they are counts or seconds."""
    k = len(rounds)
    analytic_points = sum(r.points[0] for r in rounds)

    def calls(layer):
        return tracer.layer(layer)[0] / k

    def incl(layer):
        return tracer.layer(layer)[1] / k

    def self_s(layer):
        return tracer.layer(layer)[2] / k

    def ratio(a, b):
        return a / b if b else 0.0

    def ns_per_slot(kind):
        self_total, slots = tracer.by_policy.get(kind, (0.0, 0))
        return ratio(1e9 * self_total, slots)

    drawn = tracer.counters.get("gains_drawn", 0)
    sample = tracer.layer("channel.sample")
    return {
        "specfun.quad_calls": calls("specfun.quad"),
        "specfun.quad_self_s": self_s("specfun.quad"),
        "specfun.quad_errors": tracer.layer("specfun.quad")[3] / k,
        "specfun.marcum_calls": calls("specfun.marcum"),
        "specfun.marcum_s": incl("specfun.marcum"),
        "specfun.e1_calls": calls("specfun.e1"),
        "channel.cdf_calls": calls("channel.cdf"),
        "channel.cdf_s": incl("channel.cdf"),
        "channel.pdf_calls": calls("channel.pdf"),
        "channel.pdf_s": incl("channel.pdf"),
        "channel.sample_s": incl("channel.sample"),
        "channel.gains_drawn": drawn / k,
        "channel.ns_per_gain": ratio(1e9 * sample[1], drawn),
        "orderstats.pdf_calls": calls("orderstats.pdf"),
        "orderstats.pdf_self_s": self_s("orderstats.pdf"),
        "orderstats.expect_calls": calls("orderstats.expect"),
        "orderstats.expect_s": incl("orderstats.expect"),
        "orderstats.expect_cache_hit_ratio": ratio(
            caches["swiptsched.orderstats"][0], sum(caches["swiptsched.orderstats"])
        ),
        "analytic.capacity_calls": calls("analytic.capacity"),
        "analytic.capacity_self_s": self_s("analytic.capacity"),
        "analytic.capacity_cache_hit_ratio": ratio(
            caches["swiptsched.analytic"][0], sum(caches["swiptsched.analytic"])
        ),
        "analytic.integrand_evals_per_point": ratio(tracer.integrand_evals[0], analytic_points),
        "analytic.cancellation_fallbacks": sum(r.cancellations for r in rounds) / k,
        "analytic.et_s": incl("analytic.et"),
        "analytic.feasibility_calls": calls("analytic.feasibility"),
        "analytic.feasibility_s": incl("analytic.feasibility"),
        "analytic.et_analysis_s": incl("analytic.et_analysis"),
        "sim.run_calls": calls("sim.run"),
        "sim.run_self_s": self_s("sim.run"),
        "sim.rr_ns_per_slot": ns_per_slot("rr"),
        "sim.nsnr_ns_per_slot": ns_per_slot("nsnr"),
        "sim.et_ns_per_slot": ns_per_slot("et"),
        "sim.redraw_ratio": ratio(drawn, tracer.distinct_gains),
        "sim.peak_traced_mb": peak_mb,
        "cli.parse_s": incl("cli.parse"),
        "cli.sweep_points": tracer.counters.get("sweep_points", 0) / k,
        "cli.emit_s": incl("cli.emit"),
        "cli.rows_out": tracer.counters.get("rows_out", 0) / k,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    sw = set_up(args.workload, args.seed)
    ready = monotonic()
    if args.probe:
        print(json.dumps({"ready": ready}))
        return 0
    runner = Runner(sw, args.workload, args.seed)
    if args.trace:
        out = traced_run(runner, args.seconds)
    else:
        out = untraced_run(runner, args.seconds)
    out["ready"] = ready
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
