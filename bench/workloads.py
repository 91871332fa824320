"""Workload inputs as pure functions of (workload, seed, round).

Nothing here imports swiptsched: the generated inputs are plain numbers,
tuples and CLI argument lists, which the worker turns into library calls.
A run repeats rounds until its time is up; round r of a seed always gets
the same inputs, so two runs with one seed see identical inputs in the
rounds both reach.
"""

import random

WORKLOADS = ("analytic-cold", "sim-sweep", "sim-long")

CONFIG = "configs/indoor_ricean_n7.ini"
CONFIG_USERS = 7

# (n_users, k_factor) of the analytic-cold scenarios; the same strata every
# round so that seeds differ in continuous parameters only and the cost of a
# round stays comparable across seeds. K = 300 widens the Marcum Poisson
# window; N = 31 Rayleigh reaches the log-space branch of ordered_pdf and
# the cancellation fallback to quadrature. Rayleigh closed forms and cache
# hits cost microseconds; the strata keep them a minority of the points so
# the median latency sits inside the quadrature mode, not between modes.
ANALYTIC_STRATA = (
    (2, 300.0),
    (3, 0.5),
    (4, 6.0),
    (6, 0.5),
    (7, 6.0),
    (31, 0.0),
)
# stated input range of the average SNR, log10
SNR_LOG10_RANGE = (-3.0, 12.0)
MAX_SPREAD_DECADES = 3.0
TX_POWER_W = 1.0
NOISE_POWER_W = 1e-12

SWEEP_SLOTS = 200_000
LONG_SLOTS = 1_000_000
LONG_NSNR_RANKS = 3


def _rng(workload, seed, round_index):
    # str seeds go through sha512, so the stream is the same in every process
    return random.Random(f"{workload}:{int(seed)}:{int(round_index)}")


def _random_order_set(rng, n):
    size = rng.randint(1, n)
    return tuple(sorted(rng.sample(range(1, n + 1), size)))


def analytic_scenarios(seed, round_index):
    """Scenario descriptions of one analytic-cold round.

    Each is a dict with n_users, k_factor, omegas, tx_power_w,
    noise_power_w, eta, et_sets (two order sets) and repeat_order (1 or N,
    the ranks the demos ask for twice). The weakest user's mean SNR of
    stratum i falls in bin i of the stated range, cut into one bin per
    stratum, so every round covers the range at the same cost profile. The
    omega spread is capped so the strongest user stays inside the range.
    """
    rng = _rng("analytic-cold", seed, round_index)
    lo, hi = SNR_LOG10_RANGE
    bins = len(ANALYTIC_STRATA)
    width = (hi - lo) / bins
    out = []
    for i, (n, k) in enumerate(ANALYTIC_STRATA):
        snr_log = lo + width * (i + rng.random())
        spread = min(rng.uniform(0.0, MAX_SPREAD_DECADES), hi - snr_log)
        offsets = sorted([0.0, spread] + [rng.uniform(0.0, spread) for _ in range(n - 2)])
        omega_weak = 10.0**snr_log * NOISE_POWER_W / TX_POWER_W
        omegas = tuple(omega_weak * 10.0**d for d in offsets)
        set_a = _random_order_set(rng, n)
        set_b = _random_order_set(rng, n)
        while n > 1 and set_b == set_a:
            set_b = _random_order_set(rng, n)
        out.append(
            {
                "n_users": n,
                "k_factor": k,
                "omegas": omegas,
                "tx_power_w": TX_POWER_W,
                "noise_power_w": NOISE_POWER_W,
                "eta": round(rng.uniform(0.2, 0.9), 6),
                "et_sets": (set_a, set_b),
                "repeat_order": rng.choice((1, n)),
            }
        )
    return out


def analytic_ops(scenario):
    """The ordered analytic points of one scenario: rr, every rank, two ET
    sets, one repeated rank."""
    n = scenario["n_users"]
    ops = [("rr", None)]
    ops += [("nsnr", j) for j in range(1, n + 1)]
    ops += [("et", s) for s in scenario["et_sets"]]
    ops.append(("repeat", scenario["repeat_order"]))
    return ops


def _sim_seed(rng, used):
    while True:
        s = rng.randrange(1, 2**31)
        if s not in used:
            used.add(s)
            return s


SWEEP_SETS = ((1, 2), (3, 4), (6, 7))


def cli_commands(workload, seed, round_index):
    """The CLI commands of one round of a CLI workload.

    Each is a dict: argv (all the program receives), points (the
    (scheme, CSV param, kind) triples its CSV must hold, kind 'analytic' or
    'simulated') and slots (per simulated point).
    """
    rng = _rng(workload, seed, round_index)
    if workload == "sim-sweep":
        keys = [("rr", "")]
        keys += [("nsnr", f"j={j}") for j in range(1, CONFIG_USERS + 1)]
        keys += [("et", "Sa={" + ",".join(map(str, s)) + "}") for s in SWEEP_SETS]
        argv = ["sweep", "--config", CONFIG, "--schemes", "rr,nsnr,et",
                "--orders", f"1-{CONFIG_USERS}"]
        for s in SWEEP_SETS:
            argv += ["--set", f"{s[0]}-{s[-1]}"]
        argv += ["--mode", "both", "--jobs", "1",
                 "--slots", str(SWEEP_SLOTS), "--seed", str(_sim_seed(rng, set()))]
        points = [(s, p, kind) for s, p in keys for kind in ("analytic", "simulated")]
        return [{"argv": argv, "points": points, "slots": SWEEP_SLOTS}]
    if workload == "sim-long":
        used = set()
        points = [("rr", "", "simulated")] + [
            ("nsnr", f"j={j}", "simulated")
            for j in sorted(rng.sample(range(1, CONFIG_USERS + 1), LONG_NSNR_RANKS))
        ]
        commands = []
        for scheme, param, kind in points:
            argv = ["simulate", "--config", CONFIG, "--scheme", scheme]
            if scheme == "nsnr":
                argv += ["--order", param[len("j="):]]
            argv += ["--slots", str(LONG_SLOTS), "--seed", str(_sim_seed(rng, used))]
            commands.append({"argv": argv, "points": [(scheme, param, kind)], "slots": LONG_SLOTS})
        return commands
    raise ValueError(f"{workload!r} is not a CLI workload")


def round_inputs(workload, seed, round_index):
    """Everything one round needs, as plain data."""
    if workload == "analytic-cold":
        return analytic_scenarios(seed, round_index)
    if workload in ("sim-sweep", "sim-long"):
        return cli_commands(workload, seed, round_index)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def points_in(workload, inputs):
    """(analytic points, simulated points) of one round."""
    if workload == "analytic-cold":
        return sum(len(analytic_ops(s)) for s in inputs), 0
    kinds = [kind for c in inputs for _, _, kind in c["points"]]
    return kinds.count("analytic"), kinds.count("simulated")


def slots_in(workload, inputs):
    """Simulated slots of one round, summed over points."""
    if workload == "analytic-cold":
        return 0
    return sum(
        c["slots"] for c in inputs for _, _, kind in c["points"] if kind == "simulated"
    )
