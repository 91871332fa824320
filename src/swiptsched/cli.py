"""Command-line front end: sweeps, feasibility reports, CSV output.

Subcommands: analyze (analytic rate-energy points), simulate (Monte Carlo
points), sweep (grids of policies, optionally in a worker pool), feasibility
(equal-throughput verdict with violated conditions), compare (analytic vs
simulated table with z-scores), linkbudget (log-distance mean-gain helper).

Exit codes: 0 success, 1 invalid configuration or usage, 2 feasibility
subcommand found the scenario infeasible, 3 numerical convergence failure.
"""

import argparse
import csv
import functools
import json
import math
import os
import re
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from . import __version__
from .analytic import AllowedOrderSet, et_analysis, nsnr_analysis, rr_analysis
from .config import ConfigError, link_budget_omega, parse_config
from .sim import OrderET, OrderNSNR, RoundRobin, SimConfig, run, run_policies
from .specfun import ConvergenceError

CONFIG_DIR_ENV = "SWIPTSCHED_CONFIG_DIR"
CSV_HEADER = [
    "scheme",
    "param",
    "user",
    "omega",
    "k_factor",
    "capacity_bps_hz",
    "harvest_w",
    "sched_prob",
    "cap_stderr",
    "harv_stderr",
    "feasible",
    "notes",
]
MODES = ("analytic", "simulate", "both")


def _allowed_within(allowed, n_users):
    try:
        allowed.validate_for(n_users)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return allowed


def parse_allowed(text, n_users=None):
    """Parse an order-set argument: a range like 1-2 or a list like 1,3,5.

    With n_users given, every order must also lie in 1..n_users.
    """
    text = text.strip()
    m = re.fullmatch(r"(\d+)\s*-\s*(\d+)", text)
    if m:
        lo, hi = int(m.group(1)), int(m.group(2))
        if lo > hi:
            raise ConfigError(f"empty order range {text!r}")
        orders = tuple(range(lo, hi + 1))
    else:
        try:
            orders = tuple(int(p) for p in text.split(",") if p.strip())
        except ValueError:
            raise ConfigError(f"cannot parse order set {text!r}") from None
    try:
        allowed = AllowedOrderSet(orders)
    except ValueError as exc:
        raise ConfigError(f"order set {text!r}: {exc}") from None
    return allowed if n_users is None else _allowed_within(allowed, n_users)


def _check_order(j, n_users):
    if not 1 <= j <= n_users:
        raise ConfigError(f"order {j} outside 1..{n_users}")
    return j


@dataclass(frozen=True)
class Scheme:
    """One scheduler as the CLI sees it.

    check validates a parameter for an N-user scenario, label renders the
    CSV param cell, policy builds the simulator policy and analysis returns
    (SchedulerAnalysis, ETSolution or None). option names the
    analyze/simulate/compare argument carrying the parameter and parse
    reads it; a sweep lists the parameters in the SweepSpec field
    sweep_field, called noun in messages (all None for a scheme without a
    parameter). may_be_infeasible marks a scheme whose simulated rows
    report the analytic verdict too.
    """

    check: object
    label: object
    policy: object
    analysis: object
    option: str = None
    parse: object = None
    sweep_field: str = None
    noun: str = None
    may_be_infeasible: bool = False


# the lambdas look the analyses up at call time, so a wrapper installed on
# a module attribute sees every call made through the table
SCHEMES = {
    "rr": Scheme(
        check=lambda _, n_users: None,
        label=lambda _: "",
        policy=lambda _: RoundRobin(),
        analysis=lambda scenario, _: (rr_analysis(scenario), None),
    ),
    "nsnr": Scheme(
        option="order",
        parse=int,
        check=_check_order,
        sweep_field="nsnr_orders",
        noun="orders",
        label=lambda j: f"j={j}",
        policy=lambda j: OrderNSNR(order_j=j),
        analysis=lambda scenario, j: (nsnr_analysis(scenario, j), None),
    ),
    "et": Scheme(
        option="allowed",
        parse=parse_allowed,
        check=_allowed_within,
        sweep_field="et_sets",
        noun="order sets",
        label=lambda allowed: f"Sa={allowed}",
        policy=lambda allowed: OrderET(allowed=allowed),
        analysis=lambda scenario, allowed: et_analysis(scenario, allowed),
        may_be_infeasible=True,
    ),
}


def _resolve_config_path(path):
    if os.path.exists(path):
        return path
    if not os.path.isabs(path):
        base = os.environ.get(CONFIG_DIR_ENV)
        if base:
            candidate = os.path.join(base, path)
            if os.path.exists(candidate):
                return candidate
    raise ConfigError(f"config file not found: {path}")


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def _violation_summary(solution):
    worst = min(
        (v for v in solution.violations if v.l_value is not None),
        key=lambda v: v.l_value,
        default=None,
    )
    head = f"infeasible: {len(solution.violations)} condition(s) violated"
    if worst is not None:
        head += f", min L={worst.l_value}"
    return head


def _point_rows(scenario, name, param, notes, feasible, **columns):
    # one CSV row per user; each column is a per-user sequence of values
    label = SCHEMES[name].label(param)
    rows = []
    for u, user in enumerate(scenario.users):
        row = dict.fromkeys(CSV_HEADER)
        row.update(scheme=name, param=label, user=u + 1, omega=user.omega)
        row.update(k_factor=user.k_factor, feasible=feasible, notes=notes)
        row.update((key, values[u]) for key, values in columns.items())
        rows.append(row)
    return rows


@dataclass(frozen=True)
class SweepSpec:
    """Grid of policies to evaluate: schemes, orders, sets, and the mode."""

    schemes: tuple
    nsnr_orders: tuple = ()
    et_sets: tuple = ()
    mode: str = "analytic"
    sim: SimConfig = None
    jobs: int = 1

    def __post_init__(self):
        if not self.schemes:
            raise ConfigError("sweep needs at least one scheme")
        for s in self.schemes:
            if s not in SCHEMES:
                raise ConfigError(f"unknown scheme {s!r}")
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.mode != "analytic" and self.sim is None:
            raise ConfigError(f"mode {self.mode} needs simulation settings")
        if self.jobs is not None and self.jobs < 0:
            raise ConfigError(f"jobs must be >= 0 (0 for all cores), got {self.jobs}")


def _sweep_points(scenario, spec):
    points = []
    for name in spec.schemes:
        scheme = SCHEMES[name]
        params = getattr(spec, scheme.sweep_field) if scheme.sweep_field else (None,)
        if not params:
            raise ConfigError(f"scheme {name} selected but no {scheme.noun} given")
        points.extend((name, scheme.check(p, scenario.n_users)) for p in params)
    return points


def _eval_sweep_point(scenario, mode, sim_config, point, result=None):
    # the analysis runs once: for the analytic rows, and for the verdict
    # the simulated rows of a scheme that may be infeasible carry; result,
    # when given, is the point's SimResult from a run shared with others
    name, param = point
    scheme = SCHEMES[name]
    rows = []
    feasible = True
    if mode != "simulate" or scheme.may_be_infeasible:
        analysis, solution = scheme.analysis(scenario, param)
        feasible = solution is None or solution.feasible
    if mode != "simulate" and not feasible:
        note = "analytic; " + _violation_summary(solution)
        rows += _point_rows(scenario, name, param, note, False)
    elif mode != "simulate":
        n = scenario.n_users
        rows += _point_rows(
            scenario,
            name,
            param,
            "analytic",
            True,
            capacity_bps_hz=analysis.per_user_capacity,
            harvest_w=analysis.per_user_harvest,
            sched_prob=solution.probabilities if solution else [1.0 / n] * n,
        )
    if mode != "analytic":
        if result is None:
            result = run(scenario, scheme.policy(param), sim_config)
        rows += _point_rows(
            scenario,
            name,
            param,
            "simulated",
            feasible,
            capacity_bps_hz=result.per_user_capacity_mean,
            harvest_w=result.per_user_harvest_mean,
            sched_prob=result.per_user_schedule_frequency,
            cap_stderr=result.per_user_capacity_stderr,
            harv_stderr=result.per_user_harvest_stderr,
        )
    return rows


def run_sweep(scenario, spec):
    """Evaluate every sweep point and return the CSV rows in stable order.

    Points are independent, so jobs > 1 dispatches them to a process pool
    (jobs 0 or None: one worker per core); the row order matches the point
    enumeration regardless of completion order, keeping output bytes
    identical across job counts. Every point simulates the same seed, so
    in process one run_policies call simulates all points on one chunked
    stream of the gains; pool workers simulate one point per task.
    """
    points = _sweep_points(scenario, spec)
    jobs = spec.jobs or os.cpu_count() or 1
    evaluate = functools.partial(_eval_sweep_point, scenario, spec.mode, spec.sim)
    if jobs > 1 and len(points) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            chunks = list(pool.map(evaluate, points))
    else:
        sims = [None] * len(points)
        if spec.mode != "analytic":
            sims = run_policies(scenario, [SCHEMES[s].policy(p) for s, p in points], spec.sim)
        chunks = list(map(evaluate, points, sims))
    return [row for chunk in chunks for row in chunk]


def _comment_lines(scenario, context):
    lines = [
        f"# swiptsched {__version__}",
        "# scenario: "
        + " ".join(
            [
                f"n_users={scenario.n_users}",
                f"tx_power_w={_fmt(scenario.tx_power_w)}",
                f"noise_power_w={_fmt(scenario.noise_power_w)}",
                f"eta={_fmt(scenario.eta)}",
            ]
        ),
        "# omega: " + ",".join(_fmt(u.omega) for u in scenario.users),
        "# k_factor: " + ",".join(_fmt(u.k_factor) for u in scenario.users),
    ]
    if context:
        lines.append(
            "# run: " + " ".join(f"{k}={v}" for k, v in sorted(context.items()))
        )
    return lines


def write_csv(stream, scenario, rows, context=None):
    """Write comment lines, the fixed header, and the data rows (LF, UTF-8)."""
    for line in _comment_lines(scenario, context or {}):
        stream.write(line + "\n")
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in rows:
        writer.writerow([_fmt(row[key]) for key in CSV_HEADER])


def _emit_rows(args, scenario, rows, sim):
    # the run comment records the mode, plus seed and length when simulated
    context = {"mode": args.mode}
    if sim is not None:
        context.update(seed=args.seed, slots=args.slots)
    if args.out and args.out != "-":
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            write_csv(fh, scenario, rows, context)
    else:
        write_csv(sys.stdout, scenario, rows, context)


def _policy_args(args, scenario):
    name = args.scheme
    scheme = SCHEMES[name]
    for other in SCHEMES.values():
        foreign = other.option not in (None, scheme.option)
        if foreign and getattr(args, other.option) is not None:
            raise ConfigError(f"scheme {name} does not take --{other.option}")
    if scheme.option is None:
        return name, None
    value = getattr(args, scheme.option)
    if value is None:
        raise ConfigError(f"scheme {name} needs --{scheme.option}")
    return name, scheme.check(scheme.parse(value), scenario.n_users)


def _sim_config_from(args):
    try:
        return SimConfig(n_slots=args.slots, seed=args.seed, warmup_slots=args.warmup)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _cmd_point(args):
    # analyze and simulate: one policy in one mode
    scenario = parse_config(_resolve_config_path(args.config))
    point = _policy_args(args, scenario)
    sim = _sim_config_from(args) if args.mode == "simulate" else None
    rows = _eval_sweep_point(scenario, args.mode, sim, point)
    _emit_rows(args, scenario, rows, sim)
    return 0


def _cmd_sweep(args):
    scenario = parse_config(_resolve_config_path(args.config))
    schemes = tuple(s.strip() for s in args.schemes.split(",") if s.strip())
    orders = tuple(parse_allowed(args.orders).orders) if args.orders else ()
    et_sets = tuple(parse_allowed(s) for s in args.set or ())
    sim = _sim_config_from(args) if args.mode != "analytic" else None
    spec = SweepSpec(
        schemes=schemes,
        nsnr_orders=orders,
        et_sets=et_sets,
        mode=args.mode,
        sim=sim,
        jobs=args.jobs,
    )
    _emit_rows(args, scenario, run_sweep(scenario, spec), sim)
    return 0


def _cmd_feasibility(args):
    scenario = parse_config(_resolve_config_path(args.config))
    allowed = parse_allowed(args.allowed, scenario.n_users)
    _, solution = et_analysis(scenario, allowed)
    print(f"allowed orders: {allowed}")
    for i, p in enumerate(solution.probabilities, start=1):
        print(f"p_{i} = {p:.9g}")
    print(f"equal throughput r = {solution.equal_throughput_r:.9g} bits/s/Hz")
    print(f"verdict: {'feasible' if solution.feasible else 'INFEASIBLE'}")
    for v in solution.violations:
        where = f"L={v.l_value} " if v.l_value is not None else ""
        users = ",".join(str(u) for u in v.subset)
        print(
            f"violated {v.condition_id}: {where}users={{{users}}} "
            f"lhs={v.lhs:.9g} > rhs={v.rhs:.9g}"
        )
    if args.json:
        payload = {
            "allowed_orders": list(allowed.orders),
            "probabilities": list(solution.probabilities),
            "equal_throughput_r": solution.equal_throughput_r,
            "feasible": solution.feasible,
            "violations": [
                {
                    "condition": v.condition_id,
                    "l": v.l_value,
                    "users": list(v.subset),
                    "lhs": v.lhs,
                    "rhs": v.rhs,
                }
                for v in solution.violations
            ],
        }
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    return 0 if solution.feasible else 2


def _cmd_compare(args):
    scenario = parse_config(_resolve_config_path(args.config))
    name, param = _policy_args(args, scenario)
    scheme = SCHEMES[name]
    result = run(scenario, scheme.policy(param), _sim_config_from(args))
    analysis, solution = scheme.analysis(scenario, param)

    print(f"scheme: {name} {scheme.label(param)}".rstrip())
    if solution is not None and not solution.feasible:
        analysis = None
        print(
            f"analytic side: {_violation_summary(solution)}; "
            "comparison limited to simulation"
        )
    header = f"{'user':>4} {'quantity':>9} {'analytic':>14} {'simulated':>14} {'stderr':>12} {'z':>8}"
    print(header)
    flagged = 0
    for u in range(1, scenario.n_users + 1):
        pairs = [
            (
                "capacity",
                None if analysis is None else analysis.per_user_capacity[u - 1],
                result.per_user_capacity_mean[u - 1],
                result.per_user_capacity_stderr[u - 1],
            ),
            (
                "harvest",
                None if analysis is None else analysis.per_user_harvest[u - 1],
                result.per_user_harvest_mean[u - 1],
                result.per_user_harvest_stderr[u - 1],
            ),
        ]
        for quantity, ana, simv, se in pairs:
            if ana is None:
                print(f"{u:>4} {quantity:>9} {'-':>14} {simv:>14.6g} {se:>12.3g} {'-':>8}")
                continue
            z = (simv - ana) / se if se > 0.0 else math.inf * (simv != ana)
            mark = ""
            if abs(z) > 4.0:
                mark = "  <-- |z| > 4"
                flagged += 1
            print(f"{u:>4} {quantity:>9} {ana:>14.6g} {simv:>14.6g} {se:>12.3g} {z:>8.2f}{mark}")
    if flagged:
        print(f"{flagged} value(s) beyond 4 standard errors")
    else:
        print("all values within 4 standard errors")
    return 0


def _cmd_linkbudget(args):
    print(f"{'distance_m':>10} {'omega':>14} {'path_gain_db':>13}")
    for d in args.distance:
        try:
            omega = link_budget_omega(
                args.frequency_hz,
                d,
                args.exponent,
                args.ref_loss_db,
                args.tx_gain_dbi,
                args.rx_gain_dbi,
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        print(f"{d:>10g} {omega:>14.9g} {10.0 * math.log10(omega):>13.6g}")
    return 0


class _Parser(argparse.ArgumentParser):
    # exit code 2 is reserved for the infeasibility verdict, so usage errors exit 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser():
    parser = _Parser(
        prog="swiptsched",
        description=(
            "Rate-energy analytics and Monte Carlo simulation of downlink "
            "SWIPT scheduling (round robin, order-based N-SNR, order-based "
            "equal throughput)."
        ),
    )
    parser.add_argument("--version", action="version", version=f"swiptsched {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config(p):
        p.add_argument(
            "--config",
            required=True,
            help=f"scenario file; bare names are also tried under ${CONFIG_DIR_ENV}",
        )

    def add_policy(p):
        p.add_argument("--scheme", required=True, choices=tuple(SCHEMES))
        p.add_argument("--order", type=int, help="rank j for scheme nsnr")
        p.add_argument(
            "--allowed", help="order set for scheme et, e.g. 1-2 or 1,3,5"
        )

    def add_sim(p, slots_default=100000):
        p.add_argument("--slots", type=int, default=slots_default)
        p.add_argument("--seed", type=int, default=12345)
        p.add_argument(
            "--warmup",
            type=int,
            default=None,
            help="slots excluded from equal-throughput averages (default 1%%)",
        )

    p = sub.add_parser("analyze", help="analytic rate-energy point for one policy")
    add_config(p)
    add_policy(p)
    p.add_argument("--out", default="-", help="CSV path, - for stdout")
    p.set_defaults(handler=_cmd_point, mode="analytic")

    p = sub.add_parser("simulate", help="Monte Carlo rate-energy point for one policy")
    add_config(p)
    add_policy(p)
    add_sim(p)
    p.add_argument("--out", default="-")
    p.set_defaults(handler=_cmd_point, mode="simulate")

    p = sub.add_parser("sweep", help="grid of policies to CSV")
    add_config(p)
    p.add_argument(
        "--schemes", required=True, help="comma list from " + ",".join(SCHEMES)
    )
    p.add_argument("--orders", help="nsnr ranks, e.g. 1-7 or 2,4")
    p.add_argument(
        "--set",
        action="append",
        help="et order set, repeatable, e.g. --set 1-2 --set 6-7",
    )
    p.add_argument("--mode", choices=MODES, default="analytic")
    add_sim(p)
    p.add_argument("--jobs", type=int, default=1, help="worker processes, 0 for all cores")
    p.add_argument("--out", default="-")
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("feasibility", help="equal-throughput feasibility report")
    add_config(p)
    p.add_argument("--allowed", required=True)
    p.add_argument("--json", help="also write a machine-readable report here")
    p.set_defaults(handler=_cmd_feasibility)

    p = sub.add_parser("compare", help="analytic vs simulated table with z-scores")
    add_config(p)
    add_policy(p)
    add_sim(p)
    p.set_defaults(handler=_cmd_compare)

    p = sub.add_parser("linkbudget", help="log-distance mean channel power gain")
    p.add_argument("--frequency-hz", type=float, required=True)
    p.add_argument("--exponent", type=float, required=True)
    p.add_argument("--distance", type=float, action="append", required=True)
    p.add_argument(
        "--ref-loss-db",
        type=float,
        default=None,
        help="path loss at 1 m; default is free space for the given frequency",
    )
    p.add_argument("--tx-gain-dbi", type=float, default=0.0)
    p.add_argument("--rx-gain-dbi", type=float, default=0.0)
    p.set_defaults(handler=_cmd_linkbudget)
    return parser


def main(argv=None):
    """Entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"swiptsched: error: {exc}", file=sys.stderr)
        return 1
    except ConvergenceError as exc:
        print(f"swiptsched: numerical convergence failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
