"""Per-op correctness checks that feed the failure count.

An op is one analytic or one simulated point. Each check returns a list of
problem strings; an empty list means the op passed. The checks read only
results and CSV text, never timing, and must hold for any seed.
"""

import csv
import io
import math

# sum over ranks of C_n(j) equals N * C_rr,n; the seed commit reaches 3e-11
PARTITION_REL_TOL = 1e-6
# exact in the library; ETSolution already rejects a sum further off
PROB_SUM_TOL = 1e-12
# CSV cells carry 9 significant digits, so sums of up to ~64 of them
CSV_SUM_TOL = 1e-7
# simulation vs analytics: max(1 %, Z se) (+2 % for ET, acceptance criterion
# 7's convergence gap). With P(|z| > 6) ~ 2e-9 and at most a few thousand
# comparisons in a run, a correct simulator fails a run with probability
# below 1e-5; a 3-se gate over the ~150 comparisons of one sweep would
# misfire on some seeds.
SIM_REL_FLOOR = 0.01
SIM_Z = 6.0
ET_CONVERGENCE_GAP = 0.02
# the exhaustive feasibility oracle is guarded to N <= 20 by the library
EXHAUSTIVE_MAX_USERS = 20


def _finite_seq(name, values, n):
    values = tuple(values)
    if len(values) != n:
        return [f"{name}: {len(values)} values for {n} users"]
    bad = [i + 1 for i, v in enumerate(values) if not math.isfinite(v)]
    return [f"{name}: non-finite for users {bad}"] if bad else []


def check_analysis(analysis, n):
    """A SchedulerAnalysis with N finite capacities and harvests."""
    return _finite_seq("capacity", analysis.per_user_capacity, n) + _finite_seq(
        "harvest", analysis.per_user_harvest, n
    )


def check_et(analysis, solution, allowed_size, n, exhaustive):
    """An ET point: finite values, probabilities summing to 1, and (N <= 20)
    the fast feasibility verdict equal to the exhaustive oracle's."""
    problems = check_analysis(analysis, n)
    problems += _finite_seq("probabilities", solution.probabilities, n)
    if not math.isfinite(solution.equal_throughput_r):
        problems.append("equal throughput is not finite")
    if problems:
        return problems
    total = math.fsum(solution.probabilities)
    if abs(total - 1.0) > PROB_SUM_TOL:
        problems.append(f"probabilities sum to {total!r}")
    if n <= EXHAUSTIVE_MAX_USERS:
        oracle = exhaustive(solution.probabilities, allowed_size, n)
        if oracle.feasible != solution.feasible:
            problems.append(
                f"fast verdict {solution.feasible} != exhaustive {oracle.feasible}"
            )
    return problems


def check_partition(rank_caps, rr_caps):
    """sum_j C_n(j) = N C_rr,n per user, within PARTITION_REL_TOL.

    rank_caps[j - 1] holds the per-user capacities of rank j.
    """
    n = len(rr_caps)
    problems = []
    for u in range(n):
        total = math.fsum(caps[u] for caps in rank_caps)
        ref = n * rr_caps[u]
        if not abs(total - ref) <= PARTITION_REL_TOL * abs(ref):
            problems.append(
                f"user {u + 1}: sum over ranks {total!r} vs N*C_rr {ref!r}"
            )
    return problems


def parse_csv(text):
    """Data rows of a swiptsched CSV as dicts; '#' lines are comments."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("CSV has no header")
    return list(csv.DictReader(io.StringIO("\n".join(lines))))


def _num(cell):
    return float(cell) if cell not in ("", None) else None


def group_points(rows):
    """{(scheme, param, kind): rows}, kind 'analytic' or 'simulated'."""
    points = {}
    for row in rows:
        kind = "simulated" if row["notes"].startswith("simulated") else "analytic"
        points.setdefault((row["scheme"], row["param"], kind), []).append(row)
    for group in points.values():
        group.sort(key=lambda r: int(r["user"]))
    return points


def check_analytic_rows(rows, n):
    """Analytic CSV rows of one point: N users; finite numbers where feasible;
    ET scheduling probabilities summing to 1."""
    if [int(r["user"]) for r in rows] != list(range(1, n + 1)):
        return [f"users {[r['user'] for r in rows]} != 1..{n}"]
    if rows[0]["feasible"] == "false":
        return []
    caps = [_num(r["capacity_bps_hz"]) for r in rows]
    harv = [_num(r["harvest_w"]) for r in rows]
    if None in caps or None in harv:
        return ["feasible point with empty values"]
    problems = _finite_seq("capacity", caps, n) + _finite_seq("harvest", harv, n)
    probs = [_num(r["sched_prob"]) for r in rows]
    if None in probs or abs(math.fsum(probs) - 1.0) > CSV_SUM_TOL:
        problems.append(f"scheduling probabilities {probs} do not sum to 1")
    return problems


def _within(sim, se, ref, extra):
    gate = max(SIM_REL_FLOOR * abs(ref), SIM_Z * se) + extra * abs(ref)
    return abs(sim - ref) <= gate


def check_simulated_rows(rows, n, ref_caps, ref_harv, et):
    """Simulated CSV rows of one point: frequencies sum to 1 and values
    match the analytic reference within the gate. ref_caps is None when the
    analytic point is infeasible; then only the simulation's own sums are
    checked."""
    if [int(r["user"]) for r in rows] != list(range(1, n + 1)):
        return [f"users {[r['user'] for r in rows]} != 1..{n}"]
    cols = ("capacity_bps_hz", "harvest_w", "sched_prob", "cap_stderr", "harv_stderr")
    values = {c: [_num(r[c]) for r in rows] for c in cols}
    if any(None in v for v in values.values()):
        return ["simulated point with empty values"]
    problems = []
    for c in cols:
        problems += _finite_seq(c, values[c], n)
    if problems:
        return problems
    freq = math.fsum(values["sched_prob"])
    if abs(freq - 1.0) > CSV_SUM_TOL:
        problems.append(f"schedule frequencies sum to {freq!r}")
    if ref_caps is None:
        return problems
    extra = ET_CONVERGENCE_GAP if et else 0.0
    for u in range(n):
        for name, sim, se, ref in (
            ("capacity", values["capacity_bps_hz"][u], values["cap_stderr"][u], ref_caps[u]),
            ("harvest", values["harvest_w"][u], values["harv_stderr"][u], ref_harv[u]),
        ):
            if not _within(sim, se, ref, extra):
                problems.append(
                    f"user {u + 1} {name}: simulated {sim!r} (se {se!r}) vs analytic {ref!r}"
                )
    return problems
