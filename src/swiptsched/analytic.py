"""Per-user rate and energy analytics for the three scheduling policies.

Round robin, order-based N-SNR (schedule the user whose normalized gain has
a fixed ascending rank j), and order-based equal throughput (schedule the
minimum-moving-average user among the allowed ranks). Includes the ET
scheduling probabilities, the common throughput value, harvested-energy
accounting, and the combinatorial feasibility test with both a fast
sorted-prefix path and an exhaustive oracle.
"""

import itertools
import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .orderstats import (
    TABLE_QUADRATURE,
    OrderSpec,
    expected_ordered_gain,
    order_envelope,
    ordered_pdf,  # noqa: F401  (kept importable as swiptsched.analytic.ordered_pdf)
    ordered_pdfs,
)
from .specfun import exp_integral_e1_scaled, integrate_semi_infinite

_LN2 = math.log(2.0)

# absolute slack for the feasibility inequalities; sum p = 1 holds with
# equality in the L = N condition, so exact comparison would flip on rounding
_FEAS_SLACK = 1e-9

# a Rayleigh alternating sum whose partial sums peak above this multiple of
# the total has cancelled too far; accepted ratios from 1e3 up to it leave
# errors up to ~4e-10 against a 50-digit evaluation, below 1e3 ~3e-13
_CANCELLATION_LIMIT = 1e6


class CancellationWarning(RuntimeWarning):
    """Alternating-sum evaluation lost most of its significant digits."""


@dataclass(frozen=True)
class AllowedOrderSet:
    """Sorted set of ascending N-SNR ranks a scheduler may serve."""

    orders: tuple

    def __post_init__(self):
        orders = tuple(sorted(set(int(j) for j in self.orders)))
        object.__setattr__(self, "orders", orders)
        if not orders:
            raise ValueError("the allowed order set must be nonempty")
        if orders[0] < 1:
            raise ValueError("orders are 1-based and must be >= 1")

    @property
    def size(self):
        return len(self.orders)

    def validate_for(self, n_users):
        if self.orders[-1] > n_users:
            raise ValueError(
                f"allowed order {self.orders[-1]} exceeds the user count {n_users}"
            )

    def __str__(self):
        return "{" + ",".join(str(j) for j in self.orders) + "}"


@dataclass(frozen=True)
class FeasibilityViolation:
    """One violated feasibility inequality with its witness.

    condition_id is "per_user" for the p_n <= |S_a|/N cap and "subset_sum"
    for the combinatorial condition; l_value carries L for the latter.
    subset holds 1-based user indices.
    """

    condition_id: str
    subset: tuple
    lhs: float
    rhs: float
    l_value: int = None


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    violations: tuple

    def min_violated_l(self):
        ls = [v.l_value for v in self.violations if v.l_value is not None]
        return min(ls) if ls else None


@dataclass(frozen=True)
class ETSolution:
    """Equal-throughput operating point: common rate, probabilities, verdict."""

    equal_throughput_r: float
    probabilities: tuple
    feasible: bool
    violations: tuple = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "probabilities", tuple(self.probabilities))
        object.__setattr__(self, "violations", tuple(self.violations))
        total = math.fsum(self.probabilities)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities must sum to 1, got {total!r}")
        if self.feasible != (len(self.violations) == 0):
            raise ValueError("feasible flag must match the violation list")


@dataclass(frozen=True)
class SchedulerAnalysis:
    """Per-user ergodic capacity (bits/s/Hz) and mean harvested power (W)."""

    per_user_capacity: tuple
    per_user_harvest: tuple
    policy_descriptor: str

    def __post_init__(self):
        object.__setattr__(self, "per_user_capacity", tuple(self.per_user_capacity))
        object.__setattr__(self, "per_user_harvest", tuple(self.per_user_harvest))


@lru_cache(maxsize=None)
def _capacity_table(n, k, gbars):
    """Capacity rows of every distinct average SNR in gbars (ascending).

    Maps each gbar to (full-access capacity, C(1), ..., C(n)), where C(j)
    includes the 1/n probability of holding rank j. One vector quadrature
    computes the whole table on shared nodes; the full-access entry
    integrates the parent density itself, not the sum of the rank entries.
    """
    pdfs = ordered_pdfs(n, k)
    g = np.array(gbars)
    # each user's log factor is divided by log(1 + gbar), so every entry is
    # of order one and the tolerance on the largest holds for each
    scale = np.log1p(g)

    def integrand(x):
        return np.outer(np.log1p(g * x) / scale, pdfs(x)).ravel()

    # the log factor turns over at x ~ 1/gbar, far below the density scale
    # at high average SNR; a decade ladder of breakpoints from the strongest
    # user's knee up keeps the subdivision from stepping over any user's
    # knee (points beyond the truncated upper limit are dropped)
    knee = 1.0 / gbars[-1]
    ladder = tuple(knee * 10.0**e for e in range(31))
    values = integrate_semi_infinite(
        integrand,
        TABLE_QUADRATURE,
        envelope_cdf=order_envelope(n, k),
        interior_points=ladder,
    )
    weights = np.concatenate(([1.0], np.full(n, 1.0 / n)))
    table = values.reshape(len(gbars), n + 1) * np.outer(scale / _LN2, weights)
    return {gbar: tuple(row.tolist()) for gbar, row in zip(gbars, table)}


def _group_table(scenario, k):
    # the capacity table of the users with K factor k; ranks exist only when
    # every user shares it, otherwise the table is a one-user one, whose
    # single rank repeats the full access
    peers = [u for u in range(1, scenario.n_users + 1) if scenario.user(u).k_factor == k]
    n = scenario.n_users if len(peers) == scenario.n_users else 1
    return _capacity_table(n, k, tuple(sorted({scenario.avg_snr(u) for u in peers})))


def _column(scenario, j, users, method="auto"):
    # column j of the capacity table for the 1-based users: the full access
    # for j = 0, the rank-j capacity otherwise; Rayleigh users take the
    # closed forms unless method is "quadrature" or the sum cancels
    tables = {}
    values = []
    for u in users:
        k = scenario.user(u).k_factor
        gbar = scenario.avg_snr(u)
        value = None
        if method == "auto" and k == 0.0:
            if j == 0:
                value = exp_integral_e1_scaled(1.0 / gbar) / _LN2
            else:
                value = _nsnr_capacity_rayleigh(scenario.n_users, j, gbar)
        if value is None:
            if k not in tables:
                tables[k] = _group_table(scenario, k)
            value = tables[k][gbar][j]
        values.append(value)
    return values


def full_access_capacity(scenario, user_n):
    """Ergodic capacity the user would get with the channel to itself.

    Rayleigh has the closed form e^(1/gbar) E1(1/gbar) / ln 2, evaluated in
    scaled form so tiny and huge average SNRs both stay finite; Ricean
    reads the capacity table of the users sharing its K factor.
    """
    return _column(scenario, 0, (user_n,))[0]


def rr_analysis(scenario):
    """Round-robin operating point: 1/N time share, N-1 of N slots harvesting."""
    n = scenario.n_users
    caps = [c / n for c in _column(scenario, 0, range(1, n + 1))]
    harv = [
        (1.0 - 1.0 / n) * scenario.eta * scenario.tx_power_w * p.omega
        for p in scenario.users
    ]
    return SchedulerAnalysis(caps, harv, "rr")


def _rayleigh_order_capacity_closed(n, j, gbar):
    # alternating binomial sum over e^(c/gbar) E1(c/gbar) terms;
    # returns the capacity and the cancellation ratio peak|partial| / |sum|
    terms = []
    partial = 0.0
    peak = 0.0
    for l in range(j):
        c = n - j + l + 1
        t = (-1.0) ** l * math.comb(j - 1, l) / c * exp_integral_e1_scaled(c / gbar)
        terms.append(t)
        partial += t
        peak = max(peak, abs(partial))
    total = math.fsum(terms)
    ratio = peak / abs(total) if total != 0.0 else math.inf
    return math.comb(n - 1, j - 1) / _LN2 * total, ratio


def _cancelled(n, j, ratio, consequence=""):
    # warn, and say so, when the rank-j alternating sum cancelled too far
    if ratio <= _CANCELLATION_LIMIT:
        return False
    warnings.warn(
        f"alternating sum for n={n}, j={j} lost ~{math.log10(ratio):.0f} digits"
        + consequence,
        CancellationWarning,
        stacklevel=3,
    )
    return True


@lru_cache(maxsize=None)
def _nsnr_capacity_rayleigh(n, j, gbar):
    # the closed form, or None when its alternating sum cancels
    value, ratio = _rayleigh_order_capacity_closed(n, j, gbar)
    if _cancelled(n, j, ratio, "; falling back to quadrature"):
        return None
    return value


def _check_rank(scenario, j):
    # the shared K factor, once j is a valid rank of the scenario
    k = scenario.shared_k_factor()
    if not 1 <= j <= scenario.n_users:
        raise ValueError(f"order j must lie in 1..{scenario.n_users}, got {j}")
    return k


def nsnr_capacity(scenario, j, user_n, method="auto"):
    """Ergodic capacity of the user under rank-j scheduling.

    The value includes the 1/N probability of holding rank j. method picks
    the evaluation route: "auto" uses the Rayleigh closed form when
    k_factor is 0 (falling back to quadrature if the alternating sum
    cancels badly) and quadrature otherwise; "closed" forces the Rayleigh
    sum; "quadrature" forces numerical integration of the ordered density.
    The quadrature route reads one table per scenario, which integrates
    every (user, rank) entry at once.
    """
    k = _check_rank(scenario, j)
    if method not in ("auto", "closed", "quadrature"):
        raise ValueError(f"unknown method {method!r}")
    if method == "closed":
        if k != 0.0:
            raise ValueError("the closed form requires Rayleigh fading (k_factor 0)")
        n = scenario.n_users
        value, ratio = _rayleigh_order_capacity_closed(n, j, scenario.avg_snr(user_n))
        _cancelled(n, j, ratio)
        return value
    return _column(scenario, j, (user_n,), method)[0]


def nsnr_harvest(scenario, j, user_n):
    """Mean harvested power of the user under rank-j scheduling.

    eta P omega_n (1 - E[X_(j)] / N); the Rayleigh expectation is the
    harmonic partial sum, other K factors integrate the ordered density.
    """
    k = scenario.shared_k_factor()
    n = scenario.n_users
    params = scenario.user(user_n)
    expected = expected_ordered_gain(OrderSpec(n, j), k)
    return scenario.eta * scenario.tx_power_w * params.omega * (1.0 - expected / n)


def nsnr_analysis(scenario, j):
    """Full per-user rate-energy point for rank-j scheduling."""
    _check_rank(scenario, j)
    n = scenario.n_users
    caps = _column(scenario, j, range(1, n + 1))
    harv = [nsnr_harvest(scenario, j, u) for u in range(1, n + 1)]
    return SchedulerAnalysis(caps, harv, f"nsnr j={j}")


def _allowed_capacity_sums(scenario, allowed):
    # S_n = sum over allowed ranks of the rank-j ergodic capacities
    scenario.shared_k_factor()
    allowed.validate_for(scenario.n_users)
    users = range(1, scenario.n_users + 1)
    columns = [_column(scenario, j, users) for j in allowed.orders]
    return [math.fsum(caps) for caps in zip(*columns)]


def et_probabilities(scenario, allowed):
    """Scheduling probabilities that equalize every user's long-run rate.

    p_n is proportional to the reciprocal of the user's summed allowed-rank
    capacities, normalized to sum to 1.
    """
    sums = _allowed_capacity_sums(scenario, allowed)
    inv = [1.0 / s for s in sums]
    total = math.fsum(inv)
    return tuple(v / total for v in inv)


def et_throughput(scenario, allowed):
    """The common long-run rate r achieved when ET scheduling is feasible.

    Harmonic mean over users of the arithmetic mean over allowed ranks of
    the rank-j capacities.
    """
    sums = _allowed_capacity_sums(scenario, allowed)
    n = scenario.n_users
    return n / math.fsum(allowed.size / s for s in sums)


def et_harvest(scenario, allowed, probabilities, user_n):
    """Mean harvested power of the user at the ET operating point."""
    k = scenario.shared_k_factor()
    n = scenario.n_users
    params = scenario.user(user_n)
    expected_sum = math.fsum(
        expected_ordered_gain(OrderSpec(n, j), k) for j in allowed.orders
    )
    p_n = probabilities[user_n - 1]
    return (
        scenario.eta
        * scenario.tx_power_w
        * params.omega
        * (1.0 - p_n / allowed.size * expected_sum)
    )


def _per_user_cap_check(probabilities, allowed_size, n_users):
    # the validated probabilities and the violations of p_n <= |S_a|/N
    if not 1 <= allowed_size <= n_users:
        raise ValueError(f"allowed_size must lie in 1..{n_users}")
    p = [float(v) for v in probabilities]
    if len(p) != n_users:
        raise ValueError(f"expected {n_users} probabilities, got {len(p)}")
    if any(not math.isfinite(v) or v < -1e-12 for v in p):
        raise ValueError("probabilities must be finite and nonnegative")
    total = math.fsum(p)
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"probabilities must sum to 1, got {total!r}")
    cap = allowed_size / n_users
    violations = [
        FeasibilityViolation("per_user", (i + 1,), v, cap)
        for i, v in enumerate(p)
        if v > cap + _FEAS_SLACK
    ]
    return p, violations


def _subset_sum_rhs(n_users, allowed_size, l_value):
    return (
        math.comb(n_users - 1, allowed_size - 1) * l_value
        + math.comb(l_value, allowed_size) * (1 - allowed_size)
    ) / math.comb(n_users, allowed_size)


def et_feasibility(probabilities, allowed_size, n_users):
    """Fast feasibility test for an ET probability vector.

    Checks the per-user cap p_n <= |S_a|/N, then, for each subset size L
    from |S_a| to N, the sum of the L largest probabilities against the
    combinatorial bound. The prefix of the descending sort suffices
    because the bound depends only on L, making the maximal-sum subset the
    binding one (the exhaustive variant is the recorded oracle for this).
    """
    p, violations = _per_user_cap_check(probabilities, allowed_size, n_users)
    by_desc = sorted(range(n_users), key=lambda i: (-p[i], i))
    prefix = 0.0
    sums = []
    for i in by_desc:
        prefix += p[i]
        sums.append(prefix)
    for l_value in range(allowed_size, n_users + 1):
        lhs = sums[l_value - 1]
        rhs = _subset_sum_rhs(n_users, allowed_size, l_value)
        if lhs > rhs + _FEAS_SLACK:
            witness = tuple(sorted(i + 1 for i in by_desc[:l_value]))
            violations.append(
                FeasibilityViolation("subset_sum", witness, lhs, rhs, l_value)
            )
    return FeasibilityReport(not violations, tuple(violations))


def et_feasibility_exhaustive(probabilities, allowed_size, n_users):
    """Reference feasibility test enumerating every subset of every size L.

    Exponential in N and guarded to N <= 20; exists as the oracle for the
    sorted-prefix fast path, sharing only its input checks and per-user cap.
    """
    if n_users > 20:
        raise ValueError("exhaustive feasibility is guarded to n_users <= 20")
    p, violations = _per_user_cap_check(probabilities, allowed_size, n_users)
    for l_value in range(allowed_size, n_users + 1):
        rhs = _subset_sum_rhs(n_users, allowed_size, l_value)
        for combo in itertools.combinations(range(n_users), l_value):
            lhs = math.fsum(p[i] for i in combo)
            if lhs > rhs + _FEAS_SLACK:
                witness = tuple(i + 1 for i in combo)
                violations.append(
                    FeasibilityViolation("subset_sum", witness, lhs, rhs, l_value)
                )
    return FeasibilityReport(not violations, tuple(violations))


def et_analysis(scenario, allowed):
    """Full ET operating point plus its feasibility verdict.

    Returns (SchedulerAnalysis, ETSolution). An infeasible verdict does not
    raise: the solution still carries the required probabilities and every
    violated condition so sweeps can render the point as an annotated gap.
    The analysis values are the formula outputs, meaningful as an operating
    point only when the verdict is feasible.
    """
    p = et_probabilities(scenario, allowed)
    r = et_throughput(scenario, allowed)
    report = et_feasibility(p, allowed.size, scenario.n_users)
    solution = ETSolution(r, p, report.feasible, report.violations)
    n = scenario.n_users
    harv = [et_harvest(scenario, allowed, p, u) for u in range(1, n + 1)]
    analysis = SchedulerAnalysis([r] * n, harv, f"et Sa={allowed}")
    return analysis, solution
