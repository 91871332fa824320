"""Slot-based Monte Carlo engine for the downlink scheduling policies.

Each slot draws one block-fading gain per user, schedules exactly one user
for information transfer, and credits every idle user with harvested
energy. Per-user capacity and harvest accumulate with standard errors;
equal-throughput runs also track the moving-average rates that drive the
scheduling rule.
"""

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .analytic import AllowedOrderSet
from .channel import gain_streams, sample_gains

_LN2 = math.log(2.0)
# slots per chunk of the gain stream: a run holds O(_CHUNK x N) gains, ranks
# and temporaries whatever its slot count
_CHUNK = 1 << 13


@dataclass(frozen=True)
class VanishingStep:
    """Smoothing schedule beta_t = 1/t, which asymptotically vanishes."""

    def value_at(self, t):
        return 1.0 / t

    def __str__(self):
        return "1/t"


@dataclass(frozen=True)
class Constant:
    """Fixed smoothing factor in (0, 1)."""

    value: float

    def __post_init__(self):
        if not 0.0 < self.value < 1.0:
            raise ValueError("constant beta must lie strictly inside (0, 1)")

    def value_at(self, t):
        return self.value

    def __str__(self):
        return f"{self.value:g}"


@dataclass(frozen=True)
class RoundRobin:
    """Deterministic rotation: slot t serves user (t mod N) + 1."""


@dataclass(frozen=True)
class OrderNSNR:
    """Serve the user whose normalized gain holds ascending rank order_j."""

    order_j: int

    def __post_init__(self):
        if self.order_j < 1:
            raise ValueError("order_j is 1-based and must be >= 1")


@dataclass(frozen=True)
class OrderET:
    """Among users at allowed ranks, serve the minimum moving-average rate."""

    allowed: AllowedOrderSet
    beta: object = field(default_factory=VanishingStep)
    initial_throughput: float = 0.0

    def __post_init__(self):
        if not isinstance(self.allowed, AllowedOrderSet):
            object.__setattr__(self, "allowed", AllowedOrderSet(tuple(self.allowed)))
        if self.initial_throughput < 0.0:
            raise ValueError("initial_throughput must be >= 0")


@dataclass(frozen=True)
class SimConfig:
    """Run length, master seed, and the warmup excluded from ET averages.

    warmup_slots=None picks the default of 1% of n_slots; the warmup only
    applies to equal-throughput runs, whose early slots reflect the
    arbitrary initial moving averages rather than the steady state.
    """

    n_slots: int
    seed: int
    warmup_slots: int = None

    def __post_init__(self):
        ints = [self.n_slots, self.seed] + [self.warmup_slots] * (self.warmup_slots is not None)
        if any(isinstance(x, bool) or not isinstance(x, numbers.Integral) for x in ints):
            raise ValueError("n_slots, seed and warmup_slots must be integers")
        if self.n_slots < 1:
            raise ValueError("n_slots must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.warmup_slots is not None and not 0 <= self.warmup_slots < self.n_slots:
            raise ValueError("warmup_slots must satisfy 0 <= warmup < n_slots")


@dataclass(frozen=True)
class SimResult:
    """Per-user Monte Carlo estimates with standard errors.

    Capacity means are taken over all counted slots, with zeros in slots
    the user was not scheduled; harvest means likewise with zeros in the
    user's own scheduled slots. final_moving_throughput is None except for
    equal-throughput runs.
    """

    per_user_capacity_mean: tuple
    per_user_capacity_stderr: tuple
    per_user_harvest_mean: tuple
    per_user_harvest_stderr: tuple
    per_user_schedule_frequency: tuple
    final_moving_throughput: tuple
    policy_descriptor: str
    slots_counted: int


def _pick_min_throughput(throughputs, candidates):
    # strict minimum with ties to the lowest user index
    best = -1
    best_r = math.inf
    for idx in candidates:
        ri = throughputs[idx]
        if ri < best_r or (ri == best_r and 0 <= best and idx < best):
            best_r = ri
            best = idx
    return best


def _et_update(throughputs, chosen, beta, rate):
    # in place: r <- (1 - beta) r for every user, plus beta C for the served one
    keep = 1.0 - beta
    for i, r in enumerate(throughputs):
        throughputs[i] = keep * r
    throughputs[chosen] += beta * rate


def step_et(throughputs, ranks, allowed, beta_t, rates):
    """One slot of the equal-throughput rule.

    throughputs are the moving averages r_n(t-1); ranks maps ascending
    order slots to 1-based users (as rank_of_users returns); rates are the
    feasible per-user rates C_n(t) of this slot. Returns the scheduled
    1-based user and the updated moving averages: the scheduled user gets
    (1-beta) r + beta C, everyone else (1-beta) r.
    """
    if not isinstance(allowed, AllowedOrderSet):
        allowed = AllowedOrderSet(tuple(allowed))
    if not 0.0 < beta_t <= 1.0:
        raise ValueError("beta_t must lie in (0, 1]")
    candidates = [ranks[j - 1] - 1 for j in allowed.orders]
    chosen = _pick_min_throughput(throughputs, candidates)
    updated = list(throughputs)
    _et_update(updated, chosen, beta_t, rates[chosen])
    return chosen + 1, tuple(updated)


def _stream(scenario, config, ranked):
    # (t0, gains, ranks) per chunk of the seeded draw, t0 its first slot:
    # gains is m x N float64; ranks[k] lists the 0-based users by ascending
    # normalized gain (stable ties) in the smallest signed int dtype, or is
    # None when ranked is false; both are read-only
    n, t_total = scenario.n_users, config.n_slots
    streams = gain_streams(config.seed, n, t_total, _CHUNK)
    omegas = np.array([u.omega for u in scenario.users])
    for t0 in range(0, t_total, _CHUNK):
        m = min(_CHUNK, t_total - t0)
        gains = np.empty((m, n))
        for i, (params, (re, im)) in enumerate(zip(scenario.users, streams)):
            gains[:, i] = sample_gains(params, re, m, im)
        gains.flags.writeable = False
        ranks = None
        if ranked:
            ranks = np.argsort(gains / omegas, axis=1, kind="stable")
            ranks = ranks.astype(np.min_scalar_type(-n))
            ranks.flags.writeable = False
        yield t0, gains, ranks


def _selector(policy, n, snr_scale):
    # (descriptor, select, final): select(t0, gains, ranks) returns the
    # 0-based users served in a chunk and carries the policy's state to the
    # next; final() returns the ET moving averages, None for other policies
    if isinstance(policy, RoundRobin):
        return "rr", lambda t0, g, r: np.arange(t0, t0 + len(g)) % n, lambda: None
    if isinstance(policy, OrderNSNR):
        j = policy.order_j
        return f"nsnr j={j}", lambda t0, g, r: r[:, j - 1].astype(np.int64), lambda: None
    # the step_et rule slot by slot, rating only the served user
    throughputs = [float(policy.initial_throughput)] * n
    cols = [j - 1 for j in policy.allowed.orders]
    beta_at = policy.beta.value_at

    def select(t0, gains, ranks):
        sel = np.empty(len(gains), dtype=np.int64)
        for k, candidates in enumerate(ranks[:, cols].tolist()):
            chosen = _pick_min_throughput(throughputs, candidates)
            rate = math.log1p(snr_scale * gains[k, chosen]) / _LN2
            _et_update(throughputs, chosen, beta_at(t0 + k + 1), rate)
            sel[k] = chosen
        return sel

    descriptor = f"et Sa={policy.allowed} beta={policy.beta}"
    return descriptor, select, lambda: tuple(throughputs)


def _chunk_sums(sel, gains, snr_scale, n):
    # per-user sums of capacity, capacity^2, idle gain, idle gain^2, slots
    h_sel = gains[np.arange(len(sel)), sel]
    cap_sel = np.log1p(snr_scale * h_sel) / _LN2
    weights = (cap_sel, cap_sel**2, h_sel, h_sel**2, None)
    cap, cap_sq, h, h_sq, count = (np.bincount(sel, w, n) for w in weights)
    idle_sq = np.einsum("ij,ij->j", gains, gains) - h_sq
    return np.array([cap, cap_sq, gains.sum(axis=0) - h, idle_sq, count])


def _check_policy(policy, n):
    # every policy error surfaces before any gain is drawn
    if isinstance(policy, OrderNSNR):
        if policy.order_j > n:
            raise ValueError(f"order_j {policy.order_j} exceeds the user count {n}")
    elif isinstance(policy, OrderET):
        policy.allowed.validate_for(n)
    elif not isinstance(policy, RoundRobin):
        raise ValueError(f"unknown policy {policy!r}")


def run_policies(scenario, policies, config):
    """Simulate each policy on one seeded gain stream; one SimResult each.

    The stream is drawn _CHUNK slots at a time and every policy reads the
    same chunks (common random numbers); each policy's state and per-user
    sums carry across chunk seams. Memory is O(_CHUNK x N) whatever
    n_slots is, and each result equals the policy's own run.
    """
    n = scenario.n_users
    for policy in policies:
        _check_policy(policy, n)
    snr_scale = scenario.tx_power_w / scenario.noise_power_w
    et_warmup = config.n_slots // 100 if config.warmup_slots is None else config.warmup_slots
    warmups = [et_warmup if isinstance(p, OrderET) else 0 for p in policies]
    selectors = [_selector(p, n, snr_scale) for p in policies]
    sums = np.zeros((len(policies), 5, n))
    ranked = not all(isinstance(p, RoundRobin) for p in policies)
    for t0, gains, ranks in _stream(scenario, config, ranked):
        for (_, select, _), warmup, acc in zip(selectors, warmups, sums):
            sel = select(t0, gains, ranks)
            lo = max(warmup - t0, 0)
            if lo < len(sel):
                acc += _chunk_sums(sel[lo:], gains[lo:], snr_scale, n)
    return [
        _result(scenario, acc, config.n_slots - warmup, descriptor, final())
        for (descriptor, _, final), warmup, acc in zip(selectors, warmups, sums)
    ]


def run(scenario, policy, config):
    """Simulate the scenario under one policy: run_policies for a single policy.

    Results are bit-identical across reruns with equal inputs."""
    return run_policies(scenario, [policy], config)[0]


def _result(scenario, sums, counted, descriptor, final_r):
    cap_sum, cap_sumsq, idle_sum, idle_sumsq, count = sums
    cap_mean = cap_sum / counted
    cap_var = np.maximum(cap_sumsq / counted - cap_mean**2, 0.0)
    cap_se = np.sqrt(cap_var / counted)

    harvest_scale = scenario.eta * scenario.tx_power_w
    harv_mean = harvest_scale * idle_sum / counted
    harv_var = np.maximum(harvest_scale**2 * idle_sumsq / counted - harv_mean**2, 0.0)
    harv_se = np.sqrt(harv_var / counted)

    freq = count / counted

    return SimResult(
        per_user_capacity_mean=tuple(float(v) for v in cap_mean),
        per_user_capacity_stderr=tuple(float(v) for v in cap_se),
        per_user_harvest_mean=tuple(float(v) for v in harv_mean),
        per_user_harvest_stderr=tuple(float(v) for v in harv_se),
        per_user_schedule_frequency=tuple(float(v) for v in freq),
        final_moving_throughput=final_r,
        policy_descriptor=descriptor,
        slots_counted=counted,
    )


@dataclass(frozen=True)
class ConvergenceReport:
    """Equal-throughput convergence diagnostics for a finished run."""

    per_user_rate: tuple
    mean_rate: float
    spread: float
    expected_rate: float = None
    rel_gap: float = None


def convergence_report(result, expected_rate=None):
    """Measure how tightly the per-user rates collapsed onto one value.

    spread is max_n |C_n - mean| / mean over the per-user capacity means;
    when expected_rate (the analytic common rate) is given, rel_gap is the
    relative distance of the empirical mean from it. Only meaningful for
    equal-throughput runs; anything else is a usage error.
    """
    if result.final_moving_throughput is None:
        raise ValueError("convergence_report applies to equal-throughput runs only")
    rates = result.per_user_capacity_mean
    mean = math.fsum(rates) / len(rates)
    spread = max(abs(r - mean) for r in rates) / mean
    rel_gap = None
    if expected_rate is not None:
        rel_gap = abs(mean - expected_rate) / expected_rate
    return ConvergenceReport(rates, mean, spread, expected_rate, rel_gap)
