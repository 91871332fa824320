"""Slot-based Monte Carlo engine for the downlink scheduling policies.

Each slot draws one block-fading gain per user, schedules exactly one user
for information transfer, and credits every idle user with harvested
energy. Per-user capacity and harvest accumulate with standard errors;
equal-throughput runs also track the moving-average rates that drive the
scheduling rule.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .analytic import AllowedOrderSet
from .channel import sample_gains

_LN2 = math.log(2.0)


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
        if self.n_slots < 1:
            raise ValueError("n_slots must be at least 1")
        if self.warmup_slots is not None and not (
            0 <= self.warmup_slots < self.n_slots
        ):
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


def _et_selection(scenario, policy, gains, snr_scale):
    # the step_et rule over every slot, rating only the served user
    n = scenario.n_users
    t_total = gains.shape[0]
    policy.allowed.validate_for(n)
    omegas = np.array([u.omega for u in scenario.users])
    ranks = np.argsort(gains / omegas, axis=1, kind="stable")
    candidate_cols = [j - 1 for j in policy.allowed.orders]
    candidates = ranks[:, candidate_cols].tolist()
    throughputs = [float(policy.initial_throughput)] * n
    sel = np.empty(t_total, dtype=np.int64)
    beta_at = policy.beta.value_at
    for t in range(t_total):
        chosen = _pick_min_throughput(throughputs, candidates[t])
        rate = math.log1p(snr_scale * gains[t, chosen]) / _LN2
        _et_update(throughputs, chosen, beta_at(t + 1), rate)
        sel[t] = chosen
    return sel, tuple(throughputs)


def run(scenario, policy, config):
    """Simulate the scenario under the policy and accumulate statistics.

    One independent generator stream per user is derived by spawning the
    master seed, so results do not depend on user iteration order and are
    bit-identical across reruns with equal inputs.
    """
    n = scenario.n_users
    t_total = config.n_slots
    streams = [
        np.random.default_rng(child)
        for child in np.random.SeedSequence(config.seed).spawn(n)
    ]
    gains = np.empty((t_total, n))
    for i, params in enumerate(scenario.users):
        gains[:, i] = sample_gains(params, streams[i], t_total)
    snr_scale = scenario.tx_power_w / scenario.noise_power_w

    warmup = 0
    final_r = None
    if isinstance(policy, RoundRobin):
        sel = np.arange(t_total, dtype=np.int64) % n
        descriptor = "rr"
    elif isinstance(policy, OrderNSNR):
        if policy.order_j > n:
            raise ValueError(f"order_j {policy.order_j} exceeds the user count {n}")
        omegas = np.array([u.omega for u in scenario.users])
        sel = np.argsort(gains / omegas, axis=1, kind="stable")[:, policy.order_j - 1]
        descriptor = f"nsnr j={policy.order_j}"
    elif isinstance(policy, OrderET):
        sel, final_r = _et_selection(scenario, policy, gains, snr_scale)
        warmup = (
            config.warmup_slots
            if config.warmup_slots is not None
            else t_total // 100
        )
        descriptor = f"et Sa={policy.allowed} beta={policy.beta}"
    else:
        raise ValueError(f"unknown policy {policy!r}")

    counted = t_total - warmup
    sel_inc = sel[warmup:]
    h_sel = gains[np.arange(t_total), sel]
    cap_sel = np.log1p(snr_scale * h_sel) / _LN2

    cap_sum = np.bincount(sel_inc, weights=cap_sel[warmup:], minlength=n)
    cap_sumsq = np.bincount(sel_inc, weights=cap_sel[warmup:] ** 2, minlength=n)
    cap_mean = cap_sum / counted
    cap_var = np.maximum(cap_sumsq / counted - cap_mean**2, 0.0)
    cap_se = np.sqrt(cap_var / counted)

    harvest_scale = scenario.eta * scenario.tx_power_w
    h_inc = gains[warmup:]
    idle_sum = h_inc.sum(axis=0) - np.bincount(
        sel_inc, weights=h_sel[warmup:], minlength=n
    )
    idle_sumsq = np.einsum("ij,ij->j", h_inc, h_inc) - np.bincount(
        sel_inc, weights=h_sel[warmup:] ** 2, minlength=n
    )
    harv_mean = harvest_scale * idle_sum / counted
    harv_var = np.maximum(
        harvest_scale**2 * idle_sumsq / counted - harv_mean**2, 0.0
    )
    harv_se = np.sqrt(harv_var / counted)

    freq = np.bincount(sel_inc, minlength=n) / counted

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
