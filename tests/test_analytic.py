"""Scheduler analytics: capacities, harvest, ET probabilities, feasibility.

The Rayleigh closed forms are checked against the quadrature route and
against frozen 30-digit references; the feasibility fast path is checked
against the exhaustive enumeration.
"""

import math
import warnings

import numpy as np
import pytest

from swiptsched import analytic
from swiptsched.analytic import (
    AllowedOrderSet,
    CancellationWarning,
    ETSolution,
    et_analysis,
    et_feasibility,
    et_feasibility_exhaustive,
    et_harvest,
    et_probabilities,
    et_throughput,
    full_access_capacity,
    nsnr_analysis,
    nsnr_capacity,
    nsnr_harvest,
    rr_analysis,
)
from swiptsched.channel import FadingParams, Scenario

NOISE_W = 2.511886431509582e-13


def rayleigh_scenario(omegas=(1e-5, 2e-5, 3e-5, 4e-5), noise=NOISE_W):
    users = tuple(FadingParams(omega=om) for om in omegas)
    return Scenario(users=users, tx_power_w=1.0, noise_power_w=noise, eta=0.5)


def ricean_scenario(k=6.0, n=7):
    users = tuple(FadingParams(omega=i * 1e-5, k_factor=k) for i in range(1, n + 1))
    return Scenario(users=users, tx_power_w=1.0, noise_power_w=NOISE_W, eta=0.5)


def test_allowed_order_set_normalizes():
    s = AllowedOrderSet((3, 1, 3))
    assert s.orders == (1, 3)
    assert s.size == 2
    assert str(s) == "{1,3}"
    s.validate_for(3)
    with pytest.raises(ValueError):
        s.validate_for(2)
    with pytest.raises(ValueError):
        AllowedOrderSet(())
    with pytest.raises(ValueError):
        AllowedOrderSet((0, 1))


def test_full_access_capacity_rayleigh_unit_snr():
    # gbar = 1: capacity is e * E1(1) / ln 2
    sc = Scenario(
        users=(FadingParams(omega=1e-13),),
        tx_power_w=1.0,
        noise_power_w=1e-13,
        eta=0.5,
    )
    assert full_access_capacity(sc, 1) == pytest.approx(0.86034738227088595, rel=1e-13)


def test_full_access_capacity_ricean_reference():
    sc = Scenario(
        users=(FadingParams(omega=1e-6, k_factor=6.0),),
        tx_power_w=1.0,
        noise_power_w=1e-12,
        eta=0.5,
    )
    assert full_access_capacity(sc, 1) == pytest.approx(19.709698038102828, rel=1e-9)


def test_full_access_matches_single_user_order_route():
    # with one user the rank-1 capacity must equal the full-access value
    sc = Scenario(
        users=(FadingParams(omega=1e-5),), tx_power_w=1.0, noise_power_w=NOISE_W, eta=0.5
    )
    closed = full_access_capacity(sc, 1)
    quad = nsnr_capacity(sc, 1, 1, method="quadrature")
    assert closed == pytest.approx(quad, rel=1e-10)


def test_rr_analysis_shares_full_access():
    sc = rayleigh_scenario()
    rr = rr_analysis(sc)
    for u in range(1, 5):
        assert rr.per_user_capacity[u - 1] == pytest.approx(
            full_access_capacity(sc, u) / 4.0, rel=1e-14
        )
        want = 0.75 * 0.5 * 1.0 * sc.user(u).omega
        assert rr.per_user_harvest[u - 1] == pytest.approx(want, rel=1e-14)


def test_nsnr_capacity_reference_value():
    sc = Scenario(
        users=tuple(FadingParams(omega=1e-13) for _ in range(4)),
        tx_power_w=1.0,
        noise_power_w=1e-15,
        eta=0.5,
    )
    # gbar = 100, N = 4, j = 2
    assert nsnr_capacity(sc, 2, 1) == pytest.approx(1.3795355885466553, rel=1e-12)


def test_nsnr_closed_matches_quadrature():
    for gbar_scale in (1.0, 1e-6):
        sc = rayleigh_scenario(noise=NOISE_W / gbar_scale)
        for j in range(1, 5):
            for u in (1, 4):
                closed = nsnr_capacity(sc, j, u, method="closed")
                quad = nsnr_capacity(sc, j, u, method="quadrature")
                assert closed == pytest.approx(quad, rel=1e-10)


def test_nsnr_ricean_reference_values():
    sc = Scenario(
        users=tuple(FadingParams(omega=1e-6, k_factor=6.0) for _ in range(7)),
        tx_power_w=1.0,
        noise_power_w=1e-12,
        eta=0.5,
    )
    assert nsnr_capacity(sc, 7, 1) == pytest.approx(2.9585525750829710, rel=1e-9)
    assert nsnr_capacity(sc, 1, 1) == pytest.approx(2.6294185271686986, rel=1e-9)


def test_nsnr_capacity_monotone_in_j():
    for sc in (rayleigh_scenario(), ricean_scenario()):
        caps = [nsnr_capacity(sc, j, 2) for j in range(1, sc.n_users + 1)]
        assert all(a < b for a, b in zip(caps, caps[1:]))


def test_nsnr_capacity_argument_errors():
    sc = rayleigh_scenario()
    with pytest.raises(ValueError):
        nsnr_capacity(sc, 0, 1)
    with pytest.raises(ValueError):
        nsnr_capacity(sc, 5, 1)
    with pytest.raises(ValueError):
        nsnr_capacity(sc, 2, 1, method="fancy")
    with pytest.raises(ValueError):
        nsnr_capacity(ricean_scenario(), 2, 1, method="closed")


def test_cancellation_triggers_warning_and_fallback():
    users = tuple(FadingParams(omega=1e-5) for _ in range(60))
    sc = Scenario(users=users, tx_power_w=1.0, noise_power_w=NOISE_W, eta=0.5)
    with pytest.warns(CancellationWarning):
        auto = nsnr_capacity(sc, 30, 1)
    quad = nsnr_capacity(sc, 30, 1, method="quadrature")
    assert auto == pytest.approx(quad, rel=1e-12)
    with pytest.warns(CancellationWarning):
        forced = nsnr_capacity(sc, 30, 1, method="closed")
    # the forced closed value is the raw cancelled sum, reported as-is
    assert forced != pytest.approx(quad, rel=1e-3)


def test_nsnr_harvest_formula_and_monotonicity():
    sc = rayleigh_scenario()
    for u in (1, 3):
        omega = sc.user(u).omega
        for j in range(1, 5):
            harm = math.fsum(1.0 / l for l in range(4 - j + 1, 5))
            want = 0.5 * 1.0 * omega * (1.0 - harm / 4.0)
            assert nsnr_harvest(sc, j, u) == pytest.approx(want, rel=1e-13)
        harv = [nsnr_harvest(sc, j, u) for j in range(1, 5)]
        assert all(a > b for a, b in zip(harv, harv[1:]))


def test_nsnr_analysis_bundles_users():
    sc = rayleigh_scenario()
    a = nsnr_analysis(sc, 3)
    assert len(a.per_user_capacity) == 4
    assert len(a.per_user_harvest) == 4
    assert a.per_user_capacity[1] == pytest.approx(nsnr_capacity(sc, 3, 2), rel=1e-15)
    assert a.per_user_harvest[3] == pytest.approx(nsnr_harvest(sc, 3, 4), rel=1e-15)


def test_et_probabilities_sum_to_one_and_order():
    sc = rayleigh_scenario()
    p = et_probabilities(sc, AllowedOrderSet((3, 4)))
    assert math.fsum(p) == pytest.approx(1.0, abs=1e-14)
    # weaker mean channels need more scheduling slots for equal throughput
    assert p[0] > p[1] > p[2] > p[3]


def test_et_probability_reference_vectors():
    # ten and eleven orders of magnitude of gain spread between the strong
    # and weak pairs; reference probabilities are known to four decimals
    strong_weak = rayleigh_scenario(omegas=(1.0, 1.0, 1e-10, 1e-10), noise=2.3255813953488373e-13)
    p = et_probabilities(strong_weak, AllowedOrderSet((3, 4)))
    for got, want in zip(p, (0.0884, 0.0884, 0.4116, 0.4116)):
        assert got == pytest.approx(want, abs=1e-4)

    weaker = rayleigh_scenario(omegas=(1.0, 1.0, 1e-11, 1e-11), noise=2.3255813953488373e-13)
    p2 = et_probabilities(weaker, AllowedOrderSet((3, 4)))
    for got, want in zip(p2, (0.0603, 0.0603, 0.4397, 0.4397)):
        assert got == pytest.approx(want, abs=1e-4)


def test_et_throughput_consistent_with_probabilities():
    # r = p_n N S_n / |S_a| must hold for every user simultaneously
    sc = rayleigh_scenario()
    allowed = AllowedOrderSet((2, 3))
    p = et_probabilities(sc, allowed)
    r = et_throughput(sc, allowed)
    for u in range(1, 5):
        s_n = math.fsum(nsnr_capacity(sc, j, u) for j in allowed.orders)
        assert r == pytest.approx(p[u - 1] * 4 * s_n / allowed.size, rel=1e-12)


def test_et_harvest_matches_formula():
    sc = rayleigh_scenario()
    allowed = AllowedOrderSet((1, 2))
    p = et_probabilities(sc, allowed)
    expected_sum = math.fsum(
        math.fsum(1.0 / l for l in range(4 - j + 1, 5)) for j in (1, 2)
    )
    for u in (1, 4):
        want = 0.5 * sc.user(u).omega * (1.0 - p[u - 1] / 2.0 * expected_sum)
        assert et_harvest(sc, allowed, p, u) == pytest.approx(want, rel=1e-13)


def test_full_allowed_set_always_feasible():
    for omegas in ((1e-5, 2e-5, 3e-5, 4e-5), (1.0, 1.0, 1e-10, 1e-10), (1.0, 1e-7, 1e-9, 1e-12)):
        sc = rayleigh_scenario(omegas=omegas)
        _, sol = et_analysis(sc, AllowedOrderSet((1, 2, 3, 4)))
        assert sol.feasible, omegas


def test_feasibility_per_user_cap_violation():
    report = et_feasibility((0.6, 0.2, 0.1, 0.1), allowed_size=2, n_users=4)
    assert not report.feasible
    kinds = {(v.condition_id, v.subset) for v in report.violations}
    assert ("per_user", (1,)) in kinds
    assert all(v.condition_id == "per_user" for v in report.violations)


def test_feasibility_subset_sum_violation():
    report = et_feasibility((0.45, 0.45, 0.05, 0.05), allowed_size=2, n_users=4)
    assert not report.feasible
    v = next(v for v in report.violations if v.condition_id == "subset_sum")
    assert v.l_value == 2
    assert v.subset == (1, 2)
    assert v.lhs == pytest.approx(0.9, rel=1e-12)
    assert v.rhs == pytest.approx(5.0 / 6.0, rel=1e-12)
    assert report.min_violated_l() == 2


def test_feasibility_accepts_uniform():
    for n in (2, 4, 7):
        for s in range(1, n + 1):
            report = et_feasibility((1.0 / n,) * n, allowed_size=s, n_users=n)
            assert report.feasible


def test_feasibility_input_validation():
    with pytest.raises(ValueError):
        et_feasibility((0.5, 0.5), allowed_size=0, n_users=2)
    with pytest.raises(ValueError):
        et_feasibility((0.5, 0.4), allowed_size=1, n_users=2)
    with pytest.raises(ValueError):
        et_feasibility((0.5, 0.5, 0.5), allowed_size=1, n_users=2)
    with pytest.raises(ValueError):
        et_feasibility((1.2, -0.2), allowed_size=1, n_users=2)
    with pytest.raises(ValueError):
        et_feasibility_exhaustive((1.0 / 21,) * 21, allowed_size=2, n_users=21)


def test_fast_feasibility_matches_exhaustive_on_random_vectors():
    rng = np.random.default_rng(99)
    agree_feasible = agree_infeasible = 0
    for _ in range(150):
        n = int(rng.integers(2, 9))
        s = int(rng.integers(1, n + 1))
        alpha = 10.0 ** rng.uniform(-1.3, 0.8)
        p = tuple(rng.dirichlet([alpha] * n))
        fast = et_feasibility(p, allowed_size=s, n_users=n)
        full = et_feasibility_exhaustive(p, allowed_size=s, n_users=n)
        assert fast.feasible == full.feasible
        fast_ls = {v.l_value for v in fast.violations if v.l_value is not None}
        full_ls = {v.l_value for v in full.violations if v.l_value is not None}
        assert fast_ls == full_ls
        fast_users = {v.subset for v in fast.violations if v.condition_id == "per_user"}
        full_users = {v.subset for v in full.violations if v.condition_id == "per_user"}
        assert fast_users == full_users
        if fast.feasible:
            agree_feasible += 1
        else:
            agree_infeasible += 1
    # the draw spread must actually exercise both verdicts
    assert agree_feasible > 10 and agree_infeasible > 10


def test_et_solution_invariants():
    with pytest.raises(ValueError):
        ETSolution(1.0, (0.6, 0.6), True)
    with pytest.raises(ValueError):
        ETSolution(1.0, (0.5, 0.5), False)


def test_et_analysis_bundle():
    sc = rayleigh_scenario()
    allowed = AllowedOrderSet((1, 2))
    analysis, sol = et_analysis(sc, allowed)
    assert sol.feasible
    r = et_throughput(sc, allowed)
    assert analysis.per_user_capacity == (r,) * 4
    assert sol.equal_throughput_r == pytest.approx(r, rel=1e-15)
    assert analysis.per_user_harvest[2] == pytest.approx(
        et_harvest(sc, allowed, sol.probabilities, 3), rel=1e-15
    )


def test_et_analysis_reads_each_allowed_column_once(monkeypatch):
    sc = ricean_scenario()
    allowed = AllowedOrderSet((1, 2, 3))
    column = analytic._column
    ranks_read = []

    def counted(scenario, j, *args, **kwargs):
        ranks_read.append(j)
        return column(scenario, j, *args, **kwargs)

    monkeypatch.setattr(analytic, "_column", counted)
    _, sol = et_analysis(sc, allowed)
    assert sorted(ranks_read) == [1, 2, 3]
    # the shared sums give the public functions' values bit for bit
    assert sol.probabilities == et_probabilities(sc, allowed)
    assert sol.equal_throughput_r == et_throughput(sc, allowed)


def test_et_analysis_reports_infeasible_without_raising():
    sc = rayleigh_scenario(omegas=(1.0, 1.0, 1e-11, 1e-11), noise=2.3255813953488373e-13)
    analysis, sol = et_analysis(sc, AllowedOrderSet((3, 4)))
    assert not sol.feasible
    assert sol.violations
    assert any(v.l_value == 2 for v in sol.violations)
    assert len(analysis.per_user_harvest) == 4
