"""Monte Carlo engine checks: policies, accounting, and convergence.

Statistical comparisons use the run's own standard errors with wide (4 to
5 sigma) gates so they stay deterministic for the pinned seeds.
"""

import math

import numpy as np
import pytest

from swiptsched import sim
from swiptsched.analytic import (
    AllowedOrderSet,
    et_probabilities,
    et_throughput,
    nsnr_analysis,
    rr_analysis,
)
from swiptsched.channel import FadingParams, Scenario, sample_gains
from swiptsched.orderstats import rank_of_users
from swiptsched.sim import (
    Constant,
    Draw,
    OrderET,
    OrderNSNR,
    RoundRobin,
    SimConfig,
    VanishingStep,
    convergence_report,
    run,
    step_et,
)

NOISE_W = 2.511886431509582e-13


def scenario3():
    users = tuple(FadingParams(omega=n * 1e-5) for n in (1, 2, 4))
    return Scenario(users=users, tx_power_w=1.0, noise_power_w=NOISE_W, eta=0.5)


def within_sigma(got, want, stderr, n_sigma=4.0, rel_floor=0.02):
    return abs(got - want) <= max(n_sigma * stderr, rel_floor * abs(want))


def test_step_sizes():
    beta = VanishingStep()
    assert beta.value_at(1) == 1.0
    assert beta.value_at(4) == 0.25
    assert Constant(0.3).value_at(999) == 0.3
    with pytest.raises(ValueError):
        Constant(0.0)
    with pytest.raises(ValueError):
        Constant(1.5)


def test_policy_validation():
    with pytest.raises(ValueError):
        OrderNSNR(order_j=0)
    et = OrderET(allowed=(2, 1))
    assert isinstance(et.allowed, AllowedOrderSet)
    assert et.allowed.orders == (1, 2)


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(n_slots=0, seed=1)
    with pytest.raises(ValueError):
        SimConfig(n_slots=100, seed=1, warmup_slots=100)
    with pytest.raises(ValueError):
        SimConfig(n_slots=100, seed=1, warmup_slots=-1)


def test_step_et_hand_case():
    # user 2 has rank 3, user 1 rank 2, user 3 rank 1; allowed ranks {2,3}
    # make users 1 and 2 candidates, and user 2 holds the lower average
    throughputs = (5.0, 1.0, 3.0)
    ranks = (3, 1, 2)  # rank 1 held by user 3, rank 2 by user 1, rank 3 by user 2
    chosen, updated = step_et(throughputs, ranks, (2, 3), 0.5, (4.0, 2.0, 6.0))
    assert chosen == 2
    assert updated == pytest.approx((2.5, 1.5, 1.5))


def test_step_et_tie_goes_to_lowest_index():
    throughputs = (2.0, 2.0, 2.0)
    ranks = (1, 2, 3)
    chosen, _ = step_et(throughputs, ranks, (1, 2, 3), 0.5, (1.0, 1.0, 1.0))
    assert chosen == 1


def test_step_et_full_replacement_at_beta_one():
    chosen, updated = step_et((0.7, 0.9), (1, 2), (1, 2), 1.0, (3.0, 4.0))
    assert chosen == 1
    assert updated == pytest.approx((3.0, 0.0))


@pytest.mark.parametrize("beta", [VanishingStep(), Constant(0.01)], ids=str)
def test_run_applies_the_step_et_rule(beta):
    # step_et, driven slot by slot over the gains run() draws, must schedule
    # and average exactly as the simulator does
    users = tuple(FadingParams(omega=n * 1e-5, k_factor=6.0) for n in range(1, 8))
    sc = Scenario(users=users, tx_power_w=1.0, noise_power_w=NOISE_W, eta=0.5)
    allowed = AllowedOrderSet((1, 2))
    slots, seed = 2000, 21
    result = run(
        sc,
        OrderET(allowed=allowed, beta=beta),
        SimConfig(n_slots=slots, seed=seed, warmup_slots=0),
    )

    streams = np.random.SeedSequence(seed).spawn(sc.n_users)
    gains = np.column_stack(
        [sample_gains(u, np.random.default_rng(s), slots) for u, s in zip(users, streams)]
    )
    omegas = np.array([u.omega for u in users])
    snr_scale = sc.tx_power_w / sc.noise_power_w
    throughputs = (0.0,) * sc.n_users
    counts = [0] * sc.n_users
    for t in range(slots):
        rates = [math.log1p(snr_scale * g) / math.log(2.0) for g in gains[t]]
        ranks = rank_of_users(gains[t] / omegas)
        chosen, throughputs = step_et(throughputs, ranks, allowed, beta.value_at(t + 1), rates)
        counts[chosen - 1] += 1

    assert result.final_moving_throughput == throughputs
    assert [round(f * slots) for f in result.per_user_schedule_frequency] == counts


def test_step_et_rejects_bad_beta():
    with pytest.raises(ValueError):
        step_et((0.0,), (1,), (1,), 0.0, (1.0,))
    with pytest.raises(ValueError):
        step_et((0.0,), (1,), (1,), 1.1, (1.0,))


def test_round_robin_is_exactly_uniform():
    sc = scenario3()
    result = run(sc, RoundRobin(), SimConfig(n_slots=9999, seed=5))
    assert result.per_user_schedule_frequency == pytest.approx((1 / 3,) * 3, abs=1e-12)
    assert result.slots_counted == 9999
    assert result.final_moving_throughput is None


def test_seed_determinism_and_variation():
    sc = scenario3()
    cfg = SimConfig(n_slots=20_000, seed=123)
    a = run(sc, OrderNSNR(order_j=2), cfg)
    b = run(sc, OrderNSNR(order_j=2), cfg)
    assert a == b
    c = run(sc, OrderNSNR(order_j=2), SimConfig(n_slots=20_000, seed=124))
    assert c.per_user_capacity_mean != a.per_user_capacity_mean


def test_round_robin_matches_analytics():
    sc = scenario3()
    result = run(sc, RoundRobin(), SimConfig(n_slots=150_000, seed=31))
    ana = rr_analysis(sc)
    for u in range(3):
        assert within_sigma(
            result.per_user_capacity_mean[u],
            ana.per_user_capacity[u],
            result.per_user_capacity_stderr[u],
        )
        assert within_sigma(
            result.per_user_harvest_mean[u],
            ana.per_user_harvest[u],
            result.per_user_harvest_stderr[u],
        )


def test_nsnr_matches_analytics():
    sc = scenario3()
    result = run(sc, OrderNSNR(order_j=2), SimConfig(n_slots=150_000, seed=77))
    ana = nsnr_analysis(sc, 2)
    freq_sigma = math.sqrt((1 / 3) * (2 / 3) / 150_000)
    for u in range(3):
        assert result.per_user_schedule_frequency[u] == pytest.approx(
            1 / 3, abs=5 * freq_sigma
        )
        assert within_sigma(
            result.per_user_capacity_mean[u],
            ana.per_user_capacity[u],
            result.per_user_capacity_stderr[u],
        )
        assert within_sigma(
            result.per_user_harvest_mean[u],
            ana.per_user_harvest[u],
            result.per_user_harvest_stderr[u],
        )


def test_nsnr_rejects_oversized_order():
    sc = scenario3()
    with pytest.raises(ValueError):
        run(sc, OrderNSNR(order_j=4), SimConfig(n_slots=10, seed=1))


def test_et_converges_to_common_rate():
    sc = scenario3()
    allowed = AllowedOrderSet((2, 3))
    result = run(sc, OrderET(allowed=allowed), SimConfig(n_slots=400_000, seed=11))
    p = et_probabilities(sc, allowed)
    r = et_throughput(sc, allowed)
    for u in range(3):
        freq_sigma = math.sqrt(p[u] * (1 - p[u]) / result.slots_counted)
        assert result.per_user_schedule_frequency[u] == pytest.approx(
            p[u], abs=5 * freq_sigma
        )
    report = convergence_report(result, expected_rate=r)
    assert report.spread < 0.02
    assert report.rel_gap < 0.02
    assert report.expected_rate == r
    # moving averages end near the common rate too
    for value in result.final_moving_throughput:
        assert value == pytest.approx(r, rel=0.15)


def test_et_warmup_accounting():
    sc = scenario3()
    policy = OrderET(allowed=AllowedOrderSet((1, 2, 3)))
    explicit = run(sc, policy, SimConfig(n_slots=50_000, seed=3, warmup_slots=2_000))
    assert explicit.slots_counted == 48_000
    default = run(sc, policy, SimConfig(n_slots=50_000, seed=3))
    assert default.slots_counted == 49_500
    stationary = run(sc, RoundRobin(), SimConfig(n_slots=50_000, seed=3, warmup_slots=2_000))
    assert stationary.slots_counted == 50_000


def test_et_constant_beta_runs():
    sc = scenario3()
    policy = OrderET(allowed=AllowedOrderSet((3,)), beta=Constant(0.01))
    result = run(sc, policy, SimConfig(n_slots=30_000, seed=13))
    # single allowed rank degenerates to rank scheduling: uniform frequency
    sigma = math.sqrt((1 / 3) * (2 / 3) / result.slots_counted)
    for f in result.per_user_schedule_frequency:
        assert f == pytest.approx(1 / 3, abs=5 * sigma)


def test_convergence_report_rejects_stationary_runs():
    sc = scenario3()
    result = run(sc, RoundRobin(), SimConfig(n_slots=100, seed=1))
    with pytest.raises(ValueError):
        convergence_report(result)


def test_unknown_policy_rejected():
    sc = scenario3()
    with pytest.raises(ValueError):
        run(sc, object(), SimConfig(n_slots=10, seed=1))


def test_policy_errors_raise_before_drawing(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return sample_gains(*args, **kwargs)

    monkeypatch.setattr(sim, "sample_gains", counted)
    sc = scenario3()
    config = SimConfig(n_slots=10, seed=1)
    for policy in (OrderNSNR(order_j=4), OrderET(allowed=(2, 4)), object()):
        with pytest.raises(ValueError):
            run(sc, policy, config)
    assert calls == []


def test_draw_is_read_only_with_compact_ranks():
    users = tuple(FadingParams(omega=n * 1e-5, k_factor=6.0) for n in range(1, 8))
    sc = Scenario(users=users, tx_power_w=1.0, noise_power_w=NOISE_W, eta=0.5)
    slots = sim._RANK_BLOCK + 1000  # the ranks cross a block seam
    draw = Draw(sc, SimConfig(n_slots=slots, seed=4))
    assert draw.gains.shape == (slots, 7) and draw.gains.dtype == np.float64
    assert draw.ranks.dtype == np.int8
    for array in (draw.gains, draw.ranks):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0, 0] = 0
    omegas = np.array([u.omega for u in users])
    assert np.array_equal(draw.ranks, np.argsort(draw.gains / omegas, axis=1, kind="stable"))


def test_shared_draw_gives_each_runs_own_results():
    sc = scenario3()
    config = SimConfig(n_slots=4000, seed=9)
    draw = Draw(sc, config)
    policies = (
        RoundRobin(),
        OrderNSNR(order_j=1),
        OrderNSNR(order_j=3),
        OrderET(allowed=AllowedOrderSet((1, 2))),
    )
    for policy in policies:
        assert run(sc, policy, config, draw=draw) == run(sc, policy, config)


def test_run_rejects_a_mismatched_draw():
    sc = scenario3()
    config = SimConfig(n_slots=100, seed=1)
    draw = Draw(sc, config)
    other = Scenario(users=sc.users[:2], tx_power_w=1.0, noise_power_w=NOISE_W, eta=0.5)
    for scenario, cfg in (
        (sc, SimConfig(n_slots=100, seed=2)),
        (sc, SimConfig(n_slots=99, seed=1)),
        (other, config),
    ):
        with pytest.raises(ValueError, match="draw"):
            run(scenario, RoundRobin(), cfg, draw=draw)
