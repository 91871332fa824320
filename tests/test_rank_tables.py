"""The vector-quadrature capacity and expectation tables.

Each scenario's (user, rank) capacities and full-access capacities come from
one vector quadrature, and every E[X_(j)] of an (N, K) pair from another.
These tests check the tables entry by entry against independent routes: the
Rayleigh alternating sum in 50-digit mpmath arithmetic, and one scalar
quadrature per entry. They also count the quadratures a cold analysis makes.
"""

import math
import warnings

import mpmath
import pytest

from swiptsched import analytic, orderstats
from swiptsched.analytic import (
    CancellationWarning,
    et_analysis,
    full_access_capacity,
    nsnr_analysis,
    nsnr_capacity,
    rr_analysis,
)
from swiptsched.channel import FadingParams, Scenario, normalized_cdf, normalized_pdf
from swiptsched.orderstats import OrderSpec, expected_ordered_gain, ordered_pdf
from swiptsched.specfun import QuadratureSpec, integrate_semi_infinite

NOISE_W = 1e-12
REFERENCE_SPEC = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-13, tail_cutoff_mass=1e-13)


def scenario(gbars, k):
    users = tuple(FadingParams(omega=g * NOISE_W, k_factor=k) for g in gbars)
    return Scenario(users=users, tx_power_w=1.0, noise_power_w=NOISE_W, eta=0.5)


def rayleigh_closed_mp(n, j, gbar):
    # the alternating binomial sum of the rank-j capacity, at 50 digits
    with mpmath.workdps(50):
        g = mpmath.mpf(gbar)
        total = mpmath.mpf(0)
        for l in range(j):
            c = n - j + l + 1
            total += (-1) ** l * mpmath.binomial(j - 1, l) / c * mpmath.exp(c / g) * mpmath.e1(c / g)
        return float(mpmath.binomial(n - 1, j - 1) / mpmath.log(2) * total)


def scalar_capacity(n, k, gbar, j):
    # one scalar quadrature of one entry; j = 0 is the full access
    if j == 0:
        n, spec = 1, None
    else:
        spec = OrderSpec(n, j)

    def integrand(x):
        density = normalized_pdf(k, x) if spec is None else ordered_pdf(spec, k, x) / n
        return math.log1p(gbar * x) / math.log(2.0) * density

    knee = 1.0 / gbar
    return integrate_semi_infinite(
        integrand,
        REFERENCE_SPEC,
        envelope_cdf=lambda x: 1.0 - n * (1.0 - normalized_cdf(k, x)),
        interior_points=tuple(knee * 10.0**e for e in range(31)),
    )


def scalar_mean(n, k, j):
    return integrate_semi_infinite(
        lambda x: x * ordered_pdf(OrderSpec(n, j), k, x),
        REFERENCE_SPEC,
        envelope_cdf=lambda x: 1.0 - n * (1.0 - normalized_cdf(k, x)),
    )


def test_rayleigh_n31_quadrature_matches_50_digit_closed_form():
    n = 31
    gbars = (1e-3, 1.0, 1e12)
    sc = scenario([gbars[i % 3] for i in range(n)], 0.0)
    for user, gbar in zip((1, 2, 3), gbars):
        assert sc.avg_snr(user) == gbar
        for j in range(1, n + 1):
            want = rayleigh_closed_mp(n, j, gbar)
            quad = nsnr_capacity(sc, j, user, method="quadrature")
            assert quad == pytest.approx(want, rel=1e-12), (gbar, j)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", CancellationWarning)
                auto = nsnr_capacity(sc, j, user)
            assert auto == pytest.approx(want, rel=1e-9), (gbar, j)


@pytest.mark.parametrize("k", [0.5, 6.0, 300.0])
def test_table_entries_match_scalar_quadrature(k):
    n = 3
    gbars = (0.1, 10.0, 1e5)
    sc = scenario(gbars, k)
    for user, gbar in enumerate(gbars, start=1):
        got = full_access_capacity(sc, user)
        assert got == pytest.approx(scalar_capacity(n, k, gbar, 0), rel=1e-8)
        for j in range(1, n + 1):
            got = nsnr_capacity(sc, j, user)
            assert got == pytest.approx(scalar_capacity(n, k, gbar, j), rel=1e-8), (gbar, j)
    for j in range(1, n + 1):
        got = expected_ordered_gain(OrderSpec(n, j), k)
        assert got == pytest.approx(scalar_mean(n, k, j), rel=1e-8), j


def test_table_over_fifteen_decades_of_average_snr():
    n, k = 4, 6.0
    gbars = (1e-3, 1e2, 1e7, 1e12)
    sc = scenario(gbars, k)
    rr = rr_analysis(sc)
    ranks = [nsnr_analysis(sc, j).per_user_capacity for j in range(1, n + 1)]
    for user, gbar in enumerate(gbars, start=1):
        assert rr.per_user_capacity[user - 1] * n == pytest.approx(
            scalar_capacity(n, k, gbar, 0), rel=1e-8
        )
        for j in range(1, n + 1):
            assert ranks[j - 1][user - 1] == pytest.approx(
                scalar_capacity(n, k, gbar, j), rel=1e-8
            ), (gbar, j)
        # the full access is integrated on its own, not summed from the ranks
        total = math.fsum(caps[user - 1] for caps in ranks)
        assert total == pytest.approx(n * rr.per_user_capacity[user - 1], rel=1e-12)


def test_rr_analysis_with_mixed_k_factors():
    gbars_ks = ((1e2, 0.0), (1e3, 6.0), (1e5, 6.0), (10.0, 300.0))
    users = tuple(FadingParams(omega=g * NOISE_W, k_factor=k) for g, k in gbars_ks)
    sc = Scenario(users=users, tx_power_w=1.0, noise_power_w=NOISE_W, eta=0.5)
    rr = rr_analysis(sc)
    for user, (gbar, k) in enumerate(gbars_ks, start=1):
        want = scalar_capacity(1, k, gbar, 0)
        assert rr.per_user_capacity[user - 1] * 4 == pytest.approx(want, rel=1e-8)
        assert full_access_capacity(sc, user) == rr.per_user_capacity[user - 1] * 4
    with pytest.raises(ValueError):
        nsnr_analysis(sc, 1)


@pytest.fixture
def quadrature_calls(monkeypatch):
    """Counts integrate_semi_infinite calls after emptying every table cache."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return integrate_semi_infinite(*args, **kwargs)

    for module in (analytic, orderstats):
        monkeypatch.setattr(module, "integrate_semi_infinite", counted)
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
    return calls


def test_cold_ricean_scenario_makes_two_quadratures(quadrature_calls):
    sc = scenario([10.0 ** (0.5 * i) for i in range(7)], 6.0)
    rr_analysis(sc)
    for j in range(1, 8):
        nsnr_analysis(sc, j)
    et_analysis(sc, analytic.AllowedOrderSet((1, 2, 5)))
    assert 0 < len(quadrature_calls) <= 2


def test_cold_rayleigh_n31_fallbacks_share_one_quadrature(quadrature_calls):
    sc = scenario([10.0 ** (0.1 * i) for i in range(31)], 0.0)
    with pytest.warns(CancellationWarning):
        for j in range(1, 32):
            nsnr_analysis(sc, j)
    assert len(quadrature_calls) == 1
