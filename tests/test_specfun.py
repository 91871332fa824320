"""Special function checks against frozen high-precision references.

The reference constants were generated once with mpmath at 30 significant
digits and pasted here, so these tests do not depend on scipy agreeing
with itself.
"""

import math

import numpy as np
import pytest

from swiptsched.specfun import (
    ConvergenceError,
    QuadratureSpec,
    bessel_i0,
    bessel_i0_scaled,
    exp_integral_e1,
    exp_integral_e1_scaled,
    integrate_semi_infinite,
    marcum_q1,
)

I0_REFERENCE = {
    0.0: 1.0,
    0.5: 1.0634833707413235,
    1.0: 1.2660658777520083,
    10.0: 2815.7166284662545,
    50.0: 2.9325537838493363e20,
}

I0_SCALED_REFERENCE = {
    0.0: 1.0,
    0.5: 0.64503527044915007,
    1.0: 0.46575960759364044,
    10.0: 0.12783333716342861,
    50.0: 0.056561626647454193,
}

E1_REFERENCE = {
    1e-8: 17.843465089050833,
    0.1: 1.8229239584193907,
    0.5: 0.55977359477616081,
    1.0: 0.21938393439552027,
    2.0: 0.048900510708061120,
    10.0: 4.1569689296853243e-6,
}

E1_SCALED_REFERENCE = {
    0.1: 2.0146425447084517,
    1.0: 0.59634736232319407,
    10.0: 0.091563333939788082,
    100.0: 0.0099019422867330184,
    700.0: 0.0014265364183008867,
}

MARCUM_REFERENCE = {
    (0.0, 1.0): 0.60653065971263342,
    (1.0, 1.0): 0.73287980379682022,
    (0.5, 2.0): 0.16914063850946718,
    (3.0, 1.0): 0.98917055017845215,
    (2.0, 5.0): 0.0022208297371346981,
    (10.0, 12.0): 0.025329474297941418,
    (40.0, 41.0): 0.16166144659064432,
}


def test_bessel_i0_reference_values():
    for x, want in I0_REFERENCE.items():
        assert bessel_i0(x) == pytest.approx(want, rel=1e-14)


def test_bessel_i0_scaled_reference_values():
    for x, want in I0_SCALED_REFERENCE.items():
        assert bessel_i0_scaled(x) == pytest.approx(want, rel=1e-14)


def test_bessel_i0_rejects_negative_arguments():
    # gain arguments are nonnegative, so the domain is restricted up front
    for x in (0.3, 2.0, 17.5):
        with pytest.raises(ValueError):
            bessel_i0(-x)
        with pytest.raises(ValueError):
            bessel_i0_scaled(-x)


def test_bessel_i0_scaled_stays_finite_far_out():
    # the unscaled value overflows around x = 713; the scaled one must not
    v = bessel_i0_scaled(5e4)
    assert 0.0 < v < 1.0


def test_bessel_i0_rejects_non_finite():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            bessel_i0(bad)
        with pytest.raises(ValueError):
            bessel_i0_scaled(bad)


def test_e1_reference_values():
    for x, want in E1_REFERENCE.items():
        assert exp_integral_e1(x) == pytest.approx(want, rel=1e-13)


def test_e1_scaled_reference_values():
    for x, want in E1_SCALED_REFERENCE.items():
        assert exp_integral_e1_scaled(x) == pytest.approx(want, rel=1e-13)


def test_e1_scaled_consistent_with_plain():
    for x in (0.05, 0.2, 0.5, 0.9, 1.0, 1.5, 3.0, 8.0):
        scaled = exp_integral_e1_scaled(x)
        assert scaled * math.exp(-x) == pytest.approx(exp_integral_e1(x), rel=1e-13)


def test_e1_branches_agree_at_switchover():
    # the series (used below 1) and the continued fraction (used from 1 up)
    # must hand over without a jump
    below = exp_integral_e1(math.nextafter(1.0, 0.0))
    at = exp_integral_e1(1.0)
    assert below == pytest.approx(at, rel=5e-13)
    below_s = exp_integral_e1_scaled(math.nextafter(1.0, 0.0))
    assert below_s == pytest.approx(exp_integral_e1_scaled(1.0), rel=5e-13)


def test_e1_scaled_large_argument_asymptote():
    # e^x E1(x) ~ (1 - 1/x + 2/x^2) / x for large x
    for x in (1e4, 1e6, 1e9):
        want = (1.0 - 1.0 / x + 2.0 / x**2) / x
        assert exp_integral_e1_scaled(x) == pytest.approx(want, rel=1e-10)


def test_e1_rejects_bad_arguments():
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            exp_integral_e1(bad)
        with pytest.raises(ValueError):
            exp_integral_e1_scaled(bad)


def test_marcum_reference_values():
    for (a, b), want in MARCUM_REFERENCE.items():
        assert marcum_q1(a, b) == pytest.approx(want, rel=5e-13)


def test_marcum_edges():
    for a in (0.0, 0.7, 4.0):
        assert marcum_q1(a, 0.0) == 1.0
    for b in (0.3, 1.0, 2.5):
        assert marcum_q1(0.0, b) == pytest.approx(math.exp(-b * b / 2.0), rel=1e-14)


def test_marcum_is_a_survival_function():
    # decreasing in b, values pinned to [0, 1] even in the deep tail
    a = 2.0
    values = [marcum_q1(a, b) for b in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 20.0)]
    assert all(x > y for x, y in zip(values, values[1:]))
    assert all(0.0 <= v <= 1.0 for v in values)
    assert marcum_q1(1.0, 60.0) == pytest.approx(0.0, abs=1e-300)


def test_marcum_increasing_in_a():
    values = [marcum_q1(a, 3.0) for a in (0.0, 1.0, 2.0, 3.0, 5.0)]
    assert all(x < y for x, y in zip(values, values[1:]))


def test_marcum_rejects_bad_arguments():
    with pytest.raises(ValueError):
        marcum_q1(-0.1, 1.0)
    with pytest.raises(ValueError):
        marcum_q1(1.0, -0.1)
    with pytest.raises(ValueError):
        marcum_q1(math.nan, 1.0)
    with pytest.raises(ValueError):
        marcum_q1(1.0, math.inf)


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(rel_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureSpec(abs_tol=-1e-12)
    with pytest.raises(ValueError):
        QuadratureSpec(max_subdivisions=0)
    with pytest.raises(ValueError):
        QuadratureSpec(tail_cutoff_mass=2.0)


def test_integrate_exponential_moments():
    def cdf(x):
        return 1.0 - math.exp(-x)

    moments = [
        (lambda x: math.exp(-x), 1.0, 1e-9),
        (lambda x: x * math.exp(-x), 1.0, 1e-8),
        (lambda x: x * x * math.exp(-x), 2.0, 1e-7),
    ]
    for integrand, want, rel in moments:
        assert integrate_semi_infinite(integrand, envelope_cdf=cdf) == pytest.approx(
            want, rel=rel
        )


def test_integrate_without_envelope():
    v = integrate_semi_infinite(lambda x: math.exp(-x * x))
    assert v == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-10)


def test_integrate_honors_custom_spec():
    spec = QuadratureSpec(rel_tol=1e-6, abs_tol=1e-9)
    v = integrate_semi_infinite(
        lambda x: x * math.exp(-x), spec=spec, envelope_cdf=lambda x: 1.0 - math.exp(-x)
    )
    assert v == pytest.approx(1.0, rel=1e-5)


def test_integrate_divergent_raises_with_estimate():
    with pytest.raises(ConvergenceError) as err:
        integrate_semi_infinite(lambda x: 1.0 / (1.0 + x))
    assert err.value.estimate is not None
    assert err.value.error_bound is not None
    assert err.value.error_bound > 0.0


def _exponential_moments(x):
    return np.array([math.exp(-x), math.sqrt(x) * math.exp(-x), x * x * math.exp(-x)])


def test_integrate_vector_matches_each_component():
    def cdf(x):
        return 1.0 - math.exp(-x)

    vector = integrate_semi_infinite(_exponential_moments, envelope_cdf=cdf)
    assert vector.shape == (3,)
    for i, want in enumerate((1.0, math.sqrt(math.pi) / 2.0, 2.0)):
        scalar = integrate_semi_infinite(lambda x: _exponential_moments(x)[i], envelope_cdf=cdf)
        assert isinstance(scalar, float)
        assert vector[i] == pytest.approx(scalar, rel=1e-9)
        assert vector[i] == pytest.approx(want, rel=1e-9)


def test_integrate_vector_out_of_subdivisions_raises_with_estimate():
    with pytest.raises(ConvergenceError) as err:
        integrate_semi_infinite(
            _exponential_moments,
            QuadratureSpec(max_subdivisions=1),
            envelope_cdf=lambda x: 1.0 - math.exp(-x),
        )
    assert np.shape(err.value.estimate) == (3,)
    assert np.all(np.isfinite(err.value.estimate))
    assert err.value.error_bound > 10.0 * 1e-9 * 2.0
