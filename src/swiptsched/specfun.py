"""Special functions and semi-infinite quadrature used by the fading analytics.

Provides the modified Bessel function I0 (plain and exponentially scaled),
the first-order Marcum Q function, the exponential integral E1 (plain and
scaled as e^x E1(x)), and an adaptive integrator for scalar- or
array-valued integrands on [0, inf) with an optional cdf-based tail cutoff.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy  # loads scipy.special and scipy.integrate on first use


EULER_GAMMA = 0.5772156649015328606  # Euler-Mascheroni constant
_LN2 = 0.6931471805599453094


class ConvergenceError(ArithmeticError):
    """Raised when an iterative or adaptive routine cannot meet its tolerance.

    Carries the best available estimate and the routine's own error bound so
    callers can decide whether the partial result is still usable.
    """

    def __init__(self, message, estimate=None, error_bound=None):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


def _require_finite(name, value):
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


def bessel_i0(x):
    """Modified Bessel function of the first kind, order zero.

    Grows like e^x / sqrt(2 pi x); use bessel_i0_scaled for large arguments.
    """
    x = float(x)
    _require_finite("x", x)
    if x < 0.0:
        raise ValueError("bessel_i0 is defined here for x >= 0 only")
    return float(scipy.special.i0(x))


def bessel_i0_scaled(x):
    """e^(-x) * I0(x), bounded on [0, inf) so it never overflows."""
    x = float(x)
    _require_finite("x", x)
    if x < 0.0:
        raise ValueError("bessel_i0_scaled is defined here for x >= 0 only")
    return float(scipy.special.i0e(x))


def marcum_q1(a, b):
    """First-order Marcum Q function Q1(a, b).

    Evaluated as the series sum_k Poisson(k; a^2/2) * Q(k+1, b^2/2), where
    Q(s, y) is the regularized upper incomplete gamma function. The Poisson
    index runs over a window wide enough that the omitted mass is below
    1e-16, so trailing terms whose ratio falls under 1e-14 never contribute.
    Absolute error stays below 1e-10.
    """
    a = float(a)
    b = float(b)
    _require_finite("a", a)
    _require_finite("b", b)
    if a < 0.0 or b < 0.0:
        raise ValueError("marcum_q1 requires a >= 0 and b >= 0")
    lam = 0.5 * a * a
    y = 0.5 * b * b
    if y == 0.0:
        return 1.0
    if lam == 0.0:
        # single k=0 term: Q(1, y) = e^(-y)
        return math.exp(-y)
    if y > 700.0 and y > 4.0 * (lam + 30.0):
        # far right tail; the true value is below 1e-150
        return 0.0
    half_width = 40.0 * math.sqrt(lam + 1.0) + 30.0
    k_lo = max(0, int(lam - half_width))
    k_hi = int(lam + half_width) + 1
    k = np.arange(k_lo, k_hi + 1)
    # log-space Poisson weights so lambda in the hundreds cannot underflow
    log_w = k * math.log(lam) - lam - scipy.special.gammaln(k + 1.0)
    total = float(np.dot(np.exp(log_w), scipy.special.gammaincc(k + 1.0, y)))
    return min(1.0, max(0.0, total))


def _e1_series(x):
    # alternating series -gamma - ln x + sum (-1)^(k+1) x^k / (k k!), x < 1
    total = 0.0
    term = 1.0
    for k in range(1, 80):
        term *= -x / k
        total += term / k
        if abs(term) <= 1e-17 * k * max(abs(total), 1e-30):
            break
    return -EULER_GAMMA - math.log(x) - total


def _e1_cf_scaled(x):
    # modified Lentz evaluation of the continued fraction for e^x E1(x)
    tiny = 1e-300
    b = x + 1.0
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 500):
        a = -float(i * i)
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            return h
    raise ConvergenceError(
        "continued fraction for E1 did not settle",
        estimate=h,
        error_bound=abs(delta - 1.0) * abs(h),
    )


def exp_integral_e1(x):
    """Exponential integral E1(x) = int_x^inf e^(-t)/t dt for x > 0.

    Alternating series below 1, modified Lentz continued fraction at and
    above 1. Underflows to 0 for x beyond roughly 745 (the true value is
    subnormal there); use exp_integral_e1_scaled for that regime.
    """
    x = float(x)
    _require_finite("x", x)
    if x <= 0.0:
        raise ValueError("exp_integral_e1 requires x > 0 (E1 diverges at 0)")
    if x < 1.0:
        return _e1_series(x)
    return math.exp(-x) * _e1_cf_scaled(x)


def exp_integral_e1_scaled(x):
    """e^x * E1(x), stable for both tiny and huge x.

    The capacity formulas need e^(c/gbar) E1(c/gbar) where c/gbar spans many
    orders of magnitude; the scaled form avoids overflow of the exponential
    against underflow of E1.
    """
    x = float(x)
    _require_finite("x", x)
    if x <= 0.0:
        raise ValueError("exp_integral_e1_scaled requires x > 0")
    if x < 1.0:
        return math.exp(x) * _e1_series(x)
    return _e1_cf_scaled(x)


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and limits for the semi-infinite integrator.

    tail_cutoff_mass is the probability mass below which the integrand tail
    is truncated when an envelope cdf is available; it must stay strictly
    below rel_tol so truncation never dominates the error budget.
    """

    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_subdivisions: int = 2000
    tail_cutoff_mass: float = 1e-12

    def __post_init__(self):
        if not (self.rel_tol > 0.0 and self.abs_tol > 0.0):
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be at least 1")
        if not (0.0 < self.tail_cutoff_mass < self.rel_tol):
            raise ValueError("tail_cutoff_mass must lie in (0, rel_tol)")


DEFAULT_QUADRATURE = QuadratureSpec()


def _tail_point(envelope_cdf, cutoff):
    # double until the envelope leaves less mass than the cutoff
    upper = 1.0
    for _ in range(80):
        if 1.0 - envelope_cdf(upper) < cutoff:
            return upper
        upper *= 2.0
    raise ConvergenceError(
        "envelope cdf never concentrated its mass; cannot truncate the tail",
        estimate=None,
        error_bound=None,
    )


def integrate_semi_infinite(f, spec=None, envelope_cdf=None, interior_points=()):
    """Integrate f over [0, inf) with adaptive quadrature.

    f may return a float or a 1-d array; an array-valued f integrates every
    component on one shared set of nodes, and the result is an array of the
    same length. When envelope_cdf is given (a cdf dominating the
    integrand's decay) the upper limit is truncated where the remaining
    envelope mass drops below spec.tail_cutoff_mass and the finite interval
    goes to scipy's quad_vec, whose tolerance applies to the largest
    component; otherwise QUADPACK's infinite-interval transform is used,
    which takes scalar integrands only. interior_points marks locations the
    integrand changes scale (adaptive subdivision can step over a feature
    much narrower than the interval without them); they require a finite
    upper limit, so they are honored only alongside an envelope.
    Deterministic for identical inputs. Raises ConvergenceError, carrying
    the best estimate and its error bound, when the requested tolerance
    cannot be certified within max_subdivisions.
    """
    if spec is None:
        spec = DEFAULT_QUADRATURE
    if envelope_cdf is None:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", scipy.integrate.IntegrationWarning)
            out = scipy.integrate.quad(
                f,
                0.0,
                np.inf,
                epsabs=spec.abs_tol,
                epsrel=spec.rel_tol,
                limit=spec.max_subdivisions,
                full_output=1,
            )
        value, abserr = out[0], out[1]
        # out has a 4th element (the explanation string) only when QUADPACK
        # flagged trouble
        failed = len(out) > 3
    else:
        upper = _tail_point(envelope_cdf, spec.tail_cutoff_mass)
        inside = sorted(p for p in interior_points if 0.0 < p < upper)
        value, abserr, info = scipy.integrate.quad_vec(
            f,
            0.0,
            upper,
            epsabs=spec.abs_tol,
            epsrel=spec.rel_tol,
            norm="max",
            limit=spec.max_subdivisions,
            points=inside or None,
            full_output=True,
        )
        if np.ndim(value) == 0:
            value = float(value)
        failed = info.status != 0
    tolerance = max(spec.abs_tol, spec.rel_tol * float(np.max(np.abs(value))))
    # a roundoff-limited result within 10x tolerance is still accepted; a
    # NaN error bound never is
    if failed and not abserr <= 10.0 * tolerance:
        raise ConvergenceError(
            f"quadrature error bound {abserr:.3e} exceeds tolerance {tolerance:.3e}",
            estimate=value,
            error_bound=abserr,
        )
    return value
