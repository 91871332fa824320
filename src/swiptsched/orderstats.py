"""Order statistics of N i.i.d. unit-mean normalized channel gains.

Covers the densities of the ascendingly ordered gains, their expectations
(harmonic partial sums for Rayleigh, one vector quadrature otherwise), and
the ranking of a realized gain vector.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import normalized_cdf, normalized_pdf
from .specfun import QuadratureSpec, integrate_semi_infinite

# one error budget covers every entry of a rank table, so it is tighter than
# the scalar default
TABLE_QUADRATURE = QuadratureSpec(
    rel_tol=1e-10, abs_tol=1e-13, max_subdivisions=2000, tail_cutoff_mass=1e-13
)


@dataclass(frozen=True)
class OrderSpec:
    """Selects the j-th ascending order statistic out of n_users draws."""

    n_users: int
    order_j: int

    def __post_init__(self):
        if self.n_users < 1:
            raise ValueError("n_users must be at least 1")
        if not 1 <= self.order_j <= self.n_users:
            raise ValueError(
                f"order_j must lie in 1..{self.n_users}, got {self.order_j}"
            )


def log_binom(n, k):
    """log of the binomial coefficient, for regimes where exact ints overflow floats."""
    return math.lgamma(n + 1.0) - math.lgamma(k + 1.0) - math.lgamma(n - k + 1.0)


def harmonic_tail(n, j):
    """sum of 1/l for l = n-j+1 .. n, the Rayleigh ordered-gain expectation."""
    return math.fsum(1.0 / l for l in range(n - j + 1, n + 1))


def ordered_pdfs(n_users, k_factor):
    """The densities of all N ascending order statistics, as one function of x.

    The returned function maps x to an array of N + 1 values: element 0 is
    the parent density f(x), element j the density
    N C(N-1, j-1) f(x) F(x)^(j-1) (1 - F(x))^(N-j) of the j-th ordered
    gain. f and F are evaluated once per x, and the binomials and powers
    combine in log space so no user count can overflow.
    """
    n = n_users
    log_coef = np.array([math.log(n) + log_binom(n - 1, j - 1) for j in range(1, n + 1)])
    below = np.arange(n, dtype=float)  # j - 1
    above = below[::-1].copy()  # N - j

    def pdfs(x):
        f = normalized_pdf(k_factor, x)
        big_f = normalized_cdf(k_factor, x)
        out = np.zeros(n + 1)
        out[0] = f
        if f == 0.0:
            return out
        if big_f == 0.0:
            out[1] = n * f  # only the smallest gain can sit where F = 0
        elif big_f == 1.0:
            out[n] = n * f
        else:
            out[1:] = np.exp(
                log_coef + math.log(f) + below * math.log(big_f) + above * math.log1p(-big_f)
            )
        return out

    return pdfs


def ordered_pdf(spec, k_factor, x):
    """Density of the j-th ascendingly ordered normalized gain at x."""
    return float(ordered_pdfs(spec.n_users, k_factor)(x)[spec.order_j])


def order_envelope(n_users, k_factor):
    """A cdf whose tail dominates every order statistic's density.

    The slowest-decaying order (j = N) has tail mass at most N (1 - F).
    """
    return lambda x: 1.0 - n_users * (1.0 - normalized_cdf(k_factor, x))


@lru_cache(maxsize=None)
def _expected_ordered_ricean(n, k_factor):
    pdfs = ordered_pdfs(n, k_factor)
    means = integrate_semi_infinite(
        lambda x: x * pdfs(x)[1:],
        TABLE_QUADRATURE,
        envelope_cdf=order_envelope(n, k_factor),
    )
    return tuple(means.tolist())


def expected_ordered_gain(spec, k_factor):
    """E of the j-th ascendingly ordered normalized gain.

    For k_factor = 0 this is the harmonic partial sum over the top j
    reciprocals; otherwise one cached vector quadrature of x times every
    ordered density gives all N expectations. Strictly increasing in j.
    """
    if k_factor == 0.0:
        return harmonic_tail(spec.n_users, spec.order_j)
    return _expected_ordered_ricean(spec.n_users, float(k_factor))[spec.order_j - 1]


def rank_of_users(normalized_gains):
    """Map ascending order slots to 1-based user indices.

    Element j-1 of the result is the user whose normalized gain holds
    ascending rank j; ties go to the lower user index.
    """
    arr = np.asarray(normalized_gains, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("normalized_gains must be a non-empty 1-d sequence")
    if not np.all(np.isfinite(arr)):
        raise ValueError("normalized_gains must all be finite")
    order = np.argsort(arr, kind="stable")
    return tuple(int(i) + 1 for i in order)
