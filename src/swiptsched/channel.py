"""Fading channel model: Ricean/Rayleigh power-gain distributions and sampling.

The instantaneous channel power gain h of a user follows a noncentral
chi-square law with two degrees of freedom (Ricean fading); k_factor = 0
degenerates exactly to the exponential law (Rayleigh fading). All analytics
downstream work with the normalized, unit-mean gain X = h / omega.
"""

import math
from dataclasses import dataclass

import numpy as np

from .specfun import bessel_i0_scaled, marcum_q1


def dbm_to_watt(dbm):
    """Convert a power level in dBm to watts."""
    return 10.0 ** ((dbm - 30.0) / 10.0)


def watt_to_dbm(watt):
    """Convert a power in watts to dBm."""
    if watt <= 0.0:
        raise ValueError("power must be positive to express in dBm")
    return 10.0 * math.log10(watt) + 30.0


@dataclass(frozen=True)
class FadingParams:
    """Per-user channel statistics: mean power gain and Ricean K factor.

    Both are linear (not dB). k_factor = 0 selects the Rayleigh special
    case exactly, not as a limit.
    """

    omega: float
    k_factor: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.omega) and self.omega > 0.0):
            raise ValueError(f"omega must be positive and finite, got {self.omega!r}")
        if not (math.isfinite(self.k_factor) and self.k_factor >= 0.0):
            raise ValueError(f"k_factor must be >= 0 and finite, got {self.k_factor!r}")


@dataclass(frozen=True)
class Scenario:
    """System constants plus the per-user fading parameters.

    users is an ordered sequence of FadingParams; user indices throughout
    the public API are 1-based and refer to positions in this sequence.
    """

    users: tuple
    tx_power_w: float
    noise_power_w: float
    eta: float

    def __post_init__(self):
        users = tuple(self.users)
        object.__setattr__(self, "users", users)
        if len(users) < 1:
            raise ValueError("a scenario needs at least one user")
        if not all(isinstance(u, FadingParams) for u in users):
            raise ValueError("users must be FadingParams instances")
        if not (math.isfinite(self.tx_power_w) and self.tx_power_w > 0.0):
            raise ValueError("tx_power_w must be positive and finite")
        if not (math.isfinite(self.noise_power_w) and self.noise_power_w > 0.0):
            raise ValueError("noise_power_w must be positive and finite")
        if not (0.0 <= self.eta <= 1.0):
            raise ValueError("eta must lie in [0, 1]")

    @property
    def n_users(self):
        return len(self.users)

    def avg_snr(self, user_n):
        """Average SNR of 1-based user n: tx_power * omega_n / noise_power."""
        params = self.user(user_n)
        return self.tx_power_w * params.omega / self.noise_power_w

    def user(self, user_n):
        if not 1 <= user_n <= self.n_users:
            raise ValueError(f"user index {user_n} outside 1..{self.n_users}")
        return self.users[user_n - 1]

    def shared_k_factor(self):
        """The common K factor, required by the order-based analytics.

        The ordered-statistics formulas assume the normalized gains are
        identically distributed, which holds only when every user has the
        same K.
        """
        ks = {u.k_factor for u in self.users}
        if len(ks) != 1:
            raise ValueError(
                "order-based analytics require a K factor shared by all users; "
                f"scenario has {sorted(ks)}"
            )
        return next(iter(ks))


def _check_nonneg(x):
    x = float(x)
    if not math.isfinite(x) or x < 0.0:
        raise ValueError(f"gain argument must be finite and >= 0, got {x!r}")
    return x


def pdf_gain(params, x):
    """Probability density of the instantaneous channel power gain at x.

    The Ricean branch evaluates the noncentral chi-square density through
    the exponentially scaled I0, pairing e^(-z) I0(z) with the remaining
    exponent so neither factor overflows; at x = 0 this reduces exactly to
    (K+1)/omega * e^(-K) since I0(0) = 1.
    """
    x = _check_nonneg(x)
    om = params.omega
    k = params.k_factor
    if k == 0.0:
        lam = 1.0 / om
        return lam * math.exp(-lam * x)
    u = (k + 1.0) * x / om
    z = 2.0 * math.sqrt(k * u)
    return (k + 1.0) / om * bessel_i0_scaled(z) * math.exp(-((math.sqrt(k) - math.sqrt(u)) ** 2))


def cdf_gain(params, x):
    """Distribution function of the channel power gain, 1 - Q1 form."""
    x = _check_nonneg(x)
    om = params.omega
    k = params.k_factor
    if k == 0.0:
        return -math.expm1(-x / om)
    return 1.0 - marcum_q1(math.sqrt(2.0 * k), math.sqrt(2.0 * (k + 1.0) * x / om))


def normalized_pdf(k_factor, x):
    """Density of the unit-mean normalized gain X = h / omega."""
    return pdf_gain(FadingParams(omega=1.0, k_factor=k_factor), x)


def normalized_cdf(k_factor, x):
    """Distribution function of the unit-mean normalized gain."""
    return cdf_gain(FadingParams(omega=1.0, k_factor=k_factor), x)


def sample_gains(params, rng, size=None, rng_im=None):
    """Draw instantaneous channel power gains.

    Constructs |c|^2 with c complex Gaussian of mean amplitude
    sqrt(K omega / (K+1)) and scatter variance omega / (K+1); for K = 0 the
    mean vanishes and the draw is exactly exponential with mean omega.
    The real parts are the next size normals of rng, the imaginary parts
    the next size normals of rng_im (default: rng, after the real parts).
    size=None returns a scalar, an integer returns a 1-d array.
    """
    k = params.k_factor
    om = params.omega
    mu = math.sqrt(k * om / (k + 1.0))
    s = math.sqrt(om / (2.0 * (k + 1.0)))  # per-component scatter std dev
    g_re = rng.standard_normal(size)
    g_im = (rng if rng_im is None else rng_im).standard_normal(size)
    return (mu + s * g_re) ** 2 + (s * g_im) ** 2


def gain_streams(seed, n_users, n_slots, chunk):
    """The simulator's stream layout: (real, imaginary) generators per user.

    User i's gains are sample_gains(params, rng, n_slots), rng seeded by
    SeedSequence(seed).spawn(n_users)[i]: the real parts are its first
    n_slots normals, the imaginary parts the next n_slots. The imaginary
    generator skips the real parts chunk normals at a time, so successive
    sample_gains(params, re, m, im) calls return that draw m slots at a time.
    """
    pairs = []
    for child in np.random.SeedSequence(seed).spawn(n_users):
        re, im = np.random.default_rng(child), np.random.default_rng(child)
        for lo in range(0, n_slots, chunk):
            im.standard_normal(min(chunk, n_slots - lo))
        pairs.append((re, im))
    return pairs


def sample_gain(params, rng):
    """One draw of the channel power gain (scalar form of sample_gains)."""
    return float(sample_gains(params, rng))
