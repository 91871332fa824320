"""Scenario configuration files: parsing, validation and the link budget.

A config is an INI file describing one downlink scenario; parse_config
turns it into a validated Scenario in SI units, scenario_to_config_text
writes one back. Every malformed field raises ConfigError naming it.
"""

import configparser
import math
import re

from .channel import FadingParams, Scenario, dbm_to_watt

_SPEED_OF_LIGHT = 299792458.0


class ConfigError(ValueError):
    """A scenario configuration could not be understood or validated."""


_POWER_RE = re.compile(r"^\s*([-+0-9.eE]+)\s*(w|dbm)\s*$", re.IGNORECASE)


def _parse_power(text, where):
    m = _POWER_RE.match(text)
    if not m:
        raise ConfigError(
            f"{where}: expected '<value> W' or '<value> dBm', got {text!r}"
        )
    try:
        value = float(m.group(1))
    except ValueError:
        raise ConfigError(f"{where}: {m.group(1)!r} is not a number") from None
    unit = m.group(2).lower()
    watts = dbm_to_watt(value) if unit == "dbm" else value
    if watts <= 0.0:
        raise ConfigError(f"{where}: power must be positive, got {watts!r} W")
    return watts


def _parse_float_list(text, where):
    parts = [p for p in re.split(r"[,\s]+", text.strip()) if p]
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def link_budget_omega(
    frequency_hz,
    distance_m,
    exponent,
    ref_loss_db=None,
    tx_gain_dbi=0.0,
    rx_gain_dbi=0.0,
):
    """Mean channel power gain from a log-distance path loss model.

    Omega = 10^(-(PL(1 m) + 10 exponent log10(d) - G_tx - G_rx) / 10). The
    1 m reference loss defaults to free space, 20 log10(4 pi f / c). Note
    the bundled omega lists are treated as already inclusive of any antenna
    gains, so the gain arguments default to 0 dBi here.
    """
    if distance_m <= 0.0:
        raise ValueError("distance must be positive")
    if frequency_hz <= 0.0:
        raise ValueError("frequency must be positive")
    if ref_loss_db is None:
        ref_loss_db = 20.0 * math.log10(4.0 * math.pi * frequency_hz / _SPEED_OF_LIGHT)
    pl_db = ref_loss_db + 10.0 * exponent * math.log10(distance_m)
    return 10.0 ** (-(pl_db - tx_gain_dbi - rx_gain_dbi) / 10.0)


def parse_config(path):
    """Read a scenario file and return a validated Scenario in SI units.

    INI layout: [system] n_users, tx_power, noise_power (each '<value> W'
    or '<value> dBm'), eta; [fading] model = rayleigh | ricean plus
    k_factor for ricean; exactly one of [gains] omega = <list> or
    [link_budget] with frequency_hz, distances_m, path_loss_exponent and
    optional ref_loss_db_at_1m / antenna gains.
    """
    cp = configparser.ConfigParser()
    try:
        with open(path, encoding="utf-8") as fh:
            cp.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None

    def need(section, option):
        if not cp.has_option(section, option):
            raise ConfigError(f"[{section}] {option}: missing")
        return cp.get(section, option)

    def number(section, option, *default):
        # a float field; a missing one is an error unless a default is given
        if default and not cp.has_option(section, option):
            return default[0]
        try:
            return float(need(section, option))
        except ValueError:
            raise ConfigError(f"[{section}] {option}: must be a number") from None

    for section in ("system", "fading"):
        if not cp.has_section(section):
            raise ConfigError(f"missing [{section}] section")
    has_gains = cp.has_section("gains")
    has_budget = cp.has_section("link_budget")
    if has_gains == has_budget:
        raise ConfigError("exactly one of [gains] and [link_budget] is required")

    try:
        n_users = int(need("system", "n_users"))
    except ValueError:
        raise ConfigError("[system] n_users: must be an integer") from None
    tx_power = _parse_power(need("system", "tx_power"), "[system] tx_power")
    noise_power = _parse_power(need("system", "noise_power"), "[system] noise_power")
    eta = number("system", "eta")

    model = need("fading", "model").strip().lower()
    if model == "rayleigh":
        k_factor = 0.0
        if number("fading", "k_factor", 0.0):
            raise ConfigError("[fading] k_factor: must be 0 (or absent) for rayleigh")
    elif model == "ricean":
        k_factor = number("fading", "k_factor")
    else:
        raise ConfigError(f"[fading] model: expected rayleigh or ricean, got {model!r}")

    if has_gains:
        omegas = _parse_float_list(need("gains", "omega"), "[gains] omega")
        if len(omegas) != n_users:
            raise ConfigError(
                f"[gains] omega: expected {n_users} values, got {len(omegas)}"
            )
    else:
        freq = number("link_budget", "frequency_hz")
        distances = _parse_float_list(
            need("link_budget", "distances_m"), "[link_budget] distances_m"
        )
        if len(distances) != n_users:
            raise ConfigError(
                f"[link_budget] distances_m: expected {n_users} values, "
                f"got {len(distances)}"
            )
        exponent = number("link_budget", "path_loss_exponent")
        ref = number("link_budget", "ref_loss_db_at_1m", None)
        tx_gain = number("link_budget", "tx_antenna_gain_dbi", 0.0)
        rx_gain = number("link_budget", "rx_antenna_gain_dbi", 0.0)
        try:
            omegas = [
                link_budget_omega(freq, d, exponent, ref, tx_gain, rx_gain)
                for d in distances
            ]
        except ValueError as exc:
            raise ConfigError(f"[link_budget]: {exc}") from None

    try:
        users = tuple(FadingParams(omega=om, k_factor=k_factor) for om in omegas)
        return Scenario(
            users=users, tx_power_w=tx_power, noise_power_w=noise_power, eta=eta
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def scenario_to_config_text(scenario):
    """Emit a config file equivalent to the scenario (gains path, watts).

    Inverse of parse_config for scenarios a config can express, which
    requires a K factor shared by all users.
    """
    k = scenario.shared_k_factor()
    model = "rayleigh" if k == 0.0 else "ricean"
    lines = [
        "[system]",
        f"n_users = {scenario.n_users}",
        f"tx_power = {scenario.tx_power_w!r} W",
        f"noise_power = {scenario.noise_power_w!r} W",
        f"eta = {scenario.eta!r}",
        "",
        "[fading]",
        f"model = {model}",
    ]
    if model == "ricean":
        lines.append(f"k_factor = {k!r}")
    lines += [
        "",
        "[gains]",
        "omega = " + ", ".join(repr(u.omega) for u in scenario.users),
        "",
    ]
    return "\n".join(lines)
