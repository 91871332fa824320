"""Slot-level simulation against the closed-form predictions.

Runs each scheduling policy on the same 4-user Rayleigh scenario and prints
simulated vs analytic capacity and harvest per user, with z-scores from the
simulation standard errors. Also traces the equal-throughput controller's
moving average to show the convergence to the common rate.
"""

import pathlib

from swiptsched import (
    AllowedOrderSet,
    OrderET,
    OrderNSNR,
    RoundRobin,
    SimConfig,
    VanishingStep,
    convergence_report,
    et_analysis,
    et_throughput,
    nsnr_analysis,
    rr_analysis,
    run,
)
from swiptsched import parse_config

CONFIG = pathlib.Path(__file__).resolve().parent.parent / "configs" / "rayleigh_n4.ini"
SLOTS = 200_000
SEED = 7


def compare(scenario, policy, analysis):
    result = run(scenario, policy, SimConfig(n_slots=SLOTS, seed=SEED))
    print(result.policy_descriptor)
    for u in range(scenario.n_users):
        dc = result.per_user_capacity_mean[u] - analysis.per_user_capacity[u]
        zc = dc / result.per_user_capacity_stderr[u]
        dh = result.per_user_harvest_mean[u] - analysis.per_user_harvest[u]
        zh = dh / result.per_user_harvest_stderr[u]
        print(f"  user {u + 1}: capacity sim {result.per_user_capacity_mean[u]:.5f} "
              f"ana {analysis.per_user_capacity[u]:.5f} (z={zc:+.2f})   "
              f"harvest sim {1e6 * result.per_user_harvest_mean[u]:.5f} "
              f"ana {1e6 * analysis.per_user_harvest[u]:.5f} uW (z={zh:+.2f})")


def main():
    scenario = parse_config(str(CONFIG))

    compare(scenario, RoundRobin(), rr_analysis(scenario))
    for j in (1, 4):
        compare(scenario, OrderNSNR(order_j=j), nsnr_analysis(scenario, j))
    allowed = AllowedOrderSet((1, 2))
    analysis, sol = et_analysis(scenario, allowed)
    compare(scenario, OrderET(allowed=allowed), analysis)
    print("  target p_n:", "  ".join(f"{p:.4f}" for p in sol.probabilities))

    # convergence of the equal-throughput controller with beta_t = 1/t
    r = et_throughput(scenario, allowed)
    result = run(scenario, OrderET(allowed=allowed, beta=VanishingStep()),
                 SimConfig(n_slots=SLOTS, seed=SEED + 1))
    report = convergence_report(result, expected_rate=r)
    print()
    print(f"equal-throughput convergence after {SLOTS} slots:")
    print(f"  per-user rates: {', '.join(f'{c:.4f}' for c in report.per_user_rate)}")
    print(f"  spread {100 * report.spread:.3f}%  gap to analytic r {100 * report.rel_gap:.3f}%")


if __name__ == "__main__":
    main()
