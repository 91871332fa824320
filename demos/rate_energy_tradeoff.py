"""Walk the rate-energy tradeoff for rank-based scheduling.

Scheduling the j-th weakest user trades capacity for harvested energy:
small j picks poor channels (low rate, everyone else harvests while the
strong users stay idle less often), large j picks strong channels. Round
robin ignores the channel and lands strictly between the two extremes.

Run from the repository root:

    python3 demos/rate_energy_tradeoff.py
"""

import pathlib

from swiptsched import nsnr_analysis, rr_analysis
from swiptsched import parse_config

CONFIG = pathlib.Path(__file__).resolve().parent.parent / "configs" / "indoor_ricean_n7.ini"


def main():
    scenario = parse_config(str(CONFIG))
    n = scenario.n_users

    print(f"scenario: {n} users, Ricean K={scenario.users[0].k_factor}")
    print()
    print("sum capacity and total harvested power vs scheduled rank")
    print(f"{'j':>3} {'sum capacity (b/s/Hz)':>22} {'total harvest (uW)':>20}")
    for j in range(1, n + 1):
        a = nsnr_analysis(scenario, j)
        cap = sum(a.per_user_capacity)
        harv = 1e6 * sum(a.per_user_harvest)
        print(f"{j:>3} {cap:22.4f} {harv:20.4f}")

    rr = rr_analysis(scenario)
    print()
    print(f"round robin: sum capacity {sum(rr.per_user_capacity):.4f}, "
          f"total harvest {1e6 * sum(rr.per_user_harvest):.4f} uW")

    # the sandwich property, shown for the strongest user
    u = n - 1
    lo = nsnr_analysis(scenario, 1)
    hi = nsnr_analysis(scenario, n)
    print()
    print(f"user {n} capacity:  j=1 {lo.per_user_capacity[u]:.4f}  "
          f"RR {rr.per_user_capacity[u]:.4f}  j={n} {hi.per_user_capacity[u]:.4f}")
    print(f"user {n} harvest:   j=1 {1e6 * lo.per_user_harvest[u]:.4f}  "
          f"RR {1e6 * rr.per_user_harvest[u]:.4f}  j={n} {1e6 * hi.per_user_harvest[u]:.4f}  (uW)")

    drop = 100.0 * (hi.per_user_capacity[u] - lo.per_user_capacity[u]) / hi.per_user_capacity[u]
    gain = 100.0 * (lo.per_user_harvest[u] - hi.per_user_harvest[u]) / hi.per_user_harvest[u]
    print()
    print(f"moving user {n} from rank {n} to rank 1: capacity down {drop:.2f}%, "
          f"harvest up {gain:.2f}%")


if __name__ == "__main__":
    main()
