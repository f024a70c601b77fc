"""Bidder micro-behavior vs aggregate arrival law.

Simulates the uniform-retry bidder strategy twice (with and without a final
sniping phase), tests the pooled bid times against the matching arrival
process with a one-sample KS, and writes QQ plus reverse-time tail CSVs for
plotting.

Usage: python scripts/strategy_equivalence.py [--out-dir diag] [--seed 0]
"""

import argparse
from pathlib import Path

import numpy as np

from barista import (
    BidderStrategyParams,
    OneStage,
    TwoStage,
    ks_one_sample,
    qq_points,
    reverse_time_ecdf,
    simulate_bidder_strategy,
    write_qq,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out-dir", default="strategy-diagnostics")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--target-bids", type=float, default=3000.0)
    args = ap.parse_args()

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    T = 7.0

    # sniping phase in the last T/100, per-attempt probabilities 0.4 / 1.0
    probe = BidderStrategyParams(rate=1.0, alpha2=0.4, alpha3=1.0, d=T / 100, T=T)
    rate = args.target_bids / (T * probe.success_probability)
    sp = BidderStrategyParams(rate=rate, alpha2=0.4, alpha3=1.0, d=T / 100, T=T)
    bids = simulate_bidder_strategy(sp, seed=args.seed)
    law = TwoStage(alpha2=0.4, alpha3=1.0, d2=T / 100, c=1.0, T=T).as_barista()
    ks = ks_one_sample(bids, law)
    print(f"retry strategy with sniping phase: n={bids.n}, "
          f"KS D={ks.d_statistic:.4f}, p={ks.p_value:.3f}")
    write_qq(qq_points(bids, law), out / "two_stage_qq.csv")

    tail = reverse_time_ecdf(bids, window=T / 100)
    np.savetxt(out / "reverse_time_tail.csv", tail.times,
               header="reversed_unit_time", comments="")
    print(f"  final-phase bids: {tail.n} (reverse-clock times in "
          f"{out / 'reverse_time_tail.csv'})")

    # no sniping phase: the pooled law collapses to a single stage
    sp0 = BidderStrategyParams(rate=args.target_bids / T, alpha2=0.4,
                               alpha3=1.0, d=0.0, T=T)
    bids0 = simulate_bidder_strategy(sp0, seed=args.seed)
    law0 = OneStage(alpha=0.4, c=1.0, T=T).as_barista()
    ks0 = ks_one_sample(bids0, law0)
    print(f"retry strategy, no sniping phase: n={bids0.n}, "
          f"KS D={ks0.d_statistic:.4f}, p={ks0.p_value:.3f}")
    write_qq(qq_points(bids0, law0), out / "one_stage_qq.csv")

    print(f"diagnostics written under {out}/")


if __name__ == "__main__":
    main()
