"""Simulation round trip: draw bids from a known vector, re-estimate it.

Runs the plug-in estimators and the GA on the same synthetic sample, attaches
bootstrap standard errors to the plug-in fit, and prints everything side by
side with the truth.  Failed bootstrap refits are counted by stage on
stdout; when too many fail (sparse tail windows at small n), the failure is
reported on stderr and the SE column reads n/a;
any other estimation failure ends the script with a one-line message and
exit status 1.

Usage: python scripts/round_trip.py [--n 5000] [--seed 23] [--boot 40]
"""

import argparse
import sys

from barista import (
    BaristaParams,
    EstimationError,
    GaConfig,
    default_bounds,
    default_qc_config,
    bootstrap_se,
    ga_fit,
    loglik,
    qc_fit,
    sample_fixed_n,
)

TRUTH = BaristaParams(alpha1=3.0, alpha2=0.4, alpha3=1.0,
                      d1=2.5, d2=5.0 / 1440.0, c=1.0, T=7.0)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=5000)
    ap.add_argument("--seed", type=int, default=23)
    ap.add_argument("--boot", type=int, default=40,
                    help="bootstrap replicates for the plug-in SEs")
    args = ap.parse_args()

    data = sample_fixed_n(TRUTH, args.n, seed=args.seed)
    print(f"simulated n={args.n} bids on [0, {TRUTH.T}] days (seed {args.seed})")

    qc = qc_fit(data, default_qc_config(TRUTH.T))
    try:
        se, failed = bootstrap_se(data, lambda s: qc_fit(s, default_qc_config(TRUTH.T)),
                                  args.boot, seed=args.seed)
        if failed:
            stages = ", ".join(f"{stage} {count}" for stage, count in failed.items())
            print(f"bootstrap SEs rest on {args.boot - sum(failed.values())} of "
                  f"{args.boot} replicates; failed refits by stage: {stages}")
    except EstimationError as exc:
        print(f"bootstrap SEs unavailable: {exc}", file=sys.stderr)
        se = None

    ga = ga_fit(data, "three-stage",
                GaConfig(bounds=default_bounds("three-stage", TRUTH.T),
                         seed=args.seed))

    truth = {"alpha1": TRUTH.alpha1, "alpha2": TRUTH.alpha2,
             "alpha3": TRUTH.alpha3, "d1": TRUTH.d1, "d2": TRUTH.d2}
    print(f"\n{'param':<8}{'truth':>10}{'plug-in':>10}{'(boot SE)':>11}{'GA':>10}")
    for name, value in truth.items():
        se_text = "n/a" if se is None else f"{se[name]:.4f}"
        print(f"{name:<8}{value:>10.4f}{qc.params[name]:>10.4f}"
              f"{se_text:>11}{ga.params[name]:>10.4f}")
    print(f"{'c':<8}{TRUTH.c:>10.4f}{qc.c_hat:>10.4f}{'':>11}{ga.c_hat:>10.4f}")

    ll_truth = loglik(data, TRUTH)
    print(f"\nconditional loglik: truth {ll_truth:.3f}, plug-in "
          f"{qc.loglik:.3f}, GA {ga.loglik:.3f}")
    print("(the sample is drawn with fixed n, so c is recovered as n over "
          "the unit-scale expected count)")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except EstimationError as exc:
        print(f"round_trip: estimation failed: {exc}", file=sys.stderr)
        sys.exit(1)
