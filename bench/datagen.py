"""Seeded inputs for the benchmark workloads, built from public barista calls.

Every file is drawn with `sample_fixed_n` at a known truth, tagged with
auction ids by a seeded permutation (so each auction holds exactly n /
n_auctions bids) and written with `write_sample`.  The timestamped layout
has its own small writer because barista only emits the relative layout;
it injects a known number of out-of-range rows.

`plan(workload, seed)` is pure: it lists the files and the seeds they are
drawn with, so the measuring process can regenerate any truth sample for its
output checks without reading the CSVs back.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import barista
from barista import BaristaParams, OneStage, TwoStage

# the simulation-study vector of the paper: a = (3, 0.4, 1), d1 = 2.5 d,
# d2 = 5 min, on a 7-day auction
P_STAR = BaristaParams(alpha1=3.0, alpha2=0.4, alpha3=1.0,
                       d1=2.5, d2=5.0 / 1440.0, c=1.0, T=7.0)

# the criterion-9 family mix: (true family tag, generating family)
TRUTHS = {
    "one-stage": OneStage(alpha=1.0, c=1.0, T=7.0),
    "three-stage": P_STAR,
    "two-stage": TwoStage(alpha2=0.3, alpha3=7.7, d2=1.0 / 1440.0, c=1.0, T=5.0),
}

WORKLOADS = ("ingest-500k", "select-5k", "resample-100k")

SIM_N = 500_000
TS_N, TS_AUCTIONS, TS_INJECTED = 200_000, 2_000, 1_000
BOOT_REPLICATES = 200
CALIBRATION_REPLICATES = 200
CALIBRATION_N = 100_000


def truth_params(tag: str) -> BaristaParams:
    truth = TRUTHS[tag]
    return truth if isinstance(truth, BaristaParams) else truth.as_barista()


def plan(workload: str, seed: int) -> dict:
    """Files, truths and seeds of one workload; a pure function of its seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    seeds = iter(int(s) for s in np.random.SeedSequence([seed, WORKLOADS.index(workload)])
                 .generate_state(16))

    def csv(name, tag, n, n_auctions, layout="relative", injected=0):
        return {"name": name, "layout": layout, "truth": tag, "n": n,
                "n_auctions": n_auctions, "seed": next(seeds), "injected": injected}

    files, extra = [], {}
    if workload == "ingest-500k":
        files = [csv("pooled-500k.csv", "three-stage", 500_000, 5_000),
                 csv("stamped-200k.csv", "three-stage", TS_N, TS_AUCTIONS,
                     layout="timestamped", injected=TS_INJECTED)]
        extra = {"simulate_n": SIM_N, "simulate_seed": next(seeds)}
    elif workload == "select-5k":
        files = [csv(f"{tag}-{k}.csv", tag, 5_000, 50)
                 for tag in TRUTHS for k in (1, 2)]
        extra = {"select_seed": next(seeds)}
    else:
        files = [csv("pooled-100k.csv", "three-stage", 100_000, 1_000)]
        extra = {"bootstrap_replicates": BOOT_REPLICATES, "bootstrap_seed": next(seeds),
                 "calibration_replicates": CALIBRATION_REPLICATES,
                 "calibration_n": CALIBRATION_N, "calibration_seed": next(seeds)}
    return {"workload": workload, "seed": seed, "files": files, **extra}


def truth_sample(spec: dict) -> barista.BidSample:
    """The sorted times a file was drawn from (before any injected rows)."""
    return barista.sample_fixed_n(truth_params(spec["truth"]), spec["n"], seed=spec["seed"])


def _auction_ids(n: int, n_auctions: int, rng: np.random.Generator) -> np.ndarray:
    return rng.permutation(np.arange(n) % n_auctions)


def _write_relative(spec: dict, path: Path) -> None:
    sample = truth_sample(spec)
    rng = np.random.default_rng(spec["seed"] + 1)
    ids = _auction_ids(sample.n, spec["n_auctions"], rng)
    tagged = barista.BidSample(times=sample.times, T=sample.T,
                               sources=tuple(f"a{i:05d}" for i in ids))
    meta = {"truth": spec["truth"], "seed": spec["seed"], "n": spec["n"]}
    barista.write_sample(tagged, path, meta)


def _write_timestamped(spec: dict, path: Path) -> None:
    """auction_id,bid_timestamp,auction_start rows, grouped by auction.

    Starts are days since the epoch.  `injected` rows get a relative time
    outside [0, T): half before the start, half after the close.  Every
    other row is checked to land inside after the parser's own subtraction,
    so the clamp count is exactly `injected`.
    """
    sample = truth_sample(spec)
    T = sample.T
    rng = np.random.default_rng(spec["seed"] + 1)
    ids = _auction_ids(sample.n, spec["n_auctions"], rng)
    starts = 19_000.0 + np.sort(rng.uniform(0.0, 365.0, spec["n_auctions"]))
    # keep honest bids clear of the close by more than the rounding of
    # start + t at day-count magnitudes (~4e-12)
    rel = np.minimum(rng.permutation(sample.times), T - 1e-9)
    bad = rng.choice(sample.n, size=spec["injected"], replace=False)
    early = bad[: spec["injected"] // 2]
    late = bad[spec["injected"] // 2:]
    rel[early] = -rng.uniform(1e-3, 0.5, early.size)
    rel[late] = T + rng.uniform(1e-3, 0.5, late.size)
    start = starts[ids]
    stamp = start + rel
    seen = stamp - start
    outside = (seen < 0.0) | (seen >= T)
    if int(outside.sum()) != spec["injected"]:
        raise RuntimeError("rounding moved a generated bid across the window edge")
    order = np.lexsort((stamp, ids))
    with path.open("w") as fh:
        fh.write("auction_id,bid_timestamp,auction_start\n")
        fh.writelines(f"a{ids[i]:05d},{float(stamp[i])!r},{float(start[i])!r}\n"
                      for i in order)


def generate(workload: str, seed: int, outdir: Path) -> dict:
    """Write every input file of a workload under outdir; return the plan."""
    spec = plan(workload, seed)
    outdir.mkdir(parents=True, exist_ok=True)
    for f in spec["files"]:
        writer = _write_timestamped if f["layout"] == "timestamped" else _write_relative
        writer(f, outdir / f["name"])
    if workload == "ingest-500k":
        sim = {"family": "three-stage", "horizon": P_STAR.T, "alpha1": P_STAR.alpha1,
               "alpha2": P_STAR.alpha2, "alpha3": P_STAR.alpha3, "d1": P_STAR.d1,
               "d2": P_STAR.d2, "c": P_STAR.c}
        (outdir / "simulate.json").write_text(json.dumps(sim))
    (outdir / "plan.json").write_text(json.dumps(spec, indent=1))
    return spec
