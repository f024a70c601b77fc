"""Collect saved results into bench/baseline.json.

    python3 bench/baseline.py --seeds 101-110 --trace-seed 101

Reads bench/results/<workload>-seed<N>-trace0.json for every workload and
seed, and the traced result of --trace-seed, as run.py saved them.  For each
end-to-end metric it records the values, their median and quartiles, and
the spread (q3 - q1) / median that the benchmark's bounds are checked
against; the times as measured go beside the reference-second ones.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

import run

ABOUT = ("Baseline of the code under src/ at git_sha: end-to-end metrics over ten runs per "
         "workload (python3 bench/run.py --workload W --seed S --seconds {seconds} --trace 0) "
         "and the per-layer metrics of one traced run per workload (--trace 1).  Measured on a "
         "shared 2-core machine whose speed swings by up to 2x for seconds to minutes; times "
         "other than setup_s are in reference seconds (bench/refclock.py), and the times as "
         "measured are under raw.  Compare a change against its parent measured on the same "
         "machine at the same time, not against these numbers.")


def summary(values: list[float], unit: str) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"unit": unit, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seed_range, default=seed_range("101-110"))
    ap.add_argument("--trace-seed", type=int, default=101)
    args = ap.parse_args()

    sys.path.insert(0, str(run.SRC))
    import datagen  # imports barista, so only once src/ is on the path
    out, environment, seconds = {}, None, None
    for workload in datagen.WORKLOADS:
        recs = [json.loads((run.RESULTS / f"{workload}-seed{s}-trace0.json").read_text())
                for s in args.seeds]
        traced = json.loads(
            (run.RESULTS / f"{workload}-seed{args.trace_seed}-trace1.json").read_text())
        environment = {k: v for k, v in recs[0]["environment"].items() if k != "seed"}
        seconds = recs[0]["seconds"]
        names = [k for k, (_, where) in run.END_TO_END.items()
                 if where is run.ALL or workload in where]
        out[workload] = {
            "attempted_per_run": [r["attempted"] for r in recs],
            "failed": sum(r["failed"] for r in recs),
            "failed_checks": {str(r["seed"]): r["problems"] for r in recs if r["problems"]},
            "passes_per_run": [r["passes"] for r in recs],
            "end_to_end": {k: summary([r["metrics"][k] for r in recs], run.END_TO_END[k][0])
                           for k in names},
            "raw": {k: summary([r["raw_metrics"][k] for r in recs], "s")
                    for k in recs[0]["raw_metrics"]},
            f"per_layer_seed{args.trace_seed}": {
                k: {"value": v, "unit": run.unit_of(k)} for k, v in traced["per_layer"].items()},
            f"generation_plan_seed{args.trace_seed}": traced["plan"],
        }
    baseline = {"about": ABOUT.format(seconds=f"{seconds:g}"), "run_seconds": seconds,
                "seeds": args.seeds, "workloads": out, "environment": environment}
    (run.BENCH / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
