"""barista benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads below, or `all` to run each in turn.  Run from
the repository root; barista is imported from `src/`, so nothing needs
installing.  Set-up (not timed as part of the workload) generates the seeded
inputs and times fresh interpreters importing `barista.cli`.  A fresh,
single-threaded worker process (worker.py) then runs the workload as a
closed loop with one client for S seconds and checks every output.

A command metric (simulate_s, select_s, ...) sums, over that command's
calls in one pass, the median of each call's time across the run's passes;
wall_s sums every call.  setup_s is the median of several fresh imports.
Every time metric but setup_s is in reference seconds (refclock.py): it
is scaled by how long a fixed kernel took when run between the steps,
since the shared host's speed swings by up to 2x for minutes at a time.
The times as measured are printed and saved beside them.
Every end-to-end metric that applies to the workload is printed by name and
unit.  The last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: with --trace 0 the gated end-to-end
metrics (GATED), with --trace 1 the per-layer metrics of the traced passes.
The full result, with the generation plan and an environment record, is
saved under bench/results/.  Exit status is 0 only if every output check
passed.

Workloads (why each exists):

* ingest-500k: CSV write and read paths of dataio at 500k rows, plus the
  CLI's own QQ formatting; the estimator does almost nothing here.  A
  timestamped-layout file keeps a faster parser for one layout honest
  about the other.
* select-5k: the GA and model selection on six 5k-bid files, two from each
  criterion-9 truth, so every selection path runs; ingest is negligible.
* resample-100k: many O(n) array passes on fresh samples (bootstrap and a
  sample -> fit -> KS calibration loop); per-sample set-up dominates and the
  GA never runs.
"""
from __future__ import annotations

import os

# before numpy is imported anywhere in this process or its children
SINGLE_THREAD = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                  "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(SINGLE_THREAD)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
WORK = BENCH / "_work"

ALL = None  # marks an end-to-end metric every workload reports

# name -> (unit, workloads reporting it)
END_TO_END = {
    "setup_s": ("s", ALL),
    "wall_s": ("s", ALL),
    "simulate_s": ("s", ("ingest-500k",)),
    "ingest_check_s": ("s", ("ingest-500k",)),
    "ingest_check_ts_s": ("s", ("ingest-500k",)),
    "fit_qc_s": ("s", ("ingest-500k",)),
    "diagnose_s": ("s", ("ingest-500k",)),
    "select_s": ("s", ("select-5k",)),
    "fit_ga_s": ("s", ("select-5k",)),
    "fit_boot_s": ("s", ("resample-100k",)),
    "calibrate_s": ("s", ("resample-100k",)),
    "fit_ll_excess": ("nats", ("select-5k",)),
    "peak_rss_mb": ("MB", ALL),
    "error_rate": ("ratio", ALL),
}
# reported to the regression gate: every workload has them and none is ever
# 0.  error_rate is 0 when all is well and is carried by `failed`;
# fit_ll_excess varies with the seed by design, so it has no spread bound.
GATED = ("setup_s", "wall_s", "peak_rss_mb")

SETUP_REPEATS = 11
RUN_LIMIT_S = 170.0


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s") or name.endswith("_s_per_generation"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("ll_excess"):
        return "nats"
    return "count"


def child_env() -> dict[str, str]:
    env = dict(os.environ, **SINGLE_THREAD, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def setup_seconds() -> float:
    """Median time from a fresh interpreter to `barista.cli` imported.

    As measured: scaling it by the reference kernel, run in this process
    between the spawns, made it spread more across runs, not less.
    """
    cmd = [sys.executable, "-c", "import barista.cli"]
    times = []
    for i in range(SETUP_REPEATS + 1):
        t0 = perf_counter()
        # no timeout: with one, Popen.wait polls in steps of up to 50 ms
        subprocess.run(cmd, cwd=ROOT, env=child_env(), check=True)
        if i:  # the first spawn may compile bytecode
            times.append(perf_counter() - t0)
    return statistics.median(times)


def environment(seed: int) -> dict:
    import numpy
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30,
                             env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        sha = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "barista").glob("*.py")):
        digest.update(path.read_bytes())
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"git_sha": sha, "src_sha256": digest.hexdigest(), "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__, "seed": seed}


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Set up, measure and check one workload; the saved result record."""
    import datagen
    started = perf_counter()
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = RESULTS / f"{workload}-seed{seed}-trace{trace}"
    try:
        t0 = perf_counter()
        plan = datagen.generate(workload, seed, work)
        generate_s = perf_counter() - t0
        setup_s = setup_seconds()
        out = work / "result.json"
        cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
               "--data", str(work), "--seconds", str(seconds), "--trace", str(trace),
               "--out", str(out)]
        if trace:
            cmd += ["--spans", str(stem) + "-spans.json"]
        left = RUN_LIMIT_S - (perf_counter() - started)
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                              text=True, timeout=max(left, 1.0))
        sys.stderr.write(proc.stdout)
        if proc.returncode != 0 or not out.exists():
            raise RuntimeError(f"worker for {workload} exited {proc.returncode}")
        result = json.loads(out.read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    m = result["metrics"]
    m.update(setup_s=setup_s, peak_rss_mb=result["peak_rss_mb"],
             error_rate=result["failed"] / result["attempted"])
    if workload == "select-5k":
        m["fit_ll_excess"] = result["fit_ll_excess"]
    if trace:
        result["per_layer"]["estimate.fit_ll_excess"] = result["fit_ll_excess"]
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": environment(seed), "plan": plan, "generate_s": generate_s,
              **result}
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1))
    return record


def print_table(rec: dict) -> None:
    w = rec["workload"]
    print(f"{w}: seed {rec['seed']}, {rec['passes']} pass(es) in {rec['seconds']:g} s, "
          f"{rec['attempted']} operations, {rec['failed']} failed, "
          f"inputs generated in {rec['generate_s']:.2f} s")
    for name, (unit, where) in END_TO_END.items():
        if where is ALL or w in where:
            print(f"  {name:<20} {rec['metrics'][name]:>14.6g} {unit}")
    if "per_layer" in rec:
        layer = rec["per_layer"]
        wall = layer["trace.wall_s"]
        print(f"  traced: wall {wall:.4g} s, untraced {layer['trace.untraced_wall_s']:.4g} s, "
              f"tracing overhead {layer['trace.overhead_s']:.4g} s")
        for name, value in layer.items():
            share = f"  ({value / wall:6.1%} of traced wall)" if name.endswith(".self_s") else ""
            print(f"  {name:<32} {value:>14.6g} {unit_of(name)}{share}")
    raw = rec["raw_metrics"]
    print(f"  as measured: wall_s {raw['wall_s']:.6g} s; reference kernel sample "
          f"{rec['reference_sample_s']:.4g} s (mean of {rec['reference_samples']})")
    for problem in rec["problems"]:
        print(f"  CHECK FAILED: {problem}")


def result_line(records: list[dict], trace: int) -> dict:
    metrics = {}
    for rec in records:
        prefix = f"{rec['workload']}." if len(records) > 1 else ""
        if trace:
            chosen = {k: (v, unit_of(k)) for k, v in rec["per_layer"].items()}
        else:
            chosen = {k: (rec["metrics"][k], END_TO_END[k][0]) for k in GATED}
        metrics.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in chosen.items()})
    return {"correct": all(not r["problems"] for r in records),
            "attempted": sum(r["attempted"] for r in records),
            "failed": sum(r["failed"] for r in records),
            "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", help="a workload name, or all")
    ap.add_argument("--seed", type=int, default=23)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "barista" / "__init__.py").is_file():
        print(f"barista sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import datagen  # imports barista, so only once src/ is on the path
    if args.workload not in datagen.WORKLOADS + ("all",):
        ap.error(f"--workload must be one of {datagen.WORKLOADS} or all")

    names = datagen.WORKLOADS if args.workload == "all" else (args.workload,)
    records = [run_workload(w, args.seed, args.seconds, args.trace) for w in names]
    for rec in records:
        print_table(rec)
    line = result_line(records, args.trace)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
