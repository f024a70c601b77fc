"""The measuring process: one closed-loop client running one workload.

    python3 bench/worker.py --workload NAME --data DIR --seconds S --trace 0|1 --out FILE

Run with `src` on PYTHONPATH in a fresh single-threaded interpreter (see
run.py).  A pass runs the workload's command sequence once, each command
after the previous one returned.  Passes repeat until the next one would
end after S seconds, with at least one.  CLI commands go through
`barista.cli.main` in this process with stdout captured; the calibration
loop calls the library directly.

Each pass also runs the reference kernel of refclock.py, in a burst before
its first step and after any step that ends REF_EVERY_S or more after the
last burst, for REF_SHARE of the step time since then.  The metrics take
each pass's step times scaled into reference seconds by the mean of that
pass's kernel samples; the times as measured are kept beside them.

Every output is checked on the first pass.  Later passes must reproduce
the first pass's outputs byte for byte, since every command has a fixed
seed and runs with --no-timestamp.  With --trace 1 an untimed checked pass
comes first; then each untraced pass is paired with a traced pass over the
same inputs, alternating which runs first, and the per-layer metrics come
from the traced passes only.

The result goes to FILE as JSON; run.py turns it into the report.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import math
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import barista
import barista.cli
from barista import BaristaParams, OneStage, TwoStage

import datagen
import refclock
import tracer as tracing

# acceptance criterion 1's intervals around the reference vector
INTERVALS = {"alpha1": (2.6, 3.4), "alpha2": (0.35, 0.45), "alpha3": (0.85, 1.15),
             "d1": (2.3, 2.7), "d2_minutes": (3.0, 6.5)}
RTOL = 1e-9
# the machine's speed also wanders within a second, so the kernel runs at
# least every REF_EVERY_S of steps, for REF_SHARE of the time they took
REF_EVERY_S = 0.5
REF_SHARE = 0.1


class Run:
    """Attempts, failures and failed checks of one measuring process."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.checking_s = 0.0  # spent in first-pass output checks

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)

    def cli(self, argv: list[str]) -> tuple[bool, str]:
        """One CLI call in-process.

        It fails on a nonzero exit status, a traceback or an error object.
        """
        self.attempted += 1
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                code = barista.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = "traceback"
            self.problems.append(f"{argv[0]} raised:\n{traceback.format_exc()}")
        if code == 0 and '"error":' in buf.getvalue():
            try:
                code = "error object" if "error" in json.loads(buf.getvalue()) else 0
            except json.JSONDecodeError:
                pass  # report() flags output that is not one JSON object
        if code != 0:
            self.failed += 1
            said = " ".join(buf.getvalue().split())[:300]
            self.problems.append(f"{' '.join(argv)} exited {code}: {said}")
        return code == 0, buf.getvalue()


def close(a: float, b: float) -> bool:
    return abs(a - b) <= RTOL * abs(b)


def shape_of(report: dict, T: float) -> BaristaParams:
    """The fitted parameter vector a report describes."""
    p = report["params"]
    if report["family"] == "one-stage":
        return OneStage(p["alpha"], p["c"], T).as_barista()
    if report["family"] == "two-stage":
        return TwoStage(p["alpha2"], p["alpha3"], p["d2"], p["c"], T).as_barista()
    return BaristaParams(p["alpha1"], p["alpha2"], p["alpha3"], p["d1"], p["d2"], p["c"], T)


class Workload:
    """Inputs, command sequence and output checks of one workload.

    steps() yields (metric, command, check, artifact) in order: command is
    CLI argv or a callable returning (ok, text) like Run.cli, check(text)
    runs on the first pass, and artifact names a file the command writes,
    hashed with the text to compare later passes with the first.
    """

    def __init__(self, run: Run, plan: dict, data: Path) -> None:
        self.run = run
        self.plan = plan
        self.data = data
        self.files = {f["name"]: f for f in plan["files"]}
        self._truths: dict[str, barista.BidSample] = {}

    def truth(self, name: str) -> barista.BidSample:
        if name not in self._truths:
            self._truths[name] = datagen.truth_sample(self.files[name])
        return self._truths[name]

    def path(self, name: str) -> str:
        return str(self.data / name)

    def report(self, out: str, command: str) -> dict | None:
        """The command's report, if stdout is exactly one barista/1 object."""
        try:
            obj = json.loads(out)
        except json.JSONDecodeError:
            self.run.check(False, f"{command}: stdout is not one JSON object")
            return None
        ok = (isinstance(obj, dict) and obj.get("schema") == "barista/1"
              and obj.get("command") == command and "error" not in obj)
        self.run.check(ok, f"{command}: not a barista/1 {command} report")
        return obj if ok else None

    def check_fit(self, fit: dict, name: str, what: str) -> None:
        """loglik and c_hat of one fitted family against the library."""
        sample = self.truth(name)
        shape = shape_of(fit, sample.T)
        self.run.check(close(fit["loglik"], barista.loglik(sample, shape)),
                       f"{what}: loglik differs from barista.loglik at the reported params")
        c_ref = sample.n / barista.mean_count(shape.with_c(1.0), sample.T)
        self.run.check(close(fit["c_hat"], c_ref) and fit["params"]["c"] == fit["c_hat"],
                       f"{what}: c_hat differs from n / mean_count of the shape")

    def check_intervals(self, fit: dict, what: str) -> None:
        got = dict(fit["params"], d2_minutes=fit.get("d2_minutes"))
        outside = [k for k, (lo, hi) in INTERVALS.items()
                   if got[k] is None or not lo <= got[k] <= hi]
        self.run.check(not outside, f"{what}: {outside} outside criterion 1's intervals")


class Ingest(Workload):
    """simulate, ingest-check on both layouts, quick-crude fit, diagnose."""

    def steps(self):
        sim_out = self.path("simulated.csv")
        qq_out = self.path("qq.csv")
        rel, ts = "pooled-500k.csv", "stamped-200k.csv"
        common = ["--horizon", "7.0", "--no-timestamp"]
        yield ("simulate_s",
               ["simulate", "--config", self.path("simulate.json"), "--n",
                str(self.plan["simulate_n"]), "--seed", str(self.plan["simulate_seed"]),
                "--output", sim_out, "--no-timestamp"],
               self.check_simulate, sim_out)
        yield ("ingest_check_s", ["ingest-check", "--input", self.path(rel), *common],
               lambda out: self.check_summary(out, rel), None)
        yield ("ingest_check_ts_s",
               ["ingest-check", "--input", self.path(ts), "--clamp-policy", "clamp-epsilon",
                *common],
               lambda out: self.check_summary(out, ts), None)
        yield ("fit_qc_s",
               ["fit", "--input", self.path(rel), "--method", "quick-crude", *common],
               lambda out: self.check_qc(out, "fit", rel), None)
        yield ("diagnose_s",
               ["diagnose", "--input", self.path(rel), "--method", "quick-crude",
                "--qq-out", qq_out, *common],
               lambda out: self.check_diagnose(out, rel, qq_out), qq_out)

    def check_simulate(self, out: str) -> None:
        path = self.path("simulated.csv")
        meta = barista.read_metadata(path)
        n = self.plan["simulate_n"]
        self.run.check(meta.get("schema") == "barista/1" and meta.get("n") == str(n),
                       "simulate: CSV metadata lacks schema barista/1 or the requested n")
        with open(path) as fh:
            rows = [line.rsplit(",", 1)[1] for line in fh if not line.startswith("#")]
        times = np.array(rows[1:], dtype=float)
        want = barista.sample_fixed_n(datagen.P_STAR, n, seed=self.plan["simulate_seed"])
        self.run.check(np.array_equal(times, want.times),
                       "simulate: CSV times differ from sample_fixed_n at the same seed")

    def check_summary(self, out: str, name: str) -> None:
        rep = self.report(out, "ingest-check")
        if rep is None:
            return
        f = self.files[name]
        got = (rep["n_bids"], rep["n_auctions"], rep["n_clamped"])
        self.run.check(got == (f["n"], f["n_auctions"], f["injected"]),
                       f"ingest-check {name}: (n_bids, n_auctions, n_clamped) = {got}, "
                       f"wrote {(f['n'], f['n_auctions'], f['injected'])}")

    def check_qc(self, out: str, command: str, name: str) -> dict | None:
        rep = self.report(out, command)
        if rep is not None:
            self.run.check(rep["n"] == self.files[name]["n"], f"{command}: wrong n")
            self.check_fit(rep, name, command)
            self.check_intervals(rep, command)
        return rep

    def check_diagnose(self, out: str, name: str, qq_out: str) -> None:
        rep = self.check_qc(out, "diagnose", name)
        if rep is None:
            return
        ks = rep["ks"]
        self.run.check(0.0 <= ks["p_value"] <= 1.0 and 0.0 <= ks["d_statistic"] <= 1.0,
                       "diagnose: KS statistic or p-value outside [0, 1]")
        with open(qq_out, "rb") as fh:
            lines = fh.read().count(b"\n")
        self.run.check(lines == rep["n"] + 1, f"diagnose: QQ CSV has {lines} lines")


class Select(Workload):
    """select, then a GA fit of the true family, on each of six files."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.ll_excess: list[float] = []

    def excess(self, fit: dict, name: str) -> None:
        """Report loglik minus loglik at the generating parameters."""
        tag = self.files[name]["truth"]
        if fit["family"] == tag:
            truth = datagen.truth_params(tag)
            self.ll_excess.append(fit["loglik"] - barista.loglik(self.truth(name), truth))

    def steps(self):
        seed = str(self.plan["select_seed"])
        for name, f in self.files.items():
            common = ["--input", self.path(name), "--horizon",
                      repr(datagen.truth_params(f["truth"]).T), "--seed", seed,
                      "--no-timestamp"]
            yield ("select_s", ["select", *common],
                   lambda out, name=name: self.check_select(out, name), None)
            yield ("fit_ga_s", ["fit", "--method", "ga", "--family", f["truth"], *common],
                   lambda out, name=name: self.check_ga(out, name), None)

    def check_select(self, out: str, name: str) -> None:
        rep = self.report(out, "select")
        if rep is None:
            return
        self.run.check(rep["chosen"] in rep["fits"], f"select {name}: chosen has no fit")
        for tag, fit in rep["fits"].items():
            self.run.check(fit["family"] == tag, f"select {name}: fit under wrong tag")
            self.check_fit(fit, name, f"select {name} {tag}")
            self.excess(fit, name)
        for test in rep["tests"].values():
            if test is not None:
                self.run.check(0.0 <= test["p_value"] <= 1.0 and test["statistic"] >= 0.0,
                               f"select {name}: LR test outside its range")

    def check_ga(self, out: str, name: str) -> None:
        rep = self.report(out, "fit")
        if rep is not None:
            self.run.check(rep["family"] == self.files[name]["truth"],
                           f"fit {name}: wrong family")
            self.check_fit(rep, name, f"fit ga {name}")
            self.excess(rep, name)


class Resample(Workload):
    """Bootstrapped quick-crude fit, then a library calibration loop."""

    def steps(self):
        name = "pooled-100k.csv"
        yield ("fit_boot_s",
               ["fit", "--input", self.path(name), "--horizon", "7.0", "--method",
                "quick-crude", "--bootstrap", str(self.plan["bootstrap_replicates"]),
                "--seed", str(self.plan["bootstrap_seed"]), "--no-timestamp"],
               lambda out: self.check_boot(out, name), None)
        # the calibration loop, one step per replicate
        n, reps = self.plan["calibration_n"], self.plan["calibration_replicates"]
        cfg = barista.default_qc_config(datagen.P_STAR.T)
        for s in np.random.SeedSequence(self.plan["calibration_seed"]).generate_state(reps):
            yield ("calibrate_s", functools.partial(self.replicate, n, int(s), cfg),
                   self.check_replicate, None)

    def check_boot(self, out: str, name: str) -> None:
        rep = self.report(out, "fit")
        if rep is None:
            return
        self.check_fit(rep, name, "fit --bootstrap")
        se = rep.get("stderrs") or {}
        self.run.check(rep.get("bootstrap_replicates") == self.plan["bootstrap_replicates"],
                       "fit --bootstrap: wrong replicate count")
        self.run.check(bool(se) and all(math.isfinite(v) and v > 0 for v in se.values()),
                       f"fit --bootstrap: standard errors not finite and positive: {se}")

    def replicate(self, n: int, seed: int, cfg) -> tuple[bool, str]:
        """sample_fixed_n -> qc_fit -> ks_one_sample; "D,p" as text."""
        self.run.attempted += 1
        try:
            sample = barista.sample_fixed_n(datagen.P_STAR, n, seed=seed)
            fit = barista.qc_fit(sample, cfg)
            ks = barista.ks_one_sample(sample, fit.family.as_barista())
        except (barista.EstimationError, ValueError) as exc:
            self.run.failed += 1
            self.run.problems.append(f"calibration replicate {seed} raised {exc!r}")
            return False, ""
        return True, f"{ks.d_statistic!r},{ks.p_value!r}"

    def check_replicate(self, out: str) -> None:
        d, p = map(float, out.split(","))
        self.run.check(0.0 <= d <= 1.0 and 0.0 <= p <= 1.0,
                       f"calibration: KS statistic {d} or p-value {p} outside [0, 1]")


WORKLOADS = {"ingest-500k": Ingest, "select-5k": Select, "resample-100k": Resample}


def fingerprint(out: str, artifact: str | None) -> str:
    h = hashlib.sha256(out.encode())
    if artifact is not None:
        with open(artifact, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def reference_burst(seconds: float) -> list[float]:
    """Kernel samples taken back to back for about `seconds`."""
    samples = [refclock.sample()]
    while sum(samples) < seconds:
        samples.append(refclock.sample())
    return samples


def one_pass(wl: Workload, reference: list[str] | None
             ) -> tuple[list[tuple[str, float]], list[str], list[float]]:
    """Run the sequence once; check outputs, or compare them to `reference`.

    Returns each step's (metric, seconds) in order, the output hashes, and
    the reference kernel samples taken between steps.
    """
    times: list[tuple[str, float]] = []
    prints: list[str] = []
    clock = reference_burst(REF_SHARE * REF_EVERY_S)
    since = 0.0
    for i, (metric, op, check, artifact) in enumerate(wl.steps()):
        t0 = perf_counter()
        ok, out = op() if callable(op) else wl.run.cli(op)
        dt = perf_counter() - t0
        times.append((metric, dt))
        since += dt
        if since >= REF_EVERY_S:
            clock += reference_burst(REF_SHARE * since)
            since = 0.0
        if not ok:
            prints.append("failed")
            continue
        prints.append(fingerprint(out, artifact))
        if reference is None:
            t0 = perf_counter()
            try:
                check(out)
            except (KeyError, TypeError, ValueError) as exc:
                wl.run.check(False, f"{metric}: report does not hold what it should: {exc!r}")
            wl.run.checking_s += perf_counter() - t0
        else:
            wl.run.check(prints[i] == reference[i], f"{metric}: output differs from pass 1")
    if since > 0.0:
        clock += reference_burst(REF_SHARE * since)
    return times, prints, clock


def step_medians(passes: list[list[tuple[str, float]]]) -> dict[str, float]:
    """Each metric as the sum of its steps' median times over passes.

    Medians of single steps, each a few seconds or less, follow the
    machine's usual speed more closely than medians of whole passes, which
    average in its slower and faster spells.  wall_s sums every step.
    """
    out: dict[str, float] = {}
    for i, (metric, _) in enumerate(passes[0]):
        out[metric] = out.get(metric, 0.0) + statistics.median(p[i][1] for p in passes)
    out["wall_s"] = sum(out.values())
    return out


def traced_pass(wl: Workload, reference: list[str],
                tracer: tracing.Tracer) -> tuple[list[tuple[str, float]], list[list]]:
    """One pass with barista patched; its times and spans."""
    tracer.install()
    try:
        times, _, _ = one_pass(wl, reference)
    finally:
        tracer.remove()
    return times, tracer.take()


def peak_rss_mb() -> float:
    """High-water resident set of this process image.

    getrusage's ru_maxrss would also count the parent's resident set, which
    Linux carries across fork and exec.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--data", required=True, type=Path)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", type=Path, help="write the traced passes' spans here")
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args()

    run = Run()
    plan = json.loads((args.data / "plan.json").read_text())
    wl = WORKLOADS[args.workload](run, plan, args.data)
    tracer = tracing.Tracer() if args.trace else None

    passes, scaled, traced, layers, reference = [], [], [], [], None
    clock: list[float] = []  # kernel samples of the untraced passes
    reference_means: list[float] = []
    if tracer is not None:
        # an untimed checked pass first, so neither side of the traced and
        # untraced comparison pays the process's first-pass heap growth
        _, reference, _ = one_pass(wl, None)
    start = perf_counter()
    while True:
        t0, checked = perf_counter(), run.checking_s
        if tracer is None:
            sides = ("plain",)
        else:
            sides = ("plain", "traced") if len(passes) % 2 == 0 else ("traced", "plain")
        for side in sides:
            if side == "plain":
                times, prints, samples = one_pass(wl, reference)
                passes.append(times)
                scaled.append([(m, refclock.scale(dt, samples)) for m, dt in times])
                clock += samples
                reference_means.append(statistics.fmean(samples))
                reference = reference or prints
                continue
            times, spans = traced_pass(wl, reference, tracer)
            traced.append(times)
            layers.append(tracing.summarize(spans))
            total_self = sum(layers[-1][f"{layer}.self_s"] for layer in tracing.LAYERS)
            wall = sum(dt for _, dt in times)
            run.check(total_self <= wall,
                      f"layer self times sum to {total_self} s > traced wall {wall} s")
            if args.spans is not None and len(traced) == 1:
                tracing.dump(spans, args.spans)
        # the next pass takes about as long as this one, less its checks
        elapsed = perf_counter() - start
        if elapsed + (perf_counter() - t0) - (run.checking_s - checked) > args.seconds:
            break

    result = {
        "passes": len(passes),
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems,
        "metrics": step_medians(scaled),
        "raw_metrics": step_medians(passes),
        "step_seconds": [[dt for _, dt in p] for p in passes],
        "reference_sample_s": statistics.fmean(clock),
        "reference_sample_s_per_pass": reference_means,
        "reference_samples": len(clock),
        "peak_rss_mb": peak_rss_mb(),
        "fit_ll_excess": min(getattr(wl, "ll_excess", None) or [0.0]),
    }
    if tracer is not None:
        per_layer = {k: statistics.median(r[k] for r in layers) for k in layers[0]}
        per_layer["trace.wall_s"] = step_medians(traced)["wall_s"]
        per_layer["trace.untraced_wall_s"] = result["raw_metrics"]["wall_s"]
        per_layer["trace.overhead_s"] = (per_layer["trace.wall_s"]
                                         - per_layer["trace.untraced_wall_s"])
        result["per_layer"] = per_layer
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
