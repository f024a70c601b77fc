"""Spans around barista's public functions, installed from outside `src/`.

Each traced function is replaced at every name a barista module binds it
to (so `barista.cli.ingest`, `barista.dataio.ingest` and `barista.ingest`
all record), and `BidSample.__init__` is wrapped on the class.  A span holds
its name, start, end, the index of the span open when it began, whether the
call returned, and a small note taken from the arguments or the result.
Spans stay in memory; `summarize` turns one pass of them into the per-layer
metrics and `dump` writes them out at the end of a run.

A layer is a barista module.  Its self time is the time of its spans minus
the time of their child spans, so the self times of all layers sum to the
time covered by root spans, never more.
"""
from __future__ import annotations

import functools
import importlib
import json
import math
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "dataio", "sample", "process", "simulate", "estimate",
          "selection", "diagnostics")

# module -> public functions wrapped there; BidSample construction is the
# sample layer's span
TRACED = {
    "cli": ("main",),
    "dataio": ("ingest", "ingest_summary", "write_sample"),
    "process": ("cdf", "inverse_cdf", "mean_count"),
    "simulate": ("sample_fixed_n",),
    "estimate": ("qc_fit", "loglik", "ga_fit", "bootstrap_se"),
    "selection": ("select_model", "lr_test"),
    "diagnostics": ("ks_one_sample", "qq_points"),
}

NAME, START, END, PARENT, OK, NOTE = range(6)


def _ga_note(args, kwargs, result):
    cfg = args[2] if len(args) > 2 else kwargs["cfg"]
    generations = len(result.history) - 1 if result.history else 0
    return {"family": result.family.tag, "loglik": result.loglik,
            "generations": generations,
            "evals": cfg.population_size + 2 * cfg.offspring_pairs * generations}


def _select_note(args, kwargs, result):
    return {tag: fit.loglik for tag, fit in result.fits.items()}


NOTES = {
    "dataio.ingest": lambda a, k, r: {"rows": r.n},
    "dataio.ingest_summary": lambda a, k, r: {"rows": r["n_bids"]},
    "estimate.ga_fit": _ga_note,
    "estimate.bootstrap_se": lambda a, k, r: {
        "replicates": a[2] if len(a) > 2 else k["n_replicates"]},
    "selection.select_model": _select_note,
}


class Tracer:
    """Records spans between `install` and `remove`, which patch barista."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, note = self.spans, self._stack, NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, False, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            span[OK] = True
            if note is not None:
                span[NOTE] = note(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        import barista
        modules = [barista] + [importlib.import_module(f"barista.{m}") for m in LAYERS]
        for layer, names in TRACED.items():
            home = importlib.import_module(f"barista.{layer}")
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        cls = barista.BidSample
        self._patches.append((cls, "__init__", cls.__init__))
        cls.__init__ = self._wrap("sample.bidsample_build", cls.__init__)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def take(self) -> list[list]:
        """The spans recorded so far, clearing the buffer."""
        out = list(self.spans)
        self.spans.clear()
        return out


def _outermost(spans: list[list]) -> list[bool]:
    """True where no ancestor span has the same name (a recursive call)."""
    flags = []
    for s in spans:
        p = s[PARENT]
        while p >= 0 and spans[p][NAME] != s[NAME]:
            p = spans[p][PARENT]
        flags.append(p < 0)
    return flags


def summarize(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    dur = [s[END] - s[START] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child[s[PARENT]] += dur[i]
    self_s = defaultdict(float)
    incl = defaultdict(float)
    calls = defaultdict(int)
    ok = defaultdict(int)
    for i, (s, outer) in enumerate(zip(spans, _outermost(spans))):
        self_s[s[NAME].split(".")[0]] += dur[i] - child[i]
        if outer:
            incl[s[NAME]] += dur[i]
            calls[s[NAME]] += 1
            ok[s[NAME]] += s[OK]

    def notes(name, key):
        return [s[NOTE][key] for s in spans if s[NAME] == name and s[NOTE]]

    def ratio(num, den):
        return num / den if den else 0.0

    rows = sum(notes("dataio.ingest", "rows")) + sum(notes("dataio.ingest_summary", "rows"))
    read_s = incl["dataio.ingest"] + incl["dataio.ingest_summary"]
    generations = sum(notes("estimate.ga_fit", "generations"))
    replicates = sum(notes("estimate.bootstrap_se", "replicates"))
    useful, richer = _ga_usefulness(spans)

    m = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
    m.update({
        "dataio.ingest_s": incl["dataio.ingest"],
        "dataio.ingest_summary_s": incl["dataio.ingest_summary"],
        "dataio.rows": rows,
        "dataio.rows_per_s": ratio(rows, read_s),
        "dataio.write_sample_s": incl["dataio.write_sample"],
        "sample.bidsample_build_s": incl["sample.bidsample_build"],
        "sample.bidsample_builds": calls["sample.bidsample_build"],
        "process.cdf_s": incl["process.cdf"],
        "process.cdf_calls": calls["process.cdf"],
        "process.inverse_cdf_s": incl["process.inverse_cdf"],
        "process.inverse_cdf_calls": calls["process.inverse_cdf"],
        "simulate.sample_fixed_n_s": incl["simulate.sample_fixed_n"],
        "estimate.qc_fit_s": incl["estimate.qc_fit"],
        "estimate.qc_fit_calls": calls["estimate.qc_fit"],
        "estimate.qc_fit_useful_ratio": ratio(ok["estimate.qc_fit"], calls["estimate.qc_fit"]),
        "estimate.loglik_s": incl["estimate.loglik"],
        "estimate.ga_fit_s": incl["estimate.ga_fit"],
        "estimate.ga_fit_calls": calls["estimate.ga_fit"],
        "estimate.ga_generations": generations,
        "estimate.ga_s_per_generation": ratio(incl["estimate.ga_fit"], generations),
        "estimate.loglik_evals": sum(notes("estimate.ga_fit", "evals")),
        "estimate.bootstrap_se_s": incl["estimate.bootstrap_se"],
        "estimate.bootstrap_replicate_s": ratio(incl["estimate.bootstrap_se"], replicates),
        "selection.select_model_s": incl["selection.select_model"],
        "selection.lr_tests": calls["selection.lr_test"],
        "selection.ga_useful_ratio": ratio(useful, richer),
        "diagnostics.ks_one_sample_s": incl["diagnostics.ks_one_sample"],
        "diagnostics.qq_points_s": incl["diagnostics.qq_points"],
    })
    if not all(math.isfinite(v) for v in m.values()):
        raise ValueError("a per-layer metric is not finite")
    return m


def _ga_usefulness(spans: list[list]) -> tuple[int, int]:
    """Richer-family GA fits inside select_model that reached the smaller fit.

    The two-stage GA is useful when it matches the one-stage fit's
    log-likelihood, the three-stage GA when it matches the two-stage fit
    that selection kept; otherwise selection falls back to its floor.
    """
    smaller = {"two-stage": "one-stage", "three-stage": "two-stage"}
    useful = richer = 0
    for idx, s in enumerate(spans):
        if s[NAME] != "selection.select_model" or not s[NOTE]:
            continue
        kept = s[NOTE]
        for child in spans[idx + 1:]:
            if child[START] >= s[END]:
                break
            if child[NAME] == "estimate.ga_fit" and child[PARENT] == idx:
                tag = child[NOTE]["family"]
                if tag in smaller:
                    richer += 1
                    useful += child[NOTE]["loglik"] >= kept[smaller[tag]]
    return useful, richer


def dump(spans: list[list], path) -> None:
    """Spans as JSON rows, times in seconds from the first span."""
    t0 = spans[0][START] if spans else 0.0
    rows = [{"name": s[NAME], "start": s[START] - t0, "end": s[END] - t0,
             "parent": s[PARENT], "ok": s[OK]} for s in spans]
    with open(path, "w") as fh:
        json.dump(rows, fh, separators=(",", ":"))
