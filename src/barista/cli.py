"""Command line front end.

Subcommands:

* simulate      draw a synthetic bid sample from configured parameters
* fit           estimate parameters from a CSV of bids
* select        nested likelihood-ratio selection across the three families
* diagnose      fit, then KS and QQ goodness-of-fit against the fitted process
* ingest-check  validate a CSV and report what would load

Reports are JSON objects carrying "schema": "barista/1", written to --output
or stdout.  --no-timestamp drops the generated_at field so identical runs are
byte-identical.  A --config file is a flat JSON object supplying any of the
subcommand's settings (its flags' names, and simulate's model parameters),
each of the JSON type its flag takes.  Each subparser holds its defaults and
a config file replaces them, so the precedence is flag defaults < config <
explicit flags.  Failures print a JSON error object to stdout and exit 1.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .dataio import (
    MINUTES_PER_UNIT,
    IngestSpec,
    ingest,
    ingest_summary,
    write_qq,
    write_sample,
)
from .diagnostics import ks_one_sample, qq_points
from .estimate import (
    FitResult,
    GaConfig,
    QcConfig,
    _one_stage_fit,
    bootstrap_se,
    default_bounds,
    default_qc_config,
    ga_fit,
    grid_search,
    profile_fit,
    qc_fit,
)
from .process import FAMILIES, get_family, mean_count
from .sample import BidSample
from .selection import select_model
from .simulate import sample_fixed_n, sample_poisson_count

SCHEMA = "barista/1"
_METHODS = ("ga", "grid", "quick-crude", "closed-form", "profile")


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------

def _nonfinite(obj, name: str = "") -> tuple[str, float] | None:
    """The dotted name and value of the first number in obj that JSON
    cannot hold (inf or nan), or None."""
    if isinstance(obj, float):
        return None if math.isfinite(obj) else (name, obj)
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return None
    for key, value in items:
        found = _nonfinite(value, f"{name}.{key}" if name else str(key))
        if found:
            return found
    return None


def _check_finite(args: argparse.Namespace, payload: dict) -> None:
    """Every number of a report must be finite, so that it is strict JSON;
    the horizon scales every time and rate in it, so a value that overflows
    names --horizon."""
    bad = _nonfinite(payload)
    if bad:
        raise ValueError(f"report value {bad[0]} is {bad[1]}, which JSON cannot hold: "
                         f"--horizon {args.horizon!r} is too large for this data")


def _envelope(args: argparse.Namespace, payload: dict) -> dict:
    """schema and command, then the payload, then generated_at unless
    --no-timestamp: every report, and the metadata of simulate's CSV.
    """
    _check_finite(args, payload)
    obj = {"schema": SCHEMA, "command": args.command, **payload}
    if not args.no_timestamp:
        obj["generated_at"] = datetime.now(timezone.utc).isoformat(timespec="seconds")
    return obj


# JSON types a --config value may take: those of the flag that sets it (a
# float flag takes any number; --windows, --grid and --bounds take JSON text
# or the object or list it holds).  null keeps the default, as an absent
# flag does.
_SETTING_TYPES = {
    **dict.fromkeys(("seed", "n", "bootstrap", "generations"), (int,)),
    **dict.fromkeys(("horizon", "c", "alpha", "alpha1", "alpha2", "alpha3", "d1", "d2",
                     "alpha_level"), (int, float)),
    **dict.fromkeys(("input", "unit", "clamp_policy", "method", "family", "output",
                     "qq_out"), (str,)),
    **dict.fromkeys(("windows", "grid", "bounds"), (str, dict, list)),
    "no_timestamp": (bool,),
}
_JSON_NAMES = {int: "an integer", float: "a number", str: "a string", dict: "an object",
               list: "a list", bool: "true or false"}
# names a subparser's namespace holds that are not settings
_NOT_SETTINGS = {"func", "parser", "config"}


def _config(path: str, sub: argparse.ArgumentParser) -> dict:
    """The non-null settings of a --config file, each of its flag's JSON type."""
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("config file must hold a JSON object")
    unknown = set(cfg) - (set(vars(sub.parse_args([]))) - _NOT_SETTINGS)
    if unknown:
        raise ValueError(f"unknown config keys {sorted(unknown)}")
    # argparse checks a flag's value against its choices, but not a default
    choices = {action.dest: action.choices for action in sub._actions if action.choices}
    for key, val in cfg.items():
        kinds = _SETTING_TYPES[key]
        if val is not None and (not isinstance(val, kinds)
                                or isinstance(val, bool) and bool not in kinds):
            names = " or ".join(_JSON_NAMES[k] for k in kinds)
            raise ValueError(f"config key {key!r} must be {names}, got {json.dumps(val)}")
        if val is not None and key in choices and val not in choices[key]:
            if key == "family":
                get_family(val)  # the message every unknown family tag gets
            raise ValueError(f"config key {key!r} must be one of {list(choices[key])}, "
                             f"got {json.dumps(val)}")
    return {key: val for key, val in cfg.items() if val is not None}


def _require(args: argparse.Namespace, *keys: str) -> None:
    missing = [k for k in keys if getattr(args, k) is None]
    if missing:
        raise ValueError(f"missing required settings: {', '.join(missing)}")


def _ingest_spec(args: argparse.Namespace) -> IngestSpec:
    _require(args, "input", "horizon")
    return IngestSpec(
        path=args.input,
        horizon=float(args.horizon),
        unit=args.unit,
        clamp_policy=args.clamp_policy,
    )


def _ingested(args: argparse.Namespace) -> tuple[BidSample, dict]:
    """The sample the ingest settings name, and the report fields describing it."""
    sample = ingest(_ingest_spec(args))
    return sample, {"n": sample.n, "horizon": sample.T, "unit": args.unit}


def _json_flag(value, what: str):
    """Flags like --windows accept inline JSON; config files pass objects."""
    if value is None or not isinstance(value, str):
        return value
    try:
        return json.loads(value)
    except json.JSONDecodeError as exc:
        raise ValueError(f"--{what} is not valid JSON: {exc}") from None


def _params_block(fit: FitResult, unit: str) -> dict:
    params = {k: float(v) for k, v in fit.params.items()}
    block = {
        "family": fit.family.tag,
        "params": params,
        "loglik": float(fit.loglik),
        "c_hat": float(fit.c_hat),
    }
    if "d2" in params:
        block["d2_minutes"] = params["d2"] * MINUTES_PER_UNIT[unit]
    return block


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _cmd_simulate(args: argparse.Namespace) -> None:
    _require(args, "horizon")
    T, c = float(args.horizon), float(args.c)
    spec = get_family(args.family)
    _require(args, *spec.free_names)
    family = spec.build([float(getattr(args, name)) for name in spec.free_names], c, T)
    p = family.as_barista()
    if args.n is None:
        sample = sample_poisson_count(p, seed=args.seed)
    else:
        sample = sample_fixed_n(p, args.n, seed=args.seed)
    meta = _envelope(args, {
        "family": family.tag,
        "horizon": p.T,
        "unit": args.unit,
        "seed": args.seed,
        "n": sample.n,
        "expected_count": mean_count(p, p.T),
        **family.free_values(),
        "c": p.c,
    })
    if args.output:
        with open(args.output, "w", newline="") as fh:
            write_sample(sample, fh, meta)
    else:
        write_sample(sample, sys.stdout, meta)


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def _numbers(value) -> bool:
    """value is a non-empty JSON list of numbers."""
    return (isinstance(value, list) and len(value) > 0
            and all(isinstance(v, (int, float)) for v in value))


_WINDOW_SIZES = {"stage1": 2, "stage2": 2, "stage3": 2, "safe": 4}


def _qc_config_from(args: argparse.Namespace, T: float) -> QcConfig:
    windows = _json_flag(args.windows, "windows")
    if windows is None:
        return default_qc_config(T)
    if not isinstance(windows, dict):
        raise ValueError(f"--windows must be a JSON object with keys {list(_WINDOW_SIZES)}")
    for key, size in _WINDOW_SIZES.items():
        if key not in windows:
            raise ValueError(f"--windows object is missing key {key!r}")
        if not (_numbers(windows[key]) and len(windows[key]) == size):
            raise ValueError(f"--windows {key} must be a list of {size} numbers, "
                             f"got {windows[key]!r}")
    return QcConfig(
        stage1_window=tuple(windows["stage1"]),
        stage2_window=tuple(windows["stage2"]),
        stage3_points=tuple(windows["stage3"]),
        safe_points=tuple(windows["safe"]),
    )


def _default_box(family: str, T: float) -> tuple:
    """default_bounds, which must be finite: they scale with --horizon."""
    box = default_bounds(family, T)
    if not all(math.isfinite(v) for pair in box for v in pair):
        raise ValueError(f"--horizon {T!r} is too large: the default {family} search box "
                         f"{box} overflows")
    return box


def _bounds_from(args: argparse.Namespace, family: str, T: float) -> tuple:
    bounds = _json_flag(args.bounds, "bounds")
    if bounds is None:
        return _default_box(family, T)
    if not (isinstance(bounds, list) and all(_numbers(b) and len(b) == 2 for b in bounds)):
        raise ValueError(f"--bounds must be a JSON list of [lo, hi] number pairs, got {bounds!r}")
    return tuple(tuple(b) for b in bounds)


def _ga_config_from(args: argparse.Namespace, family: str, T: float) -> GaConfig:
    return GaConfig(bounds=_bounds_from(args, family, T), generations=args.generations,
                    seed=args.seed)


def _grid_from(args: argparse.Namespace, family: str) -> dict[str, list]:
    grid = _json_flag(args.grid, "grid")
    if not grid:
        raise ValueError("grid method needs a grid: {param: [values, ...]}")
    names = get_family(family).free_names
    if not isinstance(grid, dict):
        raise ValueError(f"--grid must be a JSON object with keys {list(names)}")
    for name in names:
        if name not in grid:
            raise ValueError(f"--grid object is missing key {name!r}")
        if not _numbers(grid[name]):
            raise ValueError(f"--grid {name} must be a non-empty list of numbers, "
                             f"got {grid[name]!r}")
    return grid


# the one family a method fits; ga and grid fit any, three-stage by default
_ONLY_FAMILY = {"closed-form": "one-stage", "quick-crude": "three-stage",
                "profile": "two-stage"}


def _fit_once(sample: BidSample, args: argparse.Namespace) -> FitResult:
    method = args.method
    only = _ONLY_FAMILY.get(method)
    family = args.family
    if family is None:
        family = only or "three-stage"
    elif only and family != only:
        raise ValueError(f"--method {method} fits only --family {only}, got {family!r}")
    if method == "closed-form":
        return _one_stage_fit(sample)
    if method == "quick-crude":
        return qc_fit(sample, _qc_config_from(args, sample.T))
    if method == "grid":
        return grid_search(sample, family, _grid_from(args, family))
    if method == "profile":
        return profile_fit(sample, _bounds_from(args, family, sample.T))
    return ga_fit(sample, family, _ga_config_from(args, family, sample.T))


def _cmd_fit(args: argparse.Namespace) -> dict:
    sample, described = _ingested(args)
    fit = _fit_once(sample, args)
    payload = {**_params_block(fit, args.unit), "method": fit.method, **described}
    if args.bootstrap:
        payload["stderrs"], payload["bootstrap_failures"] = bootstrap_se(
            sample, lambda s: _fit_once(s, args), args.bootstrap, seed=args.seed)
        payload["bootstrap_replicates"] = args.bootstrap
    return payload


# ---------------------------------------------------------------------------
# select
# ---------------------------------------------------------------------------

def _cmd_select(args: argparse.Namespace) -> dict:
    sample, described = _ingested(args)
    # select searches the default box of every family
    for tag in FAMILIES:
        _default_box(tag, sample.T)
    result = select_model(
        sample,
        alpha_level=float(args.alpha_level),
        seed=args.seed,
        generations=args.generations,
    )

    def test_block(test):
        if test is None:
            return None
        return {
            "statistic": float(test.statistic),
            "p_value": float(test.p_value),
            "df": test.df,
        }

    return {
        "chosen": result.chosen.tag,
        "alpha_level": result.alpha_level,
        **described,
        "fits": {tag: _params_block(fit, args.unit) for tag, fit in result.fits.items()},
        "tests": {
            "one_vs_two": test_block(result.lr_one_two),
            "two_vs_three": test_block(result.lr_two_three),
        },
    }


# ---------------------------------------------------------------------------
# diagnose
# ---------------------------------------------------------------------------

def _cmd_diagnose(args: argparse.Namespace) -> dict:
    sample, described = _ingested(args)
    fit = _fit_once(sample, args)
    report = {**_params_block(fit, args.unit), "method": fit.method, **described}
    # a fit that overflows fails as fit's report would, before KS and QQ
    # stumble on it
    _check_finite(args, report)
    fitted = fit.family.as_barista()
    ks = ks_one_sample(sample, fitted)
    qq = qq_points(sample, fitted)
    if args.qq_out:
        write_qq(qq, args.qq_out)
    return {
        **report,
        "ks": {
            "d_statistic": float(ks.d_statistic),
            "p_value": float(ks.p_value),
            "n_effective": float(ks.n_effective),
        },
        "qq_max_abs_deviation": qq.max_abs_deviation(),
    }


# ---------------------------------------------------------------------------
# ingest-check
# ---------------------------------------------------------------------------

def _cmd_ingest_check(args: argparse.Namespace) -> dict:
    return ingest_summary(_ingest_spec(args))


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_ingest(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--input", help="CSV of bids")
    sub.add_argument("--horizon", type=float, help="auction length in --unit")
    sub.add_argument("--unit", choices=sorted(MINUTES_PER_UNIT), default="days",
                     help="time unit of the data (default days)")
    sub.add_argument("--clamp-policy", dest="clamp_policy",
                     choices=("reject", "clamp-epsilon"), default="reject",
                     help="out-of-range times: reject (default) or clamp just inside")


def _add_method(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--method", choices=_METHODS, default="ga")
    sub.add_argument("--family", choices=list(FAMILIES))
    sub.add_argument("--windows", help="JSON {stage1,stage2,stage3,safe} for quick-crude")
    sub.add_argument("--grid", help="JSON {param: [values]} for the grid method")
    sub.add_argument("--bounds", help="JSON [[lo,hi],...] GA or profile search box")
    sub.add_argument("--generations", type=int, default=GaConfig.generations,
                     help="GA generations (default 500)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="barista",
        description="Three-stage power-law Poisson model of hard-close auction bids.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, summary: str, seeded: bool = True) -> argparse.ArgumentParser:
        sub = commands.add_parser(name, help=summary)
        sub.set_defaults(func=func, parser=sub)
        sub.add_argument("--config", help="flat JSON object of settings; flags override")
        sub.add_argument("--output", help="write the report here instead of stdout")
        if seeded:
            sub.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
        sub.add_argument("--no-timestamp", dest="no_timestamp", action="store_true",
                         help="omit generated_at for reproducible bytes")
        return sub

    sim = command("simulate", _cmd_simulate, "draw a synthetic sample to CSV")
    sim.add_argument("--horizon", type=float, help="auction length")
    sim.add_argument("--unit", choices=sorted(MINUTES_PER_UNIT), default="days")
    sim.add_argument("--family", choices=list(FAMILIES), default="three-stage")
    sim.add_argument("--n", type=int, help="fixed event count (default: Poisson draw)")
    # model parameters a config file sets; they have no flags
    sim.set_defaults(c=1.0, **dict.fromkeys(("alpha", "alpha1", "alpha2", "alpha3", "d1", "d2")))

    fit = command("fit", _cmd_fit, "estimate parameters from bids")
    _add_ingest(fit)
    _add_method(fit)
    fit.add_argument("--bootstrap", type=int, default=0, help="bootstrap replicates for SEs")

    sel = command("select", _cmd_select, "nested LR model selection")
    _add_ingest(sel)
    sel.add_argument("--alpha-level", dest="alpha_level", type=float, default=0.05,
                     help="test level (default 0.05)")
    sel.add_argument("--generations", type=int, default=GaConfig.generations,
                     help="GA generations of the three-stage fit (default 500); "
                          "the one-stage and two-stage fits are exact")

    diag = command("diagnose", _cmd_diagnose, "fit, then KS/QQ against the fit")
    _add_ingest(diag)
    _add_method(diag)
    diag.add_argument("--qq-out", dest="qq_out", help="write QQ pairs CSV here")

    # ingest-check draws nothing, so it takes no seed
    _add_ingest(command("ingest-check", _cmd_ingest_check, "validate a CSV without fitting",
                        seeded=False))
    return parser


def main(argv: list[str] | None = None) -> int:
    # built afresh per call: a config's defaults must not outlive its run
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            args.parser.set_defaults(**_config(args.config, args.parser))
            args = parser.parse_args(argv)
        payload = args.func(args)
        if payload is not None:
            text = json.dumps(_envelope(args, payload), indent=2, sort_keys=True,
                              allow_nan=False) + "\n"
            if args.output:
                Path(args.output).write_text(text)
            else:
                sys.stdout.write(text)
        return 0
    except (ValueError, RuntimeError, OSError, OverflowError, MemoryError) as exc:
        err: dict = {"type": type(exc).__name__, "message": str(exc)}
        if getattr(exc, "line", None) is not None:
            err["line"] = exc.line
        if getattr(exc, "stage", None):
            err["stage"] = exc.stage
        sys.stdout.write(
            json.dumps({"schema": SCHEMA, "error": err}, indent=2, sort_keys=True) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
