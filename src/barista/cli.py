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
subcommand's settings, each of the JSON type its flag takes; explicit flags
win over the file.  Failures print a JSON error object to stdout and exit 1.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
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
    qc_fit,
)
from .process import FAMILIES, get_family, mean_count
from .sample import BidSample
from .selection import _default_configs, select_model
from .simulate import sample_fixed_n, sample_poisson_count

SCHEMA = "barista/1"
_METHODS = ("ga", "grid", "quick-crude", "closed-form")


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------

def _echo(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


def _report(payload: dict, command: str, merged: dict) -> None:
    obj = {"schema": SCHEMA, "command": command, **payload}
    if not merged.get("no_timestamp"):
        obj["generated_at"] = datetime.now(timezone.utc).isoformat(timespec="seconds")
    _echo(json.dumps(obj, indent=2, sort_keys=True) + "\n", merged.get("output"))


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


def _merge(args: argparse.Namespace, defaults: dict) -> dict:
    """defaults < config file < explicit flags."""
    merged = dict(defaults)
    if getattr(args, "config", None):
        with open(args.config) as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = set(cfg) - set(defaults)
        if unknown:
            raise ValueError(f"unknown config keys {sorted(unknown)}")
        for key, val in cfg.items():
            if val is None:
                continue
            kinds = _SETTING_TYPES[key]
            if not isinstance(val, kinds) or (isinstance(val, bool) and bool not in kinds):
                names = " or ".join(_JSON_NAMES[k] for k in kinds)
                raise ValueError(f"config key {key!r} must be {names}, "
                                 f"got {json.dumps(val)}")
            merged[key] = val
    for key, val in vars(args).items():
        if key in defaults and val is not None:
            merged[key] = val
    return merged


def _require(merged: dict, *keys: str) -> None:
    missing = [k for k in keys if merged.get(k) is None]
    if missing:
        raise ValueError(f"missing required settings: {', '.join(missing)}")


# settings of every subcommand that reads a CSV of bids
_INGEST_DEFAULTS = {
    "input": None, "horizon": None, "unit": "days", "clamp_policy": "reject",
    "output": None, "no_timestamp": None,
}


def _ingest_spec(merged: dict) -> IngestSpec:
    _require(merged, "input", "horizon")
    return IngestSpec(
        path=merged["input"],
        horizon=float(merged["horizon"]),
        unit=merged["unit"],
        clamp_policy=merged["clamp_policy"],
    )


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

_SIM_DEFAULTS = {
    "family": "three-stage", "horizon": None, "unit": "days", "seed": 0,
    "n": None, "c": 1.0, "alpha": None, "alpha1": None, "alpha2": None,
    "alpha3": None, "d1": None, "d2": None, "output": None, "no_timestamp": None,
}


def _cmd_simulate(args: argparse.Namespace) -> int:
    merged = _merge(args, _SIM_DEFAULTS)
    _require(merged, "horizon")
    T, c = float(merged["horizon"]), float(merged["c"])
    spec = get_family(merged["family"])
    _require(merged, *spec.free_names)
    family = spec.build([float(merged[name]) for name in spec.free_names], c, T)
    p = family.as_barista()
    if merged["n"] is None:
        sample = sample_poisson_count(p, seed=int(merged["seed"]))
    else:
        sample = sample_fixed_n(p, int(merged["n"]), seed=int(merged["seed"]))
    meta = {
        "schema": SCHEMA,
        "command": "simulate",
        "family": family.tag,
        "horizon": p.T,
        "unit": merged["unit"],
        "seed": int(merged["seed"]),
        "n": sample.n,
        "expected_count": mean_count(p, p.T),
    }
    meta.update(family.free_values())
    meta["c"] = p.c
    if not merged.get("no_timestamp"):
        meta["generated_at"] = datetime.now(timezone.utc).isoformat(timespec="seconds")
    if merged["output"]:
        with open(merged["output"], "w", newline="") as fh:
            write_sample(sample, fh, meta)
    else:
        write_sample(sample, sys.stdout, meta)
    return 0


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

# settings of the one fit that fit and diagnose run
_METHOD_DEFAULTS = {
    **_INGEST_DEFAULTS, "method": "ga", "family": None, "seed": 0,
    "windows": None, "grid": None, "bounds": None, "generations": None,
}
_FIT_DEFAULTS = {**_METHOD_DEFAULTS, "bootstrap": 0}


def _numbers(value) -> bool:
    """value is a non-empty JSON list of numbers."""
    return (isinstance(value, list) and len(value) > 0
            and all(isinstance(v, (int, float)) for v in value))


_WINDOW_SIZES = {"stage1": 2, "stage2": 2, "stage3": 2, "safe": 4}


def _qc_config_from(merged: dict, T: float) -> QcConfig:
    windows = _json_flag(merged.get("windows"), "windows")
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


def _ga_config_from(merged: dict, family: str, T: float) -> GaConfig:
    bounds = _json_flag(merged.get("bounds"), "bounds")
    if bounds is None:
        bounds = default_bounds(family, T)
    elif not (isinstance(bounds, list) and all(_numbers(b) and len(b) == 2 for b in bounds)):
        raise ValueError(f"--bounds must be a JSON list of [lo, hi] number pairs, got {bounds!r}")
    kwargs = {"bounds": tuple(tuple(b) for b in bounds), "seed": int(merged["seed"])}
    if merged.get("generations") is not None:
        kwargs["generations"] = int(merged["generations"])
    return GaConfig(**kwargs)


def _grid_from(merged: dict, family: str) -> dict[str, list]:
    grid = _json_flag(merged.get("grid"), "grid")
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
_ONLY_FAMILY = {"closed-form": "one-stage", "quick-crude": "three-stage"}


def _fit_once(sample: BidSample, merged: dict) -> FitResult:
    method = merged["method"]
    if method not in _METHODS:
        raise ValueError(f"method must be one of {_METHODS}, got {method!r}")
    only = _ONLY_FAMILY.get(method)
    family = merged["family"]
    if family is None:
        family = only or "three-stage"
    elif only and family != only:
        raise ValueError(f"--method {method} fits only --family {only}, got {family!r}")
    if method == "closed-form":
        return _one_stage_fit(sample)
    if method == "quick-crude":
        return qc_fit(sample, _qc_config_from(merged, sample.T))
    if method == "grid":
        return grid_search(sample, family, _grid_from(merged, family))
    return ga_fit(sample, family, _ga_config_from(merged, family, sample.T))


def _cmd_fit(args: argparse.Namespace) -> int:
    merged = _merge(args, _FIT_DEFAULTS)
    sample = ingest(_ingest_spec(merged))
    fit = _fit_once(sample, merged)
    payload = _params_block(fit, merged["unit"])
    payload.update({
        "method": fit.method,
        "n": sample.n,
        "horizon": float(merged["horizon"]),
        "unit": merged["unit"],
    })
    n_boot = int(merged["bootstrap"] or 0)
    if n_boot:
        payload["stderrs"] = bootstrap_se(
            sample, lambda s: _fit_once(s, merged), n_boot, seed=int(merged["seed"]))
        payload["bootstrap_replicates"] = n_boot
    _report(payload, "fit", merged)
    return 0


# ---------------------------------------------------------------------------
# select
# ---------------------------------------------------------------------------

_SELECT_DEFAULTS = {
    **_INGEST_DEFAULTS, "seed": 0, "alpha_level": 0.05, "generations": None,
}


def _cmd_select(args: argparse.Namespace) -> int:
    merged = _merge(args, _SELECT_DEFAULTS)
    sample = ingest(_ingest_spec(merged))
    configs = None
    if merged.get("generations") is not None:
        configs = {
            tag: replace(cfg, generations=int(merged["generations"]))
            for tag, cfg in _default_configs(sample, int(merged["seed"])).items()
        }
    result = select_model(
        sample,
        configs=configs,
        alpha_level=float(merged["alpha_level"]),
        seed=int(merged["seed"]),
    )

    def test_block(test):
        if test is None:
            return None
        return {
            "statistic": float(test.statistic),
            "p_value": float(test.p_value),
            "df": test.df,
            "negative_flag": test.negative_flag,
        }

    payload = {
        "chosen": result.chosen.tag,
        "alpha_level": result.alpha_level,
        "n": sample.n,
        "horizon": float(merged["horizon"]),
        "unit": merged["unit"],
        "fits": {tag: _params_block(fit, merged["unit"])
                 for tag, fit in result.fits.items()},
        "tests": {
            "one_vs_two": test_block(result.lr_one_two),
            "two_vs_three": test_block(result.lr_two_three),
        },
    }
    _report(payload, "select", merged)
    return 0


# ---------------------------------------------------------------------------
# diagnose
# ---------------------------------------------------------------------------

_DIAGNOSE_DEFAULTS = {**_METHOD_DEFAULTS, "qq_out": None}


def _cmd_diagnose(args: argparse.Namespace) -> int:
    merged = _merge(args, _DIAGNOSE_DEFAULTS)
    sample = ingest(_ingest_spec(merged))
    fit = _fit_once(sample, merged)
    fitted = fit.family.as_barista()
    ks = ks_one_sample(sample, fitted)
    qq = qq_points(sample, fitted)
    if merged.get("qq_out"):
        write_qq(qq, merged["qq_out"])
    payload = _params_block(fit, merged["unit"])
    payload.update({
        "method": fit.method,
        "n": sample.n,
        "horizon": float(merged["horizon"]),
        "unit": merged["unit"],
        "ks": {
            "d_statistic": float(ks.d_statistic),
            "p_value": float(ks.p_value),
            "n_effective": float(ks.n_effective),
        },
        "qq_max_abs_deviation": qq.max_abs_deviation(),
    })
    _report(payload, "diagnose", merged)
    return 0


# ---------------------------------------------------------------------------
# ingest-check
# ---------------------------------------------------------------------------

def _cmd_ingest_check(args: argparse.Namespace) -> int:
    merged = _merge(args, _INGEST_DEFAULTS)
    _report(ingest_summary(_ingest_spec(merged)), "ingest-check", merged)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="flat JSON object of settings; flags override")
    sub.add_argument("--output", help="write the report here instead of stdout")
    sub.add_argument("--seed", type=int, help="random seed (default 0)")
    sub.add_argument("--no-timestamp", dest="no_timestamp", action="store_true",
                     default=None, help="omit generated_at for reproducible bytes")


def _add_ingest(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--input", help="CSV of bids")
    sub.add_argument("--horizon", type=float, help="auction length in --unit")
    sub.add_argument("--unit", choices=sorted(MINUTES_PER_UNIT),
                     help="time unit of the data (default days)")
    sub.add_argument("--clamp-policy", dest="clamp_policy",
                     choices=("reject", "clamp-epsilon"),
                     help="out-of-range times: reject (default) or clamp just inside")


def _add_method(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--method", choices=_METHODS)
    sub.add_argument("--family", choices=list(FAMILIES))
    sub.add_argument("--windows", help="JSON {stage1,stage2,stage3,safe} for quick-crude")
    sub.add_argument("--grid", help="JSON {param: [values]} for the grid method")
    sub.add_argument("--bounds", help="JSON [[lo,hi],...] GA search box")
    sub.add_argument("--generations", type=int, help="GA generations (default 500)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="barista",
        description="Three-stage power-law Poisson model of hard-close auction bids.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    sim = commands.add_parser("simulate", help="draw a synthetic sample to CSV")
    _add_common(sim)
    sim.add_argument("--horizon", type=float, help="auction length")
    sim.add_argument("--unit", choices=sorted(MINUTES_PER_UNIT))
    sim.add_argument("--family", choices=list(FAMILIES))
    sim.add_argument("--n", type=int, help="fixed event count (default: Poisson draw)")
    sim.set_defaults(func=_cmd_simulate)

    fit = commands.add_parser("fit", help="estimate parameters from bids")
    _add_common(fit)
    _add_ingest(fit)
    _add_method(fit)
    fit.add_argument("--bootstrap", type=int, help="bootstrap replicates for SEs")
    fit.set_defaults(func=_cmd_fit)

    sel = commands.add_parser("select", help="nested LR model selection")
    _add_common(sel)
    _add_ingest(sel)
    sel.add_argument("--alpha-level", dest="alpha_level", type=float,
                     help="test level (default 0.05)")
    sel.add_argument("--generations", type=int,
                     help="GA generations of the two-stage and three-stage fits "
                          "(default 500); the one-stage fit is exact")
    sel.set_defaults(func=_cmd_select)

    diag = commands.add_parser("diagnose", help="fit, then KS/QQ against the fit")
    _add_common(diag)
    _add_ingest(diag)
    _add_method(diag)
    diag.add_argument("--qq-out", dest="qq_out", help="write QQ pairs CSV here")
    diag.set_defaults(func=_cmd_diagnose)

    chk = commands.add_parser("ingest-check", help="validate a CSV without fitting")
    _add_common(chk)
    _add_ingest(chk)
    chk.set_defaults(func=_cmd_ingest_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError, json.JSONDecodeError) as exc:
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
