"""The --config contract: any JSON object of settings ends in a report (or
simulate's CSV) with exit 0, or in one JSON error with exit 1; nothing raises.

Keys are drawn from each subcommand's settings, the names a parsed
subcommand carries besides them, and one unknown key.  Values are of every
JSON type, with nan, inf and an integer too large for a float among them.
generations, bootstrap and n stay small so a run is quick.
"""
import contextlib
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from barista import sample_fixed_n, write_sample
from barista.cli import main
from barista.dataio import MINUTES_PER_UNIT
from barista.process import FAMILIES
from conftest import P_STAR

INGEST = ["input", "horizon", "unit", "clamp_policy", "output", "no_timestamp"]
METHOD = [*INGEST, "method", "family", "seed", "windows", "bounds", "generations"]
MODEL = ["horizon", "alpha", "alpha1", "alpha2", "alpha3", "d1", "d2"]
SETTINGS = {
    "simulate": [*MODEL, "family", "unit", "seed", "n", "c", "output", "no_timestamp"],
    "fit": [*METHOD, "bootstrap"],
    "select": [*INGEST, "seed", "alpha_level"],
    "diagnose": [*METHOD, "qq_out"],
    "ingest-check": INGEST,
}
NOT_SETTINGS = ["command", "func", "parser", "config", "frobnicate"]

HUGE = 10 ** 400  # an int too large for a float


def numbers(huge: bool = True):
    values = [0.0, -1.5, 0.25, 0.5, 2.5, 7.0, math.nan, math.inf, -math.inf]
    return st.one_of(st.integers(-3, 10), st.sampled_from(values + ([HUGE] if huge else [])))


def any_json(huge: bool = True, strings: bool = True):
    """Values of every JSON type.  No string for a key that names a file to
    write, and no HUGE for one that sets how long a run takes."""
    return st.one_of(
        st.none(), st.booleans(), numbers(huge), st.just(HUGE) if huge else st.nothing(),
        st.text(max_size=6) if strings else st.nothing(),
        st.lists(numbers(huge), max_size=3),
        st.dictionaries(st.sampled_from(["alpha", "stage1", "x"]), numbers(huge), max_size=2))


def typed(key: str, csv: str, tmp: str):
    """Values of the JSON type key takes, most of them workable."""
    if key in ("output", "qq_out"):
        return st.sampled_from([f"{tmp}/{key}.out", tmp, ""])
    if key in ("alpha", "alpha1", "alpha2", "alpha3"):
        return st.sampled_from([0.4, 1, 3.0])
    return {
        "input": st.just(csv),
        "horizon": st.sampled_from([7, 7.0, 8.5]),
        "unit": st.sampled_from(sorted(MINUTES_PER_UNIT)),
        "clamp_policy": st.sampled_from(["reject", "clamp-epsilon"]),
        "method": st.sampled_from(["ga", "quick-crude", "closed-form", "profile"]),
        "family": st.sampled_from(list(FAMILIES)),
        "seed": st.integers(0, 5),
        # generations, bootstrap and n set how long a run takes
        "generations": st.integers(0, 3),
        "bootstrap": st.integers(0, 3),
        "n": st.integers(0, 60),
        "c": st.sampled_from([0.5, 1, 2.0]),
        "d1": st.sampled_from([0, 2.5]),
        "d2": st.sampled_from([0, 0.0035, 1]),
        "alpha_level": st.sampled_from([0.05, 0.5, 1]),
        "windows": st.just({"stage1": [0.1, 2], "stage2": [3, 6], "stage3": [6.99, 6.999],
                            "safe": [1, 3, 6, 6.99]}),
        "bounds": st.just([[0.1, 3.0]]),
        "no_timestamp": st.booleans(),
    }[key]


def any_type(key: str):
    if key in ("output", "qq_out"):
        return any_json(strings=False)
    return any_json(huge=key != "generations")


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("config")
    csv = tmp / "bids.csv"
    write_sample(sample_fixed_n(P_STAR, 60, seed=1), csv)
    return str(csv), str(tmp)


def configs(command: str, csv: str, tmp: str):
    """A config of typed values, holding at least the required settings,
    then up to two keys of any name set to values of any type."""
    keys = SETTINGS[command]
    required = MODEL if command == "simulate" else ["input", "horizon"]
    typed_config = st.fixed_dictionaries(
        {k: typed(k, csv, tmp) for k in required},
        optional={k: st.one_of(st.none(), typed(k, csv, tmp))
                  for k in keys if k not in required})
    odd = st.sampled_from(keys + NOT_SETTINGS).flatmap(
        lambda k: any_type(k).map(lambda v: (k, v)))
    return st.tuples(typed_config, st.lists(odd, max_size=2)).map(
        lambda t: {**t[0], **dict(t[1])})


@pytest.mark.parametrize("command", list(SETTINGS))
def test_every_config_ends_in_a_report_or_a_json_error(command, files):
    csv, tmp = files

    @settings(max_examples=60, deadline=None)
    @given(cfg=configs(command, csv, tmp))
    def run(cfg):
        path = f"{tmp}/{command}.json"
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = main([command, "--config", path])
        text = out.getvalue()
        if rc == 1:
            err = json.loads(text)
            assert err["schema"] == "barista/1"
            assert set(err["error"]) >= {"type", "message"}
            return
        assert rc == 0
        target = cfg.get("output")
        if isinstance(target, str) and target:
            assert text == ""
            with open(target) as fh:
                text = fh.read()
        if command == "simulate":
            assert "# schema=barista/1\n" in text
            assert "auction_id,bid_time\n" in text
        else:
            report = json.loads(text)
            assert (report["schema"], report["command"]) == ("barista/1", command)
            assert "error" not in report

    run()
