"""The flag contract: any values of a subcommand's flags that argparse
accepts end in a report (or simulate's CSV) with exit 0, or in one JSON
error with exit 1; nothing raises and no traceback is printed.

Each flag is drawn with values of the type argparse converts it to, nan,
inf, negatives and an integer too large for a float among them, written as
--flag=value so a value starting with '-' stays a value.  Inputs are small
files, valid or not, a missing path and a directory.  generations,
bootstrap and n stay small so a run is quick.
"""
import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from barista import sample_fixed_n, write_sample
from barista.cli import main
from barista.dataio import MINUTES_PER_UNIT
from barista.process import FAMILIES
from conftest import P_STAR

FLOATS = ["0", "-1.5", "0.25", "1", "7", "7.0", "8.5", "1e308", "nan", "inf", "-inf"]
HORIZONS = st.one_of(st.sampled_from(["7", "7.0", "8.5"]), st.sampled_from(FLOATS))
HUGE = "1" + "0" * 400  # an int too large for a float


def ints(lo: int, hi: int, huge: bool = False):
    values = st.integers(lo, hi).map(str)
    return st.one_of(values, st.just(HUGE)) if huge else values


def json_text():
    """Workable JSON for --windows and --bounds, or any short text."""
    return st.one_of(
        st.sampled_from([
            '{"stage1": [0.1, 2], "stage2": [3, 6], "stage3": [6.99, 6.999], '
            '"safe": [1, 3, 6, 6.99]}',
            '{"alpha": [0.5, 1.0]}', '[[0.1, 3.0]]', "[]", "{}", "null", "[[1, 0]]"]),
        st.text(max_size=8))


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Paths a flag may name, by role."""
    tmp = tmp_path_factory.mktemp("flags")
    good = tmp / "bids.csv"
    write_sample(sample_fixed_n(P_STAR, 60, seed=1), good)
    stamped = tmp / "stamped.csv"
    stamped.write_text("auction_id,bid_timestamp,auction_start\n"
                       + "".join(f" a{i % 3},{100.0 + 0.1 * i!r},100.0\n" for i in range(40)))
    bad = tmp / "bad.csv"
    bad.write_text("auction_id,bid_time\na,1.0\na,oops\n")
    empty = tmp / "empty.csv"
    empty.write_text("")
    config = tmp / "model.json"
    config.write_text(json.dumps({"alpha": 1.0, "alpha1": 3.0, "alpha2": 0.4, "alpha3": 1.0,
                                  "d1": 2.5, "d2": 0.0035}))
    inputs = [str(p) for p in (good, stamped, bad, empty)] + [str(tmp / "absent.csv"), str(tmp)]
    return {"tmp": str(tmp), "inputs": inputs, "config": str(config)}


def flags(command: str, files: dict):
    """argv after command: the flags a run needs, each with a drawn value,
    and each other flag with one or left out."""
    tmp = files["tmp"]

    def target(name):
        return st.sampled_from([f"{tmp}/{command}.{name}"] * 3 + [tmp, ""])

    # the flags a run needs, most of them workable
    good, stamped, *others = files["inputs"]
    required = {"horizon": HORIZONS}
    if command != "simulate":
        required["input"] = st.sampled_from(
            [good] * 3 + [stamped] * 2 + others + ["", ".", "\x00"])
    ingest = {
        "unit": st.sampled_from(sorted(MINUTES_PER_UNIT)),
        "clamp-policy": st.sampled_from(["reject", "clamp-epsilon"]),
    }
    method = {
        "method": st.sampled_from(["ga", "quick-crude", "closed-form", "profile"]),
        "family": st.sampled_from(list(FAMILIES)),
        "windows": json_text(), "bounds": json_text(),
        "generations": ints(-2, 3),
    }
    common = {"output": target("out")}
    if command != "ingest-check":
        common["seed"] = ints(-2, 5, huge=True)
    per_command = {
        "simulate": {"unit": st.sampled_from(sorted(MINUTES_PER_UNIT)),
                     "family": st.sampled_from(list(FAMILIES)), "n": ints(-3, 60)},
        "fit": {**ingest, **method, "bootstrap": ints(-1, 2)},
        "select": {**ingest, "alpha-level": st.sampled_from(FLOATS)},
        "diagnose": {**ingest, **method, "qq-out": target("qq")},
        "ingest-check": ingest,
    }[command]
    drawn = st.fixed_dictionaries(required, optional={**common, **per_command})
    return st.tuples(drawn, st.booleans()).map(lambda t: [
        *(f"--{name}={value}" for name, value in t[0].items()),
        *(["--no-timestamp"] if t[1] else [])])


@pytest.mark.parametrize("command", ["simulate", "fit", "select", "diagnose", "ingest-check"])
def test_every_flag_value_ends_in_a_report_or_a_json_error(command, files):
    # simulate's model parameters have no flags, so a config supplies them
    head = [command, "--config", files["config"]] if command == "simulate" else [command]

    @settings(max_examples=40, deadline=None)
    @given(argv=flags(command, files))
    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(head + argv)
        assert "Traceback" not in err.getvalue()
        text = out.getvalue()
        if rc == 1:
            report = json.loads(text)
            assert report["schema"] == "barista/1"
            assert set(report["error"]) >= {"type", "message"}
            return
        assert rc == 0
        target = next((a.partition("=")[2] for a in argv if a.startswith("--output=")), "")
        if target:
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
