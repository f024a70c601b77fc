"""The experiment scripts run end to end and write what they promise."""
import subprocess
import sys
from pathlib import Path

from conftest import package_env

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *args, rc=0):
    res = subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                         capture_output=True, text=True, env=package_env())
    assert res.returncode == rc, res.stderr
    assert "Traceback" not in res.stderr
    return res


def test_strategy_equivalence(tmp_path):
    out = run_script("strategy_equivalence.py", "--out-dir", str(tmp_path),
                     "--target-bids", "500").stdout
    assert "KS D=" in out
    for name, header in (("two_stage_qq.csv", "reference_quantile,observed_quantile"),
                         ("one_stage_qq.csv", "reference_quantile,observed_quantile"),
                         ("reverse_time_tail.csv", "reversed_unit_time")):
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[0] == header
        assert len(lines) > 1
        [float(v) for line in lines[1:] for v in line.split(",")]


def test_round_trip():
    out = run_script("round_trip.py", "--n", "2000", "--boot", "5").stdout
    assert "simulated n=2000 bids" in out
    assert "conditional loglik: truth" in out
    assert "n/a" not in out


def test_round_trip_reports_failed_bootstrap():
    # at n = 500 most quick-crude refits fail on sparse tail windows
    res = run_script("round_trip.py", "--n", "500", "--boot", "3")
    assert "bootstrap refit failed on 2/3 replicates" in res.stderr
    rows = [line.split() for line in res.stdout.splitlines()
            if line.split()[:1] in (["alpha1"], ["d2"])]
    assert len(rows) == 2 and all(row[3] == "n/a" for row in rows)
    assert "conditional loglik: truth" in res.stdout


def test_round_trip_estimation_error_is_one_line():
    res = run_script("round_trip.py", "--n", "40", "--boot", "3", rc=1)
    assert res.stderr.startswith("round_trip: estimation failed: ")
    assert res.stderr.count("\n") == 1
