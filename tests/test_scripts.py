"""The experiment scripts run end to end and write what they promise."""
import subprocess
import sys
from pathlib import Path

from conftest import package_env

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *args):
    res = subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                         capture_output=True, text=True, env=package_env())
    assert res.returncode == 0, res.stderr
    return res.stdout


def test_strategy_equivalence(tmp_path):
    out = run_script("strategy_equivalence.py", "--out-dir", str(tmp_path),
                     "--target-bids", "500")
    assert "KS D=" in out
    for name, header in (("two_stage_qq.csv", "reference_quantile,observed_quantile"),
                         ("one_stage_qq.csv", "reference_quantile,observed_quantile"),
                         ("reverse_time_tail.csv", "reversed_unit_time")):
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[0] == header
        assert len(lines) > 1
        [float(v) for line in lines[1:] for v in line.split(",")]


def test_round_trip():
    out = run_script("round_trip.py", "--n", "2000", "--boot", "5")
    assert "simulated n=2000 bids" in out
    assert "conditional loglik: truth" in out
