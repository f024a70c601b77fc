"""The runtime dependency is numpy only.

A child interpreter refuses every import of a top-level module outside the
standard library, numpy and barista, then runs each CLI subcommand once.
A refused import that its importer guards (the standard library probes for
Jython's org package, for one) is no dependency, so only the exit codes of
the subcommands are checked.
"""
import json
import subprocess
import sys

from conftest import package_env

CHILD = r"""
import importlib.abc
import json
import sys

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "barista"}


class Refuse(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] not in ALLOWED:
            raise ImportError(f"{name} is not a runtime dependency")
        return None


sys.meta_path.insert(0, Refuse())
from barista.cli import main

print(json.dumps([main(argv) for argv in json.loads(sys.argv[1])]))
"""


def test_every_subcommand_runs_on_numpy_alone(tmp_path):
    bids, config = str(tmp_path / "bids.csv"), tmp_path / "truth.json"
    config.write_text(json.dumps({
        "family": "three-stage", "horizon": 7.0, "alpha1": 3.0, "alpha2": 0.4,
        "alpha3": 1.0, "d1": 2.5, "d2": 5.0 / 1440.0, "c": 1.0, "n": 400}))
    data = ["--input", bids, "--horizon", "7"]
    reports = [
        ["fit", *data, "--method", "profile", "--bootstrap", "5"],
        ["select", *data],
        ["diagnose", *data, "--method", "profile", "--qq-out", str(tmp_path / "qq.csv")],
        ["ingest-check", *data],
    ]
    runs = [["simulate", "--config", str(config), "--output", bids]] + [
        argv + ["--output", str(tmp_path / f"{i}.json")] for i, argv in enumerate(reports)]
    done = subprocess.run([sys.executable, "-c", CHILD, json.dumps(runs)],
                          capture_output=True, text=True, env=package_env(), timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [0] * len(runs)
    for i, argv in enumerate(reports):
        assert json.loads((tmp_path / f"{i}.json").read_text())["command"] == argv[0]
