import json
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from barista import (
    BaristaParams,
    EstimationError,
    IngestSpec,
    __version__,
    bootstrap_se,
    default_qc_config,
    ingest,
    profile_fit,
    qc_fit,
    qq_points,
    select_model,
)
from barista.cli import main
from conftest import package_env

P_STAR_CONFIG = {
    "family": "three-stage", "horizon": 7.0,
    "alpha1": 3.0, "alpha2": 0.4, "alpha3": 1.0,
    "d1": 2.5, "d2": 5.0 / 1440.0, "c": 1.0,
}


def write_config(tmp_path, name="config.json", **overrides):
    cfg = {**P_STAR_CONFIG, **overrides}
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def simulate(tmp_path, n=300, seed=0, name="bids.csv"):
    out = tmp_path / name
    cfg = write_config(tmp_path, name=f"sim-{name}.json", n=n, seed=seed)
    rc = main(["simulate", "--config", cfg, "--output", str(out), "--no-timestamp"])
    assert rc == 0
    return str(out)


def run_json(argv, capsys):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, json.loads(out)


class TestVersionAndHelp:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert f"barista {__version__}" in capsys.readouterr().out

    def test_command_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code != 0


class TestSimulate:
    def test_writes_ingestible_csv(self, tmp_path):
        path = simulate(tmp_path, n=250, seed=3)
        lines = Path(path).read_text().splitlines()
        meta = [l for l in lines if l.startswith("#")]
        assert any("schema=barista/1" in l for l in meta)
        assert any("seed=3" in l for l in meta)
        header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        assert lines[header_idx] == "auction_id,bid_time"
        assert len(lines) - header_idx - 1 == 250

    def test_reruns_are_byte_identical(self, tmp_path):
        a = simulate(tmp_path, seed=5, name="a.csv")
        b = simulate(tmp_path, seed=5, name="b.csv")
        assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_timestamp_breaks_nothing_but_adds_line(self, tmp_path):
        cfg = write_config(tmp_path, n=10)
        out = tmp_path / "t.csv"
        rc = main(["simulate", "--config", cfg, "--output", str(out)])
        assert rc == 0
        assert "# generated_at=" in out.read_text()

    def test_stdout_default(self, tmp_path, capsys):
        cfg = write_config(tmp_path, n=5)
        rc = main(["simulate", "--config", cfg, "--no-timestamp"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "auction_id,bid_time" in out
        assert len([l for l in out.splitlines() if l.startswith("sim,")]) == 5

    def test_poisson_count_when_n_missing(self, tmp_path):
        cfg = write_config(tmp_path, seed=2)
        out = tmp_path / "p.csv"
        rc = main(["simulate", "--config", cfg, "--output", str(out), "--no-timestamp"])
        assert rc == 0
        text = out.read_text()
        n = len([l for l in text.splitlines() if l.startswith("sim,")])
        # expected count is about 19.6 for the reference vector at c=1
        assert 5 <= n <= 45

    def test_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path, n=20, seed=1)
        out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        main(["simulate", "--config", cfg, "--output", str(out1), "--no-timestamp"])
        main(["simulate", "--config", cfg, "--seed", "9",
              "--output", str(out2), "--no-timestamp"])
        assert out1.read_text() != out2.read_text()

    def test_unallocatable_n_is_json_error(self, tmp_path):
        # under a 2 GiB address-space limit, the 800 GB of 10^11 times cannot
        # be allocated; the child alone carries the limit
        limit = 2 << 30

        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        cfg = write_config(tmp_path)
        env = {**package_env(), "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
        done = subprocess.run(
            [sys.executable, "-m", "barista", "simulate", "--config", cfg,
             "--n", str(10 ** 11)],
            env=env, preexec_fn=cap, capture_output=True, text=True, timeout=120)
        assert done.returncode == 1, done.stderr
        assert "Traceback" not in done.stderr
        err = json.loads(done.stdout)["error"]
        assert err["type"].endswith("MemoryError")
        assert "Unable to allocate" in err["message"]

    def test_missing_model_settings_reported(self, tmp_path, capsys):
        rc, err = run_json(
            ["simulate", "--family", "one-stage", "--horizon", "7"], capsys)
        assert rc == 1
        assert err["error"]["type"] == "ValueError"
        assert "alpha" in err["error"]["message"]

    @pytest.mark.parametrize("model, name", [
        ({"family": "one-stage", "alpha": -1.0}, "alpha"),
        ({"family": "two-stage", "alpha2": -0.3, "alpha3": 7.7, "d2": 0.001}, "alpha2"),
    ])
    def test_bad_parameter_is_named_as_set(self, tmp_path, capsys, model, name):
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps({"horizon": 7.0, "c": 1.0, "n": 5, **model}))
        rc, err = run_json(["simulate", "--config", str(cfg)], capsys)
        assert rc == 1
        assert err["error"] == {"type": "ValueError",
                                "message": f"{name} must be finite and > 0, got {model[name]}"}


class TestFit:
    def test_quick_crude_report(self, tmp_path, capsys):
        data = simulate(tmp_path, n=4000, seed=23)
        rc, rep = run_json(
            ["fit", "--input", data, "--horizon", "7", "--method", "quick-crude",
             "--no-timestamp"], capsys)
        assert rc == 0
        assert rep["schema"] == "barista/1"
        assert rep["command"] == "fit"
        assert rep["method"] == "quick-crude"
        assert rep["family"] == "three-stage"
        assert 2.0 < rep["params"]["alpha1"] < 4.5
        assert "d2_minutes" in rep
        assert "generated_at" not in rep

    def test_ga_with_inline_bounds(self, tmp_path, capsys):
        data = simulate(tmp_path, n=500, seed=1)
        bounds = "[[1,15],[0.1,1],[0.5,15],[1,5],[0,0.01]]"
        rc, rep = run_json(
            ["fit", "--input", data, "--horizon", "7", "--method", "ga",
             "--bounds", bounds, "--generations", "40", "--seed", "0",
             "--no-timestamp"], capsys)
        assert rc == 0
        assert rep["method"] == "ga"
        assert set(rep["params"]) == {"alpha1", "alpha2", "alpha3", "d1", "d2", "c"}
        assert np.isfinite(rep["loglik"])

    def test_null_config_value_keeps_default(self, tmp_path, capsys):
        data = simulate(tmp_path, n=300, seed=2)
        cfg = tmp_path / "nulls.json"
        cfg.write_text(json.dumps({"seed": None, "unit": None, "bounds": None}))
        argv = ["fit", "--input", data, "--horizon", "7", "--generations", "10",
                "--no-timestamp"]
        rc, plain = run_json(argv, capsys)
        assert rc == 0
        assert run_json([*argv, "--config", str(cfg)], capsys) == (0, plain)

    def test_closed_form_one_stage(self, tmp_path, capsys):
        data = simulate(tmp_path, n=800, seed=4)
        rc, rep = run_json(
            ["fit", "--input", data, "--horizon", "7", "--method", "closed-form",
             "--family", "one-stage", "--no-timestamp"], capsys)
        assert rc == 0
        assert rep["family"] == "one-stage"
        assert rep["params"]["alpha"] > 0
        assert rep["params"]["c"] == rep["c_hat"]

    def test_closed_form_without_family_fits_one_stage(self, tmp_path, capsys):
        data = simulate(tmp_path, n=800, seed=4)
        argv = ["fit", "--input", data, "--horizon", "7", "--method", "closed-form",
                "--no-timestamp"]
        rc, rep = run_json(argv, capsys)
        assert rc == 0
        assert rep["family"] == "one-stage"
        assert run_json([*argv, "--family", "one-stage"], capsys) == (0, rep)

    @pytest.mark.parametrize("method, family, only", [
        ("closed-form", "three-stage", "one-stage"),
        ("quick-crude", "one-stage", "three-stage"),
        ("profile", "three-stage", "two-stage"),
    ])
    def test_family_the_method_cannot_fit_is_json_error(self, tmp_path, capsys,
                                                        method, family, only):
        data = simulate(tmp_path, n=800, seed=4)
        rc, err = run_json(
            ["fit", "--input", data, "--horizon", "7", "--method", method,
             "--family", family, "--no-timestamp"], capsys)
        assert rc == 1
        assert err["error"]["type"] == "ValueError"
        assert err["error"]["message"] == (
            f"--method {method} fits only --family {only}, got {family!r}")

    def test_profile_method_fits_two_stage(self, tmp_path, capsys):
        data = simulate(tmp_path, n=800, seed=4)
        argv = ["fit", "--input", data, "--horizon", "7", "--method", "profile",
                "--no-timestamp"]
        rc, rep = run_json(argv, capsys)
        assert rc == 0
        assert (rep["family"], rep["method"]) == ("two-stage", "profile")
        ref = profile_fit(ingest(IngestSpec(path=data, horizon=7.0)))
        assert rep["params"] == ref.params and rep["loglik"] == ref.loglik
        # --bounds sets the box: here one that holds a single d2
        box = json.dumps([[0.1, 1.0], [0.5, 15.0], [0.001, 0.001]])
        rc, rep = run_json([*argv, "--bounds", box], capsys)
        assert rc == 0
        assert rep["params"]["d2"] in (0.0, 0.001)

    def test_grid_method(self, tmp_path, capsys):
        data = simulate(tmp_path, n=400, seed=6)
        grid = json.dumps({"alpha": [0.5, 1.0, 1.5, 2.0, 3.0]})
        rc, rep = run_json(
            ["fit", "--input", data, "--horizon", "7", "--method", "grid",
             "--family", "one-stage", "--grid", grid, "--no-timestamp"], capsys)
        assert rc == 0
        assert rep["params"]["alpha"] in (0.5, 1.0, 1.5, 2.0, 3.0)

    def test_grid_method_requires_grid(self, tmp_path, capsys):
        data = simulate(tmp_path, n=50, seed=0)
        rc, err = run_json(
            ["fit", "--input", data, "--horizon", "7", "--method", "grid",
             "--no-timestamp"], capsys)
        assert rc == 1
        assert "grid" in err["error"]["message"]

    def test_bootstrap_ses(self, tmp_path, capsys):
        data = simulate(tmp_path, n=600, seed=8)
        rc, rep = run_json(
            ["fit", "--input", data, "--horizon", "7", "--method", "closed-form",
             "--family", "one-stage", "--bootstrap", "25", "--no-timestamp"], capsys)
        assert rc == 0
        assert rep["bootstrap_replicates"] == 25
        assert rep["bootstrap_failures"] == {}
        assert rep["stderrs"]["alpha"] > 0

    def test_bootstrap_reports_failed_replicates(self, tmp_path, capsys, prefixes):
        # two of the 20 quick-crude refits of this 5k P* sample fail
        data = simulate(tmp_path, n=5000, seed=5)
        rc, rep = run_json(
            ["fit", "--input", data, "--horizon", "7", "--method", "quick-crude",
             "--bootstrap", "20", "--seed", "5", "--no-timestamp"], capsys)
        assert rc == 0
        assert rep["bootstrap_replicates"] == 20
        assert rep["bootstrap_failures"] == {"qc_alpha": 1, "qc_changepoints": 1}
        # the refits score no likelihood, only the reported fit does, and
        # they give qc_fit's parameters
        assert prefixes == [5000]
        sample = ingest(IngestSpec(path=data, horizon=7.0))
        cfg = default_qc_config(7.0)
        ses, failed = bootstrap_se(sample, lambda s: qc_fit(s, cfg), 20, seed=5)
        assert {k: v.hex() for k, v in rep["stderrs"].items()} == {
            k: v.hex() for k, v in ses.items()}
        assert rep["bootstrap_failures"] == failed

    def test_quick_crude_bootstrap_fails_where_qc_fit_fails(self, tmp_path, capsys):
        data = simulate(tmp_path, n=5000, seed=5)
        rc, err = run_json(
            ["fit", "--input", data, "--horizon", "7", "--method", "quick-crude",
             "--bootstrap", "20", "--seed", "0", "--no-timestamp"], capsys)
        assert rc == 1
        sample = ingest(IngestSpec(path=data, horizon=7.0))
        cfg = default_qc_config(7.0)
        with pytest.raises(EstimationError) as ref:
            bootstrap_se(sample, lambda s: qc_fit(s, cfg), 20, seed=0)
        assert err["error"]["message"] == str(ref.value)
        assert err["error"]["message"].startswith("bootstrap refit failed on 6/20 ")
        assert err["error"]["message"].endswith("failures by stage: qc_changepoints 6")

    def test_report_to_file(self, tmp_path):
        data = simulate(tmp_path, n=200, seed=9)
        out = tmp_path / "report.json"
        rc = main(["fit", "--input", data, "--horizon", "7",
                   "--method", "closed-form", "--family", "one-stage",
                   "--output", str(out), "--no-timestamp"])
        assert rc == 0
        rep = json.loads(out.read_text())
        assert rep["command"] == "fit"

    def test_deterministic_report_bytes(self, tmp_path):
        data = simulate(tmp_path, n=300, seed=10)
        outs = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            main(["fit", "--input", data, "--horizon", "7", "--method", "ga",
                  "--generations", "20", "--seed", "1",
                  "--output", str(out), "--no-timestamp"])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestSelect:
    def test_report_shape(self, tmp_path, capsys):
        data = simulate(tmp_path, n=900, seed=11)
        rc, rep = run_json(
            ["select", "--input", data, "--horizon", "7", "--generations", "60",
             "--seed", "2", "--no-timestamp"], capsys)
        assert rc == 0
        assert rep["command"] == "select"
        assert rep["chosen"] in ("one-stage", "two-stage", "three-stage")
        assert rep["alpha_level"] == 0.05
        assert "one_vs_two" in rep["tests"]
        t = rep["tests"]["one_vs_two"]
        assert set(t) == {"statistic", "p_value", "df"}
        for fam, block in rep["fits"].items():
            assert "loglik" in block and "params" in block

    def test_alpha_level_flag(self, tmp_path, capsys):
        data = simulate(tmp_path, n=200, seed=12)
        rc, rep = run_json(
            ["select", "--input", data, "--horizon", "7", "--generations", "20",
             "--alpha-level", "0.2", "--no-timestamp"], capsys)
        assert rc == 0
        assert rep["alpha_level"] == 0.2

    def test_generations_flag_matches_library(self, tmp_path, capsys):
        data = simulate(tmp_path, n=900, seed=11)
        rc, rep = run_json(
            ["select", "--input", data, "--horizon", "7", "--generations", "30",
             "--seed", "4", "--no-timestamp"], capsys)
        assert rc == 0
        sample = ingest(IngestSpec(path=data, horizon=7.0))
        res = select_model(sample, seed=4, generations=30)
        assert "three-stage" in res.fits
        assert rep["chosen"] == res.chosen.tag
        assert set(rep["fits"]) == set(res.fits)
        for tag, fit in res.fits.items():
            assert rep["fits"][tag]["loglik"] == fit.loglik
            assert rep["fits"][tag]["c_hat"] == fit.c_hat
            assert rep["fits"][tag]["params"] == fit.params

    def test_three_stage_fit_is_the_ga_fit_at_the_same_seed(self, tmp_path, capsys):
        # on P* data the GA ends above the embedded two-stage fit, so select's
        # three-stage fit is fit --method ga's at the same seed and budget
        data = simulate(tmp_path, n=5000, seed=5)
        common = ["--input", data, "--horizon", "7", "--seed", "3", "--generations", "100",
                  "--no-timestamp"]
        rc, sel = run_json(["select", *common], capsys)
        assert rc == 0
        rc, ga = run_json(["fit", "--method", "ga", "--family", "three-stage", *common], capsys)
        assert rc == 0
        three = sel["fits"]["three-stage"]
        assert three["params"] == ga["params"]
        assert three["loglik"] == ga["loglik"]


class TestDiagnose:
    def test_report_and_qq_csv(self, tmp_path, capsys):
        # GA fit: the quick-crude tail windows are too sparse at n=800
        data = simulate(tmp_path, n=800, seed=13)
        qq_path = tmp_path / "qq.csv"
        rc, rep = run_json(
            ["diagnose", "--input", data, "--horizon", "7",
             "--method", "ga", "--generations", "60", "--seed", "0",
             "--qq-out", str(qq_path), "--no-timestamp"], capsys)
        assert rc == 0
        assert rep["command"] == "diagnose"
        assert 0.0 <= rep["ks"]["p_value"] <= 1.0
        assert rep["ks"]["n_effective"] == 800
        assert rep["qq_max_abs_deviation"] > 0
        lines = qq_path.read_text().splitlines()
        assert lines[0] == "reference_quantile,observed_quantile"
        assert len(lines) == 801
        # every value reads back as the exact float qq_points computed
        sample = ingest(IngestSpec(data, horizon=7.0))
        fitted = BaristaParams(**rep["params"], T=7.0)
        want = qq_points(sample, fitted).pairs
        got = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_true_model_fits_well(self, tmp_path, capsys):
        data = simulate(tmp_path, n=2000, seed=23)
        rc, rep = run_json(
            ["diagnose", "--input", data, "--horizon", "7",
             "--method", "ga", "--generations", "200", "--seed", "0",
             "--no-timestamp"], capsys)
        assert rc == 0
        assert rep["ks"]["p_value"] > 0.001


class TestIngestCheck:
    def test_summary_report(self, tmp_path, capsys):
        data = simulate(tmp_path, n=120, seed=14)
        rc, rep = run_json(
            ["ingest-check", "--input", data, "--horizon", "7",
             "--no-timestamp"], capsys)
        assert rc == 0
        assert rep["command"] == "ingest-check"
        assert rep["n_bids"] == 120
        assert rep["n_auctions"] >= 1
        assert rep["clamp_policy"] == "reject"

    def test_seed_flag_is_not_taken(self, tmp_path, capsys):
        data = simulate(tmp_path, n=20, seed=14)
        with pytest.raises(SystemExit) as exc:
            main(["ingest-check", "--input", data, "--horizon", "7", "--seed", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err

    def test_config_seed_is_an_unknown_key(self, tmp_path, capsys):
        cfg = tmp_path / "seeded.json"
        cfg.write_text(json.dumps({"seed": 3}))
        rc, err = run_json(["ingest-check", "--config", str(cfg), "--input",
                            simulate(tmp_path, n=20, seed=14), "--horizon", "7"], capsys)
        assert rc == 1
        assert err["error"] == {"type": "ValueError", "message": "unknown config keys ['seed']"}

    def test_help_lists_no_seed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["ingest-check", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--horizon" in out and "--seed" not in out

    def test_clamp_policy_flag(self, tmp_path, capsys):
        csv_path = tmp_path / "dirty.csv"
        csv_path.write_text("auction_id,bid_time\nx,-0.5\nx,2.0\n")
        rc, rep = run_json(
            ["ingest-check", "--input", str(csv_path), "--horizon", "7",
             "--clamp-policy", "clamp-epsilon", "--no-timestamp"], capsys)
        assert rc == 0
        assert rep["n_clamped"] == 1


class TestErrors:
    def test_missing_file_is_json_error(self, capsys):
        rc, err = run_json(
            ["fit", "--input", "/nonexistent/bids.csv", "--horizon", "7"], capsys)
        assert rc == 1
        assert err["schema"] == "barista/1"
        assert err["error"]["type"] in ("FileNotFoundError", "OSError")

    def test_bad_row_carries_line_number(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("auction_id,bid_time\nx,1.0\nx,what\n")
        rc, err = run_json(
            ["fit", "--input", str(bad), "--horizon", "7"], capsys)
        assert rc == 1
        assert err["error"]["type"] == "IngestError"
        assert err["error"]["line"] == 3

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"horizon": 7.0, "frobnicate": 1}))
        rc, err = run_json(["simulate", "--config", cfg.as_posix()], capsys)
        assert rc == 1
        assert "frobnicate" in err["error"]["message"]

    @pytest.mark.parametrize("command", ["simulate", "fit", "select", "diagnose",
                                         "ingest-check"])
    @pytest.mark.parametrize("key", ["command", "func", "parser", "config"])
    def test_names_besides_settings_are_unknown_config_keys(self, tmp_path, capsys,
                                                            command, key):
        cfg = tmp_path / "reserved.json"
        cfg.write_text(json.dumps({key: 1}))
        rc, err = run_json([command, "--config", str(cfg)], capsys)
        assert rc == 1
        assert err["error"] == {"type": "ValueError",
                                "message": f"unknown config keys [{key!r}]"}

    def test_config_does_not_outlive_its_call(self, tmp_path, capsys):
        out = tmp_path / "five.csv"
        cfg = write_config(tmp_path, n=5)
        assert main(["simulate", "--config", cfg, "--output", str(out)]) == 0
        rc, err = run_json(["simulate", "--horizon", "7"], capsys)
        assert rc == 1
        assert err["error"]["message"] == (
            "missing required settings: alpha1, alpha2, alpha3, d1, d2")

    @pytest.mark.parametrize("command", ["simulate", "fit", "select", "diagnose",
                                         "ingest-check"])
    def test_oversized_config_number_is_json_error(self, tmp_path, capsys, command):
        cfg = tmp_path / "huge.json"
        cfg.write_text(json.dumps({"horizon": 10 ** 400}))
        argv = [command, "--config", str(cfg)]
        if command != "simulate":
            argv += ["--input", simulate(tmp_path, n=30, seed=0)]
        rc, err = run_json(argv, capsys)
        assert rc == 1
        assert err["error"] == {"type": "OverflowError",
                                "message": "int too large to convert to float"}

    def test_oversized_bootstrap_is_json_error(self, tmp_path, capsys):
        data = simulate(tmp_path, n=30, seed=0)
        rc, err = run_json(["fit", "--input", data, "--horizon", "7",
                            "--method", "closed-form", "--bootstrap", str(10 ** 30)], capsys)
        assert rc == 1
        assert err["error"]["type"] == "OverflowError"

    @pytest.mark.parametrize("argv, name, value", [
        (["fit", "--method", "profile"], "d2_minutes", "inf"),
        (["diagnose", "--method", "profile"], "d2_minutes", "inf"),
        (["fit", "--method", "closed-form"], "loglik", "-inf"),
        # checked before KS and QQ, which would fail on this fit without naming --horizon
        (["diagnose", "--method", "closed-form"], "loglik", "-inf"),
    ])
    def test_nonfinite_report_value_names_horizon(self, tmp_path, capsys, argv, name, value):
        data = simulate(tmp_path, n=300, seed=0)
        rc = main(argv + ["--input", data, "--horizon", "1e308", "--no-timestamp"])
        out = capsys.readouterr().out
        assert rc == 1
        err = json.loads(out, parse_constant=pytest.fail)["error"]
        assert err == {"type": "ValueError",
                       "message": f"report value {name} is {value}, which JSON cannot hold: "
                                  "--horizon 1e+308 is too large for this data"}

    @pytest.mark.parametrize("argv", [["fit", "--method", "ga"], ["diagnose", "--method", "ga"],
                                      ["select"]])
    def test_overflowing_default_box_names_horizon(self, tmp_path, capsys, argv):
        data = simulate(tmp_path, n=300, seed=0)
        rc, err = run_json(argv + ["--input", data, "--horizon", "1e308"], capsys)
        assert rc == 1
        assert err["error"]["message"].startswith(
            "--horizon 1e+308 is too large: the default three-stage search box ")
        assert err["error"]["message"].endswith(
            "(1.4285714285714286e+307, inf), (0.0, 1.4285714285714286e+305)) overflows")

    def test_overflowing_quick_crude_windows_name_horizon(self, tmp_path, capsys):
        data = simulate(tmp_path, n=300, seed=0)
        rc, err = run_json(["fit", "--method", "quick-crude", "--input", data,
                            "--horizon", "1e308"], capsys)
        assert rc == 1
        assert err["error"]["stage"] == "qc_alpha"
        assert err["error"]["message"].endswith("overflow: horizon 1e+308 is too large")

    def test_malformed_inline_json(self, tmp_path, capsys):
        data = simulate(tmp_path, n=30, seed=0)
        rc, err = run_json(
            ["fit", "--input", data, "--horizon", "7", "--method", "grid",
             "--grid", "{not json"], capsys)
        assert rc == 1
        assert "JSON" in err["error"]["message"]

    @pytest.mark.parametrize("flags, flag", [
        (["--bounds", "5"], "--bounds"),
        (["--bounds", "[[1, 2, 3]]"], "--bounds"),
        (["--method", "quick-crude", "--windows", "[1]"], "--windows"),
        (["--method", "quick-crude", "--windows",
          '{"stage1": 5, "stage2": [1, 2], "stage3": [1, 2], "safe": [1, 2, 3, 4]}'],
         "--windows"),
    ])
    def test_malformed_json_shape_names_flag(self, tmp_path, capsys, flags, flag):
        data = simulate(tmp_path, n=30, seed=0)
        rc, err = run_json(["fit", "--input", data, "--horizon", "7", *flags], capsys)
        assert rc == 1
        assert err["error"]["type"] == "ValueError"
        assert flag in err["error"]["message"]

    @pytest.mark.parametrize("command, config, key", [
        ("fit", {"horizon": 7.0, "seed": [1]}, "seed"),
        ("fit", {"horizon": 7.0, "seed": 1.5}, "seed"),
        ("fit", {"horizon": 7.0, "generations": True}, "generations"),
        ("fit", {"horizon": 7.0, "bounds": 5}, "bounds"),
        ("fit", {"horizon": 7.0, "method": 3}, "method"),
        ("ingest-check", {"horizon": [7]}, "horizon"),
        ("ingest-check", {"horizon": "7"}, "horizon"),
        ("ingest-check", {"horizon": 7.0, "no_timestamp": 1}, "no_timestamp"),
        ("select", {"horizon": 7.0, "alpha_level": {"x": 1}}, "alpha_level"),
        ("simulate", {"horizon": 7.0, "n": 5, "alpha1": "3"}, "alpha1"),
    ])
    def test_config_value_of_wrong_type(self, tmp_path, capsys, command, config, key):
        cfg = tmp_path / "typed.json"
        cfg.write_text(json.dumps(config))
        argv = [command, "--config", str(cfg)]
        if command != "simulate":
            argv += ["--input", simulate(tmp_path, n=30, seed=0)]
        rc, err = run_json(argv, capsys)
        assert rc == 1
        assert err["schema"] == "barista/1"
        assert err["error"]["type"] == "ValueError"
        assert repr(key) in err["error"]["message"]

    @pytest.mark.parametrize("grid", [
        {"alpha": 5},
        {"alpha": [[1, 2]]},
        {"alpha": {"a": 1}},
        {"alpha": []},
        {"alpha2": [1.0]},
        [1, 2],
    ])
    def test_malformed_grid_is_json_error(self, tmp_path, capsys, grid):
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps({"grid": grid}))
        data = simulate(tmp_path, n=30, seed=0)
        rc, err = run_json(["fit", "--input", data, "--horizon", "7", "--method", "grid",
                            "--family", "one-stage", "--config", str(cfg)], capsys)
        assert rc == 1
        assert err["error"]["type"] == "ValueError"
        assert "--grid" in err["error"]["message"]

    @pytest.mark.parametrize("command, config, key", [
        ("simulate", {"family": "one-stage", "alpha": 0.5, "unit": "fortnights"}, "unit"),
        ("fit", {"method": "newton"}, "method"),
        ("select", {"clamp_policy": "drop"}, "clamp_policy"),
        ("diagnose", {"method": "ga", "unit": "weeks"}, "unit"),
        ("ingest-check", {"clamp_policy": "Reject"}, "clamp_policy"),
    ])
    def test_config_value_outside_its_flags_choices(self, tmp_path, capsys, command, config,
                                                    key):
        # argparse holds a flag to its choices, and a config value must keep
        # them too; nothing is written
        cfg = tmp_path / "choices.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        argv = [command, "--horizon", "7", "--config", str(cfg), "--output", str(out)]
        argv += ["--n", "3"] if command == "simulate" else ["--input", simulate(tmp_path, n=30)]
        rc, err = run_json(argv, capsys)
        assert rc == 1
        assert err["error"]["type"] == "ValueError"
        assert err["error"]["message"].startswith(f"config key {key!r} must be one of [")
        assert json.dumps(config[key]) in err["error"]["message"]
        assert not out.exists()

    def test_unknown_family_is_one_error(self, tmp_path, capsys):
        cfg = tmp_path / "family.json"
        cfg.write_text(json.dumps({"family": "four-stage"}))
        data = simulate(tmp_path, n=30, seed=0)
        messages = []
        for argv in (["simulate", "--horizon", "7", "--n", "5"],
                     ["fit", "--input", data, "--horizon", "7"]):
            rc, err = run_json([*argv, "--config", str(cfg)], capsys)
            assert rc == 1
            assert err["error"]["type"] == "ValueError"
            messages.append(err["error"]["message"])
        assert messages[0] == messages[1]
        assert messages[0] == ("unknown family tag 'four-stage'; expected one of "
                               "('one-stage', 'two-stage', 'three-stage')")

    def test_estimation_failure_carries_stage(self, tmp_path, capsys):
        tiny = tmp_path / "tiny.csv"
        tiny.write_text("auction_id,bid_time\nx,1.0\n")
        rc, err = run_json(
            ["fit", "--input", str(tiny), "--horizon", "7",
             "--method", "quick-crude"], capsys)
        assert rc == 1
        assert err["error"]["type"] == "EstimationError"


class TestModuleEntry:
    def test_python_dash_m(self, tmp_path):
        import subprocess
        import sys

        res = subprocess.run(
            [sys.executable, "-m", "barista", "--version"],
            capture_output=True, text=True, env=package_env())
        assert res.returncode == 0
        assert __version__ in res.stdout
