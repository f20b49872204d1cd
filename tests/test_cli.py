import json
import os
import subprocess
import sys

import numpy as np
import pytest

from amplab.cli import (ExperimentConfig, load_config_file, main, parse_seeds,
                        run_experiment)


class TestParsing:
    def test_seed_range_inclusive(self):
        assert parse_seeds("1..8") == tuple(range(1, 9))

    def test_seed_list(self):
        assert parse_seeds("3,5,9") == (3, 5, 9)

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            parse_seeds("5..3")

    def test_config_file(self, tmp_path):
        path = tmp_path / "exp.conf"
        path.write_text("# comment\nN=512\nbeta=2.5   # trailing\n\nseeds=1..4\n")
        conf = load_config_file(path)
        assert conf == {"N": "512", "beta": "2.5", "seeds": "1..4"}

    def test_config_file_bad_line(self, tmp_path):
        path = tmp_path / "bad.conf"
        path.write_text("justtext\n")
        with pytest.raises(ValueError, match="key=value"):
            load_config_file(path)

    def test_experiment_config_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig("signed-sine", N=1, T=3)
        with pytest.raises(ValueError):
            ExperimentConfig("signed-sine", N=64, T=0)
        with pytest.raises(ValueError):
            ExperimentConfig("signed-sine", N=64, T=3, seeds=())
        with pytest.raises(ValueError, match="trace dump"):
            ExperimentConfig("signed-sine", N=8192, T=3, seeds=(1, 2),
                             dump_trace=True)


class TestRunExperiment:
    def test_simple_mode_writes_report_and_seed_files(self, tmp_path):
        out = tmp_path / "report.csv"
        config = ExperimentConfig("signed-sine", N=256, T=3, seeds=(1, 2),
                                  mode="simple", nonlinearity="square",
                                  out=str(out), beta=0.0, theta=0.0,
                                  degree=24)
        report = run_experiment(config)
        assert report.seed_count == 2
        assert out.exists()
        assert (tmp_path / "report.seed1.csv").exists()
        assert (tmp_path / "report.seed2.csv").exists()

    def test_report_byte_determinism(self, tmp_path):
        paths = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            config = ExperimentConfig("signed-sine", N=256, T=3, seeds=(1, 2),
                                      mode="simple", nonlinearity="square",
                                      out=str(out), beta=0.0, theta=0.0,
                                      degree=24)
            run_experiment(config)
            paths.append(out)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_determinism_across_thread_counts(self, tmp_path):
        outputs = []
        for threads in ("1", "4"):
            out = tmp_path / f"t{threads}.csv"
            os.environ["AMP_LAB_THREADS"] = threads
            try:
                config = ExperimentConfig("signed-sine", N=256, T=3,
                                          seeds=(1, 2, 3, 4), mode="simple",
                                          nonlinearity="square", out=str(out),
                                          beta=0.0, theta=0.0, degree=24)
                run_experiment(config)
            finally:
                del os.environ["AMP_LAB_THREADS"]
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_header_comment_lines(self, tmp_path):
        out = tmp_path / "tap.csv"
        config = ExperimentConfig("signed-sine", N=256, T=3, seeds=(1,),
                                  mode="tap", beta=2.0, theta=2.0,
                                  out=str(out))
        run_experiment(config)
        lines = out.read_text().splitlines()
        comments = [ln for ln in lines if ln.startswith("#")]
        assert comments, "expected comment header lines"
        joined = " ".join(comments)
        for key in ("beta=", "theta=", "q_star=", "lambda_star=",
                    "sigma_psi_sq=", "seed="):
            assert key in joined
        assert lines[len(comments)].startswith("ensemble,beta,theta")

    def test_report_round_trip_parse(self, tmp_path):
        out = tmp_path / "roundtrip.csv"
        config = ExperimentConfig("signed-sine", N=256, T=1, seeds=(1,),
                                  mode="simple", nonlinearity="square",
                                  out=str(out), beta=0.0, theta=0.0,
                                  degree=24)
        report = run_experiment(config)
        rows = [ln for ln in out.read_text().splitlines()
                if ln and not ln.startswith("#")]
        header, data = rows[0].split(","), rows[1:]
        assert len(data) == 1
        record = dict(zip(header, data[0].split(",")))
        assert record["ensemble"] == "signed-sine"
        assert int(record["t"]) == 1
        assert float(record["succ_diff"]) == pytest.approx(
            report.succ_diff[0], rel=1e-15)

    def test_trace_dump_gated(self, tmp_path):
        out = tmp_path / "tr.csv"
        config = ExperimentConfig("signed-sine", N=64, T=2, seeds=(1,),
                                  mode="simple", nonlinearity="square",
                                  out=str(out), beta=0.0, theta=0.0,
                                  degree=24, dump_trace=True)
        run_experiment(config)
        dump = tmp_path / "tr.seed1.trace.csv"
        assert dump.exists()
        rows = [ln for ln in dump.read_text().splitlines()
                if not ln.startswith("#")]
        assert len(rows) == 3  # t = 0..2
        assert len(rows[0].split(",")) == 65  # t column + 64 entries


class TestMainEntry:
    def test_se_subcommand_constant_variance(self, capsys):
        rc = main(["se", "--preset", "tap", "--beta", "2", "--theta", "2",
                   "--T", "5"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "t,sigma_sq,rho_prev,d_pred"
        values = [float(ln.split(",")[1]) for ln in lines[1:]]
        assert len(values) == 6
        assert np.ptp(values) <= 1e-6  # sigma_t^2 constant across t

    def test_check_ensemble_subcommand(self, capsys):
        rc = main(["check-ensemble", "--ensemble", "signed-sine",
                   "--N", "512"])
        assert rc == 0
        out = capsys.readouterr().out
        record = dict(part.split("=") for part in out.split())
        assert float(record["psi_inf_norm"]) == pytest.approx(
            2 / np.sqrt(1025), abs=1e-6)

    def test_check_ensemble_dense_haar_refused_up_front(self, capsys):
        rc = main(["check-ensemble", "--ensemble", "random-orthogonal",
                   "--N", "1024", "--mode", "dense"])
        assert rc == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ResourceError"
        assert "--mode probe" in record["message"]

    def test_run_subcommand_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        rc = main(["run", "--ensemble", "signed-sine", "--N", "256",
                   "--T", "2", "--seeds", "1..2", "--mode", "simple",
                   "--nonlinearity", "square", "--out", str(out)])
        assert rc == 0
        assert out.exists()

    def test_tap_subcommand_stdout(self, capsys):
        rc = main(["tap", "--ensemble", "signed-sine", "--N", "256",
                   "--T", "2", "--beta", "2", "--theta", "2",
                   "--seeds", "1..2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "q_star=" in out
        assert "ensemble,beta,theta" in out

    @pytest.mark.parametrize("spec, named", [
        ("mystery-ensemble", "mystery-ensemble"),
        ("wigner-resolvent", "lambda="),
        ("wishart-resolvent:lambda=4.5", "phi="),
        ("sign-perm:base=hadamard", "spectrum="),
    ], ids=["unknown", "no-lambda", "no-phi", "no-spectrum"])
    def test_error_record_on_stderr(self, capsys, spec, named):
        rc = main(["run", "--ensemble", spec, "--N", "64",
                   "--T", "2", "--seeds", "1"])
        assert rc == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ValueError"
        assert named in record["message"]

    def test_config_file_merging(self, tmp_path, capsys):
        conf = tmp_path / "exp.conf"
        conf.write_text("ensemble=signed-sine\nN=256\nT=2\nseeds=1..2\n"
                        "mode=simple\nnonlinearity=square\n")
        out = tmp_path / "merged.csv"
        rc = main(["run", "--config", str(conf), "--out", str(out)])
        assert rc == 0
        text = out.read_text()
        assert "N=256" in text

    def test_run_with_resolvent_spec(self, tmp_path):
        out = tmp_path / "wig.csv"
        rc = main(["run", "--ensemble", "wigner-resolvent:lambda=2.5",
                   "--N", "256", "--T", "2", "--seeds", "1..2",
                   "--mode", "simple", "--nonlinearity", "square",
                   "--out", str(out)])
        assert rc == 0
        assert out.exists()

    def test_run_projected_mode(self, tmp_path):
        out = tmp_path / "proj.csv"
        rc = main(["run", "--ensemble", "signed-hadamard", "--N", "256",
                   "--T", "3", "--seeds", "1..2", "--mode", "projected",
                   "--nonlinearity", "square", "--out", str(out)])
        assert rc == 0
        assert out.exists()

    def test_degenerate_configuration_reported_clearly(self, capsys):
        # centered tanh at sigma_psi^2 = 1 contracts to zero variance; the
        # harness must name the problem instead of failing downstream
        with pytest.warns(UserWarning, match="degenerate"):
            rc = main(["run", "--ensemble", "signed-hadamard", "--N", "256",
                       "--T", "3", "--seeds", "1", "--mode", "simple",
                       "--nonlinearity", "tanh-centered"])
        assert rc == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert "zero variance" in record["message"]

    def test_console_script_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "amplab.cli", "se", "--preset", "plain",
             "--nonlinearity", "square", "--T", "3"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.startswith("t,sigma_sq")
