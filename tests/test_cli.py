import gc
import json
import os
import re
import subprocess
import sys
import warnings
import weakref

import numpy as np
import pytest

from amplab.cli import (KEYS, PRESET_KEYS, ExperimentConfig, _build_parser,
                        _fmt, load_config_file, main, parse_seeds,
                        run_experiment)
from amplab import ensembles, tap
from amplab.ensembles import build_wishart_coupling


# `amplab se` outputs that must stay byte-identical
SE_DEFAULT = """\
t,sigma_sq,rho_prev,d_pred
0,1.9265898624153146,,
1,1.9265898624201776,0,3.853179724835492
2,1.9265898624188458,1.7302233363892419,0.39273305206053966
3,1.9265898624192106,1.8801765918387503,0.092826541160555553
4,1.9265898624191111,1.9145652036863565,0.024049317465608677
5,1.9265898624191382,1.9234028226252911,0.0063740795876672252
6,1.9265898624191307,1.9257400975729395,0.0016995296923898451
7,1.9265898624191324,1.9263629277520424,0.00045386933417823627
8,1.926589862419132,1.926529232455406,0.00012125992745248837
9,1.9265898624191324,1.9265736621202858,3.240059769282766e-05
10,1.926589862419132,1.9265855335754105,8.657687443403006e-06
"""

SE_PLAIN_DEGENERATE = """\
t,sigma_sq,rho_prev,d_pred
0,1,,
1,0.50000000000000011,0,1.5
2,0.12500000000000006,0.083333333333333176,0.45833333333333387
3,0.0078125000000000087,0.012731481481481448,0.10734953703703716
4,3.0517578125000068e-05,0.00021679062357110135,0.0074094363309828055
5,4.6566128730774153e-10,5.5402488006376066e-08,3.0407238810274624e-05
6,0,0,4.6566128730774153e-10
"""


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

    def test_negative_seed_from_a_library_caller_named(self):
        # the CLI's parse_seeds refuses these first; a library caller
        # reaches ExperimentConfig directly
        with pytest.raises(ValueError, match=r"^seeds must be nonnegative, "
                                             r"got \(2, -1\)$"):
            ExperimentConfig("signed-sine", N=64, T=2, seeds=(2, -1),
                             mode="simple")


def read_rows(path):
    """(header, data rows) of a CSV written by the CLI, comments skipped."""
    lines = [ln.split(",") for ln in path.read_text().splitlines()
             if not ln.startswith("#")]
    return lines[0], lines[1:]


class TestRunExperiment:
    @pytest.mark.parametrize("config", [
        ExperimentConfig("random-orthogonal", N=256, T=3, seeds=(1, 2),
                         mode="projected", beta=0.0, theta=0.0),
        ExperimentConfig("hopfield", N=128, T=3, seeds=(1, 2), beta=1.0)],
        ids=["run", "tap"])
    def test_each_operator_is_freed_when_its_seed_ends(self, monkeypatch,
                                                        config):
        # weak references to every operator the run builds: each must be
        # gone, by reference counting alone, before the next seed builds its
        # own and after run_experiment returns
        monkeypatch.setenv("AMP_LAB_THREADS", "1")
        refs, alive_at_build = [], []

        def recording(build, is_builder):
            def wrapper(*args, **kwargs):
                if is_builder:
                    alive_at_build.append(sum(ref() is not None for ref in refs))
                op = build(*args, **kwargs)
                refs.append(weakref.ref(op))
                return op
            return wrapper

        monkeypatch.setattr(ensembles, "operator_from_spec",
                            recording(ensembles.operator_from_spec, True))
        monkeypatch.setattr(tap, "build_coupling",
                            recording(tap.build_coupling, True))
        monkeypatch.setattr(tap, "resolvent_operator",
                            recording(tap.resolvent_operator, False))
        was_enabled = gc.isenabled()
        gc.disable()  # a cycle would then keep its operator alive
        try:
            run_experiment(config)
            alive_after = sum(ref() is not None for ref in refs)
        finally:
            if was_enabled:
                gc.enable()
        per_seed = 2 if config.mode == "tap" else 1  # tap: J and M(lambda*)
        assert len(refs) == per_seed * len(config.seeds)
        assert alive_at_build == [0, 0]
        assert alive_after == 0

    def test_simple_mode_writes_report_and_seed_files(self, tmp_path):
        out = tmp_path / "report.csv"
        config = ExperimentConfig("signed-sine", N=256, T=3, seeds=(1, 2),
                                  mode="simple", nonlinearity="square",
                                  out=str(out), beta=0.0, theta=0.0)
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
                                      out=str(out), beta=0.0, theta=0.0)
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
                                          beta=0.0, theta=0.0)
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
                                  out=str(out), beta=0.0, theta=0.0)
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

    @pytest.mark.parametrize("mode", ["tap", "projected"])
    def test_report_is_seed_order_mean_of_seed_files(self, tmp_path, mode):
        out = tmp_path / "r.csv"
        seeds = (3, 1, 2)
        config = ExperimentConfig("signed-hadamard", N=256, T=3, seeds=seeds,
                                  mode=mode, nonlinearity="square",
                                  out=str(out))
        run_experiment(config)
        header, rows = read_rows(out)
        columns = ("succ_diff", "h1", "h2", "h3", "h4", "ks")
        report = [[float(row[header.index(c)]) for c in columns]
                  for row in rows]
        per_seed = []
        for seed in seeds:
            seed_header, seed_rows = read_rows(tmp_path / f"r.seed{seed}.csv")
            assert seed_header == ["t", "succ_diff", "hermite_m1",
                                   "hermite_m2", "hermite_m3", "hermite_m4",
                                   "ks_stat"]
            per_seed.append([[float(x) for x in row[1:]] for row in seed_rows])
        for t, report_row in enumerate(report):
            for j, value in enumerate(report_row):
                total = 0.0
                for table in per_seed:
                    total += table[t][j]
                assert value == total / len(seeds)

    def test_tap_report_names_the_ensemble_given(self, tmp_path):
        out = tmp_path / "sk.csv"
        rc = main(["tap", "--ensemble", "sk", "--N", "128", "--T", "2",
                   "--seeds", "1..2", "--out", str(out)])
        assert rc == 0
        header, rows = read_rows(out)
        assert {row[header.index("ensemble")] for row in rows} == {"sk"}
        assert "# ensemble=sk " in out.read_text()
        for seed in (1, 2):
            first = (tmp_path / f"sk.seed{seed}.csv").read_text().splitlines()[0]
            assert f"# seed={seed} ensemble=sk " in first

    @pytest.mark.parametrize("mode, ensemble", [
        ("tap", "signed-sine"), ("tap", "random-orthogonal"),
        ("projected", "random-orthogonal"), ("simple", "signed-hadamard")])
    def test_trace_dump_leaves_the_observables_unchanged(self, tmp_path,
                                                         mode, ensemble):
        # a dump keeps the iterates in addition to the rows filled inside
        # the loop, and leaves those rows as they are
        written = []
        for dump in (False, True):
            out = tmp_path / f"dump{dump}" / "r.csv"
            out.parent.mkdir()
            run_experiment(ExperimentConfig(
                ensemble, N=256, T=4, seeds=(1, 2), mode=mode,
                nonlinearity="square", out=str(out),
                dump_trace=dump))
            written.append({name: (out.parent / name).read_bytes()
                            for name in ("r.csv", "r.seed1.csv",
                                         "r.seed2.csv")})
        assert written[0] == written[1]

    def test_first_seed_operator_released(self, monkeypatch):
        # the operator built for the state-evolution scale serves the first
        # seed and is then dropped; its lazy Haar store is freed at once,
        # without waiting for the cyclic collector
        import gc
        import weakref

        from amplab import amp, ensembles

        built, alive_at_start = [], []
        real_build, real_run = ensembles.operator_from_spec, amp.run_amp

        def tracking_build(*args, **kwargs):
            op = real_build(*args, **kwargs)
            built.append(weakref.ref(op.haar_basis))
            return op

        def tracking_run(op, *args, **kwargs):
            alive_at_start.append(sum(ref() is not None for ref in built))
            return real_run(op, *args, **kwargs)

        monkeypatch.setattr(ensembles, "operator_from_spec", tracking_build)
        monkeypatch.setattr(amp, "run_amp", tracking_run)
        monkeypatch.setenv("AMP_LAB_THREADS", "1")
        gc.disable()
        try:
            run_experiment(ExperimentConfig(
                "random-orthogonal", N=256, T=3, seeds=(1, 2, 3),
                mode="projected", nonlinearity="square"))
        finally:
            gc.enable()
        assert alive_at_start == [1, 1, 1]

    @pytest.mark.parametrize("mode", ["projected", "tap"])
    def test_each_seed_final_iterate_released(self, monkeypatch, mode):
        # a streamed run returns z^T in its trace; the pipeline drops it as
        # soon as the run returns, so it is freed before the next seed runs,
        # without waiting for the cyclic collector
        import gc
        import weakref

        from amplab import amp, tap

        finals, alive_at_start = [], []
        real_run = amp.run_amp

        def tracking_run(*args, **kwargs):
            alive_at_start.append(sum(ref() is not None for ref in finals))
            trace = real_run(*args, **kwargs)
            finals.append(weakref.ref(trace.iterates[-1]))
            return trace

        monkeypatch.setattr(amp, "run_amp", tracking_run)
        monkeypatch.setattr(tap, "run_amp", tracking_run)
        monkeypatch.setenv("AMP_LAB_THREADS", "1")
        gc.disable()
        try:
            run_experiment(ExperimentConfig(
                "signed-hadamard", N=256, T=3, seeds=(1, 2, 3), mode=mode,
                nonlinearity="square"))
        finally:
            gc.enable()
        assert alive_at_start == [0, 0, 0]

    @pytest.mark.parametrize("mode,T,n", [("projected", 3, 256),
                                          ("tap", 3, 256), ("tap", 5, 8)])
    def test_haar_store_sized_to_the_run(self, monkeypatch, mode, T, n):
        # every seed's store is allocated once, at min(2T, N) rows for a
        # plain run and min(2T + 2, N) for TAP, whose coupling has room for
        # one residual, and is still that buffer when the run is over
        from amplab import ensembles

        stores = []
        real_build = ensembles.build_random_orthogonal

        def tracking_build(*args, **kwargs):
            op = real_build(*args, **kwargs)
            basis = op.haar_basis
            stores.append((basis, basis.q.base))
            return op

        monkeypatch.setattr(ensembles, "build_random_orthogonal",
                            tracking_build)
        monkeypatch.setenv("AMP_LAB_THREADS", "1")
        run_experiment(ExperimentConfig(
            "random-orthogonal", N=n, T=T, seeds=(1, 2), mode=mode,
            nonlinearity="square"))
        assert len(stores) == 2
        for basis, q in stores:
            budget = 2 * T + 2 if mode == "tap" else 2 * T
            assert q.shape == (basis.cap, n) == (min(budget, n), n)
            assert basis.q.base is q

    def test_orthogonal_run_peak_holds_no_store_growth(self, monkeypatch,
                                                       tmp_path):
        # the store's 2T rows are 20 N-vectors at T = 10, and the run peaks
        # near 27.  State evolution's own work arrays (about 0.4 MB,
        # whatever N is) stay under 3 N-vectors at N = 2^14.
        import tracemalloc

        n = 2 ** 14
        argv = ["run", "--ensemble", "random-orthogonal", "--N", str(n),
                "--T", "10", "--seeds", "1..2", "--out",
                str(tmp_path / "r.csv")]
        monkeypatch.setenv("AMP_LAB_THREADS", "1")
        assert main(argv) == 0  # caches and lazy imports filled
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < 35 * n * 8

    def test_simple_mode_iterates_the_recursion_centered_steps(self,
                                                                tmp_path):
        # oracle: each step's nonlinearity built by centering the preset at
        # the state-evolution scale sigma_t, then run seed by seed
        from amplab.amp import gaussian_init, run_amp
        from amplab.ensembles import operator_from_spec
        from amplab.metrics import observable_row
        from amplab.state_evolution import (center_divergence_free,
                                            preset_nonlinearity,
                                            run_state_evolution)

        spectrum = tmp_path / "pm10.txt"
        spectrum.write_text("10\n-10\n" * 128)
        spec, n, T, seeds = f"sign-perm:spectrum={spectrum}", 256, 6, (1, 2)
        report = run_experiment(ExperimentConfig(
            spec, N=n, T=T, seeds=seeds, mode="simple",
            nonlinearity="tanh-centered"))

        base = preset_nonlinearity("tanh-centered")
        se = run_state_evolution([base] * T, 1.0,
                                 operator_from_spec(spec, n, 1).sigma_psi_sq,
                                 T)
        sigma = np.sqrt(se.sigma_sq)
        nonlins = [center_divergence_free(base, sigma[t]) for t in range(T)]
        for seed, table in zip(seeds, report.seed_tables):
            trace = run_amp(operator_from_spec(spec, n, seed), nonlins,
                            gaussian_init(n, 1.0, seed), T, "simple",
                            seed=seed, observe=lambda t, z_prev, z:
                            observable_row(z_prev, z, sigma[t]))
            assert np.array_equal(np.array(trace.steps), table), seed

    def test_trace_dump_gated(self, tmp_path):
        out = tmp_path / "tr.csv"
        config = ExperimentConfig("signed-sine", N=64, T=2, seeds=(1,),
                                  mode="simple", nonlinearity="square",
                                  out=str(out), beta=0.0, theta=0.0,
                                  dump_trace=True)
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

    def test_se_default_output_bytes(self, capsys):
        assert main(["se"]) == 0
        assert capsys.readouterr().out == SE_DEFAULT

    def test_degree_flag_is_parsed_and_ignored(self, capsys, tmp_path):
        # older command lines pass --degree; it changes nothing, while a
        # config file's degree key is an unknown key like any other
        assert main(["se", "--degree", "24"]) == 0
        assert capsys.readouterr().out == SE_DEFAULT
        conf = tmp_path / "se.conf"
        conf.write_text("degree=64\n")
        assert main(["se", "--config", str(conf)]) == 1
        assert "unknown key 'degree'" in capsys.readouterr().err

    def test_se_degenerate_tail_output_bytes(self, capsys):
        # sigma_{t+1}^2 = sigma_psi^2 sigma_t^4 falls below the degenerate
        # floor at step 6, whose row of the covariance stays zero
        with pytest.warns(UserWarning, match="degenerate at step 6"):
            rc = main(["se", "--preset", "plain", "--nonlinearity", "square",
                       "--sigma-psi-sq", "0.5", "--T", "6"])
        assert rc == 0
        assert capsys.readouterr().out == SE_PLAIN_DEGENERATE

    def test_se_degenerate_warning_is_one_json_record(self):
        proc = subprocess.run(
            [sys.executable, "-m", "amplab.cli", "se", "--preset", "plain",
             "--nonlinearity", "square", "--sigma-psi-sq", "0.5", "--T", "6"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout == SE_PLAIN_DEGENERATE
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert json.loads(lines[0]) == {
            "warning": "UserWarning",
            "message": "nonlinearity 'square' is degenerate at step 6: "
                       "downstream variances are zero"}

    def test_main_restores_the_warning_format(self, monkeypatch):
        def own_format(*args):
            return "own\n"

        monkeypatch.setattr(warnings, "formatwarning", own_format)
        assert main(["se", "--T", "2"]) == 0
        assert warnings.formatwarning is own_format

    def test_run_degenerate_warning_precedes_the_error_record(self):
        proc = subprocess.run(
            [sys.executable, "-m", "amplab.cli", "run", "--ensemble",
             "signed-hadamard", "--N", "256", "--T", "3", "--seeds", "1",
             "--mode", "simple", "--nonlinearity", "tanh-centered"],
            capture_output=True, text=True)
        assert proc.returncode == 1
        warning, error = map(json.loads, proc.stderr.splitlines())
        assert warning["warning"] == "UserWarning"
        assert "degenerate" in warning["message"]
        assert error["error"] == "ValueError"
        assert "zero variance" in error["message"]

    @pytest.mark.parametrize("ensemble", ["signed-sine", "sk"])
    def test_zero_theta_refused_before_any_coupling(self, ensemble):
        # q* ~ 7e-13 at theta = 0, beta = 0.5: the TAP state evolution
        # collapses at step 1, which is refused before a coupling is built
        script = ("import sys\nfrom amplab import cli, tap\n"
                  "def no_build(*args, **kwargs):\n"
                  "    raise AssertionError('a coupling was built')\n"
                  "tap.build_coupling = no_build\n"
                  "sys.exit(cli.main(sys.argv[1:]))\n")
        proc = subprocess.run(
            [sys.executable, "-c", script, "tap", "--ensemble", ensemble,
             "--theta", "0", "--beta", "0.5", "--N", "64", "--T", "2",
             "--seeds", "1"], capture_output=True, text=True)
        assert proc.returncode == 1
        assert proc.stdout == ""
        warning, error = map(json.loads, proc.stderr.splitlines())
        assert warning == {"warning": "UserWarning", "message":
                           "nonlinearity 'tap-g' is degenerate at step 1: "
                           "downstream variances are zero"}
        assert error["error"] == "ValueError"
        assert re.fullmatch(
            r"state evolution collapses to zero variance for theta = 0 and "
            r"beta = 0\.5 \(q\* = \S+\); observables cannot be standardized "
            r"\(pick a different theta or beta\)", error["message"])

    @pytest.mark.parametrize("ensemble,beta", [
        ("signed-sine", "1e-300"), ("signed-sine", "1e-100"),
        ("sk", "1e-300"), ("hopfield", "1e-300")])
    def test_tiny_beta_gives_one_error_record(self, ensemble, beta, capsys):
        # the inverse-function rule's 1/y^2 gave uncaught ZeroDivisionError
        # and OverflowError tracebacks here
        rc = main(["tap", "--ensemble", ensemble, "--beta", beta, "--N", "64",
                   "--T", "2", "--seeds", "1"])
        assert rc == 1
        record = json.loads(capsys.readouterr().err)
        assert f"beta = {float(beta)}" in record["message"]

    @pytest.mark.parametrize("ensemble,beta", [
        ("signed-sine", "1e20"), ("signed-sine", "1e200"), ("sk", "1e200"),
        ("hopfield", "1e200")])
    def test_huge_beta_gives_one_error_record(self, ensemble, beta, capsys):
        # lambda* rounded to the Rademacher edge at 1e20, and sigma*^2
        # overflowed at 1e200 into "integrand not finite at node ..."
        rc = main(["tap", "--ensemble", ensemble, "--beta", beta, "--N", "64",
                   "--T", "2", "--seeds", "1"])
        assert rc == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        record = json.loads(err)
        assert record["error"] == "ValueError"
        assert f"beta = {float(beta)} is too large" in record["message"]
        assert "pick a smaller beta" in record["message"]

    def test_check_ensemble_subcommand(self, capsys):
        rc = main(["check-ensemble", "--ensemble", "signed-sine",
                   "--N", "512"])
        assert rc == 0
        out = capsys.readouterr().out
        record = dict(part.split("=") for part in out.split())
        assert float(record["psi_inf_norm"]) == pytest.approx(
            2 / np.sqrt(1025), abs=1e-6)

    def test_check_ensemble_on_a_far_resolvent(self, capsys):
        # sigma_psi^2 ~ 1e-24 here; -G' - G^2 read -2.2e-17 and the
        # operator refused it as not positive
        rc = main(["check-ensemble", "--ensemble",
                   "wigner-resolvent:lambda=1e6", "--N", "256", "--mode",
                   "probe"])
        assert rc == 0
        assert "psi_inf_norm=" in capsys.readouterr().out

    def test_check_ensemble_dense_haar_refused_up_front(self, capsys):
        rc = main(["check-ensemble", "--ensemble", "random-orthogonal",
                   "--N", "1024", "--mode", "dense"])
        assert rc == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ResourceError"
        assert "--mode probe" in record["message"]

    def test_check_ensemble_dense_above_the_cap_refused_up_front(self,
                                                                capsys):
        rc = main(["check-ensemble", "--ensemble", "signed-sine",
                   "--N", "9000", "--mode", "dense"])
        assert rc == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ResourceError"
        assert "--mode probe" in record["message"]

    @pytest.mark.parametrize("n", ["-4", "1"])
    def test_check_ensemble_size_named_in_the_error_record(self, capsys, n):
        assert main(["check-ensemble", "--N", n]) == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record == {"error": "ValueError",
                          "message": f"N must be >= 2, got {n}"}

    def test_check_ensemble_probe_haar_store_sized_to_the_check(
            self, monkeypatch, capsys):
        # probe mode reveals 50 directions at any N; its store holds the 52
        # of check_haar_budget, not HAAR_CAP = 512 (1024 N-vectors), and its
        # line is the one a 512-direction store gives
        import tracemalloc

        from amplab import ensembles

        n = 2 ** 14
        argv = ["check-ensemble", "--ensemble", "random-orthogonal",
                "--N", str(n), "--mode", "probe"]
        stores = []
        real_build = ensembles.build_random_orthogonal

        def tracking_build(*args, **kwargs):
            op = real_build(*args, **kwargs)
            stores.append(op.haar_basis)
            return op

        monkeypatch.setattr(ensembles, "build_random_orthogonal",
                            tracking_build)
        assert main(argv) == 0  # caches and lazy imports filled
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < 200 * n * 8
        basis = stores[-1]
        assert basis.q.base.shape == (ensembles.check_haar_budget(n, "probe"), n)
        assert basis.q.base.shape[0] < ensembles.HAAR_CAP
        roomy = ensembles.check_semi_random(
            real_build(n, 1, max_directions=ensembles.HAAR_CAP), "probe")
        line = capsys.readouterr().out.splitlines()[-1]
        for key in ("psi_inf_norm", "psi_op_norm", "max_offdiag_gram"):
            assert f"{key}={_fmt(getattr(roomy, key))} " in line

    def test_check_ensemble_out_of_memory_is_one_json_record(self,
                                                            monkeypatch,
                                                            capsys):
        from amplab import ensembles

        def failing_build(n, seed, *, max_directions):
            raise MemoryError(f"cannot allocate {max_directions} Haar rows")

        monkeypatch.setattr(ensembles, "build_random_orthogonal",
                            failing_build)
        assert main(["check-ensemble", "--ensemble", "random-orthogonal",
                     "--N", "4096", "--mode", "probe"]) == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record == {"error": "MemoryError",
                          "message": "cannot allocate 52 Haar rows"}

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

    @pytest.mark.parametrize("spec, config, named", [
        ("mystery-ensemble", None, "mystery-ensemble"),
        ("wigner-resolvent", None, "lambda="),
        ("wishart-resolvent:lambda=4.5", None, "phi="),
        ("sign-perm:base=hadamard", None, "spectrum="),
        ("wishart-resolvent:phi=abc,lambda=4.5", None,
         "phi='abc' is not a finite"),
        ("wigner-resolvent:lambda=inf", None, "lambda='inf' is not a finite"),
        ("signed-sine", "mode=simple\nbeta_=3\n",
         "unknown key 'beta_' for run; valid keys: ensemble, N, T, seeds"),
        ("signed-sine", "dump_trace=ture\n",
         "dump_trace='ture' is not a boolean"),
        # the flags --T 2 and --N 64 win, yet the file values are refused
        ("signed-sine", "T=abc\n", "exp.conf: T='abc' is not an integer"),
        ("signed-sine", "N=1e3\n", "exp.conf: N='1e3' is not an integer"),
        ("signed-sine", "sigma0_sq=one\n",
         "exp.conf: sigma0_sq='one' is not a number"),
    ], ids=["unknown", "no-lambda", "no-phi", "no-spectrum", "phi-not-number",
            "lambda-infinite", "config-unknown-key", "config-bad-boolean",
            "config-not-integer", "config-float-for-integer",
            "config-not-number"])
    def test_error_record_on_stderr(self, capsys, tmp_path, spec, config,
                                    named):
        argv = ["run", "--ensemble", spec, "--N", "64", "--T", "2",
                "--seeds", "1"]
        if config is not None:
            (tmp_path / "exp.conf").write_text(config)
            argv += ["--config", str(tmp_path / "exp.conf")]
        rc = main(argv)
        assert rc == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ValueError"
        assert named in record["message"]

    @pytest.mark.parametrize("command", ["tap", "se"])
    @pytest.mark.parametrize("beta", ["0", "-1"])
    def test_nonpositive_beta_is_one_error_record(self, capsys, command,
                                                  beta):
        argv = [command, "--beta", beta, "--T", "2"]
        if command == "tap":
            argv += ["--N", "64", "--seeds", "1"]
        assert main(argv) == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record == {"error": "ValueError", "message":
                          f"beta = {float(beta)}: the inverse temperature "
                          f"must be positive and finite"}

    @pytest.mark.parametrize("call, message", [
        (["--phi", "nan"], "phi must be positive and finite, got nan"),
        (["--phi", "inf"], "phi must be positive and finite, got inf"),
        (["--theta", "nan"], "theta = nan must be nonnegative and finite"),
        (["--beta", "inf"], "beta = inf: the inverse temperature must be "
                            "positive and finite"),
        (lambda: build_wishart_coupling(64, float("nan"), 1),
         "phi must be positive and finite, got nan"),
    ], ids=["phi-nan", "phi-inf", "theta-nan", "beta-inf", "wishart-phi-nan"])
    def test_non_finite_tap_parameter_named_up_front(self, capsys, call,
                                                     message):
        if callable(call):
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == message
            return
        assert main(["tap", "--ensemble", "hopfield", "--N", "64", "--T", "2",
                     "--seeds", "1", *call]) == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record == {"error": "ValueError", "message": message}

    @pytest.mark.parametrize("seeds", ["1..a", "1,x"])
    def test_malformed_seeds_named_in_the_error_record(self, capsys, seeds):
        assert main(["run", "--N", "64", "--T", "2", "--seeds", seeds]) == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record == {"error": "ValueError", "message":
                          f"seeds {seeds!r}: expected a..b or "
                          f"comma-separated integers"}

    @pytest.mark.parametrize("argv, message", [
        (["run", "--seeds=-1..0"], "seeds '-1..0': seeds must be nonnegative"),
        (["run", "--seeds=3,-2"], "seeds '3,-2': seeds must be nonnegative"),
        (["tap", "--seeds=-2..-1"],
         "seeds '-2..-1': seeds must be nonnegative"),
        (["check-ensemble", "--seed", "-3"],
         "seed must be nonnegative, got -3"),
    ], ids=["run", "run-list", "tap", "check-ensemble"])
    def test_negative_seed_named_in_the_error_record(self, capsys, argv,
                                                     message):
        assert main(argv + ["--N", "64"]) == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record == {"error": "ValueError", "message": message}

    def test_dump_trace_without_out_refused_before_any_run(self, monkeypatch,
                                                          capsys):
        # the trace files go beside the report, so a dump with no report
        # path would run every seed and write nothing
        from amplab import amp

        def no_run(*args, **kwargs):
            raise AssertionError("a seed ran before the dump was checked")

        monkeypatch.setattr(amp, "run_amp", no_run)
        assert main(["run", "--N", "64", "--T", "2", "--seeds", "1",
                     "--dump-trace"]) == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record == {"error": "ValueError", "message":
                          "dump_trace needs out: trace dumps go beside it"}

    def test_bad_thread_count_refused_before_any_work(self, monkeypatch,
                                                      capsys):
        from amplab import ensembles

        def no_build(*args, **kwargs):
            raise AssertionError("operator built before AMP_LAB_THREADS "
                                 "was checked")

        monkeypatch.setattr(ensembles, "operator_from_spec", no_build)
        monkeypatch.setenv("AMP_LAB_THREADS", "abc")
        rc = main(["run", "--N", "64", "--T", "2", "--seeds", "1..2"])
        assert rc == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record == {"error": "ValueError", "message":
                          "AMP_LAB_THREADS='abc' is not an integer"}

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

    def test_import_loads_neither_fft_nor_special(self, tmp_path):
        # `amplab se` only imports amplab.cli, and no command loads a scipy
        # module: the dense Cholesky resolvent of the sk and hopfield runs
        # loads scipy's LAPACK extension from its file, outside sys.modules
        proc = subprocess.run(
            [sys.executable, "-c",
             "import amplab.cli, sys; print(sorted({'scipy.fft', "
             "'scipy.special', 'scipy.linalg'} & set(sys.modules)))"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
        for argv in (["se", "--preset", "tap"],
                     ["se", "--preset", "plain"],
                     ["tap", "--ensemble", "signed-hadamard"],
                     ["tap", "--ensemble", "signed-sine"],
                     ["tap", "--ensemble", "hopfield"],
                     ["tap", "--ensemble", "sk"],
                     ["run", "--ensemble", "random-orthogonal"],
                     ["run", "--ensemble", "signed-sine"]):
            argv += ["--T", "2", "--out", str(tmp_path / "out.csv")]
            if argv[0] != "se":
                argv += ["--N", "256"]
            proc = subprocess.run(
                [sys.executable, "-c",
                 "import sys; from amplab.cli import main; "
                 f"assert main({argv!r}) == 0; "
                 "print(sorted(m for m in sys.modules "
                 "if m.split('.')[0] == 'scipy'))"],
                capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.strip() == "[]", argv

    @staticmethod
    def tap_resident_peak(tmp_path, ensemble, n, steps):
        # VmHWM in kB of a fresh `tap` process with one worker.  Unlike
        # ru_maxrss, it starts afresh at exec instead of at the forking
        # parent's size.
        argv = ["tap", "--ensemble", ensemble, "--N", str(n), "--T",
                str(steps), "--out", str(tmp_path / f"{ensemble}-{n}.csv")]
        proc = subprocess.run(
            [sys.executable, "-c",
             "from amplab.cli import main; "
             f"assert main({argv!r}) == 0; "
             "print(open('/proc/self/status').read())"],
            capture_output=True, text=True,
            env={**os.environ, "AMP_LAB_THREADS": "1"})
        assert proc.returncode == 0, proc.stderr
        hwm = next(line for line in proc.stdout.splitlines()
                   if line.startswith("VmHWM:"))
        return int(hwm.split()[1])

    def test_sine_tap_resident_peak_near_the_hadamard_one(self, tmp_path):
        # the resident high-water mark counts the FFT work arrays that
        # tracemalloc does not see: 8.4 MB apart at N = 2^16, against
        # 40.7 MB for the odd-length FFT this replaced
        sine, hadamard = (self.tap_resident_peak(tmp_path, ensemble, 65536, 3)
                          for ensemble in ("signed-sine", "signed-hadamard"))
        assert sine - hadamard <= 16 * 1024

    def dense_tap_beyond_one_square(self, tmp_path, ensemble):
        # beyond the Hadamard run, a dense run holds its int8 draw, the
        # resolvent (one N x N float64 array, 2 MB at N = 512) and LAPACK's
        # code: 7.7 MB in all for hopfield and 7.2 for sk, where a float64
        # J beside the resolvent took 10.2 and 8.8, and 24 MB when
        # scipy.linalg was imported
        dense, hadamard = (
            self.tap_resident_peak(tmp_path, name, 512, 2)
            for name in (ensemble, "signed-hadamard"))
        return dense - 512 * 512 * 8 // 1024 - hadamard

    def test_hopfield_tap_resident_peak_near_the_hadamard_one(self,
                                                              tmp_path):
        assert self.dense_tap_beyond_one_square(tmp_path,
                                                "hopfield") <= 12 * 1024

    def test_sk_tap_resident_peak_near_the_hadamard_one(self, tmp_path):
        assert self.dense_tap_beyond_one_square(tmp_path, "sk") <= 12 * 1024

    @staticmethod
    def csvs_at_thread_counts(tmp_path, argv, counts):
        # run argv once per (AMP_LAB_THREADS, OPENBLAS_NUM_THREADS) pair and
        # return the bytes of every CSV each run wrote
        outputs = []
        for amp_threads, blas_threads in counts:
            out = tmp_path / f"{argv[0]}-{amp_threads}-{blas_threads}" / "o.csv"
            out.parent.mkdir()
            proc = subprocess.run(
                [sys.executable, "-m", "amplab.cli", *argv, "--out", str(out)],
                capture_output=True, text=True,
                env={**os.environ, "AMP_LAB_THREADS": amp_threads,
                     "OPENBLAS_NUM_THREADS": blas_threads})
            assert proc.returncode == 0, proc.stderr
            outputs.append({p.name: p.read_bytes()
                            for p in sorted(out.parent.glob("*.csv"))})
        assert sorted(outputs[0]) == ["o.csv", "o.seed1.csv", "o.seed2.csv"]
        return outputs

    def test_blas_threads_leave_the_hadamard_csvs_unchanged(self, tmp_path):
        # fwht's stages are BLAS products; a threaded OpenBLAS splits their
        # columns among threads, not a column's sum, and the projected
        # mode's alpha is a pairwise sum, not a BLAS dot: no CSV byte may move
        for argv in (["tap", "--ensemble", "signed-hadamard"],
                     ["run", "--ensemble", "signed-hadamard", "--mode",
                      "projected", "--nonlinearity", "square",
                      "--sigma0-sq", "1"]):
            one, two = self.csvs_at_thread_counts(
                tmp_path, argv + ["--N", "65536", "--seeds", "1..2"],
                [("1", "1"), ("2", "2")])
            assert one == two

    def test_orthogonal_csvs_hold_across_workers_at_one_blas_thread(
            self, tmp_path):
        # the Haar store's products and dots are BLAS calls whose bits move
        # with the BLAS thread count; at one BLAS thread the seed-level
        # worker count moves no byte
        one, two = self.csvs_at_thread_counts(
            tmp_path, ["run", "--ensemble", "random-orthogonal", "--N",
                       "16384", "--T", "10", "--mode", "projected",
                       "--nonlinearity", "square", "--sigma0-sq", "1",
                       "--seeds", "1..2"],
            [("1", "1"), ("2", "1")])
        assert one == two

    def test_console_script_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "amplab.cli", "se", "--preset", "plain",
             "--nonlinearity", "square", "--T", "3"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.startswith("t,sigma_sq")


class TestKeyTable:
    """``KEYS`` declares each subcommand's flags and config-file keys once."""

    @pytest.mark.parametrize("command, key, value", [
        ("se", "preset", "Tap"),
        ("check-ensemble", "mode", "Probe"),
        ("run", "nonlinearity", "cube"),
        ("tap", "ensemble", "mystery"),
    ])
    def test_file_value_outside_its_choices_is_one_json_record(
            self, capsys, tmp_path, command, key, value):
        conf = tmp_path / "exp.conf"
        conf.write_text(f"{key}={value}\n")
        argv = [command, "--config", str(conf)]
        if command in ("run", "tap"):
            argv += ["--N", "64", "--T", "2", "--seeds", "1"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        record = json.loads(captured.err)
        choices = ", ".join(KEYS[command][key])
        assert record == {"error": "ValueError", "message":
                          f"{conf}: {key}={value!r} is not one of {choices}"}

    @pytest.mark.parametrize("command", list(KEYS))
    def test_parser_flags_are_the_table_keys(self, command):
        sub = _build_parser()._subparsers._group_actions[0].choices[command]
        options = {opt for action in sub._actions
                   for opt in action.option_strings}
        flags = {"--" + key.replace("_", "-") for key in KEYS[command]}
        by_hand = {"-h", "--help", "--config"}
        if command in ("run", "tap", "se"):
            by_hand.add("--degree")
        assert options == flags | by_hand

    def test_readme_key_table_is_the_table(self):
        with open(os.path.join(os.path.dirname(__file__), "..",
                               "README.md")) as fh:
            text = fh.read()
        rows = re.findall(r"^\| `([a-z-]+)` \| (.*) \|$", text, re.MULTILINE)
        assert {command: re.findall(r"`(\w+)`", keys)
                for command, keys in rows} == {
            command: list(keys) for command, keys in KEYS.items()}

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("argv, key", [
        (["run", "--N", "64", "--T", "2", "--seeds", "1", "--sigma0-sq"],
         "sigma0_sq"),
        (["se", "--preset", "plain", "--sigma0-sq"], "sigma0_sq"),
        (["se", "--preset", "plain", "--sigma-psi-sq"], "sigma_psi_sq"),
    ], ids=["run-sigma0-sq", "se-sigma0-sq", "se-sigma-psi-sq"])
    def test_non_finite_variance_named_up_front(self, capsys, argv, key,
                                                value):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv + [value]) == 1
        assert caught == []
        assert json.loads(capsys.readouterr().err) == {
            "error": "ValueError",
            "message": f"{key} must be positive and finite, got {value}"}

    @pytest.mark.parametrize("argv, preset, key", [
        (["se", "--sigma0-sq", "nan", "--T", "2"], "tap", "sigma0_sq"),
        (["se", "--preset", "tap", "--nonlinearity", "cubic-centered",
          "--T", "2"], "tap", "nonlinearity"),
        (["se", "--preset", "plain", "--phi", "2"], "plain", "phi"),
        ("preset=plain\nbeta=3\n", "plain", "beta"),
    ], ids=["sigma0-sq-flag", "nonlinearity-flag", "phi-flag", "beta-file"])
    def test_key_its_preset_does_not_read_refused(self, capsys, tmp_path,
                                                 argv, preset, key):
        if isinstance(argv, str):
            conf = tmp_path / "se.conf"
            conf.write_text(argv)
            argv = ["se", "--config", str(conf)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "ValueError", "message":
            f"the {preset} preset of se does not read {key}; it reads "
            f"{', '.join(PRESET_KEYS[preset])}"}

    def test_preset_keys_are_the_se_keys(self):
        # each preset's keys in table order, and every se key read by one
        for keys in PRESET_KEYS.values():
            assert list(keys) == [key for key in KEYS["se"] if key in keys]
        assert set().union(*PRESET_KEYS.values()) == set(KEYS["se"])

    @pytest.mark.parametrize("argv", [
        "se --preset tap --ensemble hopfield --T 10 --beta 1 --theta 2 "
        "--phi 1 --degree 64",
        "se --preset plain --nonlinearity square --T 10 --degree 24 "
        "--sigma0-sq 1 --sigma-psi-sq 1",
    ], ids=["tap", "plain"])
    def test_benchmark_se_lines_still_run(self, capsys, argv):
        # the two se command lines of benchmark/run.py's workloads
        assert main(argv.split()) == 0
        assert capsys.readouterr().out.startswith("t,sigma_sq,rho_prev,d_pred")
