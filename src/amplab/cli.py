"""Experiment harness: seed sweeps, CSV emission, reproducible runs.

Subcommands
-----------
run             memory-free AMP with a named nonlinearity preset on any
                operator spec string, plus its state-evolution prediction.
tap             the Ising magnetization pipeline (parameters, iteration,
                observables) for one of the TAP ensembles.
se              state evolution only.
check-ensemble  semi-randomness diagnostics of an operator.

Configuration comes from flags plus an optional key=value file (one pair
per line, ``#`` comments); flags win.  Seed ranges are written ``a..b``
(inclusive) or comma-separated.  ``AMP_LAB_THREADS`` caps the worker pool.
Output is deterministic: identical configuration gives byte-identical CSVs
regardless of thread count.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import amp, ensembles, metrics, state_evolution, tap
from .errors import AmpLabError

TRACE_DUMP_CAP = 4096  # refuse full-trace CSV dumps above this N

IGNORED_DEGREE = ("ignored: state evolution has no truncation degree; "
                  "accepted so that older command lines still parse")


@dataclass
class ExperimentConfig:
    ensemble: str
    N: int
    T: int
    beta: float = 2.0
    theta: float = 2.0
    phi: float = 1.0
    seeds: tuple = (1,)
    mode: str = "tap"
    nonlinearity: str = "square"
    sigma0_sq: float = 1.0
    out: str | None = None
    dump_trace: bool = False

    def __post_init__(self):
        if self.N < 2:
            raise ValueError(f"N must be >= 2, got {self.N}")
        if self.T < 1:
            raise ValueError(f"T must be >= 1, got {self.T}")
        if not self.seeds:
            raise ValueError("at least one seed is required")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError("seeds must be distinct")
        if self.mode not in ("simple", "projected", "tap"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.dump_trace and self.N > TRACE_DUMP_CAP:
            raise ValueError(
                f"trace dump is gated to N <= {TRACE_DUMP_CAP} (got {self.N})")
        if self.dump_trace and not self.out:
            raise ValueError("dump_trace needs out: trace dumps go beside it")

    @property
    def haar_budget(self) -> int:  # directions T matvecs can reveal
        return min(2 * self.T, self.N)


def parse_seeds(text: str) -> tuple:
    """"a..b" (inclusive) or comma-separated integers."""
    text = text.strip()
    lo, dots, hi = text.partition("..")
    try:
        seeds = (tuple(range(int(lo), int(hi) + 1)) if dots else
                 tuple(int(part) for part in text.split(",") if part.strip()))
    except ValueError:
        raise ValueError(f"seeds {text!r}: expected a..b or comma-separated "
                         f"integers") from None
    if dots and not seeds:
        raise ValueError(f"empty seed range {text!r}")
    if any(seed < 0 for seed in seeds):
        raise ValueError(f"seeds {text!r}: seeds must be nonnegative")
    return seeds


def load_config_file(path: str) -> dict:
    """key=value pairs, one per line; blank lines and # comments ignored."""
    out = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            key, sep, value = text.partition("=")
            if not sep:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {text!r}")
            out[key.strip().replace("-", "_")] = value.strip()
    return out


def _worker_count(n_jobs: int) -> int:
    cap = os.environ.get("AMP_LAB_THREADS", str(os.cpu_count() or 1))
    try:
        return max(1, min(n_jobs, int(cap)))
    except ValueError:
        raise ValueError(f"AMP_LAB_THREADS={cap!r} is not an integer") from None


# ---------------------------------------------------------------------------
# experiment pipelines
# ---------------------------------------------------------------------------

def _tap_prediction(ensemble, beta, theta, phi, T):
    """TAP parameters and their state evolution, shared by ``tap`` and ``se``."""
    params = tap.solve_q_star(beta, theta, tap.ensemble_law(ensemble, phi))
    se = state_evolution.run_state_evolution(
        [tap.g_nonlinearity(params)] * T, params.sigma_star_sq,
        params.sigma_psi_sq, T)
    return params, se


def _tap_experiment(config: ExperimentConfig):
    params, se = _tap_prediction(config.ensemble, config.beta, config.theta,
                                 config.phi, config.T)

    def one_seed(seed, observe):
        return tap.run_tap_amp(config.ensemble, config.beta, config.theta,
                               config.N, config.T, seed, phi=config.phi,
                               params=params, observe=observe).trace

    header = {key: getattr(params, key) for key in (
        "beta", "theta", "q_star", "sigma_star_sq", "lambda_star",
        "sigma_psi_sq")}
    return se, one_seed, header


def _plain_experiment(config: ExperimentConfig):
    base = state_evolution.preset_nonlinearity(config.nonlinearity)
    sample_op = ensembles.operator_from_spec(
        config.ensemble, config.N, config.seeds[0],
        max_directions=config.haar_budget)
    se = state_evolution.run_state_evolution(
        [base] * config.T, config.sigma0_sq, sample_op.sigma_psi_sq,
        config.T)
    if se.degenerate:
        raise ValueError(
            f"state evolution collapses to zero variance for nonlinearity "
            f"{config.nonlinearity!r} with sigma_psi_sq = "
            f"{sample_op.sigma_psi_sq:g}; observables cannot be "
            f"standardized (pick a different preset or operator)")
    # The simple iteration tracks state evolution only with divergence-free
    # steps: each one centered at its input scale, as the recursion built it.
    nonlins = (list(se.centered) if config.mode == "simple"
               else [base] * config.T)

    header = {"nonlinearity": config.nonlinearity, "mode": config.mode,
              "sigma0_sq": config.sigma0_sq,
              "sigma_psi_sq": sample_op.sigma_psi_sq}
    # the first seed's operator is handed over once and then dropped, so a
    # lazy Haar store does not stay resident while later seeds run
    built = {config.seeds[0]: sample_op}

    def one_seed(seed, observe):
        op = built.pop(seed, None) or ensembles.operator_from_spec(
            config.ensemble, config.N, seed, max_directions=config.haar_budget)
        return amp.run_amp(
            op, nonlins,
            amp.gaussian_init(config.N, np.sqrt(config.sigma0_sq), seed),
            config.T, config.mode, seed=seed, observe=observe)

    return se, one_seed, header


def _run_seeds(fn, seeds, workers):
    if workers == 1:
        return [fn(seed) for seed in seeds]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, seeds))


def run_experiment(config: ExperimentConfig):
    """Build, solve, run all seeds, write the report's CSVs.  Returns it.

    Each seed's observable rows are filled inside its run, whose trace then
    keeps z^0..z^T for a trace dump and no iterate otherwise."""
    workers = _worker_count(len(config.seeds))
    pipeline = _tap_experiment if config.mode == "tap" else _plain_experiment
    se, one_seed, header = pipeline(config)
    sigma = np.sqrt(se.sigma_sq)

    def run_seed(seed):
        kept = []

        def observe(t, z_prev, z):
            if config.dump_trace:
                kept[t - 1:] = [z_prev, z]  # z^0..z^t
            return metrics.observable_row(z_prev, z, sigma[t])

        return replace(one_seed(seed, observe), iterates=kept)

    traces = _run_seeds(run_seed, config.seeds, workers)
    report = metrics.report_from_traces(
        traces, se.succ_diff_prediction(),
        beta=config.beta, theta=config.theta,
        params={**header, "seed": _format_seeds(config.seeds)})
    if config.out:
        emit_report(report, config.out)
        stem, ext = os.path.splitext(config.out)
        for seed, trace, table in zip(config.seeds, traces, report.seed_tables):
            emit_seed_observables(trace, table,
                                  f"{stem}.seed{seed}{ext or '.csv'}")
            if config.dump_trace:
                emit_trace(trace, f"{stem}.seed{seed}.trace{ext or '.csv'}")
    return report


# ---------------------------------------------------------------------------
# CSV emission (deterministic byte output)
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float) and value != value:  # NaN
        return "nan"
    return format(float(value), ".17g")


def _format_seeds(seeds) -> str:
    seeds = list(seeds)
    if len(seeds) > 1 and seeds == list(range(seeds[0], seeds[-1] + 1)):
        return f"{seeds[0]}..{seeds[-1]}"
    return ",".join(str(s) for s in seeds)


REPORT_COLUMNS = ("ensemble,beta,theta,N,T,seed_count,t,"
                  "succ_diff,d_pred,h1,h2,h3,h4,ks")


def _report_lines(report: metrics.ObservableReport) -> list:
    lines = []
    if report.params:
        echoed = " ".join(f"{k}={_fmt(v) if isinstance(v, (int, float, np.floating)) else v}"
                          for k, v in report.params.items())
        lines.append(f"# {echoed}")
    lines.append(f"# ensemble={report.ensemble} N={report.N} T={report.T} "
                 f"seed_count={report.seed_count}")
    lines.append(REPORT_COLUMNS)
    for t in range(1, report.T + 1):
        row = [report.ensemble, _fmt(report.beta), _fmt(report.theta),
               str(report.N), str(report.T), str(report.seed_count), str(t),
               _fmt(report.succ_diff[t - 1]), _fmt(report.d_pred[t - 1])]
        row += [_fmt(report.hermite[t - 1, k]) for k in range(4)]
        row.append(_fmt(report.ks[t - 1]))
        lines.append(",".join(row))
    return lines


def emit_report(report: metrics.ObservableReport, path: str) -> None:
    """Write the seed-averaged report CSV (header comments start with #)."""
    _write_text(path, _report_lines(report))


def emit_seed_observables(trace, table, path: str) -> None:
    """Write one seed's ``metrics.observable_row`` rows under its header."""
    lines = [f"# seed={trace.seed} ensemble={trace.ensemble_label} "
             f"N={trace.N} T={trace.T} mode={trace.mode}",
             "t,succ_diff,hermite_m1,hermite_m2,hermite_m3,hermite_m4,ks_stat"]
    lines += [",".join([str(t)] + [_fmt(x) for x in row])
              for t, row in enumerate(table, start=1)]
    _write_text(path, lines)


def emit_trace(trace, path: str) -> None:
    lines = [f"# seed={trace.seed} ensemble={trace.ensemble_label} "
             f"N={trace.N} T={trace.T} mode={trace.mode}"]
    for t, z in enumerate(trace.iterates):
        lines.append(",".join([str(t)] + [_fmt(x) for x in z]))
    _write_text(path, lines)


def emit_state_evolution(se, path_or_stream) -> None:
    cov, d = se.cov, se.succ_diff_prediction()
    lines = ["t,sigma_sq,rho_prev,d_pred", f"0,{_fmt(cov[0, 0])},,"]
    lines += [f"{t},{_fmt(cov[t, t])},{_fmt(cov[t - 1, t])},{_fmt(d[t - 1])}"
              for t in range(1, se.T + 1)]
    if hasattr(path_or_stream, "write"):
        path_or_stream.write("\n".join(lines) + "\n")
    else:
        _write_text(path_or_stream, lines)


def _write_text(path: str, lines) -> None:
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise AmpLabError(f"cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="amplab",
        description="Memory-free AMP laboratory: runs, state evolution, "
                    "TAP solvers and ensemble diagnostics.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--N", type=int)
        p.add_argument("--T", type=int)
        p.add_argument("--seeds", type=str)
        p.add_argument("--degree", type=int, help=IGNORED_DEGREE)
        p.add_argument("--out", help="report CSV path")
        p.add_argument("--dump-trace", action="store_true", default=None)

    p_run = sub.add_parser("run", help="memory-free AMP experiment")
    common(p_run)
    p_run.add_argument("--ensemble", help="operator spec string")
    p_run.add_argument("--mode", choices=("simple", "projected"))
    p_run.add_argument("--nonlinearity",
                       choices=sorted(state_evolution.PRESETS))
    p_run.add_argument("--sigma0-sq", type=float)

    p_tap = sub.add_parser("tap", help="TAP magnetization experiment")
    common(p_tap)
    p_tap.add_argument("--ensemble", choices=tuple(ensembles.ENSEMBLES))
    p_tap.add_argument("--beta", type=float)
    p_tap.add_argument("--theta", type=float)
    p_tap.add_argument("--phi", type=float)

    p_se = sub.add_parser("se", help="state evolution only")
    p_se.add_argument("--config")
    p_se.add_argument("--preset", choices=("tap", "plain"))
    p_se.add_argument("--ensemble")
    p_se.add_argument("--beta", type=float)
    p_se.add_argument("--theta", type=float)
    p_se.add_argument("--phi", type=float)
    p_se.add_argument("--T", type=int)
    p_se.add_argument("--degree", type=int, help=IGNORED_DEGREE)
    p_se.add_argument("--nonlinearity", choices=sorted(state_evolution.PRESETS))
    p_se.add_argument("--sigma0-sq", type=float)
    p_se.add_argument("--sigma-psi-sq", type=float)
    p_se.add_argument("--out")

    p_chk = sub.add_parser("check-ensemble", help="semi-randomness diagnostics")
    p_chk.add_argument("--config")
    p_chk.add_argument("--ensemble")
    p_chk.add_argument("--N", type=int)
    p_chk.add_argument("--seed", type=int)
    p_chk.add_argument("--mode", choices=("dense", "probe"))
    return parser


def _merged(args, defaults: dict) -> dict:
    """Flag value if given, else config-file value, else hard default.
    Each file value takes its default's type, even where a flag wins."""
    path = getattr(args, "config", None)
    file_conf = load_config_file(path) if path else {}
    if unknown := sorted(file_conf.keys() - defaults.keys()):
        raise ValueError(f"{path}: unknown key {unknown[0]!r} for "
                         f"{args.command}; valid keys: {', '.join(defaults)}")
    for key, raw in file_conf.items():
        fallback = defaults[key]
        if isinstance(fallback, bool):
            if raw.lower() not in ("1", "true", "yes", "0", "false", "no"):
                raise ValueError(f"{path}: {key}={raw!r} is not a "
                                 f"boolean (1/true/yes or 0/false/no)")
            file_conf[key] = raw.lower() in ("1", "true", "yes")
        elif isinstance(fallback, (int, float)):
            try:
                file_conf[key] = type(fallback)(raw)
            except ValueError:
                kind = "an integer" if isinstance(fallback, int) else "a number"
                raise ValueError(f"{path}: {key}={raw!r} is not {kind}") from None
    flags = {key: getattr(args, key, None) for key in defaults}
    return {**defaults, **file_conf,
            **{key: flag for key, flag in flags.items() if flag is not None}}


def _experiment_command(args, defaults: dict, **fixed) -> int:
    """``run`` and ``tap``: one experiment, its report to --out or stdout."""
    merged = _merged(args, defaults)
    merged["seeds"] = parse_seeds(str(merged["seeds"]))
    config = ExperimentConfig(**fixed, **merged)
    report = run_experiment(config)
    if not config.out:
        sys.stdout.write("\n".join(_report_lines(report)) + "\n")
    return 0


def _cmd_run(args) -> int:
    return _experiment_command(args, dict(
        ensemble="signed-sine", N=1024, T=10, seeds="1..8", mode="simple",
        nonlinearity="square", sigma0_sq=1.0, out=None,
        dump_trace=False), beta=0.0, theta=0.0)


def _cmd_tap(args) -> int:
    return _experiment_command(args, dict(
        ensemble="signed-sine", N=1024, T=10, beta=2.0, theta=2.0, phi=1.0,
        seeds="1..8", out=None, dump_trace=False), mode="tap")


def _cmd_se(args) -> int:
    merged = _merged(args, dict(
        preset="tap", ensemble="signed-sine", beta=2.0, theta=2.0, phi=1.0,
        T=10, nonlinearity="square", sigma0_sq=1.0,
        sigma_psi_sq=1.0, out=None))
    if merged["preset"] == "tap":
        _, se = _tap_prediction(merged["ensemble"], merged["beta"],
                                merged["theta"], merged["phi"], merged["T"])
    else:
        base = state_evolution.preset_nonlinearity(merged["nonlinearity"])
        se = state_evolution.run_state_evolution(
            [base] * merged["T"], merged["sigma0_sq"],
            merged["sigma_psi_sq"], merged["T"])
    emit_state_evolution(se, merged["out"] or sys.stdout)
    return 0


def _cmd_check(args) -> int:
    merged = _merged(args, dict(ensemble="signed-sine", N=512, seed=1,
                                mode="dense"))
    if merged["seed"] < 0:
        raise ValueError(f"seed must be nonnegative, got {merged['seed']}")
    op = ensembles.operator_from_spec(
        merged["ensemble"], merged["N"], merged["seed"],
        max_directions=ensembles.check_haar_budget(merged["N"], merged["mode"]))
    diag = ensembles.check_semi_random(op, merged["mode"])
    print(f"ensemble={merged['ensemble']} N={diag.dim} mode={diag.mode} "
          f"psi_inf_norm={_fmt(diag.psi_inf_norm)} "
          f"psi_op_norm={_fmt(diag.psi_op_norm)} "
          f"max_offdiag_gram={_fmt(diag.max_offdiag_gram)} "
          f"max_diag_gram_dev={_fmt(diag.max_diag_gram_dev)} "
          f"inf_ratio={_fmt(diag.inf_ratio)} "
          f"offdiag_ratio={_fmt(diag.offdiag_ratio)}")
    return 0


_COMMANDS = {"run": _cmd_run, "tap": _cmd_tap, "se": _cmd_se,
             "check-ensemble": _cmd_check}


def _warning_record(message, category, *_):
    """A shown warning's stderr text: one JSON line like the error record."""
    return json.dumps({"warning": category.__name__, "message": str(message)}) + "\n"


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    previous, warnings.formatwarning = warnings.formatwarning, _warning_record
    try:
        return _COMMANDS[args.command](args)
    except (AmpLabError, ValueError, OSError, MemoryError) as exc:
        record = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(record), file=sys.stderr)
        return 1
    finally:
        warnings.formatwarning = previous


if __name__ == "__main__":
    sys.exit(main())
