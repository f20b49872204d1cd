"""Experiment harness: seed sweeps, CSV emission, reproducible runs.

Subcommands
-----------
run             memory-free AMP with a named nonlinearity preset on any
                operator spec string, plus its state-evolution prediction.
tap             the Ising magnetization pipeline (parameters, iteration,
                observables) for one of the TAP ensembles.
se              state evolution only.
check-ensemble  semi-randomness diagnostics of an operator.

``run`` and ``tap`` each build one ``amp.Plan`` and run every seed of it
with ``amp.run_plan``; ``se --preset tap`` shares the TAP plan's prediction.

Configuration comes from flags plus an optional key=value file (one pair
per line, ``#`` comments); flags win.  ``KEYS`` declares each subcommand's
keys once: each key is a flag and a file key, and a file value is checked
against the key's type and choices as a flag is; ``se`` refuses a key
that its preset does not read (``PRESET_KEYS``).  Seed ranges are
written ``a..b`` (inclusive) or comma-separated.  ``AMP_LAB_THREADS`` caps
the worker pool.  Output is deterministic: identical configuration gives
byte-identical CSVs regardless of thread count.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import partial

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
        if min(self.seeds) < 0:
            raise ValueError(f"seeds must be nonnegative, got {self.seeds}")
        if self.mode not in ("simple", "projected", "tap"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.dump_trace and self.N > TRACE_DUMP_CAP:
            raise ValueError(
                f"trace dump is gated to N <= {TRACE_DUMP_CAP} (got {self.N})")
        if self.dump_trace and not self.out:
            raise ValueError("dump_trace needs out: trace dumps go beside it")


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

def _experiment_plan(config: ExperimentConfig) -> tuple:
    """(plan, report header, what a collapse of its state evolution names,
    what to change then) of a ``tap`` or ``run`` configuration."""
    if config.mode == "tap":
        params = tap.solve_q_star(config.beta, config.theta,
                                  tap.ensemble_law(config.ensemble, config.phi))
        header = {key: getattr(params, key) for key in (
            "beta", "theta", "q_star", "sigma_star_sq", "lambda_star",
            "sigma_psi_sq")}
        return (tap.tap_plan(config.ensemble, params, config.N, config.T,
                             config.phi), header,
                f"theta = {config.theta:g} and beta = {config.beta:g} "
                f"(q* = {params.q_star:.3g})", "theta or beta")
    base = state_evolution.preset_nonlinearity(config.nonlinearity)
    budget = min(2 * config.T, config.N)  # directions T matvecs can reveal
    # the first seed's operator, built for sigma_psi^2, is handed to that seed
    # and dropped, so a lazy Haar store does not stay resident for later seeds
    built = {config.seeds[0]: ensembles.operator_from_spec(
        config.ensemble, config.N, config.seeds[0], max_directions=budget)}
    sigma_psi_sq = built[config.seeds[0]].sigma_psi_sq
    se = state_evolution.run_state_evolution(
        [base] * config.T, config.sigma0_sq, sigma_psi_sq, config.T)
    # The simple iteration tracks state evolution only with divergence-free
    # steps: each one centered at its input scale, as the recursion built it.
    nonlins = (list(se.centered) if config.mode == "simple"
               else [base] * config.T)

    def operator(seed):
        return built.pop(seed, None) or ensembles.operator_from_spec(
            config.ensemble, config.N, seed, max_directions=budget)

    header = {"nonlinearity": config.nonlinearity, "mode": config.mode,
              "sigma0_sq": config.sigma0_sq, "sigma_psi_sq": sigma_psi_sq}
    return (amp.Plan(se, operator, nonlins, config.mode), header,
            f"nonlinearity {config.nonlinearity!r} with sigma_psi_sq = "
            f"{sigma_psi_sq:g}", "preset or operator")


def run_experiment(config: ExperimentConfig):
    """Run every seed of the configuration's plan, write the report's CSVs,
    and return the report.

    Each seed's observable rows are filled inside its run, whose trace then
    keeps z^0..z^T for a trace dump and no iterate otherwise; the seed's
    operator is dropped when its run ends."""
    workers = _worker_count(len(config.seeds))
    plan, header, cause, remedy = _experiment_plan(config)
    if plan.se.degenerate:  # before any seed runs or tap builds a coupling
        raise ValueError(f"state evolution collapses to zero variance for "
                         f"{cause}; observables cannot be standardized "
                         f"(pick a different {remedy})")
    sigma = np.sqrt(plan.se.sigma_sq)

    def run_seed(seed):
        kept = []

        def observe(t, z_prev, z):
            if config.dump_trace:
                kept[t - 1:] = [z_prev, z]  # z^0..z^t
            return metrics.observable_row(z_prev, z, sigma[t])

        trace, _ = amp.run_plan(plan, seed, observe)
        return replace(trace, iterates=kept)

    if workers == 1:
        traces = [run_seed(seed) for seed in config.seeds]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            traces = list(pool.map(run_seed, config.seeds))
    report = metrics.report_from_traces(
        traces, plan.se.succ_diff_prediction(),
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

# Each subcommand's keys, in order, with their defaults.  A key is both a
# flag (``--sigma0-sq``) and a config-file key (``sigma0_sq``).  The default's
# type is the key's type, None meaning a string, and a tuple lists the key's
# choices, the default first.
KEYS = {
    "run": dict(ensemble="signed-sine", N=1024, T=10, seeds="1..8",
                mode=("simple", "projected"),
                nonlinearity=tuple(state_evolution.PRESETS), sigma0_sq=1.0,
                out=None, dump_trace=False),
    "tap": dict(ensemble=ensembles.TAP_ENSEMBLES, N=1024, T=10, beta=2.0,
                theta=2.0, phi=1.0, seeds="1..8", out=None, dump_trace=False),
    "se": dict(preset=("tap", "plain"), ensemble="signed-sine", beta=2.0,
               theta=2.0, phi=1.0, T=10,
               nonlinearity=tuple(state_evolution.PRESETS), sigma0_sq=1.0,
               sigma_psi_sq=1.0, out=None),
    "check-ensemble": dict(ensemble="signed-sine", N=512, seed=1,
                           mode=("dense", "probe")),
}


# the se keys that each preset reads: a flag or file value for another one
# is refused, while the defaults of the keys left unset are not
PRESET_KEYS = {"tap": ("preset", "ensemble", "beta", "theta", "phi", "T", "out"),
               "plain": ("preset", "T", "nonlinearity", "sigma0_sq",
                         "sigma_psi_sq", "out")}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="amplab",
        description="Memory-free AMP laboratory: runs, state evolution, "
                    "TAP solvers and ensemble diagnostics.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_line) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_line)
        p.add_argument("--config", help="key=value config file")
        if "T" in KEYS[command]:  # the subcommands that run state evolution
            p.add_argument("--degree", type=int, help=IGNORED_DEGREE)
        for key, default in KEYS[command].items():
            flag = "--" + key.replace("_", "-")
            if isinstance(default, bool):
                p.add_argument(flag, action="store_true", default=None)
            elif isinstance(default, tuple):
                p.add_argument(flag, choices=default)
            else:
                kind = str if default is None else type(default)
                p.add_argument(flag, type=kind)
    return parser


def _merged(args) -> tuple:
    """Flag value if given, else config-file value, else the key's default,
    and the set of keys a flag or the file gave.  Each file value is checked
    against its key's type or choices, even where a flag wins."""
    keys, path = KEYS[args.command], args.config
    file_conf = load_config_file(path) if path else {}
    if unknown := sorted(file_conf.keys() - keys.keys()):
        raise ValueError(f"{path}: unknown key {unknown[0]!r} for "
                         f"{args.command}; valid keys: {', '.join(keys)}")
    for key, raw in file_conf.items():
        default = keys[key]
        if isinstance(default, tuple):
            if raw not in default:
                raise ValueError(f"{path}: {key}={raw!r} is not one of "
                                 f"{', '.join(default)}")
        elif isinstance(default, bool):
            if raw.lower() not in ("1", "true", "yes", "0", "false", "no"):
                raise ValueError(f"{path}: {key}={raw!r} is not a "
                                 f"boolean (1/true/yes or 0/false/no)")
            file_conf[key] = raw.lower() in ("1", "true", "yes")
        elif isinstance(default, (int, float)):
            try:
                file_conf[key] = type(default)(raw)
            except ValueError:
                kind = "an integer" if isinstance(default, int) else "a number"
                raise ValueError(f"{path}: {key}={raw!r} is not {kind}") from None
    defaults = {key: default[0] if isinstance(default, tuple) else default
                for key, default in keys.items()}
    flags = {key: flag for key in keys
             if (flag := getattr(args, key)) is not None}
    return {**defaults, **file_conf, **flags}, file_conf.keys() | flags.keys()


def _experiment_command(args, **fixed) -> int:
    """``run`` and ``tap``: one experiment, its report to --out or stdout."""
    merged, _ = _merged(args)
    merged["seeds"] = parse_seeds(merged["seeds"])
    config = ExperimentConfig(**fixed, **merged)
    report = run_experiment(config)
    if not config.out:
        sys.stdout.write("\n".join(_report_lines(report)) + "\n")
    return 0


def _cmd_se(args) -> int:
    merged, given = _merged(args)
    reads = PRESET_KEYS[merged["preset"]]
    if unread := [key for key in KEYS["se"] if key in given and key not in reads]:
        raise ValueError(f"the {merged['preset']} preset of se does not read "
                         f"{unread[0]}; it reads {', '.join(reads)}")
    if merged["preset"] == "tap":
        law = tap.ensemble_law(merged["ensemble"], merged["phi"])
        se = tap.tap_state_evolution(
            tap.solve_q_star(merged["beta"], merged["theta"], law), merged["T"])
    else:
        base = state_evolution.preset_nonlinearity(merged["nonlinearity"])
        se = state_evolution.run_state_evolution(
            [base] * merged["T"], merged["sigma0_sq"],
            merged["sigma_psi_sq"], merged["T"])
    emit_state_evolution(se, merged["out"] or sys.stdout)
    return 0


def _cmd_check(args) -> int:
    merged, _ = _merged(args)
    if merged["seed"] < 0:
        raise ValueError(f"seed must be nonnegative, got {merged['seed']}")
    if merged["N"] < 2:
        raise ValueError(f"N must be >= 2, got {merged['N']}")
    op = ensembles.operator_from_spec(
        merged["ensemble"], merged["N"], merged["seed"],
        max_directions=ensembles.check_haar_budget(merged["N"], merged["mode"]))
    diag = ensembles.check_semi_random(op, merged["mode"])
    fields = ("psi_inf_norm", "psi_op_norm", "max_offdiag_gram",
              "max_diag_gram_dev", "inf_ratio", "offdiag_ratio")
    print(f"ensemble={merged['ensemble']} N={diag.dim} mode={diag.mode} "
          + " ".join(f"{key}={_fmt(getattr(diag, key))}" for key in fields))
    return 0


_COMMANDS = {
    "run": (partial(_experiment_command, beta=0.0, theta=0.0),
            "memory-free AMP experiment"),
    "tap": (partial(_experiment_command, mode="tap"),
            "TAP magnetization experiment"),
    "se": (_cmd_se, "state evolution only"),
    "check-ensemble": (_cmd_check, "semi-randomness diagnostics"),
}


def _warning_record(message, category, *_):
    """A shown warning's stderr text: one JSON line like the error record."""
    return json.dumps({"warning": category.__name__, "message": str(message)}) + "\n"


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    previous, warnings.formatwarning = warnings.formatwarning, _warning_record
    try:
        return _COMMANDS[args.command][0](args)
    except (AmpLabError, ValueError, OSError, MemoryError) as exc:
        record = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(record), file=sys.stderr)
        return 1
    finally:
        warnings.formatwarning = previous


if __name__ == "__main__":
    sys.exit(main())
