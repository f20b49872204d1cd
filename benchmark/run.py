"""amplab benchmark: runs the CLI as a user does and reports what it costs.

    python3 benchmark/run.py --workload tap-sine --seed 7 --seconds 25 --trace 0

Every invocation is a fresh ``python -m amplab.cli`` process with the
thread caps in ``THREAD_CAPS``, started only after the previous one has
exited (a closed loop with one client).  A round is the workload's
``amplab se`` invocation, then its ``tap`` or ``run`` invocation, then,
with ``--trace 1``, the same ``tap``/``run`` invocation under the span
tracer.  Rounds repeat until ``--seconds`` is used up (at least two
untraced rounds, or one traced round).  The seed argument s becomes
``--seeds s..s+S-1``.

Every invocation passes through the correctness gates in ``check_round``;
a failed gate counts the invocation as failed and never stops the run.
The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``.  The lines before it
hold the environment block and a summary with sample counts, the error
rate and the gate failures.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "amplab")
TMP_PARENT = os.path.join(ROOT, ".bench_tmp")

sys.path.insert(0, BENCH_DIR)
from tracer import LAYERS, layer_metrics  # noqa: E402

THREAD_CAPS = {
    "AMP_LAB_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

# No child runs past this many seconds into a run: later rounds are not
# started and a running child is killed, so the run exits inside the
# 180 s it is allowed.
HARD_LIMIT_S = 150.0

# Gate 5: |succ_diff - d_pred| at t = 1 may be at most this many CLT
# widths d_pred * sqrt(2 / (N * seeds)).  Measured deviations on the four
# workloads stayed within 1.7 widths; see README.md.
CLT_MULTIPLE = 6.0

# Gate 3: the report's d_pred against the matching `amplab se` column.
D_PRED_RTOL = 1e-12

# Gate 4 (criterion 4): |sigma_t^2 - sigma*^2| for the TAP preset.
SIGMA_STAR_ATOL = 1e-6

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


@dataclass(frozen=True)
class Workload:
    command: str          # "tap" or "run"
    N: int
    seeds: int
    options: tuple        # flags of the tap/run invocation besides N, seeds, out
    se_options: tuple     # flags of the matching `amplab se` invocation
    smoke_N: int
    why: str

    def argv(self, seed: int, out: str, smoke: bool) -> list:
        n, count = self.size(smoke)
        return [self.command, "--N", str(n), *self.options,
                "--seeds", f"{seed}..{seed + count - 1}", "--out", out]

    def size(self, smoke: bool):
        return (self.smoke_N, 1) if smoke else (self.N, self.seeds)


def _tap(ensemble, N, seeds, smoke_N, why, beta="2", theta="2", phi="1"):
    shared = ("--ensemble", ensemble, "--T", "10", "--beta", beta,
              "--theta", theta, "--phi", phi, "--degree", "64")
    return Workload("tap", N, seeds, shared, ("--preset", "tap") + shared,
                    smoke_N, why)


WORKLOADS = {
    "tap-sine": _tap(
        "signed-sine", 65536, 2, 1024,
        "headline signed-sine TAP run: odd-length FFT matvecs and the "
        "discarded residual matvecs dominate"),
    "tap-hadamard-1m": _tap(
        "signed-hadamard", 1048576, 1, 4096,
        "cheapest kernel at the largest N: stored iterates, fwht traffic "
        "and observables dominate; peak RSS scales with N"),
    "tap-hopfield": _tap(
        "hopfield", 2048, 1, 256,
        "dense Wishart path: sampled Marchenko-Pastur law, eigvalsh and CG; "
        "bypasses FFT, fwht and observable costs", beta="1"),
    "run-orthogonal": Workload(
        "run", 262144, 2,
        ("--ensemble", "random-orthogonal", "--T", "10", "--mode", "projected",
         "--nonlinearity", "square", "--degree", "24", "--sigma0-sq", "1"),
        ("--preset", "plain", "--nonlinearity", "square", "--T", "10",
         "--degree", "24", "--sigma0-sq", "1", "--sigma-psi-sq", "1"),
        4096,
        "plain projected AMP on the lazy Haar operator: no q* solve and no "
        "residuals, so TAP-only changes should not move it"),
}


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

class _Deadline(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Deadline()


@dataclass
class Invocation:
    kind: str             # "se", "untraced" or "traced"
    wall_s: float
    peak_rss_mb: float
    exit_code: int
    stderr_path: str
    failures: list


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "PYTHONHOME", "PYTHONSTARTUP")}
    env.update(THREAD_CAPS)
    env["PYTHONPATH"] = SRC
    return env


def invoke(kind: str, args: list, workdir: str, label: str,
           deadline: float) -> Invocation:
    """Spawn one child, wait for it, return its wall time and peak RSS."""
    stdout_path = os.path.join(workdir, f"{label}.out")
    stderr_path = os.path.join(workdir, f"{label}.err")
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, stdout_path, flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, stderr_path, flags, 0o644)]
    argv = [sys.executable] + args
    remaining = deadline - time.monotonic()
    if remaining < 1:
        return Invocation(kind, 0.0, 0.0, -1, stderr_path, ["not started: time limit"])
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, child_env(), file_actions=actions)
    signal.alarm(int(math.ceil(remaining)))
    try:
        _, status, usage = os.wait4(pid, 0)
    except _Deadline:
        os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
        return Invocation(kind, time.perf_counter() - start, usage.ru_maxrss / 1024.0,
                          -1, stderr_path, ["killed at the time limit"])
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.wait4(pid, 0)
        raise
    finally:
        signal.alarm(0)
    wall = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    failures = [] if code == 0 else [f"exit code {code}"]
    return Invocation(kind, wall, usage.ru_maxrss / 1024.0, code, stderr_path, failures)


# ---------------------------------------------------------------------------
# CSV parsing and the correctness gates
# ---------------------------------------------------------------------------

def read_csv(path: str):
    """(comment lines, header, data rows as lists, data bytes)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    lines = raw.decode().splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    rest = [ln for ln in lines if not ln.startswith("#")]
    if not rest:
        raise ValueError(f"{os.path.basename(path)} has no header row")
    data = "\n".join(rest[1:]).encode()
    return comments, rest[0].split(","), [ln.split(",") for ln in rest[1:]], data


def column(header, rows, name):
    index = header.index(name)
    return [float(row[index]) if row[index] else math.nan for row in rows]


def output_data(out_dir: str) -> dict:
    """Data rows of every CSV an invocation wrote, keyed by file name."""
    return {name: read_csv(os.path.join(out_dir, name))[3]
            for name in sorted(os.listdir(out_dir)) if name.endswith(".csv")}


def check_round(workload: Workload, smoke: bool, se_csv: str, out_dir: str,
                reference: dict | None) -> tuple:
    """Gates 2-5 for one tap/run invocation.  Returns (failures, data)."""
    failures = []
    try:
        data = output_data(out_dir)
    except (OSError, ValueError, UnicodeDecodeError) as exc:
        return [f"unreadable output: {exc}"], None
    if reference is not None and data != reference:
        changed = sorted(k for k in set(data) | set(reference)
                         if data.get(k) != reference.get(k))
        failures.append(f"CSV data rows differ from the first run: {changed}")
    try:
        comments, header, rows, _ = read_csv(os.path.join(out_dir, "report.csv"))
        _, se_header, se_rows, _ = read_csv(se_csv)
        d_pred = column(header, rows, "d_pred")
        succ = column(header, rows, "succ_diff")
        se_d_pred = column(se_header, se_rows, "d_pred")[1:]
        sigma_sq = column(se_header, se_rows, "sigma_sq")
        if not d_pred:
            raise ValueError("report has no data rows")
    except (OSError, ValueError, IndexError, UnicodeDecodeError) as exc:
        return failures + [f"unreadable report or se CSV: {exc}"], data
    if len(d_pred) != len(se_d_pred) or any(
            not math.isclose(a, b, rel_tol=D_PRED_RTOL, abs_tol=0.0)
            for a, b in zip(d_pred, se_d_pred)):
        failures.append("report d_pred differs from the `amplab se` d_pred")
    if workload.command == "tap":
        echoed = dict(item.split("=", 1) for item in comments[0][1:].split()
                      if "=" in item) if comments else {}
        try:
            star = float(echoed["sigma_star_sq"])
        except (KeyError, ValueError):
            failures.append("report header lacks sigma_star_sq")
        else:
            worst = max(abs(s - star) for s in sigma_sq)
            if not worst <= SIGMA_STAR_ATOL:
                failures.append(f"se sigma_sq leaves sigma*^2 by {worst:.3e}")
    n, seeds = workload.size(smoke)
    width = d_pred[0] * math.sqrt(2.0 / (n * seeds))
    if not abs(succ[0] - d_pred[0]) <= CLT_MULTIPLE * width:
        failures.append(f"t=1 succ_diff {succ[0]:.6g} is more than "
                        f"{CLT_MULTIPLE:g} CLT widths from d_pred {d_pred[0]:.6g}")
    return failures, data


# ---------------------------------------------------------------------------
# the measurement loop
# ---------------------------------------------------------------------------

def run_rounds(workload: Workload, seed: int, seconds: float, traced: bool,
               smoke: bool, workdir: str):
    """Closed loop of rounds; returns (invocations, traced span records)."""
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    min_rounds = 1 if traced else 2
    invocations, records, reference = [], [], None
    rounds = 0
    while True:
        round_dir = os.path.join(workdir, f"round{rounds}")
        os.makedirs(round_dir)
        se_csv = os.path.join(round_dir, "se.csv")
        se = invoke("se", ["-m", "amplab.cli", "se", *workload.se_options,
                           "--out", se_csv], round_dir, "se", deadline)
        invocations.append(se)
        kinds = ("untraced", "traced") if traced else ("untraced",)
        for kind in kinds:
            out_dir = os.path.join(round_dir, kind)
            os.makedirs(out_dir)
            cli_args = workload.argv(seed, os.path.join(out_dir, "report.csv"), smoke)
            spans = os.path.join(round_dir, "spans.json")
            prefix = ([os.path.join(BENCH_DIR, "tracer.py"), spans]
                      if kind == "traced" else ["-m", "amplab.cli"])
            inv = invoke(kind, prefix + cli_args, round_dir, kind, deadline)
            if inv.exit_code == 0:
                if se.exit_code != 0:
                    inv.failures.append("no se output to check against")
                else:
                    failures, data = check_round(workload, smoke, se_csv,
                                                 out_dir, reference)
                    inv.failures += failures
                    if reference is None:
                        reference = data
            if kind == "traced":
                try:
                    with open(spans) as fh:
                        records.append(json.load(fh))
                except (OSError, ValueError) as exc:
                    inv.failures.append(f"no span file: {exc}")
            invocations.append(inv)
        rounds += 1
        elapsed = time.monotonic() - start
        if rounds >= min_rounds and elapsed + elapsed / rounds > seconds:
            break
        if elapsed + elapsed / rounds > HARD_LIMIT_S:
            break
    return invocations, records


def _median(values):
    return statistics.median(values) if values else None


def summarize(invocations, records, traced: bool) -> tuple:
    """(metrics for the result line, summary details)."""
    ok = [inv for inv in invocations if inv.exit_code == 0]
    walls = {kind: [inv.wall_s for inv in ok if inv.kind == kind]
             for kind in ("se", "untraced", "traced")}
    details = {"samples": {"setup_s": len(walls["se"]), "wall_s": len(walls["untraced"]),
                           "traced": len(walls["traced"])},
               "sample_values": {"setup_s": walls["se"], "wall_s": walls["untraced"],
                                 "traced": walls["traced"]}}
    if not traced:
        values = {
            "wall_s": _median(walls["untraced"]),
            "setup_s": _median(walls["se"]),
            "peak_rss_mb": _median([inv.peak_rss_mb for inv in ok
                                    if inv.kind == "untraced"]),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        return metrics, details
    per_run = [layer_metrics(rec) for rec in records]
    metrics = {}
    for name, (unit, _) in LAYERS.items():
        values = [m[name] for m in per_run]
        value = (statistics.median(values)
                 if values and None not in values else None)
        metrics[name] = {"value": value, "unit": unit}
    overhead = (_median(walls["traced"]) - _median(walls["untraced"])
                if walls["traced"] and walls["untraced"] else None)
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    details["missing_spans"] = sorted({name for rec in records
                                       for name in rec["missing"]})
    return metrics, details


# ---------------------------------------------------------------------------
# environment block
# ---------------------------------------------------------------------------

def git_commit():
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_lines() -> int:
    total = 0
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), "rb") as fh:
                total += fh.read().count(b"\n")
    return total


def environment() -> dict:
    env = {"nproc": os.cpu_count(),
           "cpus_usable": len(os.sched_getaffinity(0)),
           "python": platform.python_version(),
           "thread_caps": THREAD_CAPS,
           "load": "closed loop, 1 client, 1 invocation at a time",
           "git_commit": git_commit(),
           "src_amplab_lines": source_lines(),
           "bytes_note": "amp.trace_bytes is computed from array sizes, "
                         "not measured traffic"}
    os.environ.update(THREAD_CAPS)  # keep this process's BLAS pool small too
    try:
        import numpy
        import scipy
        env["numpy"] = numpy.__version__
        env["scipy"] = scipy.__version__
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (ImportError, KeyError, TypeError) as exc:
        env["blas"] = f"unknown ({exc})"
    return env


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one seed at a small N, to check the schema quickly")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(PACKAGE, "cli.py")):
        print(f"benchmark: no amplab sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    signal.signal(signal.SIGALRM, _on_alarm)
    os.makedirs(TMP_PARENT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP_PARENT)
    try:
        env = environment()
        invocations, records = run_rounds(workload, args.seed, args.seconds,
                                          bool(args.trace), args.smoke, workdir)
        for inv in invocations:
            if inv.exit_code not in (0, -1):
                with open(inv.stderr_path, errors="replace") as fh:
                    tail = fh.read()[-2000:]
                print(f"benchmark: {inv.kind} invocation failed:\n{tail}",
                      file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(TMP_PARENT)
        except OSError:
            pass
    metrics, details = summarize(invocations, records, bool(args.trace))
    failed = sum(1 for inv in invocations if inv.failures)
    attempted = len(invocations)
    print(json.dumps({"environment": env}))
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "smoke": args.smoke, "why": workload.why,
        "error_rate": failed / attempted, **details,
        "failures": [f"{inv.kind}: {reason}" for inv in invocations
                     for reason in inv.failures][:20]}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
