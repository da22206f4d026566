#!/usr/bin/env python3
"""Benchmark of dpcheck verdicts, checked against independent oracles.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; dpcheck is imported from its
``src/`` directory.  One process, one caller, one thread: operations run
back to back in a closed loop, each a call of ``dpcheck.cli.main`` on a
generated JSON config that writes its report to a file.  Workloads (see
workloads.py for the strata and margins):

  rnm-verify                   rnm-verify over the (n, max_entry, m_max) grid
  audit-quadrature             quadrature audits of Laplace mechanisms
  audit-statistical-intervals  statistical audits with interval events
  audit-statistical-labels     statistical audits of noisy max, label events

Every operation's exit code and report are checked against an oracle that
does not use dpcheck (oracle.py, checker.py), outside the timed region.  A
run measures whole cycles of its workload for about S seconds, and at
least MIN_OPS operations so that the tail percentile has TAIL_BEYOND
samples past it.

With --trace 0 the last stdout line reports the end-to-end metrics; with
--trace 1 it runs the first cycle alternately untraced and traced
(spans.py) and reports per-operation layer metrics and trace_overhead.
The exit code is 1 when any operation fails its check and 2 when the
program cannot be loaded.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

import checker  # noqa: E402
import workloads  # noqa: E402

SETUP_RUNS = 3
TAIL = 75
TAIL_BEYOND = 10
MIN_OPS = TAIL_BEYOND * 100 // (100 - TAIL)
# keep clear of the 180 s limit on one run, whatever S is
MAX_LOOP_SECONDS = 140.0


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU.

    Moving between CPUs showed up as a 5% run-to-run swing in latency on a
    2-CPU host; one CPU halves it.
    """
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})


class ProgramMissing(Exception):
    pass


def load_program():
    """Import dpcheck.cli from this checkout's src/, never from elsewhere."""
    if not (SRC / "dpcheck" / "cli.py").is_file():
        raise ProgramMissing(f"no dpcheck sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import dpcheck.cli

    if SRC.resolve() not in Path(dpcheck.cli.__file__).resolve().parents:
        raise ProgramMissing(f"dpcheck was imported from {dpcheck.cli.__file__}, not {SRC}")
    return dpcheck.cli


def setup_probe(workload: str, seed: int) -> None:
    """Child process: time importing dpcheck.cli and generating the configs."""
    workdir = WORK / f"setup-{os.getpid()}"
    start = perf_counter()
    load_program()
    workdir.mkdir(parents=True)
    workloads.generate(workload, seed, workdir)
    elapsed = perf_counter() - start
    shutil.rmtree(workdir)
    print(repr(elapsed))


def measure_setup(workload: str, seed: int) -> float:
    samples = []
    for _ in range(SETUP_RUNS):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


class Runner:
    """Runs operations, times them, and checks every report."""

    def __init__(self, cli_module):
        self.cli = cli_module
        self.attempted = 0
        self.failed = 0
        self.errors = []  # per operation, the largest difference from the oracle

    def run(self, op: workloads.Op) -> float:
        if not op.prepared:
            workloads.prepare(op)
        out = op.path.with_suffix(".out.json")
        out.unlink(missing_ok=True)
        argv = [op.command, "--config", str(op.path), "--out", str(out)]
        self.attempted += 1
        start = perf_counter()
        try:
            # looked up on every call so that the traced run sees its wrapper
            code = self.cli.main(argv)
        except Exception:
            elapsed = perf_counter() - start
            self._fail(op, ["raised " + traceback.format_exc()])
            return elapsed
        elapsed = perf_counter() - start
        try:
            data = out.read_bytes()
        except OSError as exc:
            self._fail(op, [f"exit code {code}, no report: {exc}"])
            return elapsed
        digest = hashlib.sha256(bytes([code & 0xFF]) + data).digest()
        if digest not in op.verified:
            try:
                report = json.loads(data)
            except ValueError as exc:
                self._fail(op, [f"report is not JSON: {exc}"])
                return elapsed
            problems, err = checker.check(op, code, report)
            if problems:
                self._fail(op, problems)
                return elapsed
            op.verified[digest] = err
        if op.verified[digest] is not None:
            self.errors.append(op.verified[digest])
        return elapsed

    def _fail(self, op, problems):
        self.failed += 1
        if self.failed <= 5:
            print(f"FAILED {op.command} {json.dumps(op.config)[:400]}", file=sys.stderr)
            for p in problems[:5]:
                print(f"  {p}", file=sys.stderr)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(runner: Runner, cycles, seconds: float) -> dict:
    times = []
    pairs = 0
    start = perf_counter()
    c = 0
    while perf_counter() - start < MAX_LOOP_SECONDS:
        for op in cycles[c % len(cycles)]:
            times.append(runner.run(op))
            pairs += op.pairs
        c += 1
        # stop at the cycle boundary nearest to S measured seconds, once the
        # tail is populated
        busy = sum(times)
        if busy + busy / c / 2 >= seconds and len(times) >= MIN_OPS:
            break
    busy = sum(times)
    return {
        "verdict_s_p50": _metric(statistics.median(times), "s"),
        f"verdict_s_p{TAIL}": _metric(
            statistics.quantiles(times, n=100, method="inclusive")[TAIL - 1], "s"
        ),
        "verdicts_per_s": _metric(len(times) / busy, "1/s"),
        "pairs_per_s": _metric(pairs / busy, "1/s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ops_ok_frac": _metric((runner.attempted - runner.failed) / runner.attempted, "ratio"),
        # the median over operations: the largest error of a whole run is an
        # extreme of a heavy tail and swings several-fold between seeds.
        # With no error at all every operation that reports one failed.
        "oracle_err_max": _metric(statistics.median(runner.errors or [0.0]), "abs"),
    }


def traced(runner: Runner, cycles, seconds: float) -> dict:
    from spans import Tracer, layer_metrics

    ops = cycles[0]
    tracer = Tracer()
    plain, with_trace = [], []
    start = perf_counter()
    rounds = 0
    while perf_counter() - start < MAX_LOOP_SECONDS:
        plain += [runner.run(op) for op in ops]
        with tracer:
            with_trace += [runner.run(op) for op in ops]
        rounds += 1
        busy = sum(plain) + sum(with_trace)
        if busy + busy / rounds / 2 >= seconds:
            break
    metrics = {name: _metric(v, unit) for name, (v, unit) in layer_metrics(tracer, len(with_trace)).items()}
    metrics["trace_overhead"] = _metric(sum(with_trace) / sum(plain), "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        if args.setup_probe:
            setup_probe(args.workload, args.seed)
            return 0
        cli_module = load_program()
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    pin_to_one_cpu()
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        setup_s = None if args.trace else measure_setup(args.workload, args.seed)
        cycles = workloads.generate(args.workload, args.seed, workdir)
        runner = Runner(cli_module)
        # one untimed operation first, so lazy imports and caches are warm
        runner.run(cycles[0][0])
        if args.trace:
            metrics = traced(runner, cycles, args.seconds)
        else:
            metrics = end_to_end(runner, cycles, args.seconds)
            metrics["setup_s"] = _metric(setup_s, "s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if runner.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
