"""Benchmark of heis-spectra: four workloads, end-to-end rates and per-layer timings.

    python3 perfbench/run.py --workload eigenfunctions --seed 1 --seconds 25 --trace 0

Measures set-up time, builds one round of operations from the seed, warms up,
then repeats the round until --seconds have passed, timing each operation.
Outputs are checked against independent computations after the clock stops.
With --trace 0 the last line of standard output is the JSON result with the
end-to-end metrics; with --trace 1 the run is traced instead and reports the
per-layer metrics.  A fuller record goes to perfbench/results/.  The program is
imported from src/ next to this directory, with single-threaded BLAS and the
verifier's pool capped at the CPUs this process may use.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BLAS_THREADS = "1"
SETUP_STARTS = 5
# A fixed pure-Python loop is timed before every measured operation.  The
# machine is shared, and its speed drifts by tens of percent over seconds.
# Timings are rescaled by REFERENCE_S / (median loop time over the run), so they
# read as on a machine where the loop takes REFERENCE_S (this 2-core machine
# when quiet).
CALIBRATION_LOOPS = 75_000
REFERENCE_S = 0.0045


def calibrate() -> float:
    """Seconds the reference loop takes now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOPS):
        acc += i * i
    return time.perf_counter() - t0


def _environment() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["HEIS_SPECTRA_THREADS"] = str(len(os.sched_getaffinity(0)))
    return env


def setup_seconds(env: dict) -> tuple[float, float]:
    """Median wall time of fresh interpreters importing the CLI and building its
    parser, rescaled to the reference speed, and unscaled."""
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); "
            "import heis_spectra.cli as c; c.build_parser()")
    raw, loops = [], []
    for _ in range(SETUP_STARTS):
        loops.append(calibrate())
        t0 = time.perf_counter()
        # a blocking wait: with a timeout, Popen.wait polls every 50 ms
        with subprocess.Popen([sys.executable, "-c", code], env=env) as proc:
            status = proc.wait()
        raw.append(time.perf_counter() - t0)
        loops.append(calibrate())
        if status != 0:
            raise RuntimeError(f"set-up interpreter exited with code {status}")
    median = statistics.median(raw)
    return median * REFERENCE_S / statistics.median(loops), median


def _digest(output) -> str:
    h = hashlib.sha256()
    if isinstance(output, tuple) and len(output) == 2 and isinstance(output[1], str):
        h.update(repr(output[0]).encode())
        h.update(output[1].encode())
    else:
        for part in output:
            h.update(repr(part).encode() if isinstance(part, list) else part.tobytes())
    return h.hexdigest()


class Runner:
    """Times operations and keeps what the checks need: the first output of each
    operation and the digest of every later one."""

    def __init__(self, ops, tracer=None):
        self.ops = ops
        self.tracer = tracer
        self.first = [None] * len(ops)
        self.digests = [None] * len(ops)
        self.errors = [[] for _ in ops]  # per op: problems seen in any round
        self.bad_rounds = [0] * len(ops)
        self.seconds = [0.0] * len(ops)
        self.busy = {"a": 0.0, "b": 0.0}
        self.loops = {"a": [], "b": []}  # loop time before each measured operation
        self.work = {"a": 0, "b": 0}
        self.rounds = 0

    def round(self) -> None:
        for j, op in enumerate(self.ops):
            c = calibrate()
            t0 = time.perf_counter()
            try:
                raw = op.call()
                error = None
            except Exception as exc:  # a failing call is counted, not fatal
                raw, error = None, f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            self.seconds[j] += dt
            self._record(j, op, raw, error, dt, c)
        self.rounds += 1

    def _record(self, j, op, raw, error, dt, c):
        problem = error
        output = None
        if problem is None:
            try:
                output = op.collect(raw)
            except OSError as exc:
                problem = f"no output: {exc}"
        if problem is None and isinstance(output, tuple) and len(output) == 2 and output[0] != 0:
            problem = f"exit code {output[0]}"
        if problem is None:
            digest = _digest(output)
            if self.first[j] is None:
                self.first[j], self.digests[j] = output, digest
            elif digest != self.digests[j]:
                problem = "output differs from the first round"
            if self.tracer is not None and isinstance(output, tuple) and isinstance(output[1], str):
                self.tracer.counters["bytes_written"] += len(output[1].encode())
        if problem is not None:
            self.bad_rounds[j] += 1
            if problem not in self.errors[j]:
                self.errors[j].append(problem)
            return
        if op.slot is not None and not op.probe:
            self.busy[op.slot] += dt
            self.loops[op.slot].append(c)
            self.work[op.slot] += op.count(output) if op.count else op.work

    def check(self) -> tuple[int, int, bool, list[str]]:
        """Runs the checkers on the first outputs: (attempted, failed, correct, report)."""
        failed, correct, report = 0, True, []
        for j, op in enumerate(self.ops):
            problems = list(self.errors[j])
            bad = self.bad_rounds[j]
            if self.first[j] is not None:
                try:
                    found = op.check(self.first[j])
                except Exception as exc:  # output the checker cannot read
                    found = [f"checker raised {type(exc).__name__}: {exc}"]
                if found:
                    problems += found
                    bad = self.rounds  # the same output came back every good round
            if bad:
                failed += bad
                correct = correct and op.probe
                kind = "known fault" if op.probe else "FAILED"
                report.append(f"{kind}: {op.label}: {'; '.join(problems[:3])}")
        return self.rounds * len(self.ops), failed, correct, report


def _slowdown(loops: list[float]) -> float:
    """How much slower than the reference the machine ran, from the loop times."""
    return statistics.median(loops) / REFERENCE_S if loops else 1.0


def _run_for(runner: Runner, seconds: float) -> float:
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        runner.round()
    return time.perf_counter() - t0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--results", default=str(HERE / "results"),
                    help="directory for the full result record")
    args = ap.parse_args(argv)

    if not (SRC / "heis_spectra" / "cli.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    env = _environment()
    os.environ.update(env)  # before numpy is imported
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads
    import layers

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    prog = workloads.Program()
    if Path(prog.package.__file__).resolve().parent != SRC / "heis_spectra":
        print(f"error: imported heis_spectra from {prog.package.__file__}", file=sys.stderr)
        return 2

    workdir = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _bench(args, env, prog, workloads, layers, str(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _bench(args, env, prog, workloads, layers, workdir) -> int:
    setup_s, setup_raw = setup_seconds(env)
    ops = workloads.build(args.workload, args.seed, prog, workdir)
    tracer = layers.Tracer(prog.package) if args.trace else None

    warm = Runner(workloads.warmup(prog, workdir), tracer)
    if tracer:
        tracer.install()
    try:
        warm.round()
    finally:
        if tracer:
            tracer.uninstall()
    _, warm_failed, _, warm_report = warm.check()
    if warm_failed:
        print("error: warm-up failed: " + "; ".join(warm_report), file=sys.stderr)
        return 1

    runner = Runner(ops)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "ops_per_round": len(ops),
              "env": {"python": sys.version.split()[0], "blas_threads": BLAS_THREADS,
                      "verify_threads": env["HEIS_SPECTRA_THREADS"], "nproc": os.cpu_count()}}
    if not args.trace:
        wall = _run_for(runner, args.seconds)
    else:
        # the same rounds untraced, then traced: the difference is the tracing overhead
        wall = _run_for(runner, args.seconds / 2)
        traced = Runner(ops, tracer)
        traced.first, traced.digests = runner.first, runner.digests
        tracer.install()
        try:
            t0 = time.perf_counter()
            for _ in range(runner.rounds):
                traced.round()
            traced_wall = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        for j in range(len(ops)):
            runner.errors[j] += traced.errors[j]
            runner.bad_rounds[j] += traced.bad_rounds[j]
        runner.rounds += traced.rounds
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted, failed, correct, report = runner.check()
    names = workloads.RATES[args.workload]
    raw, rates = {}, {}
    for slot in ("a", "b"):
        busy = runner.busy[slot]
        raw[slot] = runner.work[slot] / busy if busy else 0.0
        rates[slot] = raw[slot] * _slowdown(runner.loops[slot])
    end_to_end = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "rate_a_per_s": (rates["a"], "1/s"),
        "rate_b_per_s": (rates["b"], "1/s"),
    }
    named = {names[0][0]: (rates["a"], names[0][1]), names[1][0]: (rates["b"], names[1][1])}
    record.update({"rounds": runner.rounds, "wall_s": wall, "busy_s": runner.busy,
                   "work": runner.work, "raw_rates_per_s": raw,
                   "machine_slowdown": {k: _slowdown(v) for k, v in runner.loops.items()},
                   "setup_raw_s": setup_raw,
                   "attempted": attempted, "failed": failed, "correct": correct, "report": report,
                   "op_seconds": {op.label: t / max(1, runner.rounds)
                                  for op, t in zip(ops, runner.seconds)},
                   "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()},
                   "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()}})

    for line in report:
        print(line)
    print(f"{args.workload} seed={args.seed}: {runner.rounds} rounds of {len(ops)} operations, "
          f"{attempted} attempted, {failed} failed, correct={str(correct).lower()}")
    raw_of = {names[0][0]: raw["a"], names[1][0]: raw["b"], "setup_s": setup_raw}
    for k, (v, u) in {**named, "setup_s": end_to_end["setup_s"],
                      "peak_rss_mb": end_to_end["peak_rss_mb"]}.items():
        extra = f"   (unscaled {raw_of[k]:.6g})" if k in raw_of else ""
        print(f"  {k:28s} {v:14.6g} {u}{extra}")

    if args.trace:
        per_layer = tracer.metrics()
        per_layer.update(layers.import_breakdown(str(SRC), env))
        per_layer["trace.overhead_s"] = traced_wall - wall
        units = dict(layers.METRICS)
        metrics = {k: {"value": per_layer[k], "unit": units[k]} for k, _ in layers.METRICS}
        record["per_layer"] = metrics
        record["traced_wall_s"] = traced_wall
        for k, m in metrics.items():
            print(f"  {k:34s} {m['value']:14.6g} {m['unit']}")
    else:
        metrics = record["end_to_end"]

    out = Path(args.results)
    out.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    (out / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
