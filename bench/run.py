#!/usr/bin/env python3
"""Benchmark runner for precint; standard library only (the output check
uses sympy, which precint already needs).

    python3 bench/run.py --workload integer-orbits --seed 1 --trace 0
    python3 bench/run.py                 # all four workloads, one process each

One workload runs in one fresh interpreter with no threads.  It drives
`precint.cli.main` in-process, one round of operations after another, until
the timed operations have taken `--seconds` (by default `run_seconds` of
BENCHMARK.json); a round is never cut short.  All times are reference
seconds: wall time corrected for the host's speed by the probes of speed.py,
so the number of rounds does not depend on a slow or a fast spell.
Every output is then checked (see sympycheck.py), and the last line of
stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`.  An operation fails on a non-zero exit code, an exception, or a
failed output check.

With `--trace 0` the metrics are the end-to-end ones of BENCHMARK.json:
    setup_s      median time of SETUP_PROBES child interpreters from start to
                 the point where the first operation would begin (import,
                 first sympy factorisation, building the inputs)
    run_s        median over rounds of the time of one round's operations
    op_p50_s     median time of one operation
    peak_rss_mb  peak resident memory of this process, read before checking
With `--trace 1` the same rounds run untraced, then as many pairs of fresh
rounds, one with the wrappers of tracing.py installed and one without; the
metrics are the per-layer figures (median over traced rounds) and
`trace.overhead_s`, the traced minus the untraced `run_s` of those pairs.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"
SETUP_PROBES = 5
# a tiny operation whose only job is to run sympy's first factorisation
WARM_UP = ["global-basis", "--operator", "x + S", "--right-bound", "Z=0",
           "--format", "json"]

sys.path.insert(0, str(BENCH_DIR))

from speed import Speedometer  # noqa: E402
from workloads import CERT_SAMPLES, WORKLOADS, Op  # noqa: E402


@dataclass
class Outcome:
    op: Op
    code: object  # exit code, or the traceback of an exception
    stdout: str
    stderr: str
    t0: float
    t1: float
    seconds: float = 0.0  # reference seconds, set by run_round


def run_op(cli, op: Op) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(op.argv())
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = traceback.format_exc()
        t1 = time.perf_counter()
    return Outcome(op, code, out.getvalue(), err.getvalue(), t0, t1)


def run_round(cli, meter: Speedometer, workload: str, seed: int,
              k: int) -> List[Outcome]:
    outcomes = [run_op(cli, op) for op in WORKLOADS[workload](seed, k)]
    for outcome in outcomes:
        outcome.seconds = meter.scaled(outcome.t0, outcome.t1)
    return outcomes


def run_rounds(cli, meter: Speedometer, workload: str, seed: int,
               seconds: float) -> List[List[Outcome]]:
    """Whole rounds 0, 1, ... until the operations took `seconds` reference
    seconds; at least one round."""
    rounds: List[List[Outcome]] = []
    spent = 0.0
    while not rounds or spent < seconds:
        rounds.append(run_round(cli, meter, workload, seed, len(rounds)))
        spent += sum(o.seconds for o in rounds[-1])
    return rounds


def round_seconds(rounds: List[List[Outcome]]) -> float:
    return statistics.median(sum(o.seconds for o in r) for r in rounds)


# ---------------------------------------------------------------------------
# Set-up time, measured in child interpreters
# ---------------------------------------------------------------------------


def import_and_warm_up():
    """Import precint and run the first sympy factorisation."""
    sys.path.insert(0, str(SRC))
    from precint import cli

    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(WARM_UP)
    return cli


def setup_probe(workload: str, seed: int) -> None:
    """What a fresh process does before its first timed operation; prints
    the speed factor and the probe time of its own meter."""
    meter = Speedometer().start()
    import_and_warm_up()
    WORKLOADS[workload](seed, 0)
    meter.stop()
    print(f"ready {meter.factor()!r} {sum(meter.durations)!r}", flush=True)


def measure_setup(workload: str, seed: int) -> float:
    """Median over SETUP_PROBES children of spawn-to-ready time, less the
    child's probes, times the child's speed factor."""
    times = []
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            try:
                _, err = proc.communicate(timeout=120)
            except subprocess.TimeoutExpired:
                proc.kill()
                raise
        word, *numbers = line.split() or [""]
        if word != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode}): {err}")
        factor, probe_s = map(float, numbers)
        times.append((elapsed - probe_s) * factor)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


class Checker:
    """Checks outputs with sympycheck; equal outputs of an operation are
    checked once."""

    def __init__(self):
        import sympycheck

        self.sc = sympycheck
        self._memo: Dict[tuple, List[str]] = {}

    def problems(self, outcome: Outcome) -> List[str]:
        if outcome.code != 0:
            return [f"exit {outcome.code!r}: {outcome.stderr.strip()}"]
        key = (outcome.op, outcome.stdout)
        if key not in self._memo:
            try:
                self._memo[key] = self._check(outcome.op, json.loads(outcome.stdout))
            except (ValueError, KeyError, TypeError) as exc:
                self._memo[key] = [f"malformed output: {exc!r}"]
        return self._memo[key]

    def _check(self, op: Op, payload: dict) -> List[str]:
        if op.command == "global-basis":
            problems = self.sc.check_global_basis(op.operator, op.bound_map, payload)
            if op.points and tuple(payload["verified_points"]) != op.points:
                problems.append(f"verified_points {payload['verified_points']} "
                                f"!= generated {list(op.points)}")
            return problems
        problems = []
        if payload.get("passed") is not True:
            problems.append("verify did not pass")
        if not all(c["ok"] for c in payload["module_checks"]):
            problems.append("a module check failed")
        certs = payload["certificates"]
        for cert in certs:
            if (cert["samples"], cert["seed"], cert["passed"]) != (
                    CERT_SAMPLES, op.cert_seed, True):
                problems.append(f"certificate {cert['point']}: {cert['samples']} "
                                f"samples, seed {cert['seed']}, passed {cert['passed']}")
        expected = self.sc.expected_points(op.operator, op.bound_map)
        got = sorted(self.sc.point_min_poly(c["point"]) for c in certs)
        if got != sorted(expected):
            problems.append("certificates do not cover exactly the expected points")
        return problems


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def declared_metrics(trace: int) -> Dict[str, str]:
    spec = benchmark_spec()
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    units = declared_metrics(trace)
    setup_s = measure_setup(workload, seed)
    cli = import_and_warm_up()
    meter = Speedometer().start()
    rounds = run_rounds(cli, meter, workload, seed, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    values: Dict[str, float] = {
        "setup_s": setup_s,
        "run_s": round_seconds(rounds),
        "op_p50_s": statistics.median(o.seconds for r in rounds for o in r),
        "peak_rss_mb": peak_rss_mb,
    }
    if trace:
        from tracing import Tracer

        # traced and untraced rounds alternate, so a slow spell of the
        # machine does not land on one side only
        tracer = Tracer()
        layer_rounds: List[Dict[str, float]] = []
        traced: List[List[Outcome]] = []
        untraced: List[List[Outcome]] = []
        for k in range(len(rounds)):
            first = len(rounds) + 2 * k
            tracer.install()
            try:
                traced.append(run_round(cli, meter, workload, seed, first))
            finally:
                tracer.uninstall()
            if tracer.missing:
                raise RuntimeError(f"trace targets not found: {tracer.missing}")
            layer_rounds.append(tracer.take_round())
            untraced.append(run_round(cli, meter, workload, seed, first + 1))
        # the wrappers time in wall seconds; turn them into reference seconds
        # with the speed factor of their round
        for figures, outcomes in zip(layer_rounds, traced):
            factor = (sum(o.seconds for o in outcomes)
                      / sum(o.t1 - o.t0 for o in outcomes))
            for name in figures:
                if name.endswith("_s"):
                    figures[name] *= factor
        values = {name: statistics.median(r[name] for r in layer_rounds)
                  for name in layer_rounds[0]}
        values["trace.overhead_s"] = round_seconds(traced) - round_seconds(untraced)
        rounds = rounds + traced + untraced

    meter.stop()
    checker = Checker()
    checker.sc.self_check()
    outcomes = [o for r in rounds for o in r]
    failed = 0
    correct = True
    for o in outcomes:
        problems = checker.problems(o)
        if problems:
            failed += 1
            if o.code == 0:  # a wrong answer rather than an error exit
                correct = False
            print(f"FAILED {o.op.label}: {'; '.join(problems)[:500]}", file=sys.stderr)
    missing = set(units) - set(values)
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    print(f"{workload}: seed {seed}, {len(rounds)} rounds, {len(outcomes)} operations, "
          f"{failed} failed")
    for name, unit in units.items():
        print(f"  {name} = {values[name]:.6g} {unit}")
    result = {
        "correct": correct,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    detail = dict(result, workload=workload, seed=seed, seconds=seconds, trace=trace,
                  operations=[{"label": o.op.label, "round": i, "seconds": o.seconds,
                               "wall_s": o.t1 - o.t0}
                              for i, r in enumerate(rounds) for o in r])
    (RESULTS / f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(detail, indent=1))
    return result


def run_all(seed: int, trace: int) -> int:
    """Each workload in its own interpreter, then one table."""
    rows = []
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--trace", str(trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        print(proc.stdout, end="")
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exit {proc.returncode}", file=sys.stderr)
            return 1
        rows.append((workload, json.loads(lines[-1])))
    names = list(rows[0][1]["metrics"])
    print("\nworkload            attempted  failed  " + "  ".join(names))
    for workload, res in rows:
        cells = "  ".join(f"{res['metrics'][n]['value']:.4g}{res['metrics'][n]['unit']}"
                          for n in names)
        print(f"{workload:<20}{res['attempted']:>9}{res['failed']:>8}  {cells}")
    return 0 if all(res["correct"] and not res["failed"] for _, res in rows) else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="wall time to measure (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "precint" / "cli.py").is_file():
        print(f"error: no precint sources under {SRC}; run from a precint checkout",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.workload is None:
        return run_all(args.seed, args.trace)
    seconds = benchmark_spec()["run_seconds"] if args.seconds is None else args.seconds
    result = run_workload(args.workload, args.seed, seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # a fixed hash seed keeps set and dict order, and so the work done,
    # the same from one run to the next
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  dict(os.environ, PYTHONHASHSEED="0"))
    sys.exit(main())
