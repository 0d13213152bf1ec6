"""cylzeta benchmark: seeded CLI workloads driven through ``cylzeta.cli.main``.

Usage (from the repository root)::

    python3 bench/run.py --workload small-r --seed 1 --seconds 30 --trace 0

One closed-loop client runs the ops of one workload in this process: the
next command starts only after the previous one returns, its stdout and
stderr are captured and parsed, and no thread or subprocess runs while
timing.  Ops come in passes (see ``workloads.py``); whole passes run until
the measured time reaches ``--seconds`` (stopping early when the next pass
would overshoot by more than half a pass), so every run holds the same mix.

The last line of stdout is one JSON object ``{"correct", "attempted",
"failed", "metrics"}``: the end-to-end metrics with ``--trace 0``; with
``--trace 1`` pass 0 runs once more with the tracer of ``tracer.py``
installed and the metrics are the per-layer ones.  The line before it is
the full report: provenance, sample counts, the fail, check-fail and
wrong shares, and the reference's findings.  An op that ends in exit 1
or 2 or an exception counts as failed; ``correct`` is false when a
reported value misses the reference by more than ``GROSS_EXCESS`` times
its allowed error (see ``reference.py``).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / "_work"
SETUP_REPEATS = 7

EXIT_FAIL = (1, 2)
EXIT_CHECK_FAILED = 3
# A value off by more than this multiple of its allowed error (est_error plus
# the reference's bound) is a wrong answer and makes the run incorrect; a
# smaller excess is an understated est_error, counted in wrong_share only.
GROSS_EXCESS = 10.0


def measure_setup() -> float:
    """Median wall time of a fresh interpreter importing cylzeta.cli (with
    numpy), over SETUP_REPEATS runs after one that fills the bytecode cache."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import cylzeta.cli"
    times = []
    for i in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT,
                       stdout=subprocess.DEVNULL, timeout=120)
        if i:
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_op(cli, op, tracer=None, op_id=0):
    """Run one command in-process; returns (exit code or exception name,
    seconds, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.begin_op(op_id)
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(op.argv))
    except Exception as exc:  # an untyped escape is a failed op, not a harness crash
        code = type(exc).__name__
    return code, time.perf_counter() - t0, out.getvalue()


def warm_up(cli, directory: Path) -> None:
    """One op of every command on small inputs, so that lazy imports and
    first-call costs fall outside the timed passes."""
    model = directory / "warm-model.json"
    model.write_text('{"kind":"arithmetic","a":0.5,"d":1.0,"mult":[1],"kernel":0}')
    cap = directory / "warm-cap.json"
    cap.write_text('{"mu":"absB_plus","pert":{"c":0.5,"beta":1.5},"kernel_value":0.0}')
    m, c = ["--model", str(model)], ["--cap1", str(cap), "--cap2", str(cap)]
    for argv in (["zeta", *m], ["cylinder-det", *m, "--r", "1", "--bc", "D,P<"],
                 ["gluing-check", *m, "--cache", str(directory / "warm-cache")],
                 ["adiabatic-scan", *m, *c], ["asym-const", *m, "--m", "3"],
                 ["blocks-threshold", *m, *c]):
        run_op(cli, workloads.Op(argv[0], argv, {}))


def run_passes(cli, workload: str, seed: int, seconds: float, directory: Path):
    """Whole passes until the measured time reaches ``seconds``; returns
    (records, measured seconds, seconds of each pass).  Input generation
    between passes is not timed."""
    records, pass_times = [], []
    elapsed = 0.0
    index = 0
    while index == 0 or elapsed + 0.5 * statistics.fmean(pass_times) < seconds:
        ops = workloads.make_pass(workload, seed, index, directory)
        t0 = time.perf_counter()
        for op in ops:
            records.append((op, *run_op(cli, op)))
        pass_times.append(time.perf_counter() - t0)
        elapsed += pass_times[-1]
        index += 1
    return records, elapsed, pass_times


def run_traced(cli, workload: str, seed: int, directory: Path, span_file: Path):
    """Pass 0 once more with the tracer installed; returns (tracer, seconds)."""
    from tracer import Tracer

    ops = workloads.make_pass(workload, seed, 0, directory)
    tracer = Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        for i, op in enumerate(ops):
            run_op(cli, op, tracer, i)
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    tracer.write_spans(span_file)
    return tracer, wall


def nearest_rank(sorted_values: list, q: float) -> tuple[float, int]:
    """q-quantile by nearest rank and the number of samples above it."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def classify(records) -> dict:
    """Outcome counts and wrong-value detail against the reference."""
    import reference

    counts = {"attempted": len(records), "failed": 0, "check_failed": 0, "wrong": 0,
              "gross": 0, "worst_excess": 0.0, "wrong_examples": []}
    verdicts = {}
    for op, code, _, stdout in records:
        if code in EXIT_FAIL or isinstance(code, str):
            counts["failed"] += 1
            continue
        if code == EXIT_CHECK_FAILED:
            counts["check_failed"] += 1
        if id(op) not in verdicts:
            try:
                verdicts[id(op)] = reference.check(op, json.loads(stdout))
            except (ValueError, KeyError, TypeError) as exc:
                verdicts[id(op)] = {f"unparsable report: {exc!r}": math.inf}
        found = verdicts[id(op)]
        if found:
            worst = max(found.values())
            counts["wrong"] += 1
            counts["gross"] += worst > GROSS_EXCESS
            counts["worst_excess"] = max(counts["worst_excess"], worst)
            if len(counts["wrong_examples"]) < 5:
                counts["wrong_examples"].append({"argv": op.argv, "excess": found})
    return counts


def as_json(metrics: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def provenance(seed: int) -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    revision = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            revision = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                      capture_output=True, text=True, timeout=30,
                                      check=True).stdout.strip()
    return {"seed": seed, "git_revision": revision, "nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cylzeta" / "cli.py").is_file():
        print(f"benchmark: no cylzeta sources under {SRC}", file=sys.stderr)
        return 2
    setup_s = measure_setup()
    sys.path.insert(0, str(SRC))
    from cylzeta import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"benchmark: imported cylzeta from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    directory = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    try:
        warm_up(cli, directory)
        records, elapsed, pass_times = run_passes(cli, args.workload, args.seed,
                                                  args.seconds, directory / "run")
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        traced = None
        if args.trace:
            span_file = WORK / f"spans-{args.workload}-{args.seed}.jsonl"
            traced = run_traced(cli, args.workload, args.seed, directory / "traced", span_file)
        outcome = classify(records)
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    latencies = sorted(seconds * 1e3 for _, _, seconds, _ in records)
    p90, beyond_p90 = nearest_rank(latencies, 0.9)
    n = outcome["attempted"]
    end_to_end = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (n / elapsed, "ops/s"),
        "op_ms.p50": (statistics.median(latencies), "ms"),
        "op_ms.p90": (p90, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    shares = {
        "fail_share": (outcome["failed"] / n, "ratio"),
        "check_fail_share": (outcome["check_failed"] / n, "ratio"),
        "wrong_share": (outcome["wrong"] / n, "ratio"),
    }
    if traced is None:
        metrics = end_to_end
    else:
        tracer, traced_wall = traced
        metrics = tracer.layer_metrics()
        metrics["trace.overhead_share"] = (traced_wall / pass_times[0] - 1.0, "ratio")

    report = {
        "workload": args.workload,
        "provenance": provenance(args.seed),
        "samples": {"ops": n, "passes": len(pass_times), "measured_s": elapsed,
                    "beyond_p90": beyond_p90, "p90_valid": beyond_p90 >= 10,
                    "setup_repeats": SETUP_REPEATS},
        "end_to_end": as_json({**end_to_end, **shares}),
        "reference": {"wrong_ops": outcome["wrong"], "gross_ops": outcome["gross"],
                      "gross_excess": GROSS_EXCESS, "worst_excess": outcome["worst_excess"],
                      "examples": outcome["wrong_examples"]},
    }
    if traced is not None:
        report["per_layer"] = as_json(metrics)
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": outcome["gross"] == 0,
        "attempted": n,
        "failed": outcome["failed"],
        "metrics": as_json(metrics),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
