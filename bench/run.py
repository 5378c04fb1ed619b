#!/usr/bin/env python3
"""Run one fagnano benchmark workload and print every metric with its unit.

    python3 bench/run.py --workload oracle --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout.  The workload runs in one child
process (``workloads.py``) with its BLAS pools pinned to one thread.
``setup_s`` is the median time of fresh interpreters importing the package
(numpy included), one after each pass of the workload.  End-to-end times are
in reference seconds (see ``workloads.py``).  ``--trace 0`` prints the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` prints its per-layer
metrics, measured by a traced pass of every workload, and reports the
tracing overhead next to the untraced throughput.  Human-readable lines come first; the last line of
stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exit code 0 means every op passed its gate, 1
that some op failed (the result still prints), 2 that the benchmark could
not run (no result).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

BLAS_THREADS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
# One set-up: a fresh interpreter importing the package and its public
# modules, numpy included; exit code 3 if the package is not the one in SRC.
IMPORT_ALL = (
    "import sys, fagnano, fagnano.cli, fagnano.geometry, fagnano.golden, "
    "fagnano.jsonio, fagnano.optimize, fagnano.render, fagnano.theorem\n"
    "sys.exit(0 if fagnano.__file__.startswith(sys.argv[1]) else 3)"
)


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update(BLAS_THREADS)
    env["PYTHONPATH"] = SRC
    return env


def check_import(env: dict) -> None:
    """Import the package once, unmeasured, from ``src/`` of this checkout.

    This fills the bytecode cache, which a user also pays only once, and
    stops the benchmark early if the package is missing or broken.
    """
    try:
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_ALL, SRC],
            env=env,
            cwd=ROOT,
            capture_output=True,
            timeout=120,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError("importing fagnano took over 120 s") from exc
    if done.returncode != 0:
        raise BenchError(
            f"importing fagnano from {SRC} failed (exit {done.returncode}): "
            f"{done.stderr.decode(errors='replace').strip()}"
        )


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as handle:
                return handle.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_record(child: dict) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": child["numpy"],
        "blas": child["blas"],
        "blas_threads": BLAS_THREADS,
        "commit": git_commit(),
    }


def run_child(args, env: dict, workdir: str) -> dict:
    out = os.path.join(workdir, "child.json")
    command = [
        sys.executable,
        os.path.join(BENCH, "workloads.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--size", args.size,
        "--workdir", workdir,
        "--out", out,
    ]
    # Input generation and the first pass of each measurement may overrun.
    limit = 2 * args.seconds + 120
    try:
        done = subprocess.run(command, env=env, cwd=ROOT, timeout=limit)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"workload child still running after {limit} s") from exc
    if done.returncode != 0:
        raise BenchError(f"workload child exited with {done.returncode}")
    with open(out, encoding="utf-8") as handle:
        child = json.load(handle)
    if not child["fagnano"].startswith(SRC):
        raise BenchError(f"child imported fagnano from {child['fagnano']}, not {SRC}")
    return child


def declared_units(section: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec[section]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("verify", "oracle", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full", help="tiny: smoke-test inputs"
    )
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "fagnano", "__init__.py")):
        print(f"bench: no fagnano sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    workdir = os.path.join(WORK, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        env = child_env()
        check_import(env)
        child = run_child(args, env, workdir)
        result = report(args, child, workdir)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def report(args, child: dict, workdir: str) -> dict:
    """Print the human-readable summary and build the result object."""
    tally = child["tally"]
    setup = child["setup_samples_s"]
    end_to_end = {
        "setup_s": statistics.median(setup),
        "ops_per_s": tally["ops_per_s"],
        "op_p50_ms": tally["op_p50_ms"],
        "op_p99_ms": tally["op_p99_ms"],
        "peak_rss_mb": child["peak_rss_mb"],
    }
    values = child["per_layer"] if args.trace else end_to_end
    units = declared_units("per_layer" if args.trace else "end_to_end")
    missing = sorted(set(units) - set(values))
    if missing:
        raise BenchError(f"metrics not measured: {', '.join(missing)}")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    tallies = [tally, *child.get("traced", {}).values()]
    attempted = sum(t["attempted"] for t in tallies)
    failed = sum(t["failed"] for t in tallies)
    machine = machine_record(child)
    print(
        f"fagnano bench: workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace} size={args.size}"
    )
    print(f"machine: {json.dumps(machine)}")
    print(
        "times in reference seconds: 1 s = 10 000 reference computations, "
        f"median {tally['reference_median_s'] * 1e6:.1f} us each in this run"
    )
    print(
        f"  setup_s        {end_to_end['setup_s']:.4f} s"
        f"  (median of {len(setup)} fresh interpreters, one after each pass; "
        f"wall median {statistics.median(child['setup_wall_s']):.4f} s)"
    )
    print(
        f"  ops_per_s      {tally['ops_per_s']:.2f} ops/s  "
        f"({tally['ops_per_pass']} ops in {tally['pass_s']:.3f} s per pass, "
        f"{tally['passes']} passes in {tally['wall_s']:.1f} s; "
        f"wall {tally['wall_ops_per_s']:.2f} ops/s)"
    )
    print(
        f"  op_p50_ms      {tally['op_p50_ms']:.4f} ms, op_p99_ms {tally['op_p99_ms']:.4f} ms"
        f"  ({tally['latency_samples']} latency ops)"
    )
    print(
        f"  failure_ratio  {tally['failed'] / tally['attempted']:.6g}  "
        f"({tally['failed']} of {tally['attempted']} ops failed)"
    )
    print(f"  peak_rss_mb    {child['peak_rss_mb']:.1f} MB")
    if args.trace:
        traced = child["traced"][args.workload]
        print(
            f"  traced {args.workload}: {traced['ops_per_s']:.2f} ops/s vs untraced "
            f"{tally['ops_per_s']:.2f} ops/s, trace_overhead_ratio "
            f"{values['trace_overhead_ratio']:.4f}"
        )
        for name in units:
            print(f"  {name:36s} {values[name]:.6g} {units[name]}")
    for t in tallies:
        for message in t["failures"]:
            print(f"  FAILED: {message}")
    if failed:
        print(f"FAILED: {failed} of {attempted} ops broke a correctness gate")

    results = os.path.join(WORK, "results")
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    record = {
        "args": vars(args),
        "machine": machine,
        "setup_samples_s": setup,
        "child": child,
        "metrics": metrics,
    }
    with open(f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    for name in child.get("traced", {}):
        shutil.move(
            os.path.join(workdir, f"spans-{name}.csv.gz"), f"{stem}-spans-{name}.csv.gz"
        )
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
