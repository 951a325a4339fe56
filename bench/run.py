"""Benchmark for minimaxsplit: seeded workloads, end-to-end metrics, and a
traced run with per-layer metrics.

    python3 bench/run.py --workload csv-forest --seed 3 --seconds 20 --trace 0
    python3 bench/run.py --workload all      # every workload, one process each

Runs from a checkout: the package is imported from the checkout's src/, and
inputs and outputs live under .bench/ in the checkout. With --trace 0 it
prints the end-to-end metrics; with --trace 1 it alternates untraced and
traced passes and prints the per-layer metrics (see README.md). The last
line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import types
from pathlib import Path
from time import perf_counter

from tracing import LAYER_METRICS, Tracer, resolve_samples, write_spans
from workloads import WORKLOADS, Round

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                "import minimaxsplit.cli; print(time.perf_counter() - t)")


def log(line: str) -> None:
    print(line, flush=True)


def import_package() -> types.SimpleNamespace:
    sys.path.insert(0, str(SRC))
    import minimaxsplit
    from minimaxsplit import (cli, dataset, experiments, forest, martingale, metrics,
                              splitting, tree)
    where = Path(minimaxsplit.__file__).resolve()
    if SRC not in where.parents:
        raise SystemExit(f"bench: imported minimaxsplit from {where}, not from {SRC}")
    return types.SimpleNamespace(cli=cli, dataset=dataset, experiments=experiments,
                                 forest=forest, martingale=martingale, metrics=metrics,
                                 splitting=splitting, tree=tree)


def machine_facts() -> dict:
    import numpy as np
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": nproc(), "python": platform.python_version(), "numpy": np.__version__,
            "cpu": cpu}


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def import_seconds() -> float:
    """Import time of the package (numpy included) in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def setup(workload, repeats: int) -> float:
    """Median over `repeats` of import time plus input generation."""
    times = []
    for _ in range(repeats):
        imported = import_seconds()
        start = perf_counter()
        workload.generate()
        times.append(imported + perf_counter() - start)
    return statistics.median(times)


def median_of(rounds, read) -> float:
    return statistics.median(read(r) for r in rounds)


def measure(workload, seconds: float, trace: bool, pkg):
    """Whole rounds until `seconds` have passed. Traced runs alternate an
    untraced and a traced round; only the first traced round samples calls
    for the oracle re-solves."""
    plain, traced, tracers = [], [], []
    start = perf_counter()
    while not plain or perf_counter() - start < seconds:
        rnd = Round()
        workload.run_round(rnd)
        plain.append(rnd)
        if not trace:
            continue
        tracer = Tracer()
        tracer.sampling = not tracers
        tracer.install(pkg)
        try:
            rnd = Round()
            workload.run_round(rnd)
        finally:
            tracer.restore()
        traced.append(rnd)
        tracers.append(tracer)
    return plain, traced, tracers


def end_to_end(setup_s: float, rounds) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        "pass_s": (median_of(rounds, lambda r: r.pass_s), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }


COMMAND_METRICS = (("train_s", "s"), ("predict_s", "s"), ("predict_permuted_s", "s"),
                   ("model_bytes", "bytes"))


def command_metrics(rounds) -> dict:
    """Untraced medians of csv-forest's commands; zero on other workloads."""
    out = {}
    for name, unit in COMMAND_METRICS:
        if name in rounds[0].times:
            out[name] = (median_of(rounds, lambda r: r.times[name]), unit)
        elif name in rounds[0].values:
            out[name] = (median_of(rounds, lambda r: r.values[name]), unit)
        else:
            out[name] = (0, unit)
    return out


def per_layer(workload, pkg, plain, traced, tracers) -> tuple:
    """Per-layer metrics, flags and problems of a traced run."""
    per_pass = [t.layer_metrics() for t in tracers]
    metrics = {name: (statistics.median(p[name] for p in per_pass), unit)
               for name, unit, _, _ in LAYER_METRICS}

    serial = Tracer()
    serial.install(pkg)
    try:
        serial_problems = workload.serial_check()
    finally:
        serial.restore()
    metrics["forest.train_serial_s"] = (serial.layer_metrics()["forest.train_s"], "s")
    metrics.update(command_metrics(plain))

    pass_plain = median_of(plain, lambda r: r.pass_s)
    pass_traced = median_of(traced, lambda r: r.pass_s)
    metrics["trace.untraced_pass_s"] = (pass_plain, "s")
    metrics["trace.traced_pass_s"] = (pass_traced, "s")
    metrics["trace.overhead_s"] = (pass_traced - pass_plain, "s")

    calls = tracers[0].span_calls()
    flags = [f"wrapper target missing: {m}" for m in tracers[0].missing]
    flags += [f"{name} recorded no calls" for name in workload.expect_calls if not calls[name]]
    flags += [f"{name} recorded {n} calls on a workload that should leave it idle"
              for name, n in sorted(calls.items())
              if n and name.startswith(workload.expect_idle)]
    metrics["trace.flags"] = (len(flags), "count")

    oracle = resolve_samples(tracers[0])
    metrics["oracle.best_split_checked"] = (oracle["best_split"], "count")
    metrics["oracle.split_cell_checked"] = (oracle["split_cell"], "count")
    metrics["oracle.near_ties"] = (oracle["near_ties"], "count")

    # the first traced round and the one-thread fit; later rounds repeat the
    # first and would make a martingale file some 50 MB
    written = [tracers[0], serial]
    spans_path = ROOT / ".bench" / f"trace-{workload.name}-seed{workload.seed}.csv"
    write_spans(written, spans_path)
    log(f"spans: {sum(len(t.spans) for t in written)} written to "
        f"{spans_path.relative_to(ROOT)}")
    return metrics, flags, serial_problems + oracle["problems"]


def run_workload(args) -> dict:
    pkg = import_package()
    log("machine: " + json.dumps(machine_facts()))
    work = ROOT / ".bench" / f"work-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](pkg, work, args.seed, nproc())
        setup_s = setup(workload, 1 if args.trace else SETUP_REPEATS)
        plain, traced, tracers = measure(workload, args.seconds, bool(args.trace), pkg)
        rounds = plain + traced
        problems = [p for r in rounds for p in r.problems]
        flags, shown = [], {}
        if args.trace:
            metrics, flags, extra_problems = per_layer(workload, pkg, plain, traced, tracers)
            problems += extra_problems
        else:
            metrics = end_to_end(setup_s, plain)
            # csv-forest's command times are per-layer metrics of the traced
            # run; an untraced run prints them for reading only
            shown = {k: v for k, v in command_metrics(plain).items() if v[0]}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    log(f"workload {args.workload} seed {args.seed} trace {args.trace}: {len(plain)} untraced "
        f"and {len(traced)} traced rounds, {attempted} operations attempted, {failed} failed")
    for name, (value, unit) in {**metrics, **shown}.items():
        log(f"  {name} = {value:.6g} {unit}")
    for reason in sorted(set(f for r in rounds for f in r.failures)):
        log(f"failed operation: {reason}")
    for flag in flags:
        log(f"FLAG: {flag}")
    for problem in list(dict.fromkeys(problems))[:20]:
        log(f"PROBLEM: {problem}")
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def run_all(args) -> dict:
    """Each workload in its own process, so peak RSS stays per workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            raise SystemExit(f"bench: workload {name} exited {done.returncode}")
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = entry
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inputs", metavar="DIR",
                        help="only write the workload's inputs for --seed into DIR")
    args = parser.parse_args(argv)
    if not (SRC / "minimaxsplit" / "__init__.py").is_file():
        print(f"bench: no package at {SRC / 'minimaxsplit'}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.inputs:
        if args.workload == "all":
            parser.error("--inputs needs one --workload")
        inputs = Path(args.inputs)
        WORKLOADS[args.workload](import_package(), inputs, args.seed, nproc()).generate()
        written = sorted(p.name for p in inputs.glob("*")) if inputs.is_dir() else []
        log(f"{args.workload} seed {args.seed}: " + (
            f"wrote {', '.join(written)} to {inputs}" if written else
            "no input files; the inputs are made in memory from the seed (see README.md)"))
        return 0
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
