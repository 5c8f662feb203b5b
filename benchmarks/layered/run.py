#!/usr/bin/env python3
"""Layered benchmark for mixcut: end-to-end runs through `mixcut.cli.main`
with tracing off, and a traced run that times each layer.

    python3 benchmarks/layered/run.py                      # every workload, off then traced
    python3 benchmarks/layered/run.py --workload verify --seed 3 --seconds 30 --trace 0

With one workload and --trace 0 it prints the end-to-end metrics (ops_per_s,
ops_per_s_1w, setup_s, peak_rss_mb); with --trace 1 the per-layer metrics.
--seconds defaults to run_seconds in BENCHMARK.json, the run length its
bounds were set for.
Outputs are checked against computations made apart from the program
(checks.py).  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics; the run is also written to
BENCH_<label>.json (and its spans to TRACE_<label>.jsonl) in the repository
root.  See README.md for the workloads, the metrics and reference figures.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from workloads import (VERIFY_GAMMA, VERIFY_K, VERIFY_SEEDS, WORKLOADS, ops_per_round,
                       phase_configs, verify_argv)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"

SETUP_REPEATS = 11
PROBE_TIMEOUT_S = 60


def _fail(message: str) -> int:
    print(f"layered benchmark: {message}", file=sys.stderr)
    return 2


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def _openblas_threads():
    """Thread count OpenBLAS reports, if numpy's BLAS is an OpenBLAS."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                return int(fn())
    return None


def environment(mixcut_threads) -> dict:
    import numpy as np

    import layers
    from mixcut import harness, kernels

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    with layers.mixcut_threads(None):
        default_workers = harness.worker_count()
    return {
        "backend": kernels.active_backend(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _openblas_threads(),
        "blas_env": {v: os.environ.get(v) for v in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "cores": os.cpu_count(),
        "MIXCUT_THREADS": mixcut_threads,
        "default_workers": default_workers,
        "python": platform.python_version(),
    }


# ---------------------------------------------------------------------------
# set-up time
# ---------------------------------------------------------------------------


def setup_times(workload: str, config_paths) -> dict:
    """Median spawn-to-ready time of a fresh interpreter over SETUP_REPEATS
    probes, after one unmeasured warm-up probe."""
    argv = [sys.executable, str(HERE / "probe.py"), str(SRC)]
    if workload == "verify":
        argv += ["verify", str(VERIFY_GAMMA), str(VERIFY_K)]
    else:
        argv += ["phase", *map(str, config_paths)]
    env = {k: v for k, v in os.environ.items() if k != "MIXCUT_THREADS"}
    samples = []
    for i in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
            proc.wait(timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0 or not line:
            raise RuntimeError(f"set-up probe exited {proc.returncode}")
        if i:
            samples.append({"setup_s": ready - start, **json.loads(line)})
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


# ---------------------------------------------------------------------------
# end-to-end run (tracing off)
# ---------------------------------------------------------------------------


def _write_configs(workload: str, seed: int, tmp: Path):
    paths = []
    for i, payload in enumerate(phase_configs(workload, seed)):
        path = tmp / f"sweep{i}.json"
        path.write_text(json.dumps({**payload, "output": str(tmp / f"sweep{i}.csv")}))
        paths.append(path)
    return paths


def _round_outputs(workload: str, seed: int, config_paths):
    """One round through the program's entry point, returning its outputs:
    the phase CSV of each sweep, or the printed report of each verify."""
    from mixcut import cli

    if workload == "verify":
        argvs = [verify_argv(s) for s in VERIFY_SEEDS]
    else:
        argvs = [["phase", "--config", str(p)] for p in config_paths]
    outputs = []
    for argv in argvs:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"mixcut {' '.join(argv)} exited {code}")
        outputs.append(sink.getvalue())
    return outputs


def _outputs_of(config_paths):
    return [Path(json.loads(p.read_text())["output"]) for p in config_paths]


def _csv_texts(config_paths):
    return [path.read_text() for path in _outputs_of(config_paths)]


def _remove_outputs(config_paths):
    """Delete last round's CSVs, so that each round writes new files.

    Truncating an existing file flushes it on this ext4 mount, 40-120 ms per
    rewrite; a sweep that writes a new file, as a first run does, pays
    nothing of it."""
    for path in _outputs_of(config_paths):
        path.unlink(missing_ok=True)


def end_to_end(workload: str, seed: int, seconds: float, tmp: Path):
    """Repeat rounds at the default worker count and at MIXCUT_THREADS=1
    until `seconds` have passed, then check the outputs."""
    import layers

    config_paths = [] if workload == "verify" else _write_configs(workload, seed, tmp)
    setup = setup_times(workload, config_paths)
    n_ops = ops_per_round(workload)
    rates = {"default": [], "1w": []}
    problems = []
    for warm_workers in (None, 1):  # lazy set-up (BLAS threads, LAPACK) before timing
        _remove_outputs(config_paths)
        with layers.mixcut_threads(warm_workers):
            reference = _round_outputs(workload, seed, config_paths)
    if workload != "verify":
        reference = _csv_texts(config_paths)
    start = time.perf_counter()
    while not rates["1w"] or time.perf_counter() - start < seconds:
        # the default worker count varies more from round to round (BLAS
        # threads inside the pool), so it gets two rounds to the baseline's one
        for mode in ("default", "1w", "default"):
            _remove_outputs(config_paths)
            with layers.mixcut_threads(None if mode == "default" else 1):
                t0 = time.perf_counter()
                outputs = _round_outputs(workload, seed, config_paths)
                rates[mode].append(n_ops / (time.perf_counter() - t0))
            if workload != "verify":
                outputs = _csv_texts(config_paths)
            if outputs != reference:
                problems.append(f"round {len(rates[mode])} at {mode} workers: outputs differ "
                                "from the warm-up round's")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed_ops, more = check_outputs(workload, seed, reference)
    problems += more
    rounds = len(rates["default"]) + len(rates["1w"])
    metrics = {
        "ops_per_s": (statistics.median(rates["default"]), "ops/s"),
        "ops_per_s_1w": (statistics.median(rates["1w"]), "ops/s"),
        "setup_s": (setup["setup_s"], "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    detail = {"rates": rates, "setup": setup, "ops_per_round": n_ops}
    return metrics, rounds * n_ops, rounds * len(failed_ops), failed_ops, problems, detail


def check_outputs(workload: str, seed: int, outputs):
    """Check one round's outputs; returns (failed operations, problems).

    A failed operation is a trial or verify run whose own output fails a
    check; other problems (a wrong CSV cell, a changed report) make the
    run incorrect."""
    import layers
    from mixcut import harness

    failed, problems = [], []
    if workload == "verify":
        for op_seed, text in zip(VERIFY_SEEDS, outputs):
            cfg = layers.verify_config(op_seed)
            report = harness.verify_concentration(cfg)
            if text != harness.format_report(report) + "\n":
                problems.append(f"verify seed {op_seed}: printed report differs from verify_concentration")
            bad = checks.check_verify(report, cfg)
            if bad:
                failed.append({"op": f"verify seed {op_seed}", "problems": bad})
        return failed, problems
    spans = layers.Spans()
    for payload, text in zip(phase_configs(workload, seed), outputs):
        config = harness.ExperimentConfig.from_dict({**payload, "output": os.devnull})
        more_failed, more = layers.checked_sweep(config, payload, text, spans, lambda **_: 0)
        failed += more_failed
        problems += more
    return failed, problems


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------


def traced(workload: str, seed: int, seconds: float, tmp: Path):
    """Repeat whole traced rounds of every workload until `seconds` pass.

    Every per-layer metric belongs to one workload's inputs (README.md), so a
    traced run covers all three whatever --workload names; --workload picks
    the set-up probe behind cli.import_s and cli.config_s."""
    import tracer as tracing

    config_paths = [] if workload == "verify" else _write_configs(workload, seed, tmp)
    setup = setup_times(workload, config_paths)
    tracer = tracing.Tracer(tmp)
    rounds = 0
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < seconds:
        for w in WORKLOADS:
            tracer.run_round(w, seed, rounds)
        rounds += 1
    metrics = {
        "cli.import_s": (setup["import_s"], "s"),
        "cli.config_s": (setup["config_s"], "s"),
        **tracer.metrics(rounds),
    }
    spans = [{"op": op, "span": name, "start": start, "end": end, **tracer.ops[op]}
             for op, name, start, end in tracer.spans.rows]
    failed = tracer.failed
    detail = {"rounds": rounds, "setup": setup}
    return (metrics, tracer.attempted, len(failed), failed[:len(failed) // rounds],
            tracer.problems, detail, spans)


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def _remove_tmp(tmp: Path) -> None:
    shutil.rmtree(tmp, ignore_errors=True)
    with contextlib.suppress(OSError):
        tmp.parent.rmdir()  # only when no other run is using it


def run_one(args) -> int:
    if not (SRC / "mixcut" / "__init__.py").is_file():
        return _fail(f"no mixcut sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import mixcut

    if not Path(mixcut.__file__).resolve().is_relative_to(SRC.resolve()):
        return _fail(f"imported mixcut from {mixcut.__file__}, not from {SRC}")
    mixcut_threads = os.environ.get("MIXCUT_THREADS")
    env = environment(mixcut_threads)
    tmp = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    spans = None
    try:
        if args.trace:
            (metrics, attempted, failed, failed_ops, problems, detail,
             spans) = traced(args.workload, args.seed, args.seconds, tmp)
        else:
            metrics, attempted, failed, failed_ops, problems, detail = end_to_end(
                args.workload, args.seed, args.seconds, tmp)
    finally:
        _remove_tmp(tmp)
        if mixcut_threads is not None:
            os.environ["MIXCUT_THREADS"] = mixcut_threads
    for message in problems:
        print(f"CHECK FAILED: {message}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    label = args.label or f"{args.workload}-trace{args.trace}"
    out = Path(args.out) if args.out else ROOT / f"BENCH_{label}.json"
    record = {
        "label": label, "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "result": result, "problems": problems,
        "failed_ops_per_round": failed_ops, "detail": detail,
    }
    out.write_text(json.dumps(record, indent=2) + "\n")
    if spans is not None:
        with open(out.parent / f"TRACE_{label}.jsonl", "w", encoding="utf-8") as fh:
            for row in spans:
                fh.write(json.dumps(row) + "\n")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:<16} {name:<40} {value:>14.6g} {unit}")
    print(f"{args.workload:<16} attempted {attempted}, failed {failed}, correct {result['correct']}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload with tracing off, each in its own process so that
    peak_rss_mb is its own, then one traced run, which covers every workload;
    writes BENCH_<label>.json with the tracing overhead."""
    label = args.label or "all"
    jobs = []
    if args.trace in (None, 0):
        jobs += [(w, 0, f"{label}-{w}-trace0") for w in WORKLOADS]
    if args.trace in (None, 1):  # its cli.* figures come from the first workload's probe
        jobs.append((WORKLOADS[0], 1, f"{label}-trace1"))
    runs = []
    for w, trace_flag, child in jobs:
        argv = [sys.executable, __file__, "--workload", w, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace_flag), "--label", child]
        code = subprocess.run(argv, check=False).returncode
        if code != 0:
            return _fail(f"{w} --trace {trace_flag} exited {code}")
        runs.append(json.loads((ROOT / f"BENCH_{child}.json").read_text()))
    summary = {"label": label, "environment": runs[0]["environment"], "runs": runs}
    e2e = {r["workload"]: r["result"]["metrics"] for r in runs if r["trace"] == 0}
    layer = next((r["result"]["metrics"] for r in runs if r["trace"] == 1), None)
    if e2e and layer:
        summary["tracing_overhead_ops_per_s"] = {
            w: m["ops_per_s_1w"]["value"] - layer[f"trace.ops_per_s.{w}"]["value"]
            for w, m in e2e.items()
        }
        for w, v in summary["tracing_overhead_ops_per_s"].items():
            print(f"{w:<16} {'tracing overhead (ops_per_s_1w - traced)':<40} {v:>14.6g} ops/s")
    (ROOT / f"BENCH_{label}.json").write_text(json.dumps(summary, indent=2) + "\n")
    overall = {
        "correct": all(r["result"]["correct"] for r in runs),
        "attempted": sum(r["result"]["attempted"] for r in runs),
        "failed": sum(r["result"]["failed"] for r in runs),
        "metrics": {(f"{r['workload']}.{name}" if r["trace"] == 0 else name): m
                    for r in runs for name, m in r["result"]["metrics"].items()},
    }
    print(json.dumps(overall))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0,
                        help="master seed of the phase-exact sweep and the spectral sweep")
    parser.add_argument("--seconds", type=float,
                        help="how long each run measures (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics, 1: per-layer metrics (default with all: both)")
    parser.add_argument("--label", help="names BENCH_<label>.json (default: workload and trace)")
    parser.add_argument("--out", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds is None:
        args.seconds = float(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    if args.workload == "all":
        return run_all(args)
    if args.trace is None:
        args.trace = 0
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
