"""ckaf benchmark: four workloads, end-to-end metrics, and a traced per-layer run.

Run from the repository root:

    python3 bench/bench.py --workload equalize-circular --seed 0 --seconds 20 --trace 0

ckaf is imported from ``src/`` next to this directory, never from an
installed copy. A run sets ckaf up several times (set-up time is their
median), then repeats whole rounds of its workload until ``--seconds``
have passed, checks the outputs, and prints the metrics. The last line
of standard output is one JSON object: the end-to-end metrics with
``--trace 0``, the per-layer metrics of the traced run with
``--trace 1``. ``--workload all`` runs every workload in turn.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from tracing import Tracer, probe
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
MODULES = ("channel", "cklms", "cli", "kernels", "linear", "wirtinger")
SETUP_REPEATS = 15
HELD_OUT_SEED = 7919  # never used while tuning; confirm a claimed gain on it


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0, help="how long the rounds run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    return args


def load_ckaf():
    """Import ckaf afresh: its modules are dropped first so the import is timed whole."""
    for name in [m for m in sys.modules if m == "ckaf" or m.startswith("ckaf.")]:
        del sys.modules[name]
    importlib.import_module("ckaf")
    return SimpleNamespace(**{m: importlib.import_module(f"ckaf.{m}") for m in MODULES})


def blas_threads():
    """Threads of the OpenBLAS that numpy loaded, asked of the library itself."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and line.rstrip().endswith(".so")}
    for lib in sorted(libs):
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    try:
        threads = blas_threads()
    except OSError:
        threads = None
    return (
        f"cores {os.cpu_count()} (usable {len(os.sched_getaffinity(0))}), python {platform.python_version()}, "
        f"numpy {np.__version__}, blas {blas}, blas threads {threads if threads is not None else 'unknown'}"
    )


def run_workload(name: str, args) -> dict:
    cls = WORKLOADS[name]
    setups = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        ck = load_ckaf()
        workload = cls(ck, args.seed, OUT_DIR)
        setups.append(time.perf_counter() - t)
    tracer = Tracer() if args.trace else None

    walls, traced_walls, attempted = [], [], 0
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < args.seconds:
        t = time.perf_counter()
        attempted += workload.run_round()
        walls.append(time.perf_counter() - t)
        if tracer is not None:
            t = time.perf_counter()
            root = tracer.begin("bench.round")
            attempted += workload.traced_round(tracer)
            tracer.finish(root)
            traced_walls.append(time.perf_counter() - t)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = workload.check()
    wall_s = statistics.median(walls)
    print(f"workload {name}: seed {args.seed}, {len(walls)} rounds, {attempted} operations, {workload.failed} failed")
    end_to_end = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (wall_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
    }
    for metric, (value, unit) in end_to_end.items():
        print(f"  {metric:<28s} {value:14.6g} {unit}")
    for metric, value, unit in [] if failures else workload.report(wall_s):
        print(f"  {metric:<28s} {value:14.6g} {unit}")
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()}

    if tracer is not None:
        workload_self = tracer.self_times()
        layer_tracer = Tracer()
        layer_metrics, probe_failures = probe(ck, args.seed, layer_tracer, OUT_DIR)
        failures += probe_failures
        layer_metrics["trace.overhead_s"] = statistics.median(traced_walls) - wall_s
        print(f"  traced round {statistics.median(traced_walls):.6g} s against {wall_s:.6g} s untraced")
        for title, self_times in (("workload", workload_self), ("layer probe", layer_tracer.self_times())):
            print(f"  self time by layer, {title}: " + ", ".join(f"{k} {v:.4g} s" for k, v in sorted(self_times.items())))
        for metric, value in layer_metrics.items():
            print(f"  {metric:<28s} {value:14.6g}")
        tracer.write(OUT_DIR / f"spans-{name}.csv")
        layer_tracer.write(OUT_DIR / "spans-probe.csv")
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in layer_metrics.items()}

    for failure in failures:
        print(f"CHECK FAILED ({name}): {failure}", file=sys.stderr)
    return {"correct": not failures, "attempted": attempted, "failed": workload.failed, "metrics": metrics}


UNITS = {
    "channel.source_us": "us",
    "channel.channel_us": "us",
    "channel.dataset_us": "us",
    "channel.run_s.cklms": "s",
    "channel.run_s.nclms": "s",
    "channel.run_s.wl-nclms": "s",
    "kernels.row_us.m100": "us",
    "kernels.row_us.m1000": "us",
    "kernels.row_us.m3000": "us",
    "kernels.row_us.m10000": "us",
    "kernels.row_bytes.m10000": "B",
    "kernels.row_gbs.m10000": "GB/s",
    "cklms.step_us.m0": "us",
    "cklms.step_us.m1000": "us",
    "cklms.step_us.m3000": "us",
    "cklms.step_us.m10000": "us",
    "cklms.predict_us.m3000": "us",
    "cklms.step_rows.m3000": "ratio",
    "cklms.admit_rate": "ratio",
    "cklms.distance_rejects": "count",
    "cklms.error_rejects": "count",
    "cklms.dict_bytes": "B",
    "linear.update_us.nclms": "us",
    "linear.update_us.wl-nclms": "us",
    "cli.emit_csv_s": "s",
    "cli.csv_bytes": "B",
    "wirtinger.suite_s": "s",
    "wirtinger.cost_check_s": "s",
    "wirtinger.numeric_us.m4": "us",
    "wirtinger.field_evals": "count",
    "trace.overhead_s": "s",
}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ckaf" / "__init__.py").is_file():
        print(f"error: no ckaf package under {SRC}; run from a ckaf checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    ckaf = load_ckaf()
    if not Path(ckaf.cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: ckaf was imported from {ckaf.cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    print(f"environment: {environment()}")
    print(f"held-out seed for confirming claims: {HELD_OUT_SEED}")
    for name in WORKLOADS if args.workload == "all" else [args.workload]:
        print(json.dumps(run_workload(name, args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
