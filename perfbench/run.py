"""Caller-level benchmark of the repro pipeline.

Run from the repository root::

    python3 perfbench/run.py --workload defect_event --seed 1 --seconds 20 --trace 0

``--workload`` is ``defect_event``, ``sweep`` or ``stream`` (see
``workloads.py``).  Every run is one fresh process; its inputs come from
``--seed`` and are generated before set-up and timing.  The run prints a
readable summary, then as its last line one strict-JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of :data:`END_TO_END`.

``--trace 1`` reports the per-layer metrics of :func:`per_layer_names`.
After one untimed warm-up operation it runs the workload for half of
``--seconds`` untraced, rebuilds fresh program state, then runs the same
operations again with every layer function wrapped (``tracing.py``);
the difference of the two walls is ``trace.overhead_s``.  Spans are written to
``.bench_out/trace-<workload>-s<seed>.jsonl``.

The run also writes ``.bench_out/<workload>-s<seed>-t<trace>.json``:
the environment, every failure message, and the metrics by the names
each workload's own callers use (``event_p50_s``, ``sweep_s``,
``chunk_p95_ms``, ``failed_frac``, ...).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: ``name -> unit``, reported by every ``--trace 0`` run.  The program's
#: callers wait on a different operation in each workload: a defect
#: event, a sweep grid, a stream chunk.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_p50_ms": "ms",
    "ops_per_min": "1/min",
    "round_shots_per_s": "1/s",
}

#: Set-up is repeated this many times per run and reported as the median.
SETUP_TRIALS = 3

#: Import of the program in a fresh interpreter, part of every set-up.
IMPORT_PROBE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import repro, repro.eval, repro.serve, repro.sweep\n"
    "print(time.perf_counter() - start)\n"
)

#: ``name -> unit`` of the figures each workload reports under its own
#: callers' names, beside the end-to-end metrics.
NAMED = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "failed_frac": "ratio",
    "ops": "count",
    "wall_s": "s",
    "event_p50_s": "s",
    "events_per_min": "1/min",
    "sweep_s": "s",
    "round_shots_per_s": "1/s",
    "chunk_p50_ms": "ms",
    "chunk_p95_ms": "ms",
}

#: ``name -> unit`` of the per-layer counts and ratios; a ratio over an
#: empty base (a layer the workload never calls) reads 0.
LAYER_COUNTS = {
    "deform.handled": "count",
    "deform.useful_ratio": "ratio",
    "decode.cache_lookups": "count",
    "decode.cache_hit_ratio": "ratio",
    "decode.pool_failures": "count",
    "sim.sample.shots": "count",
    "sim.sample.shots_per_s": "1/s",
    "store.hit_ratio": "ratio",
    "sweep.retries": "count",
    "serve.queue_wait_p50_ms": "ms",
    "serve.queue_wait_p95_ms": "ms",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.reconcile_gap": "ratio",
}


def per_layer_names() -> dict[str, str]:
    """``name -> unit`` of every ``--trace 1`` metric."""
    from tracing import SPAN_NAMES

    names: dict[str, str] = {}
    for span in SPAN_NAMES:
        names[f"{span}.self_s"] = "s"
        names[f"{span}.calls"] = "count"
    names.update(LAYER_COUNTS)
    return names


def _ratio(part: float, base: float) -> float:
    return part / base if base else 0.0


def median_ms(latencies_s: list[float]) -> float:
    """Harrell-Davis estimate of the median latency, in ms.

    A pass times a dozen events or a handful of grids whose costs differ
    by up to ten times, so the sample median is one operation's time and
    inherits all of its noise; the Harrell-Davis estimator weights every
    order statistic and halves that noise on this benchmark's events.
    """
    from scipy.stats.mstats import hdquantiles

    if len(latencies_s) < 2:
        return latencies_s[0] * 1e3 if latencies_s else math.nan
    return float(hdquantiles(latencies_s, prob=[0.5])[0]) * 1e3


def _percentiles_ms(values_s: list[float]) -> tuple[float, float]:
    import numpy as np

    if not values_s:
        return 0.0, 0.0
    p50, p95 = np.percentile(np.asarray(values_s) * 1e3, [50.0, 95.0])
    return float(p50), float(p95)


def import_seconds() -> float:
    """Time to import the program in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(done.stdout.split()[-1])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> dict:
    import numpy
    import scipy

    from repro.decode.blossom import kernel_backend

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    nproc = (
        len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else os.cpu_count()
    )
    return {
        "kernel_backend": kernel_backend(),
        "REPRO_PURE_BLOSSOM": os.environ.get("REPRO_PURE_BLOSSOM"),
        "nproc": nproc,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _untraced(workload, seconds: float) -> tuple[dict, dict, list[str], int]:
    setups = []
    for _ in range(SETUP_TRIALS):
        imported = import_seconds()
        start = time.perf_counter()
        workload.setup()
        setups.append(imported + time.perf_counter() - start)
    result = workload.run_pass(seconds, None, None)
    if "chunk_p50_ms" in result.extra:
        op_p50_ms = result.extra["chunk_p50_ms"]
    else:
        op_p50_ms = median_ms(result.latencies_s)
    blocks = result.blocks or [(result.wall_s, result.ops, result.round_shots)]
    metrics = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
        "op_p50_ms": op_p50_ms,
        "ops_per_min": statistics.median(ops / wall * 60.0 for wall, ops, _ in blocks),
        "round_shots_per_s": statistics.median(rs / wall for wall, _, rs in blocks),
    }
    named = {
        "setup_s": metrics["setup_s"],
        "peak_rss_mb": metrics["peak_rss_mb"],
        "failed_frac": _ratio(len(result.failures), result.checked),
        "ops": result.ops,
        "wall_s": result.wall_s,
    }
    if workload.name == "defect_event":
        named["event_p50_s"] = op_p50_ms / 1e3
        named["events_per_min"] = metrics["ops_per_min"]
    elif workload.name == "sweep":
        named["sweep_s"] = op_p50_ms / 1e3
    else:
        named["round_shots_per_s"] = metrics["round_shots_per_s"]
        named["chunk_p50_ms"] = result.extra["chunk_p50_ms"]
        named["chunk_p95_ms"] = result.extra["chunk_p95_ms"]
    return metrics, named, result.failures, result.checked


def _traced(workload, seconds: float, spans_path: Path):
    from tracing import RECONCILE_TOLERANCE, Recorder, instrument

    # One untimed operation first, so that neither pass pays the
    # process's first-call costs and their difference is the tracing.
    workload.setup()
    warmup = workload.run_pass(seconds, 1, None)
    workload.setup()
    untraced = workload.run_pass(seconds, None, None)
    rec = Recorder()
    caller = threading.get_ident()
    with instrument(rec):
        start = time.perf_counter()
        with rec.span("setup"):
            workload.setup()
        traced = workload.run_pass(seconds, untraced.items, rec)
        wall = time.perf_counter() - start
    rec.write(spans_path)

    metrics: dict[str, float] = {}
    for span, (self_s, calls) in rec.self_times().items():
        metrics[f"{span}.self_s"] = self_s
        metrics[f"{span}.calls"] = calls
    counts = rec.counts
    hits, misses = counts["decode.cache_hits"], counts["decode.cache_misses"]
    store_hits = sum(s.stats()["hits"] for s in rec.stores.values())
    store_gets = store_hits + sum(s.stats()["misses"] for s in rec.stores.values())
    waits = []
    for chunk_id, (submitted_ns, _) in traced.extra.get("submitted", {}).items():
        if chunk_id in rec.push_start_ns:
            waits.append((rec.push_start_ns[chunk_id] - submitted_ns) / 1e9)
    wait_p50, wait_p95 = _percentiles_ms(waits)
    gap = rec.reconcile(caller, wall)
    metrics.update(
        {
            "deform.handled": counts["deform.handled"],
            "deform.useful_ratio": _ratio(
                counts["deform.handled"], metrics["codes.validity.calls"]
            ),
            "decode.cache_lookups": hits + misses,
            "decode.cache_hit_ratio": _ratio(hits, hits + misses),
            "decode.pool_failures": counts["decode.pool_failures"],
            "sim.sample.shots": counts["sim.sample.shots"],
            "sim.sample.shots_per_s": _ratio(
                counts["sim.sample.shots"], metrics["sim.sample.self_s"]
            ),
            "store.hit_ratio": _ratio(store_hits, store_gets),
            "sweep.retries": traced.extra.get("retries", 0),
            "serve.queue_wait_p50_ms": wait_p50,
            "serve.queue_wait_p95_ms": wait_p95,
            "trace.wall_s": wall,
            "trace.overhead_s": traced.wall_s - untraced.wall_s,
            "trace.reconcile_gap": gap,
        }
    )
    failures = warmup.failures + untraced.failures + traced.failures
    if gap > RECONCILE_TOLERANCE:
        failures.append(
            f"trace: self times miss the traced wall by {gap:.1%} "
            f"(tolerance {RECONCILE_TOLERANCE:.0%})"
        )
    if any(self_s < 0 for self_s, _ in rec.self_times().values()):
        failures.append("trace: a span's children outlast it")
    # The reconciliation is one more checked output.
    checked = warmup.checked + untraced.checked + traced.checked + 1
    return metrics, {}, failures, checked


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the full record (see module doc)."""
    from workloads import WORKLOADS

    pins = json.loads((HERE / "pins.json").read_text(encoding="utf-8"))
    workdir = OUT / f"{name}-{os.getpid()}"
    budget = seconds / 2 if trace else seconds
    try:
        workload = WORKLOADS[name](seed, budget, pins, workdir)
        if trace:
            spans_path = OUT / f"trace-{name}-s{seed}.jsonl"
            metrics, named, failures, checked = _traced(workload, budget, spans_path)
            units = per_layer_names()
        else:
            metrics, named, failures, checked = _untraced(workload, budget)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    missing = set(units) - set(metrics)
    if missing:
        raise RuntimeError(f"metrics not produced: {sorted(missing)}")
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(),
        "named": {k: v for k, v in named.items() if math.isfinite(v)},
        "failures": failures,
        "result": result_line(metrics, units, failures, checked),
    }


def result_line(
    metrics: dict[str, float], units: dict[str, str], failures: list[str], checked: int
) -> dict:
    """The strict-JSON result.  A metric that cannot be computed is a
    failure and is left out, never reported as NaN or infinity."""
    for key in [k for k, v in metrics.items() if not math.isfinite(v)]:
        failures.append(f"metric {key} could not be computed ({metrics.pop(key)})")
        checked += 1
    return {
        "correct": not failures,
        "attempted": checked,
        "failed": len(failures),
        "metrics": {
            key: {"value": value, "unit": units[key]}
            for key, value in metrics.items()
            if key in units
        },
    }


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=1, allow_nan=False) + "\n", encoding="utf-8"
    )
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in record["environment"].items()))
    for key, value in record["named"].items():
        print(f"  {key:<20} {value:.6g} {NAMED[key]}")
    for failure in record["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps(record["result"], allow_nan=False))
    return 0


if __name__ == "__main__":
    # The program under test is imported from the checkout's own src/.
    sys.path.insert(1, str(SRC))
    sys.exit(main())
