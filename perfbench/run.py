"""Repository benchmark: one command, two workloads, every metric by name.

Run from the repository root::

    python3 perfbench/run.py --workload app-inline --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with the program's default
telemetry and no benchmark wrappers.  ``--trace 1`` repeats the timed
phase a second time with spans recorded around each layer's public entry
points and reports the per-layer metrics plus the tracing overhead.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines above it are the
human-readable report (sample counts, per-app rows, fingerprint).
See ``perfbench/README.md`` for metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

START = time.perf_counter()
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import BLAS_ENV, BLAS_THREADS, OUT_DIR, WORK_DIR  # noqa: E402

WORKLOADS = ("app-inline", "serve-bulk")


def declarations(path: Path) -> tuple[dict, dict]:
    """End-to-end and per-layer metric units as BENCHMARK.json declares them."""
    spec = json.loads(path.read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def layer_metrics(outcome, expected, per_layer: dict) -> dict:
    """A traced run's result metrics: every declared per-layer metric.

    One the workload should report but did not (its layer recorded no
    spans or samples) fails the run.  Those of layers the workload never
    enters read 0, and the report lists them as n/a.
    """
    lost = [m for m in expected if m not in outcome.metrics]
    if lost:
        outcome.fail(f"traced run measured nothing for {lost}", len(lost))
    absent = [m for m in per_layer if m not in expected]
    outcome.line("per-layer metrics n/a on this workload (reported as 0): " + ", ".join(absent))
    reported = {name: (0.0, per_layer[name]) for name in absent}
    reported.update(outcome.metrics)
    return reported


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    source = Path("src")
    spec = Path("BENCHMARK.json")
    if not (source / "repro" / "__init__.py").is_file() or not spec.is_file():
        print("perfbench: run from the repository root; src/repro or "
              "BENCHMARK.json not found", file=sys.stderr)
        return 2
    end_to_end, per_layer = declarations(spec)
    # one stated BLAS thread count; must precede the first numpy import
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    # One CPU for this process and every process it spawns (affinity is
    # inherited): serve-bulk's two-process served path then has the same
    # CPU footprint as its one-process yardstick, and no ratio depends on
    # whether another CPU happens to be free.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(source.resolve()))   # spawned workers inherit it

    import repro  # noqa: F401  (timed as part of set-up)
    import repro.runtime  # noqa: F401
    import_s = time.perf_counter() - START

    from common import fingerprint, peak_rss_mb, stop_processes

    if args.workload == "app-inline":
        import app_inline as workload
    else:
        import serve_bulk as workload

    try:
        outcome = workload.run(args.seed, args.seconds, bool(args.trace), import_s)
    finally:
        stop_processes()
        shutil.rmtree(WORK_DIR, ignore_errors=True)

    if args.trace:
        reported = layer_metrics(outcome, workload.LAYER_METRICS, per_layer)
    else:
        outcome.put("peak_rss_mb", peak_rss_mb(), "MB")
        missing = [m for m in end_to_end if m not in outcome.metrics]
        if missing:
            raise RuntimeError(f"workload did not report {missing}")
        reported = outcome.metrics

    for line in outcome.report:
        print(line)
    for error in outcome.errors:
        print(f"FAILED: {error}")
    print("fingerprint: " + json.dumps(fingerprint(args.seed, args.workload)))
    if args.trace and outcome.spans is not None:
        path = OUT_DIR / f"{args.workload}.spans.jsonl"
        outcome.spans.write(path)
        print(f"spans written to {path}")

    declared = {**end_to_end, **per_layer}
    metrics = {}
    for name, (value, unit) in reported.items():
        if declared.get(name) != unit:
            raise RuntimeError(f"{name} reported in {unit}, declared in BENCHMARK.json as {declared.get(name)}")
        metrics[name] = {"value": value, "unit": unit}
    correct = outcome.failed == 0 and not outcome.errors
    print(json.dumps({
        "correct": correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
