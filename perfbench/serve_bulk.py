"""Workload ``serve-bulk``: mixed-model bursts through the process tier.

Closed loop, one caller.  Bursts of ``BURST`` raw rows over the three
seeded models go through ``Client.run_model_batch`` against
``Orchestrator(num_processes=1)``: rows are grouped by model, cross to the
worker process in shared memory, and run one vectorized forward per
group.  Per-request admission and the guard are bypassed.
"""

from __future__ import annotations

import time

import numpy as np

from repro import obs
from repro.registry.store import ModelRegistry
from repro.runtime import Client, Orchestrator, RowsResult

from common import (
    STORE_GAUGE, Outcome, counter_total, fresh_dir, gauge_value, histogram_totals,
    median, percentile, repeat_setup, shm_segments,
)
from models import MODEL_SPECS, POOL_ROWS, Deployment, NumpyYardstick, make_pools, reference_rows
from spans import SpanRecorder

BURST = 384
DISTINCT_BURSTS = 64
SETUP_REPS = 3
RESULT_TIMEOUT_S = 30.0

#: the per-layer metrics a traced run must report (run.py checks them)
LAYER_METRICS = (
    "runtime.orchestrator.run_rows_many_ms", "runtime.client.bulk_overhead_ms",
    "runtime.shm.bytes_per_burst", "compile.plan_exec_us", "compile.plans_built",
    "registry.publish_ms", "registry.load_ms",
    "runtime.sharding.overloads", "runtime.sharding.queue_depth_max",
    "wall.ops_per_s", "wall.p50_ms", "wall.p95_ms", "bench.trace_overhead_pct",
)


class _Server:
    def __init__(self, seed: int, workdir) -> None:
        self.plans_before = counter_total("repro_compile_plans_built_total")
        self.deployment = Deployment(seed, ModelRegistry(workdir / "registry"))
        self.orc = Orchestrator(num_processes=1)
        self.orc.start()
        try:
            self.client = Client(self.orc)
            self.packages = self.deployment.register(self.client)
            self.pools = make_pools(seed)
            self.bursts = self._make_bursts(seed)
            for names, inputs, _ in self.bursts[:2]:   # warm-up: plans, segments
                self.client.run_model_batch(names, inputs, timeout=RESULT_TIMEOUT_S)
        except BaseException:
            self.orc.stop()
            raise

    def _make_bursts(self, seed: int):
        """Seeded bursts: model names, input rows, expected output hashes."""
        names = list(MODEL_SPECS)
        expected = {n: [hash(b) for b in reference_rows(self.packages[n], self.pools[n])] for n in names}
        rng = np.random.default_rng([seed, 20])
        bursts = []
        for _ in range(DISTINCT_BURSTS):
            models = rng.integers(0, len(names), size=BURST)
            rows = rng.integers(0, POOL_ROWS, size=BURST)
            burst_names = [names[m] for m in models]
            inputs = [self.pools[n][r] for n, r in zip(burst_names, rows)]
            hashes = [expected[n][r] for n, r in zip(burst_names, rows)]
            bursts.append((burst_names, inputs, hashes))
        return bursts

    def close(self) -> None:
        self.orc.stop()


def _set_up(seed: int, last: bool, deployments: list):
    """One set-up; only the last server is kept.  An earlier one is closed
    and dropped whole: kept alive, it made the timed bursts slower and
    their timings far noisier."""
    server = _Server(seed, fresh_dir(f"serve-bulk-{len(deployments)}"))
    deployments.append(server.deployment)
    if not last:
        server.close()
        return None
    return server


def _loop(server: _Server, seconds: float, out: Outcome, rec=None, yardstick=None):
    """Bursts for ``seconds`` of burst time; verification is untimed.

    Returns per-burst times and, when ``yardstick`` is given, its time on
    each burst, run right after the served one."""
    times, yard_times = [], []
    busy = 0.0
    k = 0
    perf = time.perf_counter
    while busy < seconds:
        names, inputs, hashes = server.bursts[k % len(server.bursts)]
        if rec is not None:
            rec.set_request(k)
        out.attempted += BURST
        t0 = perf()
        try:
            outputs = server.client.run_model_batch(names, inputs, timeout=RESULT_TIMEOUT_S)
        except Exception as exc:  # noqa: BLE001 - the whole burst failed
            busy += perf() - t0
            out.fail(f"burst {k} failed: {exc!r}", BURST)
            k += 1
            continue
        t1 = perf()
        busy += t1 - t0
        times.append(t1 - t0)
        if yardstick is not None:
            yardstick(names, inputs)
            yard_times.append(perf() - t1)
        wrong = sum(
            1 for value, want in zip(outputs, hashes)
            if hash(np.ascontiguousarray(value).tobytes()) != want
        )
        if wrong:
            out.fail(f"burst {k}: {wrong} rows differ from predict", wrong)
        k += 1
    return times, yard_times


def run(seed: int, seconds: float, trace: bool, import_s: float) -> Outcome:
    out = Outcome()
    shm_before = shm_segments()
    deployments: list = []
    setup_times, server = repeat_setup(SETUP_REPS, lambda last: _set_up(seed, last, deployments))
    build_s = median([d.build_s for d in deployments])
    setup_s = import_s + median(setup_times)
    store_before = gauge_value(STORE_GAUGE)
    traced = None
    try:
        yardstick = NumpyYardstick()
        times, yard_times = _loop(server, seconds, out, yardstick=yardstick)
        if trace:
            rec = SpanRecorder()
            overloads_before = counter_total("repro_overload_total")
            exec_before = histogram_totals("repro_compile_plan_exec_seconds")
            depth_gauge = obs.get_registry().get("repro_shard_queue_depth")
            depth_max = [0.0]
            original = Orchestrator.run_rows_many

            def run_rows_many(self, groups):
                results = rec.call("runtime.orchestrator.run_rows_many", original, self, groups)
                if depth_gauge is not None:
                    depth_max[0] = max([depth_max[0]] + [s["value"] for s in depth_gauge.snapshot()["series"]])
                return results

            rec.replace(Orchestrator, "run_rows_many", run_rows_many)
            rec.patch(RowsResult, "result", "runtime.sharding.rows_result")
            rec.patch(Client, "run_model_batch", "runtime.client.run_model_batch")
            try:
                # the same loop, yardstick included, so that the rates
                # differ by the spans alone
                traced, _ = _loop(server, seconds, out, rec, yardstick)
            finally:
                rec.unpatch()
    finally:
        server.close()
    if gauge_value(STORE_GAUGE) != store_before:
        out.fail("tensor store size changed over the run")
    leaked = shm_segments() - shm_before
    if leaked:
        out.fail(f"{len(leaked)} new /dev/shm segments after the run")

    rows_per_s = BURST * len(times) / sum(times)
    p50, p95, p99 = (percentile(times, q) for q in (50, 95, 99))
    out.line(f"serve-bulk: build {build_s * 1e3:.2f} ms (3 seeded packages + publish, median), "
             f"setup_s {setup_s:.4f} s (import {import_s:.3f} s + median of {SETUP_REPS}, "
             f"each spawning the worker process)")
    # the median over bursts of each burst's own ratio: the two timings of
    # a pair are taken back to back, so a slow spell of the host scales
    # both, and one long stall moves a single pair, not a ratio of sums
    speedup = median([y / t for y, t in zip(yard_times, times)])
    out.line(f"serve-bulk: {len(times)} bursts of {BURST} rows; {rows_per_s:.0f} rows/s; "
             f"burst p50 {p50 * 1e3:.3f} ms, p95 {p95 * 1e3:.3f} ms, p99 {p99 * 1e3:.3f} ms "
             f"(n={len(times)}); the numpy yardstick takes {median(yard_times) * 1e3:.3f} ms "
             f"per burst: speedup {speedup:.4f}x")
    if not trace:
        out.put("setup_s", setup_s, "s")
        out.put("speedup", speedup, "x")
        return out

    # per burst: from the pool call to the last group's result, vs the
    # whole client call (grouping, stacking and reordering on top)
    window: dict[int, list[float]] = {}
    client_s: dict[int, float] = {}
    for s in rec.spans:
        if s.name == "runtime.client.run_model_batch":
            client_s[s.request_id] = s.end - s.start
        elif s.name == "runtime.orchestrator.run_rows_many":
            window.setdefault(s.request_id, [s.start, s.end])[0] = s.start
        elif s.name == "runtime.sharding.rows_result" and s.request_id in window:
            window[s.request_id][1] = max(window[s.request_id][1], s.end)
    pool_ms = [(w[1] - w[0]) * 1e3 for w in window.values()]
    overhead_ms = [client_s[k] * 1e3 - (w[1] - w[0]) * 1e3 for k, w in window.items() if k in client_s]
    row_bytes = {n: (spec.width + spec.outputs) * 8 for n, spec in MODEL_SPECS.items()}
    burst_bytes = float(np.mean([sum(row_bytes[n] for n in names) for names, _, _ in server.bursts]))
    out.put("wall.ops_per_s", rows_per_s, "1/s")
    out.put("wall.p50_ms", p50 * 1e3, "ms")
    out.put("wall.p95_ms", p95 * 1e3, "ms")
    # a figure with no spans or samples behind it is left out, and run.py
    # fails the run: a lost measurement must not read as costing nothing
    if pool_ms:
        out.put("runtime.orchestrator.run_rows_many_ms", median(pool_ms), "ms/burst")
    if overhead_ms:
        out.put("runtime.client.bulk_overhead_ms", median(overhead_ms), "ms/burst")
    out.put("runtime.shm.bytes_per_burst", burst_bytes, "B/burst")
    exec_count, exec_sum = (
        a - b for a, b in zip(histogram_totals("repro_compile_plan_exec_seconds"), exec_before)
    )
    if exec_count:
        out.put("compile.plan_exec_us", exec_sum / exec_count * 1e6, "us/forward")
    out.put("registry.publish_ms", median([d.publish_s for d in deployments]) * 1e3, "ms")
    out.put("registry.load_ms", median([d.load_s for d in deployments]) * 1e3, "ms")
    out.put("compile.plans_built", counter_total("repro_compile_plans_built_total") - server.plans_before, "count")
    out.put("runtime.sharding.overloads", counter_total("repro_overload_total") - overloads_before, "count")
    if depth_gauge is not None:
        out.put("runtime.sharding.queue_depth_max", depth_max[0], "count")
    traced_rate = BURST * len(traced) / sum(traced)
    out.put("bench.trace_overhead_pct", (rows_per_s / traced_rate - 1.0) * 100.0, "%")
    out.line(f"serve-bulk traced: {traced_rate:.0f} rows/s; runtime.shm.bytes_per_burst is "
             f"computed from row widths (float64 in + out), not measured")
    out.spans = rec
    return out
