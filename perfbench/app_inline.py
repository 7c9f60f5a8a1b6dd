"""Workload ``app-inline``: guarded surrogate calls inside the application.

Closed loop, one caller.  Set-up builds surrogates for three applications
with ``AutoHPCnet.build`` (streamcluster with feature-reduction search on,
AMG with its sparse matrix field and residual validator, miniQMC dense
with no autoencoder).  The timed phase interleaves the three apps' seeded
problem streams; each problem runs once through the exact region and once
through ``GuardedSurrogate.run`` with the stock validator.  Both sides are
timed at the same boundary: problem dict in, outputs dict out.
"""

from __future__ import annotations

import hashlib
import time
from typing import Optional

import numpy as np

from repro import AutoHPCnet, AutoHPCnetConfig, evaluate_surrogate
from repro.apps import AMGApplication, MiniQMCApplication, StreamclusterApplication
from repro.apps.base import Application
from repro.autoencoder.model import Autoencoder
from repro.core.pipeline import DeployedSurrogate
from repro.core.scaling import Scaler
from repro.extract.features import FeatureSchema
from repro.extract.sampling import returned_names
from repro.nas.package import SurrogatePackage
from repro.perf.metrics import hit_rate
from repro.runtime import GuardedSurrogate, default_validator

from common import Outcome, counter_total, digest_outputs, median, percentile, repeat_setup
from spans import SpanRecorder, durations_by_name, self_time_by_name

#: (application class, config overrides): the three surrogates built
APPS = (
    (StreamclusterApplication, {}),
    (AMGApplication, {}),
    (MiniQMCApplication, {"search_type": "fullInput"}),
)
#: one reduced build budget for every app
BUILD_BUDGET = dict(
    n_samples=300,
    outer_iterations=2,
    inner_trials=3,
    num_epochs=60,
    ae_epochs=30,
    quality_problems=12,
)
#: the builds' seed is fixed, not taken from the workload seed: NAS
#: outcomes differ per seed (AMG's residual-check restart share ranged
#: from 6% to 65% over seeds 0-3), which would make every timing depend
#: on which surrogate a seed happened to find.  The workload seed drives
#: the problem streams.
BUILD_SEED = 0
STREAM_PER_APP = 1000    # problems per app in the timed stream
HIT_PROBLEMS = 100       # problems per app for Eqn 3's HitRate
MODELED_PROBLEMS = 20    # problems per app for the device-model speedup
MU = 0.10
SETUP_REPS = 3

#: per-layer metric -> span name whose self time per guarded call it reports
SELF_TIME_SPANS = {
    "extract.flatten_us": "extract.flatten",
    "extract.unflatten_us": "extract.unflatten",
    "core.scaler_us": "core.scaler",
    "autoencoder.encode_us": "autoencoder.encode",
    "nas.package_predict_us": "nas.package_predict",
    "runtime.guard.validate_us": "runtime.guard.validate",
    "runtime.guard.self_us": "runtime.guard.run",
}
#: the per-layer metrics a traced run must report (run.py checks them)
LAYER_METRICS = (
    *SELF_TIME_SPANS,
    "runtime.guard.restart_share", "apps.restart_us", "apps.region_us", "apps.hit_rate",
    "extract.trace_s", "autoencoder.train_s", "nas.search_s", "static.preflight_s",
    "core.build_s", "nas.trials", "nas.ae_cache_hits",
    "wall.ops_per_s", "wall.p50_ms", "wall.p95_ms", "bench.trace_overhead_pct",
)


class _AppState:
    def __init__(self, app: Application, surrogate: DeployedSurrogate) -> None:
        self.app = app
        self.surrogate = surrogate
        self.region = app.region_fn
        self.names = returned_names(self.region)
        self.guard: Optional[GuardedSurrogate] = None
        self.exact_s = 0.0
        self.guarded_s = 0.0
        self.calls = 0
        self.restarts = 0

    def exact(self, problem) -> dict:
        """The region at the surrogate's boundary: dict in, dict out."""
        raw = self.region(**problem)
        if isinstance(raw, tuple):
            return dict(zip(self.names, raw))
        return {self.names[0] if self.names else "out": raw}


def build_all() -> tuple[list[_AppState], list, float]:
    """The three ``AutoHPCnet.build`` calls; returns states, builds, seconds."""
    states, builds = [], []
    start = time.perf_counter()
    for cls, overrides in APPS:
        app = cls()
        config = AutoHPCnetConfig(seed=BUILD_SEED, **BUILD_BUDGET, **overrides)
        build = AutoHPCnet(config).build(app)
        builds.append(build)
        states.append(_AppState(app, build.surrogate))
    return states, builds, time.perf_counter() - start


def seeded_problems(app: Application, n: int, seed_key: list) -> list[dict]:
    """``n`` independent problems, each drawn around its own base problem.

    ``generate_problems`` perturbs a single base; one base per run would
    make each run's restart share hinge on where that base fell."""
    return [
        app.generate_problems(1, np.random.default_rng(seed_key + [k]))[0]
        for k in range(n)
    ]


def make_stream(states: list[_AppState], seed: int) -> list[tuple[int, dict]]:
    """The apps' seeded problem streams, interleaved round-robin."""
    per_app = [seeded_problems(s.app, STREAM_PER_APP, [seed, i, 1]) for i, s in enumerate(states)]
    return [
        (i, per_app[i][k]) for k in range(STREAM_PER_APP) for i in range(len(states))
    ]


def set_up(states: list[_AppState], seed: int):
    """Guards, problem stream and one warm-up pass over its head."""
    for s in states:
        s.guard = GuardedSurrogate(s.surrogate, default_validator(s.app.name))
    stream = make_stream(states, seed)
    for i, problem in stream[: 10 * len(states)]:
        states[i].exact(problem)
        states[i].guard.run(problem)
    return stream


def app_hit_rates(states: list[_AppState], seed: int) -> list[float]:
    """Eqn 3 at ``MU`` for the unguarded surrogate, per app (deterministic)."""
    rates = []
    for i, s in enumerate(states):
        problems = seeded_problems(s.app, HIT_PROBLEMS, [seed, i, 2])
        exact = [s.app.qoi_from_outputs(p, s.exact(p)) for p in problems]
        approx = [s.surrogate.qoi(p) for p in problems]
        rates.append(hit_rate(exact, approx, mu=MU))
    return rates


def describe(pkg: SurrogatePackage) -> str:
    """The package's topology: the shapes serve-bulk's models copy."""
    encoder = "no encoder"
    if pkg.autoencoder is not None:
        widths = [layer.out_features for layer in pkg.autoencoder.encoder.layers
                  if hasattr(layer, "out_features")]
        encoder = (f"encoder {'->'.join(map(str, [pkg.input_dim] + widths))} "
                   f"({pkg.autoencoder.activation})")
    return f"in={pkg.input_dim} {encoder} {pkg.topology.describe()} out={pkg.output_dim}"


def _same_outputs(a: dict, b: dict) -> bool:
    if a.keys() != b.keys():
        return False
    return all(np.array_equal(np.asarray(a[k]), np.asarray(b[k])) for k in a)


def timed_loop(states, stream, seconds: float, out: Outcome, first_pass: list):
    """Run the interleaved stream for ``seconds`` (at least one full pass).

    Returns per-call guarded latencies.  ``first_pass`` collects the
    per-problem digests of the first pass; later passes must repeat them.
    """
    latencies = []
    n = len(stream)
    deadline = time.perf_counter() + seconds
    k = 0
    perf = time.perf_counter
    while k < n or perf() < deadline:
        idx, problem = stream[k % n]
        s = states[idx]
        before = s.guard.stats.fallbacks
        t0 = perf()
        expected = s.exact(problem)
        t1 = perf()
        try:
            got = s.guard.run(problem)
        except Exception as exc:  # noqa: BLE001 - counted as a failed call
            out.fail(f"{s.app.name}: guarded call raised {exc!r}")
            k += 1
            continue
        t2 = perf()
        s.exact_s += t1 - t0
        s.guarded_s += t2 - t1
        s.calls += 1
        latencies.append(t2 - t1)
        if s.guard.stats.fallbacks != before:
            s.restarts += 1
            if not _same_outputs(got, expected):
                out.fail(f"{s.app.name}: restart outputs differ from region_fn")
        digest = digest_outputs(got)
        if k < n:
            first_pass.append(digest)
        elif digest != first_pass[k % n]:
            out.fail(f"{s.app.name}: outputs for problem {k % n} changed between passes")
        k += 1
    out.attempted += k
    return latencies


def _reset_counts(states) -> None:
    for s in states:
        s.exact_s = s.guarded_s = 0.0
        s.calls = s.restarts = 0


def _trace_patches(rec: SpanRecorder, states) -> None:
    rec.patch(GuardedSurrogate, "run", "runtime.guard.run")
    rec.patch(DeployedSurrogate, "run", "core.deployed_run")
    rec.patch(FeatureSchema, "flatten", "extract.flatten")
    rec.patch(FeatureSchema, "unflatten", "extract.unflatten")
    rec.patch(Scaler, "transform", "core.scaler")
    rec.patch(Scaler, "inverse", "core.scaler")
    rec.patch(Autoencoder, "encode", "autoencoder.encode")
    rec.patch(SurrogatePackage, "predict", "nas.package_predict")
    rec.patch(Application, "run_exact", "apps.restart")
    for s in states:
        rec.patch(type(s.app), "region_fn", "apps.region")
        rec.patch(s.guard, "validator", "runtime.guard.validate")


def run(seed: int, seconds: float, trace: bool, import_s: float) -> Outcome:
    out = Outcome()
    states, builds, build_s = build_all()
    setup_times, stream = repeat_setup(SETUP_REPS, lambda last: set_up(states, seed))
    # the builds are set-up too: the work before the first timed call
    setup_s = import_s + build_s + median(setup_times)
    rates = app_hit_rates(states, seed)
    n_hit = HIT_PROBLEMS * len(states)
    app_hit = float(np.mean(rates))

    first_pass: list = []
    latencies = timed_loop(states, stream, seconds, out, first_pass)
    stream_digest = hashlib.sha256(b"".join(first_pass)).hexdigest()[:16]
    calls = sum(s.calls for s in states)
    guarded_s = sum(s.guarded_s for s in states)
    exact_s = sum(s.exact_s for s in states)
    restarts = sum(s.restarts for s in states)
    calls_per_s = calls / guarded_s

    out.line(f"app-inline: setup_s {setup_s:.4f} s = import {import_s:.3f} s + build_s "
             f"{build_s:.3f} s (3 builds) + median of {SETUP_REPS} set-ups {median(setup_times):.4f} s")
    p50, p95, p99 = (percentile(latencies, q) for q in (50, 95, 99))
    out.line(f"app-inline: {calls} guarded calls in {guarded_s:.3f} s ({calls_per_s:.1f}/s); "
             f"p50 {p50 * 1e6:.1f} us, p95 {p95 * 1e6:.1f} us, p99 {p99 * 1e6:.1f} us "
             f"(n={len(latencies)}); "
             f"restarts {restarts}; speedup {exact_s / guarded_s:.3f}x (measured, symmetric)")
    out.line(f"app-inline: hit_rate {app_hit:.4f} (Eqn 3, mu={MU}, n={n_hit}); "
             f"stream digest {stream_digest}")
    for s, build, rate in zip(states, builds, rates):
        modeled = evaluate_surrogate(
            s.surrogate, n_problems=MODELED_PROBLEMS,
            rng=np.random.default_rng([seed, 3]),
        ).speedup
        out.line(
            f"  {s.app.name:<14} measured {s.exact_s / s.guarded_s:6.3f}x  "
            f"modeled {modeled:7.2f}x (device model, not measured)  "
            f"calls {s.calls:6d}  restarts {s.restarts:5d}  hit_rate {rate:.3f}  "
            f"K={build.search.best_k} f_e={build.f_e:.3f} trials={build.search.models_trained}  "
            f"{describe(s.surrogate.package)}"
        )

    if not trace:
        out.put("setup_s", setup_s, "s")
        out.put("speedup", exact_s / guarded_s, "x")
        return out

    _reset_counts(states)
    rec = SpanRecorder()
    _trace_patches(rec, states)
    try:
        traced_first: list = []
        timed_loop(states, stream, seconds, out, traced_first)
        if traced_first != first_pass:
            out.fail("traced outputs differ from the untraced run's")
    finally:
        rec.unpatch()
    traced_calls = sum(s.calls for s in states)
    traced_rate = traced_calls / sum(s.guarded_s for s in states)
    traced_restarts = sum(s.restarts for s in states)
    own = self_time_by_name(rec.spans)
    inclusive = durations_by_name(rec.spans)

    # a layer with no spans reports nothing, and run.py fails the run:
    # a lost measurement must not read as a layer that costs nothing
    for metric, span in SELF_TIME_SPANS.items():
        if span in own:
            out.put(metric, own[span] / traced_calls * 1e6, "us/op")
    out.put("runtime.guard.restart_share", traced_restarts / traced_calls, "ratio")
    for metric, span in (("apps.restart_us", "apps.restart"), ("apps.region_us", "apps.region")):
        if span in inclusive:
            out.put(metric, float(np.mean(inclusive[span])) * 1e6, "us/restart")
        elif traced_restarts == 0:   # nothing restarted, so nothing to time
            out.put(metric, 0.0, "us/restart")
    timers = [b.timers for b in builds]
    for metric, phase in (
        ("extract.trace_s", "trace_generation"),
        ("autoencoder.train_s", "autoencoder_training"),
        ("nas.search_s", "bayesian_optimization"),
        ("static.preflight_s", "static_preflight"),
    ):
        if any(phase in t.phases for t in timers):
            out.put(metric, sum(t.phases.get(phase, 0.0) for t in timers), "s")
    out.put("core.build_s", build_s, "s")
    out.put("nas.trials", sum(b.search.models_trained for b in builds), "count")
    out.put("nas.ae_cache_hits", counter_total("repro_nas_ae_cache_hits_total"), "count")
    out.put("apps.hit_rate", app_hit, "ratio")
    out.put("wall.ops_per_s", calls_per_s, "1/s")
    out.put("wall.p50_ms", p50 * 1e3, "ms")
    out.put("wall.p95_ms", p95 * 1e3, "ms")
    out.put("bench.trace_overhead_pct", (calls_per_s / traced_rate - 1.0) * 100.0, "%")
    out.spans = rec
    out.line(f"app-inline traced: {traced_calls} calls, {len(rec.spans)} spans, "
             f"rate {traced_rate:.1f}/s vs untraced {calls_per_s:.1f}/s")
    return out
