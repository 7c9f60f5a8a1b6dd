"""Guarded-surrogate (restart mechanism) tests."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import AutoHPCnet, AutoHPCnetConfig
from repro.apps import CGApplication
from repro.runtime import GuardedSurrogate, bounds_validator, residual_validator
from repro.runtime.guard import _norm2
from repro.sparse import from_dense


FAST = AutoHPCnetConfig(
    n_samples=120, outer_iterations=1, inner_trials=2, num_epochs=50,
    quality_problems=4, quality_loss=0.9, qoi_mu=0.5, seed=0,
)


@pytest.fixture(scope="module")
def cg_guarded():
    app = CGApplication()
    build = AutoHPCnet(FAST).build(app)
    return GuardedSurrogate(
        build.surrogate, residual_validator("A", "b", "x", rtol=0.25)
    )


class TestResidualValidator:
    def test_accepts_exact_solution(self, cg_guarded, rng):
        app = cg_guarded.surrogate.app
        problem = app.example_problem(rng)
        exact = app.run_exact(problem).outputs
        validate = residual_validator("A", "b", "x", rtol=0.05)
        assert validate(problem, exact)

    def test_rejects_garbage_solution(self, cg_guarded, rng):
        app = cg_guarded.surrogate.app
        problem = app.example_problem(rng)
        validate = residual_validator("A", "b", "x", rtol=0.05)
        assert not validate(problem, {"x": rng.standard_normal(app.n) * 100})

    def test_dense_matrix_supported(self, rng):
        a = np.eye(3) * 2.0
        validate = residual_validator()
        assert validate({"A": a, "b": np.ones(3)}, {"x": np.full(3, 0.5)})


class TestBoundsValidator:
    def test_within_bounds(self):
        validate = bounds_validator("prices", low=0.0)
        assert validate({}, {"prices": np.array([1.0, 2.0])})
        assert not validate({}, {"prices": np.array([-1.0, 2.0])})

    def test_rejects_nonfinite(self):
        validate = bounds_validator("v")
        assert not validate({}, {"v": np.array([np.nan])})

    def test_invalid_range_rejected(self):
        with pytest.raises(ValueError):
            bounds_validator("v", low=1.0, high=0.0)


def reference_bounds(value, low, high, require_finite):
    """The three-reduction form ``bounds_validator`` must agree with."""
    value = np.asarray(value, dtype=np.float64)
    if require_finite and not np.all(np.isfinite(value)):
        return False
    return bool(np.all(value >= low) and np.all(value <= high))


def reference_residual(matrix, b, x, rtol):
    """The ``np.linalg.norm`` form ``residual_validator`` must agree with."""
    b = np.asarray(b, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if hasattr(matrix, "matvec"):
        residual = b - matrix.matvec(x)
    else:
        residual = b - np.asarray(matrix) @ x
    return float(np.linalg.norm(residual)) <= rtol * float(np.linalg.norm(b))


BOUNDS = ((0.0, 1.0), (-np.inf, np.inf), (0.0, np.inf), (-np.inf, 1.0), (1.0, 1.0))
BOUND_VALUES = (
    np.array([]),
    np.zeros((0, 3)),
    np.array(0.5),
    0.5,
    1.0,
    np.nan,
    np.inf,
    -np.inf,
    np.array([0.0, 1.0]),                    # exactly on each bound
    np.array([0.0, 0.5, 1.0]),
    np.array([-1e-300, 0.5]),                # just below the low bound
    np.array([0.5, np.nextafter(1.0, 2.0)]),  # just above the high bound
    np.array([0.5, np.nan, 0.7]),
    np.array([0.5, np.inf]),
    np.array([-np.inf, 0.5]),
    np.array([np.inf, -np.inf]),
    np.array([[0.2, np.nan], [np.inf, 0.1]]),
    np.array([1, 0, 1], dtype=np.int64),
    np.array([0.25, 0.75], dtype=np.float32),
)


class TestValidatorEquivalence:
    @pytest.mark.parametrize("bounds", BOUNDS, ids=str)
    @pytest.mark.parametrize("require_finite", (True, False))
    def test_bounds_matches_three_reductions(self, bounds, require_finite):
        low, high = bounds
        validate = bounds_validator("v", low=low, high=high, require_finite=require_finite)
        for value in BOUND_VALUES:
            got = validate({}, {"v": value})
            assert type(got) is bool
            assert got == reference_bounds(value, low, high, require_finite), value

    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(
            st.one_of(
                st.floats(allow_nan=True, allow_infinity=True),
                st.sampled_from((0.0, -0.0, 1.0, -1.0)),
            ),
            max_size=8,
        ),
        low=st.sampled_from((-np.inf, -1.0, -0.0, 0.0)),
        high=st.sampled_from((np.inf, 1.0, 0.0)),
        require_finite=st.booleans(),
    )
    def test_bounds_matches_three_reductions_drawn(self, values, low, high, require_finite):
        validate = bounds_validator("v", low=low, high=high, require_finite=require_finite)
        value = np.array(values, dtype=np.float64)
        assert validate({}, {"v": value}) == reference_bounds(value, low, high, require_finite)

    def test_norm_is_bitwise_linalg_norm(self):
        rng = np.random.default_rng(7)
        for n in itertools.chain(range(1, 40), rng.integers(40, 1000, size=60)):
            for scale in (1e-5, 1.0, 1e5):
                v = rng.standard_normal(n) * scale
                assert _norm2(v) == float(np.linalg.norm(v))
                strided = np.repeat(v, 2)[::2]
                assert _norm2(strided) == float(np.linalg.norm(strided))

    @pytest.mark.parametrize("kind", ("dense", "csr"))
    def test_residual_matches_linalg_norm_form(self, kind):
        rng = np.random.default_rng(11)
        for n in (1, 3, 17, 64):
            dense = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.5) + 4.0 * np.eye(n)
            matrix = from_dense(dense, "csr") if kind == "csr" else dense
            b = rng.standard_normal(n)
            exact = np.linalg.solve(dense, b)
            verdicts = set()
            for x in (exact, exact + 1e-3 * rng.standard_normal(n), np.zeros(n), -exact):
                r = float(np.linalg.norm(b - dense @ x))
                edge = r / float(np.linalg.norm(b))
                # rtol on, just below and just above the edge of acceptance
                for rtol in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0), 0.05, 0.25):
                    validate = residual_validator("A", "b", "x", rtol=rtol)
                    got = validate({"A": matrix, "b": b}, {"x": x})
                    assert got == reference_residual(matrix, b, x, rtol)
                    verdicts.add(got)
            assert verdicts == {True, False}

    def test_residual_strided_rhs(self):
        rng = np.random.default_rng(3)
        matrix = from_dense(np.eye(5) * 2.0, "csr")
        b = np.repeat(rng.standard_normal(5), 2)[::2]
        x = b / 2.0 + 1e-9
        for rtol in (0.0, 1e-12, 1e-6):
            validate = residual_validator(rtol=rtol)
            assert validate({"A": matrix, "b": b}, {"x": x}) == reference_residual(
                matrix, b, x, rtol
            )


class TestGuardedExecution:
    def test_valid_outputs_pass_through(self, cg_guarded, rng):
        app = cg_guarded.surrogate.app
        problems = app.generate_problems(5, rng)
        for p in problems:
            outputs = cg_guarded.run(p)
            # guarded output always satisfies the validity check
            assert residual_validator("A", "b", "x", rtol=0.25)(p, outputs)
        assert cg_guarded.stats.invocations == 5

    def test_fallback_engages_on_broken_surrogate(self, cg_guarded, rng):
        app = cg_guarded.surrogate.app
        # sabotage the surrogate: zero out the model head
        for param in cg_guarded.surrogate.package.model.parameters():
            param.data[:] = 0.0
        problem = app.example_problem(rng)
        before = cg_guarded.stats.fallbacks
        outputs = cg_guarded.run(problem)
        assert cg_guarded.stats.fallbacks == before + 1
        # the restart produced the exact result
        exact = app.run_exact(problem).outputs
        assert np.allclose(outputs["x"], exact["x"])

    def test_qoi_valid_even_with_broken_surrogate(self, cg_guarded, rng):
        app = cg_guarded.surrogate.app
        problem = app.example_problem(rng)
        qoi = cg_guarded.qoi(problem)
        assert qoi == pytest.approx(app.run_exact(problem).qoi)

    def test_stats_rates(self):
        from repro.runtime import GuardStats

        stats = GuardStats(invocations=10, fallbacks=3)
        assert stats.fallback_rate == pytest.approx(0.3)
        assert stats.surrogate_rate == pytest.approx(0.7)


class TestDefaultValidators:
    def test_every_app_has_a_default(self):
        from repro.apps import ALL_APPLICATIONS
        from repro.runtime import default_validator

        for cls in ALL_APPLICATIONS:
            assert callable(default_validator(cls.name))

    def test_defaults_accept_exact_outputs(self):
        from repro.apps import ALL_APPLICATIONS
        from repro.runtime import default_validator

        for cls in ALL_APPLICATIONS:
            app = cls()
            problem = app.example_problem(np.random.default_rng(0))
            run = app.run_exact(problem)
            assert default_validator(app.name)(problem, run.outputs), app.name

    def test_unknown_app_rejected(self):
        from repro.runtime import default_validator

        with pytest.raises(ValueError):
            default_validator("doom")


class TestSplitLatencyAndWindow:
    def test_surrogate_and_fallback_seconds_accumulate(self, cg_guarded, rng):
        app = cg_guarded.surrogate.app
        problem = app.example_problem(rng)
        stats = cg_guarded.stats
        before_s, before_f = stats.surrogate_seconds, stats.fallback_seconds
        cg_guarded.run(problem)  # surrogate is sabotaged by an earlier test
        assert stats.surrogate_seconds > before_s
        if stats.fallbacks:
            assert stats.fallback_seconds > before_f
            assert stats.time_ratio is not None and stats.time_ratio > 0

    def test_windowed_hit_rate_tracks_recent_traffic(self):
        from repro.runtime import GuardStats

        stats = GuardStats(window=4)
        assert stats.windowed_hit_rate is None
        for fallback in (True, True, True, True):
            stats.record(fallback=fallback)
        assert stats.windowed_hit_rate == 0.0
        for fallback in (False, False, False, False):
            stats.record(fallback=fallback)
        # the early misses aged out of the window
        assert stats.windowed_hit_rate == 1.0
        assert stats.window_count == 4
        # lifetime counters still remember everything
        assert stats.invocations == 8 and stats.fallbacks == 4

    def test_split_histograms_exported(self, rng):
        from repro import obs
        from repro.apps import CGApplication
        from repro.core import AutoHPCnet
        from repro.runtime import GuardedSurrogate, residual_validator

        obs.configure(enabled=True, reset=True)
        try:
            app = CGApplication()
            build = AutoHPCnet(FAST).build(app)
            guarded = GuardedSurrogate(
                build.surrogate, residual_validator("A", "b", "x", rtol=0.25)
            )
            guarded.run(app.example_problem(rng))
            rendered = obs.get_registry().to_prometheus()
            assert "repro_guard_surrogate_seconds" in rendered
        finally:
            obs.configure(enabled=False, reset=True)


class TestGuardHooks:
    def test_capture_fires_only_on_fallback(self, rng):
        from repro.apps import CGApplication
        from repro.core import AutoHPCnet
        from repro.runtime import GuardedSurrogate, residual_validator

        app = CGApplication()
        build = AutoHPCnet(FAST).build(app)
        captured = []
        guarded = GuardedSurrogate(
            build.surrogate,
            residual_validator("A", "b", "x", rtol=0.25),
            capture=lambda problem, x, outputs: captured.append((x, outputs)),
        )
        problem = app.example_problem(rng)
        guarded.run(problem)
        assert len(captured) == guarded.stats.fallbacks
        # now sabotage: every run falls back and must be captured
        for param in guarded.surrogate.package.model.parameters():
            param.data[:] = 0.0
        before = len(captured)
        guarded.run(problem)
        assert len(captured) == before + 1
        x, outputs = captured[-1]
        assert x.ndim == 1  # flattened model-space feature row
        exact = app.run_exact(problem).outputs
        assert np.allclose(outputs["x"], exact["x"])

    def test_drift_detector_observes_every_invocation(self, rng):
        from repro.apps import CGApplication
        from repro.core import AutoHPCnet
        from repro.runtime import GuardedSurrogate, residual_validator

        class Recorder:
            def __init__(self):
                self.calls = []

            def observe(self, x, *, fallback=False):
                self.calls.append((np.asarray(x).copy(), fallback))

        app = CGApplication()
        build = AutoHPCnet(FAST).build(app)
        recorder = Recorder()
        guarded = GuardedSurrogate(
            build.surrogate,
            residual_validator("A", "b", "x", rtol=0.25),
            drift_detector=recorder,
        )
        for problem in app.generate_problems(3, rng):
            guarded.run(problem)
        assert len(recorder.calls) == 3
        assert recorder.calls[0][0].ndim == 1
