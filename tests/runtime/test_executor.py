"""The one model executor: plan map keying, memoization, forward dispatch.

Thread and process serving both call :class:`ModelExecutor`, so these
tests pin its contract directly: what a specialization key is made of,
that a key compiles once (or records one untraceable memo), that only
``forget`` drops plans, and that the forward keeps the row-count and
row-wise guarantees the transports rely on.
"""

import numpy as np
import pytest

from repro import obs
from repro.compile import csr_pattern_key
from repro.nn.tensor import batch_invariant
from repro.runtime.executor import ModelExecutor, ServedModel
from repro.sparse.formats import CSRMatrix

from ..compile.test_conv_plans import make_csr, sparse_ae_package
from ..compile.test_plan import make_package


@pytest.fixture(autouse=True)
def fresh_telemetry():
    obs.configure(enabled=True, reset=True)
    yield
    obs.configure(enabled=True, reset=True)


def served(package, version=1):
    return ServedModel(package.predict, True, version, package)


def counter(name, **labels):
    metric = obs.get_registry().get(name)
    if metric is None:
        return 0
    return metric.value(**labels) if labels else metric.total()


class OpaquePackage:
    """``predict`` works; everything the tracer needs is missing."""

    def predict(self, x):
        return np.asarray(x) * 2.0


class TestPlanMap:
    def test_key_depends_on_every_specialization_field(self, rng):
        x = rng.standard_normal((2, 6))
        base = ModelExecutor._key("m", 1, x)
        assert base == ModelExecutor._key("m", 1, x[0])  # row shape, not batch
        assert base != ModelExecutor._key("n", 1, x)
        assert base != ModelExecutor._key("m", 2, x)
        assert base != ModelExecutor._key("m", 1, rng.standard_normal((2, 7)))
        assert base != ModelExecutor._key("m", 1, x.astype(np.float32))

    def test_csr_key_tracks_the_sparsity_pattern(self, rng):
        a = make_csr(rng, 5, 12)
        b = make_csr(rng, 5, 12, empty_rows=(1,))
        assert csr_pattern_key(a) != csr_pattern_key(b)
        # same structure, different values: one pattern, one plan
        fresh = CSRMatrix(
            indptr=a.indptr,
            indices=a.indices,
            data=rng.standard_normal(a.nnz),
            shape=a.shape,
        )
        assert csr_pattern_key(a) == csr_pattern_key(fresh)
        assert ModelExecutor._key("m", 1, a) == ModelExecutor._key("m", 1, fresh)
        assert ModelExecutor._key("m", 1, a) != ModelExecutor._key("m", 1, b)

    def test_one_compile_per_key(self, rng):
        executor = ModelExecutor()
        model = served(make_package(rng))
        x = rng.standard_normal((3, 6))
        first = executor.plan_for("m", model, x)
        assert first is not None
        assert executor.plan_for("m", model, x[0]) is first
        assert counter("repro_compile_plans_built_total") == 1
        assert obs.get_registry().get("repro_compile_plan_build_seconds").count() == 1

    def test_has_plan_never_compiles(self, rng):
        executor = ModelExecutor()
        model = served(make_package(rng))
        x = rng.standard_normal(6)
        assert not executor.has_plan("m", model, x)
        assert counter("repro_compile_plans_built_total") == 0
        executor.plan_for("m", model, x)
        assert executor.has_plan("m", model, x)

    def test_untraceable_is_memoized_with_its_reason(self):
        executor = ModelExecutor()
        package = OpaquePackage()
        model = ServedModel(package.predict, True, 1, package)
        for _ in range(3):
            assert executor.plan_for("m", model, np.ones(3)) is None
        assert counter("repro_compile_untraceable_total", reason="opaque") == 1
        assert not executor.has_plan("m", model, np.ones(3))

    def test_forget_drops_plans_and_memos_of_one_version(self, rng):
        executor = ModelExecutor()
        v1, v2 = served(make_package(rng), 1), served(make_package(rng), 2)
        x = rng.standard_normal(6)
        executor.plan_for("m", v1, x)
        executor.plan_for("m", v2, x)
        executor.forget("m", 1)
        assert not executor.has_plan("m", v1, x)
        assert executor.has_plan("m", v2, x)
        executor.plan_for("m", v1, x)
        assert counter("repro_compile_plans_built_total") == 3

    def test_compile_off_or_raw_callable_builds_nothing(self, rng):
        package = make_package(rng)
        x = rng.standard_normal(6)
        ModelExecutor(compile_plans=False).plan_for("m", served(package), x)
        ModelExecutor().plan_for("m", ServedModel(package.predict, True, 1), x)
        assert counter("repro_compile_plans_built_total") == 0


class TestForward:
    def test_plan_forward_is_bit_identical_to_interpreter(self, rng):
        package = make_package(rng, hidden=(8, 8), activation="tanh")
        x = rng.standard_normal((5, 6))
        y, used_plan = ModelExecutor().forward("m", served(package), x, rows=5)
        assert used_plan
        with batch_invariant():
            np.testing.assert_array_equal(y, package.predict(x))
        assert (
            obs.get_registry().get("repro_compile_plan_exec_seconds").count(model="m")
            == 1
        )

    def test_csr_forward_uses_a_pattern_plan(self, rng):
        package = sparse_ae_package(rng, 16, 5, 3)
        x = make_csr(rng, 6, 16, empty_rows=(2,))
        y, used_plan = ModelExecutor().forward("m", served(package), x)
        assert used_plan
        with batch_invariant():
            np.testing.assert_array_equal(y, package.predict(x))

    def test_non_row_wise_model_never_sees_the_stack(self):
        seen = []

        def predict(x):
            seen.append(np.shape(x))
            return np.asarray(x) / np.linalg.norm(x)

        model = ServedModel(predict, False, 1)
        x = np.arange(1.0, 7.0).reshape(3, 2)
        y, used_plan = ModelExecutor().forward("m", model, x, rows=3)
        assert not used_plan
        assert seen == [(2,)] * 3
        for row, out in zip(x, y):
            np.testing.assert_array_equal(out, row / np.linalg.norm(row))

    def test_row_count_is_checked_for_stacked_batches(self):
        model = ServedModel(lambda x: np.asarray(x).sum(), True, 1)
        with pytest.raises(ValueError, match="batch of 4"):
            ModelExecutor().forward("m", model, np.ones((4, 3)), rows=4)
        # a single request has no row contract
        y, _ = ModelExecutor().forward("m", model, np.ones((4, 3)))
        assert y == 12.0
