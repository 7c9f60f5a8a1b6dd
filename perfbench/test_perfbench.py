"""Self-tests of the benchmark itself (not part of the repository's suite).

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from common import Outcome  # noqa: E402
from run import layer_metrics  # noqa: E402
from spans import SpanRecord, SpanRecorder, self_time_by_name, self_times  # noqa: E402


# -- self time ------------------------------------------------------------------


def _span(span_id, name, start, end, parent=None):
    return SpanRecord(span_id, name, start, end, parent, None)


def test_self_time_subtracts_union_of_children():
    spans = [
        _span(1, "root", 0.0, 10.0),
        _span(2, "a", 1.0, 4.0, parent=1),
        _span(3, "b", 3.0, 6.0, parent=1),       # overlaps a: counted once
        _span(4, "c", 8.0, 12.0, parent=1),      # runs past root: clipped
        _span(5, "leaf", 2.0, 3.0, parent=2),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - (5.0 + 2.0))
    assert own[2] == pytest.approx(3.0 - 1.0)
    assert own[3] == pytest.approx(3.0)
    assert own[5] == pytest.approx(1.0)


def test_self_time_by_name_sums_spans_of_one_name():
    spans = [
        _span(1, "root", 0.0, 4.0),
        _span(2, "x", 0.5, 1.0, parent=1),
        _span(3, "x", 2.0, 3.0, parent=1),
    ]
    totals = self_time_by_name(spans)
    assert totals == pytest.approx({"root": 2.5, "x": 1.5})


def test_recorder_nests_spans_and_restores_patches():
    class Layer:
        def inner(self):
            return 1

        def outer(self):
            return self.inner() + 1

    rec = SpanRecorder()
    original = Layer.__dict__["inner"]
    rec.patch(Layer, "inner", "inner")
    rec.patch(Layer, "outer", "outer")
    rec.set_request(7)
    assert Layer().outer() == 2
    rec.unpatch()
    assert Layer.__dict__["inner"] is original
    by_name = {s.name: s for s in rec.spans}
    assert by_name["inner"].parent == by_name["outer"].span_id
    assert by_name["outer"].parent is None
    assert {s.request_id for s in rec.spans} == {7}


# -- traced-run result ------------------------------------------------------------


def test_lost_layer_measurement_fails_the_run():
    declared = {"a_us": "us/op", "b_us": "us/op", "other_us": "us/op"}
    out = Outcome()
    out.put("a_us", 3.0, "us/op")       # b_us recorded no spans
    reported = layer_metrics(out, ("a_us", "b_us"), declared)
    assert out.failed == 1 and "b_us" in out.errors[0]
    assert "b_us" not in reported       # never reported as a free layer
    assert reported["a_us"] == (3.0, "us/op")
    assert reported["other_us"] == (0.0, "us/op")   # not this workload's layer


def test_all_layers_measured_passes():
    out = Outcome()
    out.put("a_us", 3.0, "us/op")
    layer_metrics(out, ("a_us",), {"a_us": "us/op"})
    assert out.failed == 0 and not out.errors


# -- app-inline determinism ----------------------------------------------------------


@pytest.fixture(scope="module")
def built():
    import app_inline

    states, builds, _ = app_inline.build_all()
    return app_inline, states, builds


def _one_pass(app_inline, states, seed):
    out = Outcome()
    stream = app_inline.set_up(states, seed)
    for s in states:
        s.restarts = s.calls = 0
        s.exact_s = s.guarded_s = 0.0
    digests: list = []
    app_inline.timed_loop(states, stream, 0.0, out, digests)   # exactly one pass
    return {
        "digests": digests,
        "hit_rates": app_inline.app_hit_rates(states, seed),
        "restarts": [s.restarts for s in states],
        "failed": out.failed,
    }


def test_same_seed_repeats_and_other_seed_differs(built):
    app_inline, states, builds = built
    first = _one_pass(app_inline, states, 5)
    again = _one_pass(app_inline, states, 5)
    other = _one_pass(app_inline, states, 6)
    assert first["failed"] == again["failed"] == other["failed"] == 0
    assert first["digests"] == again["digests"]
    assert first["hit_rates"] == again["hit_rates"]
    assert first["restarts"] == again["restarts"]
    assert first["digests"] != other["digests"]
    stream5 = app_inline.make_stream(states, 5)
    stream6 = app_inline.make_stream(states, 6)
    assert not np.array_equal(stream5[0][1]["points"], stream6[0][1]["points"])


def test_builds_repeat_their_search(built):
    """The fixed-seed build gives the same search on a second build."""
    app_inline, _, builds = built
    from repro import AutoHPCnet, AutoHPCnetConfig

    cls, overrides = app_inline.APPS[2]
    config = AutoHPCnetConfig(seed=app_inline.BUILD_SEED, **app_inline.BUILD_BUDGET, **overrides)
    rebuilt = AutoHPCnet(config).build(cls())
    assert rebuilt.search.models_trained == builds[2].search.models_trained
    assert rebuilt.search.best_k == builds[2].search.best_k
    x = np.random.default_rng(0).standard_normal((4, rebuilt.surrogate.package.input_dim))
    assert np.array_equal(
        rebuilt.surrogate.package.predict(x), builds[2].surrogate.package.predict(x)
    )


def test_served_models_copy_the_built_surrogates(built):
    """serve-bulk's models have the shapes the app-inline builds find."""
    from models import MODEL_SPECS

    _, states, _ = built
    for s, spec in zip(states, MODEL_SPECS.values()):
        pkg = s.surrogate.package
        assert (pkg.input_dim, pkg.output_dim, pkg.topology) == (spec.width, spec.outputs, spec.topology)
        if spec.encoder is None:
            assert pkg.autoencoder is None
        else:
            widths = tuple(layer.out_features for layer in pkg.autoencoder.encoder.layers
                           if hasattr(layer, "out_features"))
            assert (widths, pkg.autoencoder.activation) == spec.encoder
