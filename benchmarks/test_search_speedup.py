"""2D-NAS throughput benchmark: sequential vs parallel + warm AE cache.

The ISSUE-4 acceptance bar: with >= 2 trial workers and a warm autoencoder
artifact cache, the hierarchical search must finish in at most half the
wall-clock of the sequential cold configuration — while producing the
*identical* best candidate (same f_c, same f_e, same topology).

Where the speedup comes from:

* the warm ``ae_cache`` skips every outer iteration's autoencoder training
  and encode pass (the dominant fixed cost of an iteration — the input here
  is 64-dimensional and the AE budget deliberately generous), and
* the batch of ``parallel_trials`` proposed per constant-liar ask is
  evaluated over 2 thread ranks instead of 1.

Both configurations run the same ``parallel_trials`` so the proposal
schedule is identical; the determinism contract (trial identity fixed at
ask time, results told in index order, per-K AE seeds) guarantees the
bit-identical best.  The parallel run's cache is pre-warmed by a throwaway
search into the same checkpoint directory, after which the search state and
best package are deleted so the measured run performs the full search with
only the ``ae_cache/`` tier retained.

Results, with the machine fingerprint from ``benchmarks/conftest.py``,
are written to ``BENCH_search.json`` (override with
``REPRO_SEARCH_BENCH_JSON``).

Environment knobs (the CI smoke job runs a reduced configuration):

* ``REPRO_SEARCH_BENCH_MIN_SPEEDUP`` — assertion threshold (default 2.0)
* ``REPRO_SEARCH_BENCH_AE_EPOCHS``   — AE training budget (default 150)
* ``REPRO_SEARCH_BENCH_WORKERS``     — parallel config's trial workers (default 2)

Run standalone with::

    PYTHONPATH=src python -m pytest benchmarks/test_search_speedup.py -q -s
"""

from __future__ import annotations

import json
import os
import shutil
import time

import numpy as np
import pytest

from repro.nas import Hierarchical2DSearch, InputDimSpace, SearchConfig, TopologySpace

MIN_SPEEDUP = float(os.environ.get("REPRO_SEARCH_BENCH_MIN_SPEEDUP", "2.0"))
AE_EPOCHS = int(os.environ.get("REPRO_SEARCH_BENCH_AE_EPOCHS", "150"))
WORKERS = int(os.environ.get("REPRO_SEARCH_BENCH_WORKERS", "2"))
JSON_PATH = os.environ.get("REPRO_SEARCH_BENCH_JSON", "BENCH_search.json")

DIN, N_SAMPLES = 64, 240
SPACE = TopologySpace(
    max_layers=2, width_choices=(8, 16), activations=("relu", "tanh"),
    allow_residual=False,
)
K_CHOICES = (4, 8, 16)


def search_config(**overrides) -> SearchConfig:
    params = dict(
        outer_iterations=3, inner_trials=4, parallel_trials=2,
        # the tight sigma bound keeps the AE training at its full epoch
        # budget — the workload the cache exists to absorb
        quality_loss=0.9, encoding_loss=0.01,
        num_epochs=8, ae_epochs=AE_EPOCHS,
        bayesian_init=1, seed=0,
    )
    params.update(overrides)
    return SearchConfig(**params)


def run_search(x, y, *, checkpoint_dir=None, **overrides):
    search = Hierarchical2DSearch(
        SPACE, InputDimSpace(choices=K_CHOICES), search_config(**overrides)
    )
    start = time.perf_counter()
    result = search.run(x, y, checkpoint_dir=checkpoint_dir)
    return result, time.perf_counter() - start


@pytest.fixture(scope="module")
def search_data():
    rng = np.random.default_rng(42)
    x = rng.standard_normal((N_SAMPLES, DIN))
    w = rng.standard_normal((DIN, 2))
    return x, x @ w


class TestSearchSpeedup:
    def test_parallel_cached_vs_sequential(self, search_data, tmp_path, machine):
        x, y = search_data
        cache_dir = tmp_path / "ckpt"

        # warm the artifact cache, then forget everything but ae_cache/ so
        # the measured run repeats the full search with warm artifacts
        run_search(x, y, checkpoint_dir=cache_dir, trial_workers=1)
        (cache_dir / "search_state.json").unlink()
        shutil.rmtree(cache_dir / "best_package")

        sequential, t_seq = run_search(x, y, ae_cache=False, trial_workers=1)
        parallel, t_par = run_search(
            x, y, checkpoint_dir=cache_dir, trial_workers=WORKERS
        )
        speedup = t_seq / t_par

        assert parallel.best is not None and sequential.best is not None
        assert parallel.best.f_c == sequential.best.f_c
        assert parallel.best.f_e == sequential.best.f_e
        assert parallel.best.topology == sequential.best.topology
        assert parallel.best_k == sequential.best_k

        report = {
            "sequential_s": t_seq,
            "parallel_s": t_par,
            "speedup": speedup,
            "min_speedup": MIN_SPEEDUP,
            "trial_workers": WORKERS,
            "parallel_trials": 2,
            "ae_epochs": AE_EPOCHS,
            "outer_iterations": 3,
            "inner_trials": 4,
            "input_dim": DIN,
            "k_choices": list(K_CHOICES),
            "best": {
                "k": parallel.best_k,
                "f_c": parallel.best.f_c,
                "f_e": parallel.best.f_e,
                "topology": parallel.best.topology.describe(),
            },
            "machine": machine,
        }
        with open(JSON_PATH, "w") as fh:
            json.dump(report, fh, indent=2)
        print(
            f"\nsequential: {t_seq:.2f}s | parallel+cache ({WORKERS} workers): "
            f"{t_par:.2f}s | speedup {speedup:.2f}x -> {JSON_PATH}"
        )
        assert speedup >= MIN_SPEEDUP, (
            f"parallel+cached search only {speedup:.2f}x faster than "
            f"sequential (required {MIN_SPEEDUP}x with {WORKERS} workers)"
        )
