"""Shared fixtures for the evaluation benchmarks (§7 of the paper).

Every bench regenerates one table or figure.  Surrogate builds are
expensive, so they happen once per pytest session in the ``all_builds``
fixture and are shared by Fig. 5, Fig. 6, Table 3 and the overhead benches.

Run with::

    pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

import os
import platform

import numpy as np
import pytest

from repro import AutoHPCnet, AutoHPCnetConfig
from repro.apps import ALL_APPLICATIONS, make_application

#: evaluation protocol constants (paper: 2000 problems, mu = 10 %)
N_EVAL_PROBLEMS = 100
MU = 0.10
EVAL_SEED = 2023

#: full-budget configuration used by every bench build
BENCH_CONFIG = AutoHPCnetConfig(
    n_samples=600,
    outer_iterations=3,
    inner_trials=4,
    num_epochs=150,
    ae_epochs=50,
    quality_problems=20,
    quality_loss=MU,
    encoding_loss=0.6,
    seed=0,
)

APP_NAMES = tuple(cls.name for cls in ALL_APPLICATIONS)


@pytest.fixture(scope="session")
def machine() -> dict:
    """Machine and software context recorded in every ``BENCH_*.json``.

    Speed and bit-invariance are properties of the BLAS build, so a
    committed figure carries the same fields ``perfbench/run.py`` prints.
    ``blas_threads`` is ``OPENBLAS_NUM_THREADS`` (``None``: BLAS default).
    """
    blas = {}
    try:
        config = np.show_config(mode="dicts")
        blas = dict(config.get("Build Dependencies", {}).get("blas", {}))
    except (TypeError, AttributeError):  # numpy too old for mode="dicts"
        pass
    return {
        "nproc": os.cpu_count(),
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def eval_rng() -> np.random.Generator:
    """Fresh generator for the shared evaluation problem set."""
    return np.random.default_rng(EVAL_SEED)


@pytest.fixture(scope="session")
def all_builds():
    """Auto-HPCnet surrogates for all 11 applications (built once)."""
    builds = {}
    for name in APP_NAMES:
        app = make_application(name)
        builds[name] = AutoHPCnet(BENCH_CONFIG).build(app)
    return builds


@pytest.fixture(scope="session")
def amg_build(all_builds):
    return all_builds["AMG"]
