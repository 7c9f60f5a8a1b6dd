"""Helpers shared by the workloads: statistics, memory, fingerprint, results."""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

#: BLAS threads every run uses; set before numpy loads (see run.py).  One
#: thread keeps a run's timings independent of what else shares the cores.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: where a run keeps its registry and plan directories (removed at exit)
WORK_DIR = Path(".perfbench_work")
#: where traced runs write their spans
OUT_DIR = Path(".perfbench_out")
#: the orchestrator's tensor-store size; a run must leave it where it found it
STORE_GAUGE = "repro_orchestrator_tensor_store_size"


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100]); NaN when empty."""
    if len(values) == 0:
        return float("nan")
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values) -> float:
    return float(statistics.median(values)) if len(values) else float("nan")


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest waited child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def repeat_setup(reps: int, setup: Callable[[bool], object]) -> tuple[list[float], object]:
    """Run ``setup(last)`` ``reps`` times; returns the durations and the
    last call's result (earlier results are discarded by ``setup`` itself)."""
    durations = []
    result = None
    for i in range(reps):
        start = time.perf_counter()
        result = setup(i == reps - 1)
        durations.append(time.perf_counter() - start)
    return durations, result


def stop_processes(join_timeout: float = 5.0) -> None:
    """Stop and reap every process this run started.

    Worker processes a failed workload left behind are terminated.  The
    multiprocessing resource tracker, which the first spawned worker
    starts and which would otherwise outlive the run, is stopped and
    waited for, so nothing the benchmark started is left when it exits.
    """
    for proc in multiprocessing.active_children():
        proc.terminate()
        proc.join(join_timeout)
        if proc.is_alive():
            proc.kill()
            proc.join()
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()  # closes its pipe, then waits


def fingerprint(seed: int, workload: str) -> dict:
    """Machine and software context recorded with every result."""
    blas = {}
    try:
        config = np.show_config(mode="dicts")
        blas = dict(config.get("Build Dependencies", {}).get("blas", {}))
    except (TypeError, AttributeError):  # numpy too old for mode="dicts"
        pass
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_pinned": sorted(os.sched_getaffinity(0)),
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_commit": _git_commit(),
        "source_digest": source_digest(),
    }


def _git_commit() -> Optional[str]:
    """HEAD of the checkout when it is a git work tree, else None."""
    head = Path(".git/HEAD")
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = Path(".git") / ref[5:]
        return target.read_text().strip() if target.is_file() else None
    return ref


def source_digest() -> str:
    """SHA-256 over the program's sources: identifies the code measured
    even where the checkout carries no git metadata."""
    h = hashlib.sha256()
    for path in sorted(Path("src").rglob("*.py")):
        h.update(str(path).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def shm_segments() -> set[str]:
    """Shared-memory segments the serving runtime names ``repro_*``."""
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("repro_")}
    except FileNotFoundError:
        return set()


def _metric(name: str):
    """A ``repro.obs`` metric by name, or None when never registered."""
    from repro import obs   # this module loads before src/ is on the path

    return obs.get_registry().get(name)


def histogram_totals(name: str) -> tuple[int, float]:
    """(count, sum) over every label series of one histogram."""
    metric = _metric(name)
    if metric is None:
        return 0, 0.0
    series = metric.raw_series().values()
    return sum(c for _, _, c in series), sum(s for _, s, _ in series)


def counter_total(name: str) -> float:
    """Sum over every label series of one counter."""
    metric = _metric(name)
    return metric.total() if metric is not None else 0.0


def gauge_value(name: str) -> float:
    """Value of an unlabelled gauge (0 when never set)."""
    metric = _metric(name)
    return metric.value() if metric is not None else 0.0


def fresh_dir(name: str) -> Path:
    path = WORK_DIR / f"{name}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def digest_outputs(outputs: dict) -> bytes:
    """Order-stable digest of one outputs dict (arrays and scalars)."""
    h = hashlib.sha256()
    for key in sorted(outputs):
        h.update(key.encode())
        h.update(np.ascontiguousarray(np.asarray(outputs[key], dtype=np.float64)).tobytes())
    return h.digest()


@dataclass
class Outcome:
    """What a workload hands back to run.py."""

    attempted: int = 0
    failed: int = 0
    #: name -> (value, unit) for the metrics the run mode reports
    metrics: dict = field(default_factory=dict)
    #: human-readable lines printed before the result line
    report: list = field(default_factory=list)
    #: correctness-gate failures, one message each
    errors: list = field(default_factory=list)
    #: the traced run's span recorder, written out by run.py
    spans: object = None

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.errors) < 20:
            self.errors.append(message)

    def line(self, text: str) -> None:
        self.report.append(text)
