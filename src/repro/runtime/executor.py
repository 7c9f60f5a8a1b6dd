"""One model executor shared by every serving transport.

Thread workers (:class:`~repro.runtime.orchestrator.Orchestrator`) and
worker processes (:mod:`~repro.runtime.procworker`) differ only in how a
request reaches a model and how the answer travels back.  The forward
itself is defined once, here, so the transports cannot drift:

* **plan resolution** — an in-memory map from the specialization key
  ``(name, version, row shape | ("csr", pattern digest), dtype)`` to a
  :class:`~repro.compile.CompiledPlan`, or to a memo saying the package
  cannot be traced (so the fallback decision is made once per key, not
  per call).  Plans are compiled on first sight of a key; compiling
  costs micro- to milliseconds, so nothing is persisted;
* **the forward** — the compiled plan when one resolves, otherwise the
  interpreted ``predict`` under :func:`repro.nn.batch_invariant` (or
  BLAS mode), then the row-count check for stacked batches;
* **the ``repro_compile_*`` metrics** — plans built, build seconds,
  plan-served forward seconds and untraceable fallbacks by ``reason``.
"""

from __future__ import annotations

import contextlib
import threading
import time
from typing import Any, Callable, NamedTuple, Optional

import numpy as np

from .. import obs
from ..compile import compile_package, csr_pattern_key, untraceable_reason
from ..nn.tensor import batch_invariant as _batch_invariant_mode
from ..sparse import CSRMatrix

__all__ = ["ModelExecutor", "ServedModel"]

#: resolution-map marker for specializations the plan compiler cannot
#: trace, so the fallback decision is made once per key, not per call
_UNTRACEABLE = object()


class ServedModel(NamedTuple):
    """One immutable registered version of a model.

    ``package`` is optional compilation metadata: when the registered
    callable is a surrogate package's ``predict``, the package itself
    rides along so the executor can trace-and-compile it.  Raw callables
    leave it ``None`` and always serve interpreted.
    """

    predict: Callable[[np.ndarray], np.ndarray]
    batchable: bool
    version: int
    package: Optional[Any] = None


class ModelExecutor:
    """Plan map + forward + compile metrics for one serving process."""

    def __init__(
        self, *, batch_invariant: bool = True, compile_plans: bool = True
    ) -> None:
        self.batch_invariant = bool(batch_invariant)
        self.compile_plans = bool(compile_plans)
        self._plans: dict[tuple, Any] = {}  # cc: guarded-by(_lock)
        self._lock = threading.Lock()
        self._telemetry = obs.TELEMETRY
        registry = obs.get_registry()
        self._m_plans_built = registry.counter(
            "repro_compile_plans_built_total",
            "Serving plans built by tracing",
        )
        self._m_plan_build = registry.histogram(
            "repro_compile_plan_build_seconds",
            "Seconds spent tracing + partial-evaluating one serving plan",
        )
        self._m_plan_exec = registry.histogram(
            "repro_compile_plan_exec_seconds",
            "Wall-clock seconds of forwards served by a compiled plan",
            labels=("model",),
        )
        self._m_untraceable = registry.counter(
            "repro_compile_untraceable_total",
            "Specializations that fell back to the interpreted path",
            labels=("reason",),
        )

    def _mode(self):
        """Context every interpreted forward runs under."""
        if self.batch_invariant:
            return _batch_invariant_mode()
        return contextlib.nullcontext()

    # -- plan map -----------------------------------------------------------------

    @staticmethod
    def _key(name: str, version: int, x) -> tuple:
        # the per-request row shape: single and stacked serving of one
        # model share one plan.  CSR batches key on their sparsity pattern.
        if isinstance(x, CSRMatrix):
            return (name, version, ("csr", csr_pattern_key(x)), "<f8")
        return (name, version, tuple(x.shape[-1:]), x.dtype.str)

    def has_plan(self, name: str, model: ServedModel, x) -> bool:
        """True when ``x``'s specialization already resolved to a plan.

        A pure dict probe that never compiles, so the micro-batcher may
        ask it while holding the orchestrator's ``_lock`` (lock order
        ``Orchestrator._lock`` → ``ModelExecutor._lock``; compiling never
        takes a lock, so the order is acyclic).
        """
        if not self.compile_plans or model.package is None:
            return False
        key = self._key(name, model.version, x)
        with self._lock:
            resolved = self._plans.get(key)
        return resolved is not None and resolved is not _UNTRACEABLE

    def plan_for(self, name: str, model: ServedModel, x):
        """Compiled plan for ``x``'s specialization key, or None (interpret).

        Compilation happens outside the lock on first sight of a key.  Two
        threads racing one cold key may both compile — the plans are
        bit-identical, ``setdefault`` keeps one, and the loser's work is
        discarded (a benign race, never a wrong answer).
        """
        if not self.compile_plans or model.package is None:
            return None
        key = self._key(name, model.version, x)
        with self._lock:
            resolved = self._plans.get(key)
        if resolved is None:
            plan = self._compile(model.package, x)
            with self._lock:
                resolved = self._plans.setdefault(
                    key, _UNTRACEABLE if plan is None else plan
                )
        return None if resolved is _UNTRACEABLE else resolved

    def forget(self, name: str, version: int) -> None:
        """Drop every plan and memo of ``(name, version)``.

        Called when a re-register replaces the version's weights; a
        deploy or rollback changes no weights and keeps the map.
        """
        with self._lock:
            for key in [k for k in self._plans if k[0] == name and k[1] == version]:
                del self._plans[key]

    def _compile(self, package, x):
        start = time.perf_counter()
        try:
            plan = compile_package(
                package,
                batch_invariant=self.batch_invariant,
                csr_pattern=x if isinstance(x, CSRMatrix) else None,
            )
        except Exception as exc:  # noqa: BLE001 - any compile failure means: interpret
            if self._telemetry.enabled:
                self._m_untraceable.inc(reason=untraceable_reason(exc))
            return None
        if self._telemetry.enabled:
            self._m_plan_build.observe(time.perf_counter() - start)
            self._m_plans_built.inc()
        return plan

    # -- the forward -----------------------------------------------------------------

    def forward(
        self, name: str, model: ServedModel, x, *, rows: Optional[int] = None
    ) -> tuple[np.ndarray, bool]:
        """Run ``model`` on ``x``; returns ``(output, served by a plan)``.

        ``rows`` marks ``x`` as a stacked batch of that many requests: the
        output must then carry one leading row per request, and a model
        with no plan that never declared itself row-wise serves the rows
        one by one instead of seeing the stacked input.
        """
        start = time.perf_counter()
        plan = self.plan_for(name, model, x)
        if plan is not None:
            y = np.asarray(plan.predict(x))
        elif rows is None or model.batchable:
            with self._mode():
                y = np.asarray(model.predict(x))
        else:
            with self._mode():
                y = np.stack([np.asarray(model.predict(x[i])) for i in range(rows)])
        if rows is not None and (y.ndim < 1 or y.shape[0] != rows):
            raise ValueError(
                f"model {name!r} returned shape {y.shape} for a batch of "
                f"{rows}; only row-wise models may serve stacked rows"
            )
        if plan is not None and self._telemetry.enabled:
            self._m_plan_exec.observe(time.perf_counter() - start, model=name)
        return y, plan is not None
