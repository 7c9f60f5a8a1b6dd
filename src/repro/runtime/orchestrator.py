"""In-memory tensor/model store: the SmartSim Orchestrator substitute (§6.3).

The paper couples HPC applications to NN runtimes through a Redis-based
in-memory store (SmartSim Orchestrator + RedisAI): applications ``put``
input tensors under keys, request ``run_model`` on a registered model, and
``unpack`` the output tensors.  This module reproduces those semantics with
a thread-safe in-process store plus a pool of background worker threads
that service inference requests from a queue (the "server" the paper runs
on the GPU node).

Serving is **dynamically micro-batched**: each worker drains the request
queue into a batch of up to ``max_batch_size`` requests (waiting at most
``max_wait_ms`` for the batch to fill), groups compatible requests — same
model, same input shape and dtype, single 1-D input tensor — stacks them
into one ``(B, F)`` array, runs a single vectorized forward pass, and
scatters the output rows back to the per-request output keys.  Batching
is opt-in per model (``register_model(..., batchable=True)`` declares the
callable row-wise; ``Client.set_model`` opts surrogate packages in
automatically).  Requests that cannot batch (multi-key inputs, 2-D
inputs, models not declared batchable) fall back to the per-request path
inside the same drain.  Model forwards
run inside :func:`repro.nn.batch_invariant`, so batched outputs are
bit-identical to per-request outputs regardless of how the queue happened
to be sliced into batches.

The model registry is **versioned**: ``register_model`` may hold several
versions of one name, exactly one of which is *active* (serving).
``deploy(name, version)`` hot-swaps the active version atomically and
``rollback(name)`` returns to the previously active one.  Requests are
pinned to the active version at *admission* (``submit``/``submit_many``),
so in-flight and already-batched requests always finish on the version
they were admitted under while new requests see the new version — a swap
never mixes versions inside one vectorized forward.

Deployment is a family of **deploy-policies**: ``deploy`` (all traffic),
``rollback`` (previous version), and ``canary(name, version, fraction)``,
which routes a deterministic hash-based slice of admissions to a
candidate version while the incumbent keeps the rest.  The slice is
decided at admission time — the same place version pinning happens — so
canary routing behaves identically in thread and process (sharded)
serving, and in-flight requests finish on whichever version admitted
them.  ``record_outcome(name, version, valid)`` feeds per-version
windowed hit-rate trackers (the guarded f_e signal) and
``canary_status`` exposes them so a controller (see
:mod:`repro.lifecycle`) can auto-promote or auto-roll-back.  Unknown model names
raise :class:`UnknownModelError` (a ``KeyError`` naming the registered
models), surfaced through ``InferenceFuture.result`` and
``Client.run_model_batch`` like any other serving error.

Telemetry: submit/serve/fail counters, a queue-depth gauge, a tensor-store
size gauge, a per-model inference latency histogram, plus batch-size and
batch-wait histograms for the micro-batcher — all on the process-global
registry (:mod:`repro.obs`).  Deployments move the
``repro_registry_active_version`` gauge and the swap/rollback counters.
When telemetry is disabled the hot paths pay one attribute check.
"""

from __future__ import annotations

import hashlib
import pickle
import queue
import threading
import time
import warnings
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple, Optional

import numpy as np

from .. import obs
from ..sparse import CSRMatrix
from .executor import ModelExecutor, ServedModel

__all__ = [
    "Orchestrator",
    "InferenceRequest",
    "OrchestratorStopped",
    "UnknownModelError",
    "WorkerCrashedError",
    "CanaryStatus",
]

#: batch-size histogram buckets: powers of two up to a deep GPU-style batch
BATCH_SIZE_BUCKETS: tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256)


class OrchestratorStopped(RuntimeError):
    """Raised to waiters whose request was still queued when stop() ran."""


class WorkerCrashedError(RuntimeError):
    """The worker process serving this request died before answering.

    Process mode delivers it to every request pending on the dead shard
    as soon as the shard's result pipe reports EOF, so callers fail fast
    instead of waiting out their own timeouts.  The shard is not
    respawned: later requests routed to it fail the same way.
    """


class UnknownModelError(KeyError):
    """No servable model under the requested name.

    Subclasses :class:`KeyError` so existing ``except KeyError`` handlers
    keep working, but carries the requested name and the names that *are*
    registered so a typo is diagnosable from the message alone.
    """

    def __init__(self, model_name: str, registered: tuple[str, ...] = ()) -> None:
        self.model_name = model_name
        self.registered = tuple(sorted(registered))
        if self.registered:
            hint = "registered models: " + ", ".join(
                repr(n) for n in self.registered
            )
        else:
            hint = "no models are registered"
        super().__init__(f"no model registered under {model_name!r} ({hint})")

    def __str__(self) -> str:  # KeyError would repr() the message
        return self.args[0]


class _OutcomeWindow:
    """Ring buffer of recent request outcomes for one (model, version).

    Mutated only under the owning orchestrator's ``_lock`` (it lives
    inside a ``_ModelEntry``), so it carries no lock of its own.
    """

    __slots__ = ("_hits",)

    def __init__(self, size: int) -> None:
        self._hits: "deque[bool]" = deque(maxlen=max(1, int(size)))

    def record(self, ok: bool) -> None:
        self._hits.append(bool(ok))

    @property
    def count(self) -> int:
        return len(self._hits)

    @property
    def hit_rate(self) -> Optional[float]:
        if not self._hits:
            return None
        return sum(self._hits) / len(self._hits)


class CanaryStatus(NamedTuple):
    """Snapshot of one in-flight canary experiment."""

    model: str
    incumbent: Optional[int]
    candidate: int
    fraction: float
    incumbent_count: int
    incumbent_hit_rate: Optional[float]
    candidate_count: int
    candidate_hit_rate: Optional[float]


def _canary_slot(name: str, seq: int) -> float:
    """Deterministic admission slot in ``[0, 1)`` for canary slicing.

    Hashing (name, admission sequence) instead of drawing random numbers
    makes the slice reproducible — replaying the same admission order
    routes the same requests to the candidate, in thread and process
    serving alike.
    """
    digest = hashlib.sha256(f"{name}:{seq}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


@dataclass
class _ModelEntry:
    """All versions of one model name plus its deployment pointers."""

    versions: dict[int, ServedModel] = field(default_factory=dict)
    active: Optional[int] = None
    previous: Optional[int] = None
    #: canary deploy-policy pointers: a candidate version receiving a
    #: deterministic ``canary_fraction`` slice of admissions (None: no
    #: canary in flight).  ``canary_seq`` numbers admissions for the
    #: hash-based slice.  All mutated under the orchestrator's ``_lock``.
    canary: Optional[int] = None
    canary_fraction: float = 0.0
    canary_seq: int = 0
    #: per-version windowed validation outcomes (guarded f_e / HitRate)
    outcomes: dict[int, _OutcomeWindow] = field(default_factory=dict)


@dataclass
class InferenceRequest:
    """One queued model invocation (server mode).

    ``model`` is the version the request was admitted under — pinned by
    ``submit``/``submit_many`` so a ``deploy`` between admission and
    serving cannot change which weights answer this request.
    """

    model_name: str
    input_keys: tuple[str, ...]
    output_keys: tuple[str, ...]
    done: threading.Event = field(default_factory=threading.Event)
    error: Optional[Exception] = None
    model: Optional[ServedModel] = None


class _Group(NamedTuple):
    """A vectorizable run: requests plus their already-fetched input rows."""

    model: ServedModel
    requests: list[InferenceRequest]
    inputs: list[np.ndarray]


class _RequestQueue:
    """Deque + condition variable tuned for micro-batched serving.

    ``queue.Queue`` pays one mutex acquisition per ``put``/``get``; at
    thousands of requests per second that becomes a measurable slice of
    the serving budget.  This queue adds two bulk primitives — ``put_many``
    (one lock for a whole pipeline of requests) and ``get_batch`` (one
    lock to drain an entire micro-batch, waiting up to the deadline for
    stragglers) — and treats ``None`` as the worker-exit sentinel.
    """

    def __init__(self) -> None:
        self._items: "deque[Optional[InferenceRequest]]" = deque()  # cc: guarded-by(_cond)
        self._cond = threading.Condition()

    def put(self, item: Optional[InferenceRequest]) -> None:
        with self._cond:
            self._items.append(item)
            self._cond.notify()

    def put_many(self, items: list[InferenceRequest]) -> None:
        with self._cond:
            self._items.extend(items)
            self._cond.notify_all()

    def get_nowait(self) -> Optional[InferenceRequest]:
        with self._cond:
            if not self._items:
                raise queue.Empty
            return self._items.popleft()

    def qsize(self) -> int:
        # len() of a deque is GIL-atomic, but the value would be stale by
        # the time a caller acts on it; taking the condition keeps qsize
        # ordered after any put/drain it races with
        with self._cond:
            return len(self._items)

    def get_batch(
        self, max_items: int, max_wait: float
    ) -> tuple[Optional[list[InferenceRequest]], float]:
        """Drain up to ``max_items`` requests as one batch.

        Blocks until at least one request (or sentinel) arrives.  Returns
        ``(None, 0.0)`` when the first item is the stop sentinel; a
        sentinel found mid-drain is pushed back so the pool still sees one
        sentinel per worker.  The second element is the time spent waiting
        for stragglers (the batch-wait histogram's sample); a deep queue
        drains without touching the clock.
        """
        with self._cond:
            while not self._items:
                self._cond.wait()
            first = self._items.popleft()
            if first is None:
                return None, 0.0
            batch = [first]
            deadline: Optional[float] = None
            wait_started: Optional[float] = None
            while len(batch) < max_items:
                if self._items:
                    item = self._items.popleft()
                    if item is None:
                        self._items.appendleft(None)
                        self._cond.notify()
                        break
                    batch.append(item)
                    continue
                now = time.monotonic()
                if deadline is None:
                    deadline = now + max_wait
                    wait_started = now
                remaining = deadline - now
                if remaining <= 0 or not self._cond.wait(remaining):
                    break
            waited = time.monotonic() - wait_started if wait_started else 0.0
            return batch, waited


class Orchestrator:
    """Key-value tensor store with a model registry and a batching server.

    ``port`` is cosmetic (API parity with ``Orchestrator(port=REDIS_PORT)``
    in Listing 2); everything lives in process memory.

    Serving knobs:

    * ``max_batch_size`` — most requests one vectorized forward may carry.
      ``1`` disables micro-batching (strict per-request serving).
    * ``max_wait_ms`` — how long a worker holding a partial batch waits for
      more requests before dispatching what it has.  The queue only pays
      this when it runs dry; a deep queue drains without waiting.
    * ``num_workers`` — serving threads pulling batches concurrently.
    * ``batch_invariant`` — run model forwards under
      :func:`repro.nn.batch_invariant` so outputs are bit-identical no
      matter how requests were batched (default).  Turn off to let large
      models keep BLAS ``gemm`` speed at the cost of last-ulp
      reproducibility across batch sizes.
    * ``compile_plans`` — trace-and-compile surrogate packages into flat
      :class:`~repro.compile.CompiledPlan` execution plans per
      specialization key (model, version, input shape, dtype,
      batch-invariance) and serve through them; plan outputs are
      bit-identical to the interpreted forward.  Models the compiler
      cannot trace fall back to the interpreted path transparently.
      Plans live in memory only, in the
      :class:`~repro.runtime.executor.ModelExecutor` shared with process
      workers; compiling is cheaper than any disk load.
    * ``num_processes`` — ``> 0`` switches the serving pool from threads
      to worker *processes*: models shard across a consistent-hash ring
      (:class:`~repro.runtime.sharding.ProcessShardPool`), tensors cross
      the boundary through pooled shared-memory segments, and admission
      control bounds each shard queue at ``max_queue_depth`` rows with
      backpressure up to ``admission_timeout_ms`` before load-shedding a
      typed :class:`~repro.runtime.sharding.OverloadError`.  Models must
      be picklable in this mode (surrogate packages are).  ``0`` keeps
      the in-process thread pool (default).
    """

    def __init__(
        self,
        port: int = 6379,
        *,
        max_batch_size: int = 32,
        max_wait_ms: float = 2.0,
        num_workers: int = 1,
        batch_invariant: bool = True,
        compile_plans: bool = True,
        num_processes: int = 0,
        max_queue_depth: int = 512,
        admission_timeout_ms: float = 50.0,
        start_method: str = "spawn",
        outcome_window: int = 128,
    ) -> None:
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if max_wait_ms < 0:
            raise ValueError("max_wait_ms must be >= 0")
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if num_processes < 0:
            raise ValueError("num_processes must be >= 0")
        if outcome_window < 1:
            raise ValueError("outcome_window must be >= 1")
        self.port = int(port)
        self.outcome_window = int(outcome_window)
        self.max_batch_size = int(max_batch_size)
        self.max_wait_ms = float(max_wait_ms)
        self.num_workers = int(num_workers)
        self.batch_invariant = bool(batch_invariant)
        self.compile_plans = bool(compile_plans)
        self.num_processes = int(num_processes)
        self._pool = None
        if self.num_processes:
            # deferred import: sharding pulls in procworker, which this
            # module must not depend on at import time
            from .sharding import ProcessShardPool

            self._pool = ProcessShardPool(
                self.num_processes,
                max_queue_depth=max_queue_depth,
                admission_timeout_ms=admission_timeout_ms,
                start_method=start_method,
                batch_invariant=self.batch_invariant,
                compile_plans=self.compile_plans,
            )
        self._tensors: dict[str, np.ndarray] = {}  # cc: guarded-by(_lock)
        self._models: dict[str, _ModelEntry] = {}  # cc: guarded-by(_lock)
        self._lock = threading.RLock()
        # the one forward path (plans keyed by pinned version, so deploy/
        # rollback need no invalidation: a swapped-in version simply
        # resolves its own entries)
        self._executor = ModelExecutor(
            batch_invariant=self.batch_invariant,
            compile_plans=self.compile_plans,
        )
        self._queue = _RequestQueue()
        self._workers: list[threading.Thread] = []  # cc: guarded-by(_state_lock)
        # bare reads (is_running, the worker loop) see a GIL-atomic bool;
        # transitions are serialized by _state_lock
        self._running = False          # cc: guarded-by(_state_lock, atomic-reads)
        # serializes start/stop/submit state transitions so no request can
        # slip into the queue after stop() has drained it
        self._state_lock = threading.Lock()
        self._telemetry = obs.TELEMETRY
        registry = obs.get_registry()
        self._m_submitted = registry.counter(
            "repro_orchestrator_submitted_total",
            "Inference requests queued via submit()",
        )
        self._m_served = registry.counter(
            "repro_orchestrator_served_total",
            "Inference requests completed successfully by the worker",
        )
        self._m_failed = registry.counter(
            "repro_orchestrator_failed_total",
            "Inference requests that errored or were abandoned by stop()",
        )
        self._m_queue_depth = registry.gauge(
            "repro_orchestrator_queue_depth",
            "Inference requests waiting in the server queue",
        )
        self._m_tensors = registry.gauge(
            "repro_orchestrator_tensor_store_size",
            "Tensors currently held in the store",
        )
        self._m_latency = registry.histogram(
            "repro_orchestrator_inference_seconds",
            "run_model wall-clock seconds per registered model",
            labels=("model",),
        )
        self._m_batch_size = registry.histogram(
            "repro_orchestrator_batch_size",
            "Requests per micro-batch drained by a serving worker",
            buckets=BATCH_SIZE_BUCKETS,
        )
        self._m_batch_wait = registry.histogram(
            "repro_orchestrator_batch_wait_seconds",
            "Seconds a worker spent collecting each micro-batch",
        )
        self._m_batched_rows = registry.counter(
            "repro_orchestrator_batched_rows_total",
            "Requests served through a vectorized (B, F) forward pass",
        )
        self._m_stuck_workers = registry.gauge(
            "repro_orchestrator_stuck_workers",
            "Serving workers that failed to join within the stop() timeout",
        )
        self._m_active_version = registry.gauge(
            "repro_registry_active_version",
            "Version currently serving for each registered model",
            labels=("model",),
        )
        self._m_swaps = registry.counter(
            "repro_registry_swaps_total",
            "Deployments that changed a model's active version",
            labels=("model",),
        )
        self._m_rollbacks = registry.counter(
            "repro_registry_rollbacks_total",
            "Rollbacks to a model's previously active version",
            labels=("model",),
        )
        self._m_canary_version = registry.gauge(
            "repro_canary_version",
            "Version receiving the canary traffic slice (0 = no canary)",
            labels=("model",),
        )
        self._m_canary_fraction = registry.gauge(
            "repro_canary_fraction",
            "Fraction of admissions routed to the canary version",
            labels=("model",),
        )
        self._m_canary_requests = registry.counter(
            "repro_canary_requests_total",
            "Admissions routed while a canary was in flight, by role",
            labels=("model", "role"),
        )
        self._m_canary_hit_rate = registry.gauge(
            "repro_canary_hit_rate",
            "Windowed validation hit rate per serving role during a canary",
            labels=("model", "role"),
        )
        self._m_canary_promotions = registry.counter(
            "repro_canary_promotions_total",
            "Canary candidates promoted to the active version",
            labels=("model",),
        )
        self._m_canary_rollbacks = registry.counter(
            "repro_canary_rollbacks_total",
            "Canary candidates rolled back without promotion",
            labels=("model",),
        )

    # -- tensor store ---------------------------------------------------------

    @staticmethod
    def _coerce(value) -> Any:
        if isinstance(value, CSRMatrix):
            # CSR batches pass through whole: the dataclass is frozen and
            # its value arrays are never handed back out writable
            return value
        value = np.asarray(value)
        if np.issubdtype(value.dtype, np.floating):
            # dtype-preserving defensive copy: float32 HPC data stays
            # float32 instead of silently doubling its footprint
            return np.array(value, copy=True)
        return value.astype(np.float64)

    def put_tensor(self, key: str, value: np.ndarray) -> None:
        value = self._coerce(value)
        with self._lock:
            self._tensors[key] = value
            if self._telemetry.enabled:
                self._m_tensors.set(len(self._tensors))

    def get_tensor(self, key: str) -> np.ndarray:
        """Fetch a stored tensor as a *read-only view*.

        ``put_tensor`` copies defensively on the way in; handing the
        internal array back out would let callers mutate the store in
        place.  The view is zero-copy — callers that need to write take a
        ``.copy()`` (``Client.unpack_tensor`` already does).
        """
        with self._lock:
            try:
                value = self._tensors[key]
            except KeyError:
                raise KeyError(f"no tensor stored under key {key!r}") from None
        return self._readonly(value)

    @staticmethod
    def _readonly(value) -> Any:
        if isinstance(value, CSRMatrix):
            return value  # frozen dataclass: no writable view to lock down
        view = value.view()
        view.flags.writeable = False
        return view

    def get_tensors(self, keys: list[str]) -> list[np.ndarray]:
        """Bulk :meth:`get_tensor`: one lock acquisition for the whole list."""
        with self._lock:
            try:
                values = [self._tensors[k] for k in keys]
            except KeyError as exc:
                raise KeyError(f"no tensor stored under key {exc.args[0]!r}") from None
        return [self._readonly(value) for value in values]

    def delete_tensors(self, keys: list[str]) -> None:
        """Bulk :meth:`delete_tensor`: one lock acquisition for the whole list."""
        if not keys:
            return
        with self._lock:
            for key in keys:
                self._tensors.pop(key, None)
            if self._telemetry.enabled:
                self._m_tensors.set(len(self._tensors))

    def delete_tensor(self, key: str) -> None:
        with self._lock:
            self._tensors.pop(key, None)
            if self._telemetry.enabled:
                self._m_tensors.set(len(self._tensors))

    def tensor_exists(self, key: str) -> bool:
        with self._lock:
            return key in self._tensors

    # -- model registry -----------------------------------------------------------

    def register_model(
        self,
        name: str,
        predict: Callable[[np.ndarray], np.ndarray],
        *,
        batchable: bool = False,
        version: Optional[int] = None,
        deploy: bool = True,
        package: Optional[Any] = None,
    ) -> int:
        """Register a callable model (RedisAI's ``AI.MODELSET`` analogue).

        Each call registers one *version* of ``name`` (the next number by
        default) and returns it.  With ``deploy=True`` (default) the new
        version becomes active immediately — re-registering a name keeps
        the historic hot-swap behaviour.  ``deploy=False`` stages the
        version without serving it, for an explicit :meth:`deploy` later
        (and :meth:`rollback` afterwards if it misbehaves).

        ``batchable`` declares that the callable is row-wise: for stacked
        1-D inputs ``X`` of shape ``(B, F)`` it returns ``B`` output rows
        such that row ``i`` equals ``predict(X[i])``.  Every
        :class:`~repro.nas.package.SurrogatePackage` and element-wise
        function qualifies (``Client.set_model`` opts packages in
        automatically); batching is **opt-in** because a model that mixes
        rows but still returns ``B`` output rows — e.g.
        ``lambda x: x / np.linalg.norm(x)``, which normalizes over the
        whole stack — would silently produce wrong per-request results if
        batched by default.  Raw callables stay on the per-request path
        unless the caller declares them row-wise.

        ``package`` (a :class:`~repro.nas.package.SurrogatePackage`) opts
        the version into trace-and-compile serving.
        """
        if not callable(predict):
            raise TypeError("model must be callable")
        blob: Optional[bytes] = None
        if self._pool is not None:
            # pickle BEFORE registering locally so an unservable model
            # fails cleanly instead of leaving front-end/worker split-brain
            target = package if package is not None else predict
            try:
                blob = pickle.dumps(target)
            except Exception as exc:
                raise TypeError(
                    f"model {name!r} cannot serve with num_processes > 0: "
                    f"it does not pickle ({exc}); register a module-level "
                    "callable or a surrogate package"
                ) from exc
        with self._lock:
            entry = self._models.setdefault(name, _ModelEntry())
            if version is None:
                version = max(entry.versions, default=0) + 1
            version = int(version)
            if version < 1:
                raise ValueError("model versions start at 1")
            replaced = version in entry.versions
            entry.versions[version] = ServedModel(
                predict, bool(batchable), version, package
            )
            if replaced:
                # the version number now points at different weights: every
                # memoized resolution (plans included) is stale
                self._executor.forget(name, version)
            if deploy:
                self._activate(name, entry, version)
        if blob is not None:
            # every version ships to its ring-assigned shard at register
            # time, so deploy()/rollback() stay pure front-end pointer
            # flips — the worker already holds whatever gets activated
            self._pool.register(name, version, blob, bool(batchable))
        return version

    def deploy(self, name: str, version: int) -> int:
        """Atomically make ``version`` the serving version of ``name``.

        Requests admitted before the swap finish on their pinned version;
        requests admitted after it see the new one.  Returns the deployed
        version number.
        """
        with self._lock:
            entry = self._entry_locked(name)
            version = int(version)
            if version not in entry.versions:
                raise ValueError(
                    f"model {name!r} has no version {version}; "
                    f"available: {sorted(entry.versions)}"
                )
            self._activate(name, entry, version)
            self._clear_canary_locked(name, entry)
        return version

    def rollback(self, name: str) -> int:
        """Swap ``name`` back to its previously active version.

        The pointers exchange, so a second ``rollback`` undoes the first.
        Returns the version now serving.
        """
        with self._lock:
            entry = self._entry_locked(name)
            if entry.previous is None:
                raise ValueError(
                    f"model {name!r} has no previous version to roll back to"
                )
            target = entry.previous
            entry.previous, entry.active = entry.active, target
            self._clear_canary_locked(name, entry)
            if self._telemetry.enabled:
                self._m_active_version.set(target, model=name)
                self._m_rollbacks.inc(model=name)
        return target

    # -- canary deploy-policy -----------------------------------------------------

    def canary(self, name: str, version: int, fraction: float) -> int:
        """Route a deterministic ``fraction`` slice of admissions to ``version``.

        The incumbent stays active and keeps the remaining traffic; the
        candidate serves the slice.  Slicing happens at admission time —
        the same place version pinning happens — so it behaves identically
        in thread and process (sharded) serving, and an already-admitted
        request never migrates between versions.  ``end_canary`` finishes
        the experiment (promote or roll back); a manual ``deploy`` or
        ``rollback`` also cancels it.
        """
        version = int(version)
        fraction = float(fraction)
        if not 0.0 < fraction <= 1.0:
            raise ValueError("canary fraction must be in (0, 1]")
        with self._lock:
            entry = self._entry_locked(name)
            if version not in entry.versions:
                raise ValueError(
                    f"model {name!r} has no version {version}; "
                    f"available: {sorted(entry.versions)}"
                )
            if entry.active is None:
                raise ValueError(
                    f"model {name!r} has no active incumbent to canary against"
                )
            if version == entry.active:
                raise ValueError(
                    f"version {version} of model {name!r} is already active"
                )
            entry.canary = version
            entry.canary_fraction = fraction
            entry.canary_seq = 0
            # fresh windows for both roles: the comparison must reflect the
            # experiment's own traffic, not outcomes recorded before it
            entry.outcomes[version] = _OutcomeWindow(self.outcome_window)
            entry.outcomes[entry.active] = _OutcomeWindow(self.outcome_window)
            if self._telemetry.enabled:
                self._m_canary_version.set(version, model=name)
                self._m_canary_fraction.set(fraction, model=name)
        return version

    def end_canary(self, name: str, *, promote: bool) -> int:
        """Finish the in-flight canary of ``name``; returns the active version.

        ``promote=True`` activates the candidate (the incumbent becomes
        ``previous``, so a later :meth:`rollback` still works);
        ``promote=False`` drops the slice and the incumbent keeps serving.
        Requests already admitted under the candidate finish on it either
        way — only future admissions change.
        """
        with self._lock:
            entry = self._entry_locked(name)
            if entry.canary is None:
                raise ValueError(f"model {name!r} has no canary in flight")
            candidate = entry.canary
            entry.canary = None
            entry.canary_fraction = 0.0
            if promote:
                self._activate(name, entry, candidate)
            if self._telemetry.enabled:
                self._m_canary_version.set(0, model=name)
                self._m_canary_fraction.set(0.0, model=name)
                if promote:
                    self._m_canary_promotions.inc(model=name)
                else:
                    self._m_canary_rollbacks.inc(model=name)
            return entry.active

    def canary_status(self, name: str) -> Optional[CanaryStatus]:
        """Windowed per-role outcome stats for the in-flight canary (or None)."""
        with self._lock:
            entry = self._entry_locked(name)
            if entry.canary is None:
                return None
            incumbent = entry.outcomes.get(entry.active)
            candidate = entry.outcomes.get(entry.canary)
            return CanaryStatus(
                model=name,
                incumbent=entry.active,
                candidate=entry.canary,
                fraction=entry.canary_fraction,
                incumbent_count=incumbent.count if incumbent else 0,
                incumbent_hit_rate=incumbent.hit_rate if incumbent else None,
                candidate_count=candidate.count if candidate else 0,
                candidate_hit_rate=candidate.hit_rate if candidate else None,
            )

    def record_outcome(self, name: str, version: int, valid: bool) -> None:
        """Feed one validation outcome into ``version``'s windowed tracker.

        The orchestrator routes but cannot validate (validation needs the
        problem context only the caller has), so the guard/controller
        reports outcomes here and the canary policy reads them back via
        :meth:`canary_status`.
        """
        version = int(version)
        with self._lock:
            entry = self._entry_locked(name)
            if version not in entry.versions:
                raise ValueError(
                    f"model {name!r} has no version {version}; "
                    f"available: {sorted(entry.versions)}"
                )
            window = entry.outcomes.get(version)
            if window is None:
                window = entry.outcomes[version] = _OutcomeWindow(
                    self.outcome_window
                )
            window.record(bool(valid))
            if self._telemetry.enabled and entry.canary is not None:
                if version == entry.canary:
                    role = "canary"
                elif version == entry.active:
                    role = "incumbent"
                else:
                    role = "other"
                rate = window.hit_rate
                if rate is not None:
                    self._m_canary_hit_rate.set(rate, model=name, role=role)

    def outcome_stats(self, name: str) -> dict[int, tuple[int, Optional[float]]]:
        """``{version: (window count, windowed hit rate)}`` for ``name``."""
        with self._lock:
            entry = self._entry_locked(name)
            return {
                version: (window.count, window.hit_rate)
                for version, window in entry.outcomes.items()
            }

    def _clear_canary_locked(self, name: str, entry: _ModelEntry) -> None:  # cc: requires(_lock)
        """Cancel any in-flight canary (a manual deploy/rollback supersedes it)."""
        if entry.canary is None:
            return
        entry.canary = None
        entry.canary_fraction = 0.0
        if self._telemetry.enabled:
            self._m_canary_version.set(0, model=name)
            self._m_canary_fraction.set(0.0, model=name)

    def _activate(self, name: str, entry: _ModelEntry, version: int) -> None:  # cc: requires(_lock)
        """Move the active pointer (caller holds ``self._lock``)."""
        swapped = entry.active is not None and entry.active != version
        if swapped:
            entry.previous = entry.active
        entry.active = version
        if self._telemetry.enabled:
            self._m_active_version.set(version, model=name)
            if swapped:
                self._m_swaps.inc(model=name)

    def _entry_locked(self, name: str) -> _ModelEntry:  # cc: requires(_lock)
        entry = self._models.get(name)
        if entry is None or not entry.versions:
            raise UnknownModelError(name, tuple(self._models))
        return entry

    def _resolve_locked(  # cc: requires(_lock)
        self, name: str, version: Optional[int] = None
    ) -> ServedModel:
        """Active (or pinned-by-number) version of ``name``; caller holds lock."""
        entry = self._entry_locked(name)
        if version is None:
            version = entry.active
            if version is None:
                raise UnknownModelError(name, tuple(self._models))
        try:
            return entry.versions[version]
        except KeyError:
            raise ValueError(
                f"model {name!r} has no version {version}; "
                f"available: {sorted(entry.versions)}"
            ) from None

    def _admit_locked(  # cc: requires(_lock)
        self, name: str, version: Optional[int] = None
    ) -> ServedModel:
        """Version-route one admission (caller holds ``self._lock``).

        An explicit ``version`` pins that version.  Otherwise the active
        version serves — unless a canary is in flight, in which case the
        deterministic hash slot of this admission decides incumbent vs.
        candidate.  This is the single routing point every serving path
        (queue submit, process dispatch, bulk rows) goes through, so the
        canary slice crosses the process boundary for free: the chosen
        version number rides with the request.
        """
        if version is not None:
            return self._resolve_locked(name, version)
        entry = self._entry_locked(name)
        if entry.active is None:
            raise UnknownModelError(name, tuple(self._models))
        chosen = entry.active
        if entry.canary is not None and entry.canary in entry.versions:
            seq = entry.canary_seq
            entry.canary_seq += 1
            if _canary_slot(name, seq) < entry.canary_fraction:
                chosen = entry.canary
            if self._telemetry.enabled:
                role = "canary" if chosen == entry.canary else "incumbent"
                self._m_canary_requests.inc(model=name, role=role)
        return entry.versions[chosen]

    def model_exists(self, name: str) -> bool:
        with self._lock:
            return name in self._models

    def active_version(self, name: str) -> Optional[int]:
        """Version currently serving for ``name`` (None if none deployed)."""
        with self._lock:
            self._entry_locked(name)
            return self._models[name].active

    def model_versions(self, name: str) -> list[int]:
        """All registered versions of ``name``, ascending."""
        with self._lock:
            return sorted(self._entry_locked(name).versions)

    def run_model(
        self,
        name: str,
        input_keys: tuple[str, ...],
        output_keys: tuple[str, ...],
        *,
        version: Optional[int] = None,
    ) -> int:
        """Run a registered model on stored tensors, storing the outputs.

        Uses the active version unless ``version`` pins an explicit one
        (a canary in flight routes its slice of unpinned calls).  Returns
        the version that served the call.
        """
        if not self._telemetry.enabled:
            return self._run_model_inner(
                name, input_keys, output_keys, version=version
            )
        start = time.perf_counter()
        served = self._run_model_inner(
            name, input_keys, output_keys, version=version
        )
        self._m_latency.observe(time.perf_counter() - start, model=name)
        return served

    def _run_model_inner(
        self,
        name: str,
        input_keys: tuple[str, ...],
        output_keys: tuple[str, ...],
        *,
        version: Optional[int] = None,
        pinned: Optional[ServedModel] = None,
    ) -> int:
        """Serve one request; returns the version that served it."""
        with self._lock:
            model = pinned if pinned is not None else self._admit_locked(
                name, version
            )
            # bulk fetch under the one already-held lock: going through
            # get_tensor would re-acquire the RLock once per key
            try:
                inputs = [self._tensors[k] for k in input_keys]
            except KeyError as exc:
                raise KeyError(
                    f"no tensor stored under key {exc.args[0]!r}"
                ) from None
        x = inputs[0] if len(inputs) == 1 else np.concatenate(
            [np.atleast_1d(v).ravel() for v in inputs]
        )
        y, _ = self._executor.forward(name, model, x)
        if len(output_keys) != 1:
            raise ValueError("multi-output splitting is the client's job; pass one key")
        self.put_tensor(output_keys[0], y)
        return model.version

    # -- server mode -----------------------------------------------------------------

    @property
    def is_running(self) -> bool:
        return self._running

    def start(self, block: bool = False) -> None:
        """Start the background serving pool (``exp.start(orc, block=False)``)."""
        with self._state_lock:
            if self._running:
                return
            if self._pool is not None:
                # process mode: admission + dispatch happen inline in
                # submit(); the pool's collector threads complete requests
                self._pool.start()
                self._running = True
                self._workers = []
                return
            self._running = True
            self._workers = [
                threading.Thread(
                    target=self._serve, daemon=True, name=f"orchestrator-worker-{i}"
                )
                for i in range(self.num_workers)
            ]
            for worker in self._workers:
                worker.start()
            # snapshot under the lock: a concurrent stop() swaps
            # self._workers out, and iterating it bare races that swap
            workers = list(self._workers)
        if block:  # pragma: no cover - interactive convenience
            for worker in workers:
                worker.join()

    def stop(self, join_timeout: float = 5.0) -> None:
        """Stop the pool and fail any request still waiting in the queue.

        Every pending :class:`InferenceRequest` gets ``error`` set to
        :class:`OrchestratorStopped` and its ``done`` event signalled, so
        no waiter blocks forever.  A worker that fails to join within
        ``join_timeout`` seconds (e.g. wedged inside a model forward) is
        recorded on the ``repro_orchestrator_stuck_workers`` gauge and
        reported with a :class:`RuntimeWarning` instead of being silently
        ignored.  Safe to call repeatedly.
        """
        with self._state_lock:
            if not self._running:
                return
            self._running = False
            workers, self._workers = self._workers, []
            for _ in workers:
                self._queue.put(None)
        if self._pool is not None:
            self._pool.stop(join_timeout)
        stuck = 0
        for worker in workers:
            worker.join(timeout=join_timeout)
            if worker.is_alive():
                stuck += 1
        if self._telemetry.enabled:
            self._m_stuck_workers.set(stuck)
        if stuck:
            warnings.warn(
                f"{stuck} orchestrator worker(s) still alive after "
                f"{join_timeout:.1f}s join timeout; their in-flight requests "
                "may never complete",
                RuntimeWarning,
                stacklevel=2,
            )
        # drain: nothing can enqueue anymore (_running is False), so every
        # request left behind — and any stale sentinel — comes out here
        abandoned = 0
        while True:
            try:
                request = self._queue.get_nowait()
            except queue.Empty:
                break
            if request is None:
                continue
            request.error = OrchestratorStopped(
                "orchestrator stopped before this request was served"
            )
            request.done.set()
            abandoned += 1
        if self._telemetry.enabled:
            if abandoned:
                self._m_failed.inc(abandoned)
            self._m_queue_depth.set(0)

    def _pin_versions(self, requests: list[InferenceRequest]) -> None:
        """Pin each request to the version active at admission.

        Requests whose model is not (yet) registered or has no deployed
        version stay unpinned and resolve at serve time, so the error —
        :class:`UnknownModelError` if still absent — reaches the waiter
        through the request instead of blowing up the submitter.
        """
        with self._lock:
            for request in requests:
                if request.model is not None:
                    continue
                entry = self._models.get(request.model_name)
                if entry is not None and entry.active is not None:
                    request.model = self._admit_locked(request.model_name)

    def submit(self, request: InferenceRequest) -> InferenceRequest:
        """Queue an inference for the serving pool; wait on ``request.done``."""
        with self._state_lock:
            if not self._running:
                raise RuntimeError("orchestrator not started; call start() first")
            self._pin_versions([request])
            if self._telemetry.enabled:
                self._m_submitted.inc()
            if self._pool is None:
                self._queue.put(request)
                if self._telemetry.enabled:
                    self._m_queue_depth.set(self._queue.qsize())
                return request
        # process mode: dispatch outside the state lock — admission may
        # block (backpressure) and must not serialize unrelated submitters
        self._dispatch_process(request)
        return request

    def submit_many(
        self, requests: list[InferenceRequest]
    ) -> list[InferenceRequest]:
        """Queue a whole request list in one state transition.

        Functionally ``[submit(r) for r in requests]``, but the state lock
        and telemetry updates are paid once per call instead of once per
        request — the difference between client-bound and server-bound
        serving when a rank pipelines hundreds of inferences.
        """
        with self._state_lock:
            if not self._running:
                raise RuntimeError("orchestrator not started; call start() first")
            self._pin_versions(requests)
            if self._telemetry.enabled:
                self._m_submitted.inc(len(requests))
            if self._pool is None:
                self._queue.put_many(requests)
                if self._telemetry.enabled:
                    self._m_queue_depth.set(self._queue.qsize())
                return requests
        for request in requests:
            self._dispatch_process(request)
        return requests

    # -- process-mode dispatch -----------------------------------------------------

    def _dispatch_process(self, request: InferenceRequest) -> None:
        """Admit one store-backed request into the shard pool.

        Failures — unknown model, missing input key, admission shed
        (:class:`~repro.runtime.sharding.OverloadError`) — land on
        ``request.error`` and signal ``request.done``, surfacing through
        ``InferenceFuture.result`` exactly like thread-mode errors.
        """
        try:
            model = request.model
            if model is None:
                with self._lock:
                    model = self._admit_locked(request.model_name)
                request.model = model
            if len(request.output_keys) != 1:
                raise ValueError(
                    "multi-output splitting is the client's job; pass one key"
                )
            with self._lock:
                try:
                    inputs = [self._tensors[k] for k in request.input_keys]
                except KeyError as exc:
                    raise KeyError(
                        f"no tensor stored under key {exc.args[0]!r}"
                    ) from None
            x = inputs[0] if len(inputs) == 1 else np.concatenate(
                [np.atleast_1d(v).ravel() for v in inputs]
            )

            def on_done(output, error, request=request):
                if error is None:
                    self.put_tensor(request.output_keys[0], output)
                else:
                    request.error = error
                    # worker-side failures are already counted in the
                    # worker's merged delta; only front-end-originated
                    # abandons are counted here
                    if self._telemetry.enabled and isinstance(
                        error, (OrchestratorStopped, WorkerCrashedError)
                    ):
                        self._m_failed.inc()
                request.done.set()

            self._pool.dispatch_one(
                request.model_name, model.version, x, on_done
            )
        except Exception as exc:  # noqa: BLE001 - surfaced to the waiter
            request.error = exc
            request.done.set()
            if self._telemetry.enabled:
                self._m_failed.inc()

    def run_rows_async(
        self, name: str, rows: np.ndarray, *, version: Optional[int] = None
    ):
        """Bulk vectorized dispatch of stacked input rows (process mode).

        ``rows`` is a ``(B, F)`` block of same-shape inputs for one model;
        the whole block crosses the process boundary as a handful of
        shared-memory chunks and runs as vectorized forwards on the
        owning shard — no per-row store keys, events, or queue slots.
        Returns a :class:`~repro.runtime.sharding.RowsResult`; may raise
        :class:`~repro.runtime.sharding.OverloadError` on admission.
        """
        if self._pool is None:
            raise RuntimeError("run_rows requires num_processes > 0")
        if not self._running:
            raise RuntimeError("orchestrator not started; call start() first")
        with self._lock:
            model = self._admit_locked(name, version)
        stacked = np.atleast_2d(np.asarray(rows))
        stacked = self._coerce(stacked)
        if self._telemetry.enabled:
            self._m_submitted.inc(stacked.shape[0])
        return self._pool.dispatch_rows(name, model.version, stacked)

    def run_rows(
        self,
        name: str,
        rows: np.ndarray,
        *,
        version: Optional[int] = None,
        timeout: Optional[float] = None,
    ) -> np.ndarray:
        """Blocking :meth:`run_rows_async`: returns the stacked output rows."""
        return self.run_rows_async(name, rows, version=version).result(timeout)

    def run_rows_many(self, groups) -> list:
        """Dispatch several ``(name, stacked_rows)`` blocks in one pool call.

        The burst-coalescing bulk path: every block lands on its owning
        shard with one wire message *per shard*, not per block
        (:meth:`~repro.runtime.sharding.ProcessShardPool.dispatch_groups`).
        Per-group failures — unknown model, admission shed — fail that
        group's :class:`~repro.runtime.sharding.RowsResult` instead of
        raising, so one hot model cannot block the rest of the burst.
        Returns one result per group, in order.
        """
        from .sharding import RowsResult  # deferred: see start()

        if self._pool is None:
            raise RuntimeError("run_rows_many requires num_processes > 0")
        if not self._running:
            raise RuntimeError("orchestrator not started; call start() first")
        results: list = [None] * len(groups)
        staged: list[tuple[str, int, np.ndarray]] = []
        order: list[int] = []
        total_rows = 0
        for i, (name, rows) in enumerate(groups):
            try:
                with self._lock:
                    model = self._admit_locked(name)
            except Exception as exc:  # noqa: BLE001 - fail this group only
                failed = RowsResult(1)
                failed._fail_rest(exc, 1)
                results[i] = failed
                continue
            stacked = self._coerce(np.atleast_2d(np.asarray(rows)))
            total_rows += int(stacked.shape[0])
            staged.append((name, model.version, stacked))
            order.append(i)
        if self._telemetry.enabled and total_rows:
            self._m_submitted.inc(total_rows)
        for i, result in zip(order, self._pool.dispatch_groups(staged)):
            results[i] = result
        return results

    # -- serving pool internals -------------------------------------------------------

    def _serve(self) -> None:
        while True:
            batch = self._collect_batch()
            if batch is None:
                break
            self._serve_batch(batch)

    def _collect_batch(self) -> Optional[list[InferenceRequest]]:
        """Drain the queue into one micro-batch (None means: worker exits)."""
        batch, waited = self._queue.get_batch(
            self.max_batch_size, self.max_wait_ms / 1000.0
        )
        if batch is not None and self._telemetry.enabled:
            self._m_batch_size.observe(len(batch))
            self._m_batch_wait.observe(waited)
        return batch

    def _serve_batch(self, batch: list[InferenceRequest]) -> None:
        if not self._running:
            # stop() is underway: abandon instead of serving late
            for request in batch:
                request.error = OrchestratorStopped(
                    "orchestrator stopped before this request was served"
                )
                request.done.set()
            if self._telemetry.enabled:
                self._m_failed.inc(len(batch))
            return
        if self._telemetry.enabled:
            self._m_queue_depth.set(self._queue.qsize())
        for entry in self._group_batch(batch):
            if isinstance(entry, _Group) and len(entry.requests) > 1:
                self._serve_group(entry)
            elif isinstance(entry, _Group):
                self._serve_one(entry.requests[0])
            else:
                self._serve_one(entry)

    def _group_batch(
        self, batch: list[InferenceRequest]
    ) -> list[Any]:
        """Split a drained batch into vectorizable groups.

        Requests stack into one forward pass when they are pinned to the
        same model *version* with a single 1-D input tensor of the same
        shape and dtype, and that model either declared itself row-wise
        (``batchable=True``) or already has a compiled plan resolved for
        exactly this specialization key — compiled plans are row-wise by
        construction and bit-identical across batch slicings under
        ``batch_invariant()``, so stacking them is always safe.
        Everything else is served on the per-request path.  Grouping on
        the pinned version means a batch
        drained across a ``deploy`` splits cleanly — requests admitted
        under v1 run v1's weights, requests admitted under v2 run v2's,
        never one mixed forward.  Groups carry the model and input
        tensors fetched here, under one lock acquisition — tensors are
        defensive copies, so a concurrent ``delete_tensor`` cannot
        invalidate a group once formed.
        """
        groups: dict[tuple, _Group] = {}
        ordered: list[Any] = []
        with self._lock:
            for request in batch:
                key: Optional[tuple] = None
                if len(request.input_keys) == 1 and len(request.output_keys) == 1:
                    model = request.model
                    if model is None:
                        # unpinned (enqueued before the model was deployed):
                        # the version active now is the admission version
                        entry = self._models.get(request.model_name)
                        if entry is not None and entry.active is not None:
                            model = entry.versions[entry.active]
                    tensor = self._tensors.get(request.input_keys[0])
                    if (
                        model is not None
                        and isinstance(tensor, np.ndarray)  # CSR serves per-request
                        and tensor.ndim == 1
                        and (
                            model.batchable
                            or self._executor.has_plan(
                                request.model_name, model, tensor
                            )
                        )
                    ):
                        key = (
                            request.model_name,
                            model.version,
                            tensor.shape,
                            tensor.dtype.str,
                        )
                if key is None:
                    ordered.append(request)
                    continue
                group = groups.get(key)
                if group is None:
                    group = groups[key] = _Group(model, [], [])
                    ordered.append(group)
                group.requests.append(request)
                group.inputs.append(tensor)
        return ordered

    def _serve_one(self, request: InferenceRequest) -> None:
        try:
            if not self._telemetry.enabled:
                self._run_model_inner(
                    request.model_name,
                    request.input_keys,
                    request.output_keys,
                    pinned=request.model,
                )
            else:
                start = time.perf_counter()
                self._run_model_inner(
                    request.model_name,
                    request.input_keys,
                    request.output_keys,
                    pinned=request.model,
                )
                self._m_latency.observe(
                    time.perf_counter() - start, model=request.model_name
                )
        except Exception as exc:  # noqa: BLE001 - surfaced to the waiter
            request.error = exc
            if self._telemetry.enabled:
                self._m_failed.inc()
        else:
            if self._telemetry.enabled:
                self._m_served.inc()
        finally:
            request.done.set()

    def _serve_group(self, group: _Group) -> None:
        """One vectorized forward for a group of shape-compatible requests."""
        requests = group.requests
        name = requests[0].model_name
        start = time.perf_counter()
        try:
            output, _ = self._executor.forward(
                name, group.model, np.stack(group.inputs), rows=len(requests)
            )
        except Exception:  # noqa: BLE001 - retried per request
            # a poisoned row (or a non-row-wise model) must not fail its
            # batch-mates: fall back to serving each request individually
            for request in requests:
                self._serve_one(request)
            return
        elapsed = time.perf_counter() - start
        # dtype-coerce once, then store an independent copy per row: a
        # (B,) output yields np.float64 scalars here, and the store needs
        # real ndarrays (get_tensor sets view flags); per-row copies also
        # keep a stored row from pinning the whole (B, ...) output array
        # through its view base
        if not np.issubdtype(output.dtype, np.floating):
            output = output.astype(np.float64)
        with self._lock:
            for request, row in zip(requests, output):
                self._tensors[request.output_keys[0]] = np.array(row, copy=True)
            if self._telemetry.enabled:
                self._m_tensors.set(len(self._tensors))
        for request in requests:
            request.done.set()
        if self._telemetry.enabled:
            self._m_latency.observe(elapsed, model=name)
            self._m_served.inc(len(requests))
            self._m_batched_rows.inc(len(requests))

    def __enter__(self) -> "Orchestrator":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
