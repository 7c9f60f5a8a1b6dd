"""Worker-process entry point for the sharded serving runtime.

One worker process owns one shard of the consistent-hash ring: every
``(name, version)`` the ring maps here is registered into this process
(shipped pre-pickled over the control pipe) and served from this
process only.  Every forward goes through the same
:class:`~repro.runtime.executor.ModelExecutor` thread mode uses —
plan resolution per specialization key, ``batch_invariant()``
forwards, row-wise batch validation — so thread-mode and process-mode
outputs are bit-identical for ``batch_invariant()`` models.

Wire protocol (all messages are small picklable tuples over raw
``Pipe`` connections — see :mod:`~repro.runtime.sharding` for why not
``mp.Queue`` — while tensors ride in shared memory, referenced by
:class:`~repro.runtime.shm_store.ShmHandle`):

* request pipe (front-end → worker): always
  ``("many", [subitems], recycled_segment_names)`` — a whole burst's
  worth of subitems coalesced into ONE wire message (one pipe write,
  one reader wake-up), answered with one ``manyok``.  Each subitem is
  ``("one", req_id, name, version, handle)`` — one 1-D input row —
  ``("rows", req_id, name, version, handle)`` — a stacked ``(B, F)``
  block served as one vectorized forward — or
  ``("csr", req_id, name, version, ("csrmat", (indptr, indices, data,
  shape)))`` — a sparse batch shipped as pickled arrays on the pipe
  itself (small nnz payloads; no shared-memory segment), served through
  a pattern-keyed compiled plan when one resolves.  The recycled names are
  output segments the front-end finished reading, piggybacked on the
  next request instead of riding a pipe of their own: returning them
  costs zero extra writes (and zero extra reader wake-ups).
* result pipe (worker → front-end):
  ``("manyok", [entries])`` — one ``("ok", req_id, handle)`` or
  ``("err", req_id, exception)`` entry per subitem — plus
  ``("metrics", worker_id, delta)`` / ``("bye", worker_id, segment_names)``.
* control pipe: ``("ping",)``, ``("register", name, version, blob,
  batchable)``, ``("stop",)`` — each acknowledged with ``("ok",)``.

Telemetry reuses the thread-mode metric names (served/failed totals,
inference latency, plan counters): the worker accumulates them on its
own process-global registry and periodically ships *deltas*
(:class:`~repro.obs.MetricsDeltaTracker`) through the result pipe, so
the front-end's merged registry reads like single-process serving.

Output segments are pooled (``tracked=False``): at shutdown the worker
closes its mappings and transfers ownership of the segment names to the
front-end inside the ``bye`` message — unlinking them locally would
race the collector, which may not yet have read the last results.
"""

from __future__ import annotations

import pickle
import time

import numpy as np

from .. import obs
from ..sparse import CSRMatrix
from .executor import ModelExecutor, ServedModel
from .shm_store import SegmentAttachments, ShmTensorStore

__all__ = ["worker_main"]


def _picklable(exc: Exception) -> Exception:
    """The exception itself if it survives pickling, else a summary."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:  # noqa: BLE001 - any pickle failure means: summarize
        return RuntimeError(f"{type(exc).__name__}: {exc}")


class _WorkerCore:
    """Model replicas + executor + serving loop state for one shard."""

    def __init__(self, worker_id: int, config: dict) -> None:
        self.worker_id = int(worker_id)
        self.executor = ModelExecutor(
            batch_invariant=bool(config.get("batch_invariant", True)),
            compile_plans=bool(config.get("compile_plans", True)),
        )
        self.models: dict[tuple[str, int], ServedModel] = {}
        self.out_store = ShmTensorStore(
            prefix=f"repro_w{self.worker_id}", tracked=False
        )
        self.attachments = SegmentAttachments()
        registry = obs.get_registry()
        # same names as the thread-mode serving path: once the front-end
        # merges the deltas, fleet totals read like one process's totals
        self._m_served = registry.counter(
            "repro_orchestrator_served_total",
            "Inference requests completed successfully by the worker",
        )
        self._m_failed = registry.counter(
            "repro_orchestrator_failed_total",
            "Inference requests that errored or were abandoned by stop()",
        )
        self._m_latency = registry.histogram(
            "repro_orchestrator_inference_seconds",
            "run_model wall-clock seconds per registered model",
            labels=("model",),
        )
        self._m_batched_rows = registry.counter(
            "repro_orchestrator_batched_rows_total",
            "Requests served through a vectorized (B, F) forward pass",
        )

    # -- registration --------------------------------------------------------------

    def register(self, name: str, version: int, blob: bytes, batchable: bool) -> None:
        obj = pickle.loads(blob)
        if hasattr(obj, "predict"):
            package, predict = obj, obj.predict
        else:
            package, predict = None, obj
        version = int(version)
        if (name, version) in self.models:
            # re-registered version number -> different weights: every
            # memoized plan (and negative memo) for it is stale
            self.executor.forget(name, version)
        self.models[(name, version)] = ServedModel(
            predict, bool(batchable), version, package
        )

    # -- serving ----------------------------------------------------------------------

    def serve_entry(self, item: tuple) -> tuple:
        """Serve one request tuple; returns the ``ok``/``err`` entry to ship."""
        kind, req_id, name, version, handle = item
        start = time.perf_counter()
        rows = 1
        try:
            model = self.models.get((name, int(version)))
            if model is None:
                raise RuntimeError(
                    f"shard {self.worker_id} holds no replica of model "
                    f"{name!r} version {version} (sharding bug?)"
                )
            if kind == "csr":
                # pipe-shipped sparse batch: rebuild the CSR matrix from
                # the pickled arrays (no shared-memory segment involved)
                indptr, indices, data, shape = handle[1]
                x = CSRMatrix(
                    indptr=indptr, indices=indices, data=data, shape=tuple(shape)
                )
                rows = int(x.shape[0])
                y, _ = self.executor.forward(name, model, x)
            elif kind == "rows":
                x = self.attachments.view(handle)
                rows = int(x.shape[0]) if x.ndim else 1
                y, used_plan = self.executor.forward(name, model, x, rows=rows)
                if rows > 1 and (used_plan or model.batchable) and obs.is_enabled():
                    self._m_batched_rows.inc(rows)
            else:
                y, _ = self.executor.forward(
                    name, model, self.attachments.view(handle)
                )
            if not np.issubdtype(y.dtype, np.floating):
                y = y.astype(np.float64)
            out = self.out_store.put(y)
        except Exception as exc:  # noqa: BLE001 - surfaced to the waiter
            if obs.is_enabled():
                self._m_failed.inc(rows)
            return ("err", req_id, _picklable(exc))
        if obs.is_enabled():
            self._m_served.inc(rows)
            self._m_latency.observe(time.perf_counter() - start, model=name)
        return ("ok", req_id, out)

    def serve_item(self, item: tuple, res) -> None:
        """One coalesced request in, one coalesced response out.

        Reclaims the piggybacked recycled output segments, serves every
        subitem, then answers with a single ``manyok``: the synchronous
        pipe-write wake-up (the dominant fixed cost on a busy box) is
        paid once per burst instead of once per group — and the recycle
        traffic costs no writes at all.
        """
        _, subitems, recycled = item
        for segment in recycled:
            self.out_store.release(segment)
        res.send(("manyok", [self.serve_entry(sub) for sub in subitems]))

    # -- shutdown ------------------------------------------------------------------

    def shutdown(self) -> list[str]:
        """Close every mapping; the returned names transfer to the front-end."""
        self.attachments.close_all()
        return self.out_store.detach_all()


def worker_main(worker_id: int, conn, req_recv, res_send, config: dict) -> None:
    """Run one shard's serving loop until a ``stop`` command arrives."""
    obs.configure(enabled=bool(config.get("telemetry", True)), reset=True)
    core = _WorkerCore(worker_id, config)
    tracker = obs.MetricsDeltaTracker(obs.get_registry())
    flush_interval = float(config.get("metrics_interval", 0.5))
    last_flush = time.monotonic()
    try:
        stopping = False
        while not stopping:
            # control first: registrations must land before requests that
            # reference them, and stop must win over a deep queue
            while conn.poll():
                try:
                    cmd = conn.recv()
                except (EOFError, OSError):
                    stopping = True  # front-end died; exit cleanly
                    break
                if cmd[0] == "stop":
                    stopping = True
                    conn.send(("ok",))
                    break
                if cmd[0] == "register":
                    core.register(*cmd[1:])
                    conn.send(("ok",))
                elif cmd[0] == "ping":
                    conn.send(("ok",))
            if stopping:
                break
            try:
                if req_recv.poll(0.05):
                    core.serve_item(req_recv.recv(), res_send)
                    # opportunistic drain: amortize the wait over a burst
                    for _ in range(128):
                        if not req_recv.poll():
                            break
                        core.serve_item(req_recv.recv(), res_send)
            except (EOFError, BrokenPipeError, OSError):
                break  # front-end tore the pipes down; exit cleanly
            now = time.monotonic()
            if now - last_flush >= flush_interval:
                delta = tracker.delta()
                if delta is not None:
                    res_send.send(("metrics", worker_id, delta))
                last_flush = now
    finally:
        names = core.shutdown()
        try:
            delta = tracker.delta()  # final flush: nothing goes uncounted
            if delta is not None:
                res_send.send(("metrics", worker_id, delta))
            res_send.send(("bye", worker_id, names))
        except (BrokenPipeError, OSError):  # pragma: no cover - dead front-end
            pass
        res_send.close()  # Connection.send already flushed to the pipe
