"""Shared content-hashing helpers for artifact caches.

Every content-addressed key in the system — the NAS autoencoder cache
(:mod:`repro.nas.cache`), the retrain lineage key and the CSR
sparsity-pattern key of compiled plans (:mod:`repro.compile.plan`) — is
built the same way: SHA-256 over each array's dtype/shape/bytes, folded
into a canonical-JSON digest of every knob that influences the result.
This module is the one definition of that construction, so keying rules
can never drift apart.

``content_key`` serializes with ``sort_keys=True`` and *default*
separators — the exact bytes the AE cache has always hashed — so
extracting the helper does not invalidate any existing ``ae_cache/``
entry on disk.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

__all__ = ["fingerprint_array", "content_key"]


def fingerprint_array(a: np.ndarray) -> str:
    """SHA-256 digest of an array's dtype, shape and contents."""
    a = np.ascontiguousarray(a)
    h = hashlib.sha256()
    h.update(str(a.dtype).encode())
    h.update(str(a.shape).encode())
    h.update(a.tobytes())
    return h.hexdigest()


def content_key(fields: dict) -> str:
    """SHA-256 digest of a JSON-safe field mapping (sorted, canonical).

    ``fields`` values must already be JSON-serializable; hash arrays with
    :func:`fingerprint_array` first and pass the hex digest.
    """
    payload = json.dumps(fields, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()
