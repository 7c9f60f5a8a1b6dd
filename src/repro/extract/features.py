"""Feature schemas: mapping region variables <-> flat NN feature vectors.

The surrogate consumes a flat input vector and emits a flat output vector;
this module records how each region variable (scalar, dense array or sparse
matrix) maps into those vectors.  Arrays stay *grouped*: one
:class:`FeatureField` per variable, preserving the array semantics the
paper's feature reduction relies on (§3.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np

from ..sparse import COOMatrix, CSCMatrix, CSRMatrix, from_dense

__all__ = ["FeatureField", "FeatureSchema", "build_schema", "batch_to_csr"]

_SPARSE_TYPES = (COOMatrix, CSRMatrix, CSCMatrix)


@dataclass(frozen=True)
class FeatureField:
    """One region variable's slice of the flat feature vector."""

    name: str
    shape: tuple[int, ...]
    offset: int
    is_sparse: bool

    @property
    def size(self) -> int:
        return int(np.prod(self.shape)) if self.shape else 1

    @property
    def slice(self) -> slice:
        return slice(self.offset, self.offset + self.size)


@dataclass(frozen=True)
class FeatureSchema:
    """Ordered collection of fields covering the whole feature vector.

    The layout — each field's ``(name, lo, hi, shape, is_sparse)`` and the
    total size — is worked out once at construction; :meth:`flatten` and
    :meth:`unflatten` run on every guarded call and only walk that tuple.
    """

    fields: tuple[FeatureField, ...]

    def __post_init__(self) -> None:
        # frozen: the derived layout is set past the dataclass __setattr__;
        # it is not a field, so equality, hashing and repr ignore it
        layout = tuple(
            (f.name, f.offset, f.offset + f.size, f.shape, f.is_sparse)
            for f in self.fields
        )
        object.__setattr__(self, "_layout", layout)
        object.__setattr__(self, "_total_size", sum(f.size for f in self.fields))

    @property
    def total_size(self) -> int:
        return self._total_size

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.fields)

    @property
    def has_sparse(self) -> bool:
        return any(f.is_sparse for f in self.fields)

    def field(self, name: str) -> FeatureField:
        for f in self.fields:
            if f.name == name:
                return f
        raise KeyError(f"no feature field named {name!r}")

    def flatten(self, values: Mapping[str, Any]) -> np.ndarray:
        """Pack a variable dict into one flat float64 vector."""
        out = np.empty(self._total_size, dtype=np.float64)
        for name, lo, hi, shape, _ in self._layout:
            value = values[name]
            if not shape and isinstance(value, (int, float)):
                out[lo] = value
                continue
            if isinstance(value, CSRMatrix):
                if value.shape != shape:
                    raise ValueError(
                        f"field {name!r}: expected shape {shape}, got {value.shape}"
                    )
                # scatter the nonzeros straight into the zeroed slice: the
                # same writes as ``to_dense`` without its dense temporary
                block = out[lo:hi]
                block.fill(0.0)
                rows = np.repeat(np.arange(shape[0]), np.diff(value.indptr))
                block.reshape(shape)[rows, value.indices] = value.data
                continue
            if isinstance(value, _SPARSE_TYPES):
                value = value.to_dense()
            arr = np.asarray(value, dtype=np.float64)
            if arr.shape != shape:
                raise ValueError(
                    f"field {name!r}: expected shape {shape}, got {arr.shape}"
                )
            out[lo:hi] = arr.ravel()
        return out

    def unflatten(self, vector: np.ndarray) -> dict[str, Any]:
        """Unpack a flat vector back into named variables.

        Sparse fields come back as CSR (re-compressed from the dense slice),
        mirroring the online path where the surrogate's dense prediction is
        written back into the application's data structures.
        """
        vector = np.asarray(vector, dtype=np.float64).ravel()
        if vector.size != self._total_size:
            raise ValueError(
                f"expected vector of length {self._total_size}, got {vector.size}"
            )
        out: dict[str, Any] = {}
        for name, lo, hi, shape, sparse in self._layout:
            arr = vector[lo:hi].reshape(shape) if shape else float(vector[lo])
            out[name] = from_dense(np.atleast_2d(arr), "csr") if sparse else arr
        return out

    def density(self, values: Mapping[str, Any]) -> float:
        """Nonzero fraction of the flattened vector for ``values``."""
        vec = self.flatten(values)
        return float(np.count_nonzero(vec)) / vec.size if vec.size else 0.0


def build_schema(names: Sequence[str], example: Mapping[str, Any]) -> FeatureSchema:
    """Build a schema from example values of the named variables."""
    fields: list[FeatureField] = []
    offset = 0
    for name in names:
        if name not in example:
            raise KeyError(f"no example value for feature {name!r}")
        value = example[name]
        sparse = isinstance(value, _SPARSE_TYPES)
        if sparse:
            shape = value.shape
        else:
            arr = np.asarray(value, dtype=np.float64)
            shape = arr.shape
        field = FeatureField(name=name, shape=tuple(shape), offset=offset, is_sparse=sparse)
        fields.append(field)
        offset += field.size
    return FeatureSchema(fields=tuple(fields))


def batch_to_csr(batch: np.ndarray) -> CSRMatrix:
    """Compress a (samples, features) dense batch to CSR for SparseDense."""
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 2:
        raise ValueError("batch must be 2-D (samples, features)")
    return from_dense(batch, "csr")
