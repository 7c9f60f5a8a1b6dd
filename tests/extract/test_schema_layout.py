"""``FeatureSchema``'s stored layout against the per-field reference loop.

The schema works out each field's slice once, at construction, and its
``flatten`` scatters CSR fields straight into the output vector.  Both
must produce exactly the bytes of the plain per-field loop kept below as
the reference: every dense value through ``np.asarray(value, float64)``,
every sparse one through ``to_dense()``, each copied into ``f.slice``.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.extract import FeatureSchema, build_schema
from repro.sparse import COOMatrix, CSCMatrix, CSRMatrix, from_dense

_SPARSE = (COOMatrix, CSRMatrix, CSCMatrix)


def reference_flatten(schema: FeatureSchema, values) -> np.ndarray:
    out = np.empty(sum(f.size for f in schema.fields), dtype=np.float64)
    for f in schema.fields:
        value = values[f.name]
        if isinstance(value, _SPARSE):
            value = value.to_dense()
        arr = np.asarray(value, dtype=np.float64)
        if arr.shape != f.shape:
            raise ValueError(
                f"field {f.name!r}: expected shape {f.shape}, got {arr.shape}"
            )
        out[f.slice] = arr.ravel()
    return out


def reference_unflatten(schema: FeatureSchema, vector) -> dict:
    vector = np.asarray(vector, dtype=np.float64).ravel()
    out = {}
    for f in schema.fields:
        arr = vector[f.slice].reshape(f.shape) if f.shape else float(vector[f.offset])
        out[f.name] = from_dense(np.atleast_2d(arr), "csr") if f.is_sparse else arr
    return out


def _dense_bytes(value) -> bytes:
    if isinstance(value, _SPARSE):
        value = value.to_dense()
    return np.asarray(value, dtype=np.float64).tobytes()


# -- drawing schemas -------------------------------------------------------------

KINDS = ("int", "float", "npscalar", "array", "csr", "csc", "coo")
DTYPES = (np.float32, np.int64, np.float64)
LAYOUTS = ("C", "F", "strided")
PATTERNS = ("random", "empty_rows", "all_zero", "duplicates")

field_spec = st.tuples(
    st.sampled_from(KINDS),
    st.lists(st.integers(0, 5), min_size=0, max_size=2),   # array dims
    st.tuples(st.integers(1, 6), st.integers(1, 6)),       # sparse shape
    st.sampled_from(DTYPES),
    st.sampled_from(LAYOUTS),
    st.sampled_from(PATTERNS),
)


def _array(rng, dims, dtype, layout):
    shape = tuple(dims)
    if dtype is np.int64:
        base = rng.integers(-1000, 1000, size=(*shape[:-1], 2 * shape[-1]) if shape else ())
    else:
        base = rng.standard_normal((*shape[:-1], 2 * shape[-1]) if shape else ())
    base = np.asarray(base).astype(dtype)
    if not shape:
        return base[()] if layout == "strided" else base   # numpy scalar or 0-d
    if layout == "strided":
        return base[..., ::2]
    arr = np.ascontiguousarray(base[..., : shape[-1]])
    return np.asfortranarray(arr) if layout == "F" else arr


def _sparse(rng, kind, shape, pattern):
    dense = rng.standard_normal(shape) * (rng.random(shape) < 0.4)
    if pattern == "empty_rows":
        dense[::2] = 0.0
    elif pattern == "all_zero":
        dense[:] = 0.0
    value = from_dense(dense, kind)
    if pattern != "duplicates" or value.nnz == 0:
        return value
    # repeat every stored entry: COO accumulates duplicates, CSR overwrites
    if kind == "coo":
        return COOMatrix(
            np.concatenate([value.row, value.row]),
            np.concatenate([value.col, value.col]),
            np.concatenate([value.data, 2.0 * value.data]),
            value.shape,
        )
    if kind == "csr":
        counts = np.diff(value.indptr)
        rows_twice = np.concatenate([np.repeat(np.arange(shape[0]), counts)] * 2)
        order = np.argsort(rows_twice, kind="stable")
        return CSRMatrix(
            np.concatenate([[0], np.cumsum(2 * counts)]),
            np.concatenate([value.indices, value.indices])[order],
            np.concatenate([value.data, 3.0 * value.data])[order],
            value.shape,
        )
    return value


def _value(rng, spec):
    kind, dims, sparse_shape, dtype, layout, pattern = spec
    if kind == "int":
        return int(rng.integers(-(10**6), 10**6))
    if kind == "float":
        return float(rng.standard_normal() * 10.0 ** rng.integers(-5, 5))
    if kind == "npscalar":
        return dtype(rng.integers(-100, 100) if dtype is np.int64 else rng.standard_normal())
    if kind == "array":
        return _array(rng, dims, dtype, layout)
    return _sparse(rng, kind, sparse_shape, pattern)


@st.composite
def schemas(draw):
    specs = draw(st.lists(field_spec, min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    example = {f"v{i}": _value(rng, spec) for i, spec in enumerate(specs)}
    schema = build_schema(list(example), example)
    # a second draw of every field, same shapes, fresh values
    values = {
        name: _value(rng, spec) for name, spec in zip(example, specs)
    }
    return schema, values


# -- properties ----------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(drawn=schemas())
def test_flatten_matches_reference_bytes(drawn):
    schema, values = drawn
    got = schema.flatten(values)
    assert got.dtype == np.float64
    assert got.tobytes() == reference_flatten(schema, values).tobytes()


@settings(max_examples=100, deadline=None)
@given(drawn=schemas())
def test_unflatten_matches_reference_and_round_trips(drawn):
    schema, values = drawn
    vector = schema.flatten(values)
    back = schema.unflatten(vector)
    ref = reference_unflatten(schema, vector)
    assert list(back) == list(ref) == list(schema.names)
    for f in schema.fields:
        assert type(back[f.name]) is type(ref[f.name])
        assert _dense_bytes(back[f.name]) == _dense_bytes(ref[f.name])
        # every value comes back as its float64 dense form (CSR if sparse)
        assert _dense_bytes(back[f.name]) == _dense_bytes(values[f.name])
        assert isinstance(back[f.name], CSRMatrix) == f.is_sparse


def _raises_same(schema, values):
    with pytest.raises(ValueError) as ref:
        reference_flatten(schema, values)
    with pytest.raises(ValueError) as got:
        schema.flatten(values)
    assert str(got.value) == str(ref.value)


@settings(max_examples=60, deadline=None)
@given(drawn=schemas(), pick=st.integers(0, 5))
def test_mis_shaped_values_raise_like_reference(drawn, pick):
    schema, values = drawn
    f = schema.fields[pick % len(schema.fields)]
    value = values[f.name]
    if isinstance(value, _SPARSE):
        rows, cols = f.shape
        bad = from_dense(np.ones((rows + 1, cols)), "csr")
    elif f.shape:
        bad = np.zeros((f.shape[0] + 1, *f.shape[1:]))
    else:
        bad = np.zeros(2)                      # an array for a scalar field
    _raises_same(schema, {**values, f.name: bad})


class TestErrors:
    def test_csr_of_wrong_shape(self):
        schema = build_schema(["m"], {"m": from_dense(np.eye(3), "csr")})
        bad = {"m": from_dense(np.eye(4), "csr")}
        _raises_same(schema, bad)
        with pytest.raises(ValueError, match=r"expected shape \(3, 3\), got \(4, 4\)"):
            schema.flatten(bad)

    def test_array_for_scalar_field(self):
        schema = build_schema(["s"], {"s": 1.5})
        for bad in (np.zeros(2), [1.0, 2.0], np.zeros((1, 1))):
            _raises_same(schema, {"s": bad})

    def test_python_scalar_for_array_field(self):
        schema = build_schema(["a"], {"a": np.zeros(3)})
        for bad in (1, 2.5):
            _raises_same(schema, {"a": bad})


class TestCsrScatter:
    def test_zero_fill_survives_a_dirty_buffer(self):
        """The CSR slice is zeroed before the scatter, whatever memory the
        output vector reuses."""
        dense = np.zeros((6, 6))
        dense[1, 2] = 3.0
        dense[4, 0] = -1.0
        example = {"m": from_dense(dense, "csr"), "s": 2.0}
        schema = build_schema(["m", "s"], example)
        for _ in range(20):
            # free a NaN-filled block of the output's size, so the next
            # float64 allocation of that size is likely to reuse it
            poison = np.full(schema.total_size, np.nan)
            del poison
            vec = schema.flatten(example)
            assert not np.isnan(vec).any()
            assert vec.tobytes() == reference_flatten(schema, example).tobytes()


class TestStoredLayout:
    def _schema(self):
        example = {
            "a": np.arange(6.0).reshape(2, 3),
            "m": from_dense(np.eye(3), "csr"),
            "s": 1.0,
        }
        return build_schema(["a", "m", "s"], example), example

    def test_equality_and_hash_ignore_the_layout(self):
        schema, _ = self._schema()
        twin = FeatureSchema(fields=tuple(schema.fields))
        assert twin == schema
        assert hash(twin) == hash(schema)
        assert "_layout" not in repr(schema)
        other = FeatureSchema(fields=schema.fields[:2])
        assert other != schema
        assert other.total_size == schema.total_size - 1

    def test_pickle_round_trip(self):
        schema, example = self._schema()
        back = pickle.loads(pickle.dumps(schema))
        assert back == schema
        assert back.total_size == schema.total_size == 6 + 9 + 1
        assert back.flatten(example).tobytes() == schema.flatten(example).tobytes()
        vector = schema.flatten(example)
        assert _dense_bytes(back.unflatten(vector)["m"]) == _dense_bytes(example["m"])
