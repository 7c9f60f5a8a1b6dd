"""Row invariance of the tiled batch-invariant matmul kernel.

``invariant_matmul`` must give every row of ``X @ W`` the same bytes it
gets when that row is multiplied alone, whatever the batch size, the
row's position and the memory layout of either operand.  Equality is
byte-for-byte (``tobytes``), never a tolerance: the serving path relies
on it to make batched outputs identical to per-request outputs.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.nn.tensor import TILE_ROWS, invariant_matmul

#: batch sizes on and either side of tile edges
TILE_EDGES = (1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 255, 256, 257, 300)


def _operand(rng, rows, cols, layout):
    """A ``(rows, cols)`` float64 array stored in the named layout."""
    if layout == "C":
        return rng.standard_normal((rows, cols))
    if layout == "F":
        return np.asfortranarray(rng.standard_normal((rows, cols)))
    # every other column of a wider array: strided, neither C nor F
    return rng.standard_normal((rows, 2 * cols))[:, ::2]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    feats=st.one_of(st.just(1), st.integers(1, 400)),
    cols=st.one_of(st.just(1), st.integers(1, 40)),
    batch=st.one_of(st.sampled_from(TILE_EDGES), st.integers(1, 300)),
    x_layout=st.sampled_from(("C", "F", "cols")),
    w_layout=st.sampled_from(("C", "F", "cols")),
)
# shapes of the serving benchmark's layers, where plain BLAS ``a @ b``
# gives a lone row different bits than the same row inside a batch
@example(seed=1, feats=337, cols=112, batch=128, x_layout="C", w_layout="C")
@example(seed=2, feats=144, cols=8, batch=33, x_layout="F", w_layout="cols")
def test_rows_match_single_row_products(seed, feats, cols, batch, x_layout, w_layout):
    rng = np.random.default_rng(seed)
    x = _operand(rng, batch, feats, x_layout)
    w = _operand(rng, feats, cols, w_layout)
    batched = invariant_matmul(x, w)
    assert batched.shape == (batch, cols)
    for i in range(batch):
        alone = invariant_matmul(x[i:i + 1], w)
        assert batched[i].tobytes() == alone[0].tobytes(), f"row {i} of {batch}"


@pytest.mark.parametrize("rows", (TILE_ROWS, 3 * TILE_ROWS, 5, 17))
def test_out_receives_the_same_bytes(rng, rows):
    # a C-contiguous ``out`` is written in place, partial tail tile
    # included; a strided ``out`` receives a copy
    x = rng.standard_normal((rows, 12))
    w = rng.standard_normal((12, 5))
    expected = invariant_matmul(x, w)
    out = np.empty((rows, 5))
    assert invariant_matmul(x, w, out=out) is out
    assert out.tobytes() == expected.tobytes()
    strided = np.empty((rows, 10))[:, ::2]
    invariant_matmul(x, w, out=strided)
    assert strided.tobytes() == expected.tobytes()


def test_matches_blas_numerically(rng):
    x = rng.standard_normal((37, 64))
    w = rng.standard_normal((64, 9))
    np.testing.assert_allclose(invariant_matmul(x, w), x @ w, rtol=1e-12, atol=1e-12)


def test_empty_batch(rng):
    w = rng.standard_normal((4, 3))
    assert invariant_matmul(np.empty((0, 4)), w).shape == (0, 3)
