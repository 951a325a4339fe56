"""The per-level kernels of the level pass, pinned bit for bit against
plain references: `splitting._prefix_sse` (shared with `martingale`)
against the body it had while it still built every temporary afresh, kept
below verbatim as `reference_prefix_sse`, and the node values that
`growth.Growth._add` records against np.mean of each node's targets."""

from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from minimaxsplit import REGRESSION, Dataset, GrowConfig
from minimaxsplit.growth import Growth
from minimaxsplit.splitting import _prefix_sse


def reference_prefix_sse(y: np.ndarray, w: Optional[np.ndarray] = None) -> np.ndarray:
    """prefix_sse[..., i] = sum_{j<=i} w_j (y_j - weighted mean of
    y[..., : i + 1])^2, unit weights when w is None; exactly non-decreasing
    (a cumsum of clamped West increments). Works along the last axis, so each
    row of a 2-D block gets exactly the floats its 1-D call would (cumsum is
    a sequential recurrence along the axis; whatever follows a row's real
    length does not reach it). Unit weights give the same floats as ones."""
    if w is None:
        means = np.cumsum(y, axis=-1) / np.arange(1, y.shape[-1] + 1, dtype=np.float64)
    else:
        means = np.cumsum(w * y, axis=-1) / np.cumsum(w, axis=-1)
    prev = np.empty_like(means)
    prev[..., 0] = y[..., 0]
    prev[..., 1:] = means[..., :-1]
    inc = y - prev if w is None else w * (y - prev)
    inc *= y - means
    np.maximum(inc, 0.0, out=inc)
    inc[..., 0] = 0.0
    return np.cumsum(inc, axis=-1)


def assert_bitwise(y: np.ndarray, w: Optional[np.ndarray] = None) -> None:
    with np.errstate(all="ignore"):
        want = reference_prefix_sse(y, w)
        got = _prefix_sse(y, w)
    assert got.shape == want.shape and got.dtype == want.dtype
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


# signed zeros, magnitudes near 1e+-300 (whose squares overflow or
# underflow), subnormals and plain values
EDGES = [0.0, -0.0, 1e300, -1e300, 3.7e299, 1e-300, -1e-300, 2.5e-301, 5e-324, -5e-324,
         1.0, -1.0, 0.1, 3.0]
VALUES = st.one_of(st.sampled_from(EDGES),
                   st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False),
                   st.floats(-10.0, 10.0, allow_nan=False))
WEIGHTS = st.one_of(st.sampled_from([1.0, 0.5, 1e-300, 1e300, 5e-324, 3.0]),
                    st.floats(1e-6, 1e6))


@st.composite
def blocks(draw):
    """A (rows, width) block of values, 1-wide rows included, and, half the
    time, positive weights whose rows end in zero-weight padding, as a
    block scan pads its shorter rows."""
    rows, width = draw(st.integers(1, 5)), draw(st.integers(1, 40))
    y = np.array(draw(st.lists(VALUES, min_size=rows * width, max_size=rows * width)),
                 dtype=np.float64).reshape(rows, width)
    if not draw(st.booleans()):
        return y, None
    w = np.array(draw(st.lists(WEIGHTS, min_size=rows * width, max_size=rows * width)),
                 dtype=np.float64).reshape(rows, width)
    for row in w:
        row[draw(st.integers(1, width)):] = 0.0
    return y, w


@settings(max_examples=400, deadline=None)
@given(case=blocks())
def test_prefix_sse_is_bitwise_the_reference(case):
    y, w = case
    assert_bitwise(y, w)
    # and each row alone, as a 1-D call
    for k in range(y.shape[0]):
        assert_bitwise(y[k], None if w is None else w[k])


@pytest.mark.parametrize("shape", [(1, 1), (7, 1), (1, 65_536), (4, 4096), (128, 128),
                                   (2048, 8)])
@pytest.mark.parametrize("weighted", [False, True])
def test_prefix_sse_on_scan_shapes(shape, weighted):
    rng = np.random.default_rng(21)
    y = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, shape)
    y[rng.random(shape) < 0.05] = -0.0
    w = None
    if weighted:
        w = rng.random(shape)
        # zero-weight padding after each row's real length
        for row, m in zip(w, rng.integers(1, shape[1] + 1, shape[0])):
            row[m:] = 0.0
    assert_bitwise(y, w)


def _growth(y: np.ndarray) -> Growth:
    data = Dataset(features=np.arange(y.size, dtype=np.float64)[None, :], targets=y,
                   task=REGRESSION)
    return Growth(data, GrowConfig("variance", max_depth=1), [np.arange(y.size)], [None],
                  [None])


def test_node_values_are_np_mean_bitwise():
    # sizes straddling numpy's pairwise-sum block edges (8 and 128), several
    # nodes of most sizes, in shuffled order, each node's positions a sorted
    # random subset: each value must be np.mean of the node's targets, bit
    # for bit
    rng = np.random.default_rng(7)
    sizes = np.array([1, 7, 8, 9, 128, 129, 300] * 3 + [9, 129, 1])
    sizes = sizes[rng.permutation(sizes.size)]
    n = int(sizes.sum())
    # targets of mixed magnitudes, so that the order of the sum shows
    y = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, n)
    growth = _growth(y)
    by_index = np.concatenate([np.sort(rng.choice(n, size=m, replace=False)) for m in sizes])
    starts = np.cumsum(sizes) - sizes
    ids = growth._add(1, by_index, starts, sizes, np.zeros(sizes.size),
                      np.zeros(sizes.size, dtype=np.int64))
    assert ids.tolist() == list(range(sizes.size))
    value = growth.created[-1][4]
    want = np.array([np.mean(y[by_index[s:s + m]]) for s, m in zip(starts, sizes)])
    np.testing.assert_array_equal(value.view(np.uint64), want.view(np.uint64))


def test_adding_no_nodes_records_none():
    growth = _growth(np.array([1.0, 2.0, 3.0]))
    empty = np.zeros(0, dtype=np.int64)
    ids = growth._add(1, empty, empty, empty, np.zeros(0), empty)
    assert ids.size == 0 and growth.n_nodes == 0
    assert growth.created[-1][4].size == 0
