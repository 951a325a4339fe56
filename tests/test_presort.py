"""The rank-keyed root presort of `growth`: a block sorted by the dataset's
dense ranks (`dense_ranks`, `rank_order`) is in the order of a stable sort
of its float values, ties in position order, on both the one-pass (uint16)
and the two-pass (int32) path."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import minimaxsplit.growth as growth_module
import minimaxsplit.tree as tree_module
from minimaxsplit import REGRESSION, Dataset, GrowConfig, grow
from minimaxsplit.growth import dense_ranks, rank_order
from minimaxsplit.rng import stream
from minimaxsplit.tree import grow_trees, tree_to_json

from pernode_grower import grow_per_node

# signed zeros, subnormals, the smallest normal and values near the float range
EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308,
         1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308, 1.0, -1.0]
FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def blocks(draw):
    """A (d, n) feature matrix, each row drawn from a small pool (heavy
    ties), the edge values or any finite float, and a block of its rows
    with repeats."""
    n = draw(st.integers(1, 60))
    features = []
    for _ in range(draw(st.integers(1, 4))):
        pool = draw(st.one_of(st.lists(st.sampled_from(EDGES), min_size=1, max_size=4),
                              st.lists(FINITE, min_size=1, max_size=3),
                              st.just(EDGES)))
        values = st.one_of(st.sampled_from(pool), FINITE) if draw(st.booleans()) \
            else st.sampled_from(pool)
        features.append(draw(st.lists(values, min_size=n, max_size=n)))
    rows = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3 * n))
    return np.array(features, dtype=np.float64), np.array(rows, dtype=np.int64)


@settings(max_examples=400, deadline=None)
@given(case=blocks())
def test_rank_order_is_the_stable_float_order(case):
    features, rows = case
    ranks = dense_ranks(features)
    assert ranks.dtype == np.uint16
    want = np.argsort(features.take(rows, axis=1), axis=1, kind="stable")
    np.testing.assert_array_equal(rank_order(ranks.take(rows, axis=1)), want)


@settings(max_examples=200, deadline=None)
@given(case=blocks())
def test_dense_ranks_count_distinct_values(case):
    features, _ = case
    ranks = dense_ranks(features)
    for x, r in zip(features, ranks.astype(np.int64)):
        # -0.0 == 0.0, so np.unique keeps one of them
        distinct = np.unique(x)
        np.testing.assert_array_equal(r, np.searchsorted(distinct, x))


@settings(max_examples=200, deadline=None)
@given(keys=st.lists(st.lists(st.one_of(st.integers(0, 2 ** 31 - 1),
                                        st.sampled_from([0, 65_535, 65_536, 65_537,
                                                         131_072, 2 ** 31 - 1])),
                              min_size=1, max_size=50), min_size=1, max_size=3))
def test_two_pass_rank_order_is_a_stable_sort(keys):
    width = min(len(k) for k in keys)
    ranks = np.array([k[:width] for k in keys], dtype=np.int32)
    np.testing.assert_array_equal(rank_order(ranks), np.argsort(ranks, axis=1, kind="stable"))


def test_more_than_65535_distinct_values_take_two_passes():
    rng = np.random.default_rng(16)
    n = 70_000
    # one feature with n - 1 000 distinct values (ties and both zeros
    # among them), one with three
    wide = rng.permutation(np.concatenate([np.arange(n - 1_000), np.arange(1_000)]))
    wide = np.where(wide == 0, np.where(rng.random(n) < 0.5, -0.0, 0.0), (wide - 35_000.5) / 7.0)
    features = np.array([wide, rng.integers(0, 3, n).astype(np.float64)])
    ranks = dense_ranks(features)
    assert ranks.dtype == np.int32 and int(ranks.max()) == n - 1_001
    rows = rng.integers(0, n, 30_000)
    want = np.argsort(features.take(rows, axis=1), axis=1, kind="stable")
    np.testing.assert_array_equal(rank_order(ranks.take(rows, axis=1)), want)


def test_grown_tree_is_the_same_on_either_presort(monkeypatch):
    """Above and below the rank threshold, with ranks past 16 bits."""
    rng = np.random.default_rng(17)
    n = 66_000
    X = np.array([rng.normal(size=n), np.round(rng.normal(size=n), 1)])
    data = Dataset(features=X, targets=np.sin(X[0]) + X[1] + rng.normal(size=n),
                   task=REGRESSION)
    config = GrowConfig("minimax", max_depth=3)
    got = []
    for threshold in (1, math.inf):
        monkeypatch.setattr(growth_module, "_RANK_ENTRIES", threshold)
        got.append(tree_to_json(grow(data, config)))
    assert got[0] == got[1]


def test_a_forest_of_several_groups_ranks_once(monkeypatch):
    """Six bootstrap trees of 1 500 samples on 3 features, two trees per
    group: every group sorts its roots by rank (9 000 feature values per
    group), and the dataset is ranked once for all three groups. Each tree
    is the one the per-node grower makes on its sample."""
    rng = np.random.default_rng(21)
    n = 1_500
    X = np.array([rng.normal(size=n), np.round(rng.normal(size=n), 1), rng.integers(0, 5, n)],
                 dtype=np.float64)
    data = Dataset(features=X, targets=np.sin(X[0]) + X[1] + rng.normal(size=n),
                   task=REGRESSION)
    samples = [rng.integers(0, n, n) for _ in range(6)]
    config = GrowConfig("minimax", max_depth=4, m_try=2)
    monkeypatch.setattr(tree_module, "_GROUP_SAMPLES", 2 * n)
    assert growth_module.ranks_pay(data, 2 * n)
    calls = []

    def counted(features):
        calls.append(features.shape)
        return dense_ranks(features)

    monkeypatch.setattr(tree_module, "dense_ranks", counted)
    monkeypatch.setattr(growth_module, "dense_ranks", counted)
    trees = grow_trees(data, config, samples, [stream(b, "features") for b in range(6)],
                       [None] * 6)
    assert calls == [X.shape]
    for b, (tree, rows) in enumerate(zip(trees, samples)):
        want = grow_per_node(data.subset(rows), config, features_rng=stream(b, "features"))
        assert tree_to_json(tree) == tree_to_json(want)


def test_no_group_on_the_rank_path_ranks_nothing(monkeypatch):
    rng = np.random.default_rng(22)
    data = Dataset(features=rng.normal(size=(2, 200)), targets=rng.normal(size=200),
                   task=REGRESSION)
    monkeypatch.setattr(tree_module, "dense_ranks", None)
    monkeypatch.setattr(growth_module, "dense_ranks", None)
    grow_trees(data, GrowConfig("variance", max_depth=3), [np.arange(200)] * 3,
               [None] * 3, [None] * 3)
