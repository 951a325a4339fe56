"""The rank-keyed growth of `growth`: a block sorted by the dataset's dense
ranks (`dense_ranks`, `rank_order`) is in the order of a stable sort of its
float values, ties in position order, on both the one-pass (uint16) and the
two-pass (int32) path; and a tree grown on rank keys, which screens, scans
and routes by key, is the tree grown on float keys, byte for byte."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import minimaxsplit.growth as growth_module
import minimaxsplit.tree as tree_module
from minimaxsplit import CLASSIFICATION, REGRESSION, Dataset, GrowConfig, grow
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


def _keyed_cases():
    """(name, data, config, samples, seeded): each edge case of rank-keyed
    routing. `seeded` says the trees draw from streams (m_try or a random
    criterion)."""
    rng = np.random.default_rng(23)
    n = 600
    ties = np.round(rng.normal(size=(3, n)), 1)
    y = np.sin(ties[0]) + ties[1] + rng.normal(size=n)
    yield "ties", Dataset(features=ties, targets=y, task=REGRESSION), \
        GrowConfig("minimax", max_depth=6), [np.arange(n)], False
    zeros = rng.choice([-0.0, 0.0, 1.0, -1.0, 5e-324, -5e-324], size=(2, n))
    yield "signed_zeros", Dataset(features=zeros, targets=rng.normal(size=n),
                                  task=REGRESSION), \
        GrowConfig("variance", max_depth=5), [np.arange(n)], False
    wide = rng.normal(size=(2, 70_000))
    yield "int32_keys", Dataset(features=wide, targets=np.sin(wide[0]) + wide[1],
                                task=REGRESSION), \
        GrowConfig("minimax", max_depth=3), [np.arange(70_000)], False
    data = Dataset(features=ties, targets=y, task=REGRESSION)
    yield "bootstrap_group", data, GrowConfig("minimax", max_depth=5, m_try=2), \
        [rng.integers(0, n, n) for _ in range(3)], True
    # feature 0 has two values, so a cyclic rule's scheduled feature is
    # often constant on a node, which then carries to the next level
    steps = np.array([rng.integers(0, 2, n), rng.normal(size=n)], dtype=np.float64)
    yield "cyclic_carries", Dataset(features=steps, targets=steps[0] + steps[1] ** 2,
                                    task=REGRESSION), \
        GrowConfig("cyclic_minimax", max_depth=6), [np.arange(n)], False
    for crit in ("random_uniform", "random_observed"):
        yield crit, data, GrowConfig(crit, max_depth=5), [rng.integers(0, n, n)], True
    labels = np.where(ties[0] + 0.5 * rng.normal(size=n) > 0, 1.0, -1.0)
    labelled = Dataset(features=ties, targets=labels, task=CLASSIFICATION)
    for crit in ("entropy_sum", "entropy_minimax", "entropy_cyclic_minimax"):
        yield crit, labelled, GrowConfig(crit, max_depth=5), [np.arange(n)], False


@pytest.mark.parametrize("case", list(_keyed_cases()), ids=lambda case: case[0])
def test_rank_keys_grow_the_float_keys_trees(monkeypatch, case):
    """Each case grows on rank keys and on float keys (`ranks_pay` forced
    either way), and every tree is the same; the group's keys are ranks on
    the one path and floats on the other, read in place (not gathered) when
    the one sample is the whole dataset in order. The smaller cases are
    also the per-node grower's trees."""
    name, data, config, samples, seeded = case

    def streams(label):
        return [stream(b, label) if seeded else None for b in range(len(samples))]

    keys = []

    class Recorded(growth_module.Growth):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            keys.append(self.X)

    monkeypatch.setattr(tree_module, "Growth", Recorded)
    grown = []
    for threshold in (1, math.inf):
        monkeypatch.setattr(growth_module, "_RANK_ENTRIES", threshold)
        trees = grow_trees(data, config, samples, streams("features"), streams("splits"))
        grown.append([tree_to_json(t) for t in trees])
    assert grown[0] == grown[1]
    ranked, floats = keys
    assert ranked.dtype == (np.int32 if name == "int32_keys" else np.uint16)
    assert floats.dtype == np.float64
    whole = len(samples) == 1 and np.array_equal(samples[0], np.arange(data.n_samples))
    assert (floats is data.features) == whole
    assert np.shares_memory(floats, data.features) == whole
    if data.n_samples <= 1_000:
        for b, rows in enumerate(samples):
            want = grow_per_node(data.subset(rows), config,
                                 features_rng=streams("features")[b],
                                 splits_rng=streams("splits")[b])
            assert grown[0][b] == tree_to_json(want)
