"""`TreeModel.apply` against a walker that descends one row at a time in
plain Python: grown trees at every depth cut, hand-built trees whose right
child is not left + 1, infinite and NaN features, input layouts that are
not C-contiguous, a single point, zero rows and a descent in chunks of a
few rows. `apply` itself checks only its arguments: a tree that it could
not walk (a path deeper than max_depth, a split feature or child out of
range) is rejected when it is built."""

import dataclasses
import math

import numpy as np
import pytest

from minimaxsplit import (CLASSIFICATION, REGRESSION, ConfigError, DataError, Dataset, GrowConfig,
                         grow)
from minimaxsplit import tree as tree_module
from minimaxsplit.tree import TreeModel, tree_from_json, tree_to_json


def walk(tree, x, max_depth=None):
    """The cell of one point: from the root, go left when x[feature] <
    threshold and right otherwise, until a leaf or a node that splits at or
    below the cut."""
    node = 0
    while tree.left[node] >= 0 and (max_depth is None or tree.split_level[node] < max_depth):
        if float(x[tree.feature[node]]) < float(tree.threshold[node]):
            node = int(tree.left[node])
        else:
            node = int(tree.right[node])
    return node


def walk_all(tree, X, max_depth=None):
    return np.array([walk(tree, x, max_depth) for x in X], dtype=np.int64)


def hand_tree(feature, threshold, left, right, max_depth, n_features=2):
    """A regression tree built in code, which checks itself as a loaded one
    does. Split levels are the nodes' depths, each leaf holds one sample and
    each split node the samples of its children."""
    n = len(left)
    depth = np.zeros(n, dtype=np.int64)
    for k in range(n):
        if left[k] >= 0:
            depth[[left[k], right[k]]] = depth[k] + 1
    count = np.ones(n, dtype=np.int64)
    for k in reversed(range(n)):  # children come after their parent
        if left[k] >= 0:
            count[k] = count[left[k]] + count[right[k]]
    leaf = np.asarray(left) < 0
    return TreeModel(
        task=REGRESSION, n_features=n_features, criterion="minimax", max_depth=max_depth,
        n_min=1, n_train=int(count[0]), depth=depth, count=count,
        risk=np.zeros(n), value=np.arange(n, dtype=np.float64), log_odds=np.full(n, math.nan),
        feature=np.asarray(feature, dtype=np.int64),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int64), right=np.asarray(right, dtype=np.int64),
        split_level=np.where(leaf, -1, depth), leaf_reason=leaf.astype(np.int64),
        risk_trace=np.zeros(max_depth + 1))


# node 0 splits on x1 < 0 into 2 (left) and 1 (right); node 2 on x0 < 1
# into 4 and 3; node 1 on x0 < -1 into 6 and 5
CROSSED = dict(feature=[1, 0, 0, -1, -1, -1, -1],
               threshold=[0.0, -1.0, 1.0, math.nan, math.nan, math.nan, math.nan],
               left=[2, 6, 4, -1, -1, -1, -1], right=[1, 5, 3, -1, -1, -1, -1])


def points(rng, n, d):
    """Points with ties, signed zeros, both infinities and NaN."""
    X = rng.normal(size=(n, d))
    X[rng.random((n, d)) < 0.2] = 0.0
    specials = np.array([math.inf, -math.inf, math.nan, -0.0, 1.0, -1.0])
    at = rng.random((n, d)) < 0.15
    X[at] = rng.choice(specials, size=int(at.sum()))
    return X


@pytest.mark.parametrize("task, criterion", [(REGRESSION, "minimax"),
                                             (REGRESSION, "cyclic_minimax"),
                                             (CLASSIFICATION, "entropy_sum")])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_grown_trees_at_every_cut(task, criterion, seed):
    rng = np.random.default_rng(seed)
    d, n = 3, 300
    features = np.round(rng.normal(size=(d, n)), 1)  # ties
    targets = (np.where(rng.random(n) < 0.5, 1.0, -1.0) if task == CLASSIFICATION
               else rng.normal(size=n) + features[0])
    tree = grow(Dataset(features=features, targets=targets, task=task),
                GrowConfig(criterion=criterion, max_depth=6))
    X = np.vstack([features.T, points(rng, 200, d)])
    for cut in [None] + list(range(tree.max_depth + 2)):
        assert np.array_equal(tree.apply(X, cut), walk_all(tree, X, cut)), cut


def test_right_child_need_not_follow_left():
    tree = hand_tree(**CROSSED, max_depth=2)
    loaded = tree_from_json(tree_to_json(tree))  # the loader accepts this layout
    X = points(np.random.default_rng(4), 500, 2)
    for model in (tree, loaded):
        for cut in (None, 0, 1, 2):
            assert np.array_equal(model.apply(X, cut), walk_all(model, X, cut))
    cells = tree.apply(np.array([[0.0, -5.0], [2.0, -5.0], [-2.0, 5.0], [0.0, 5.0]]))
    assert cells.tolist() == [4, 3, 6, 5]


def test_infinities_and_nan_route_like_x_below_t():
    tree = hand_tree(**CROSSED, max_depth=2)
    X = np.array([[0.0, -math.inf], [0.0, math.inf], [0.0, math.nan], [math.nan, -1.0],
                  [-math.inf, 1.0], [math.nan, math.nan], [math.inf, -1.0]])
    # NaN compares false, so it goes right at every split
    assert tree.apply(X).tolist() == [4, 5, 5, 3, 6, 5, 3]
    assert np.array_equal(tree.apply(X), walk_all(tree, X))


@pytest.mark.parametrize("layout", ["fortran", "transposed", "reversed", "strided",
                                    "column_slice", "broadcast"])
def test_input_layouts(layout):
    tree = hand_tree(**CROSSED, max_depth=2)
    rng = np.random.default_rng(5)
    base = points(rng, 300, 4)
    X = {"fortran": np.asfortranarray(base[:, :2]),
         "transposed": np.ascontiguousarray(base[:, :2].T).T,
         "reversed": base[::-1, 1::-1],
         "strided": base[::3, ::2],
         "column_slice": base[:, 2:],
         "broadcast": np.broadcast_to(base[0, :2], (50, 2))}[layout]
    assert np.array_equal(tree.apply(X), walk_all(tree, X))


def test_single_point_and_zero_rows():
    tree = hand_tree(**CROSSED, max_depth=2)
    cell = tree.apply(np.array([2.0, -5.0]))
    assert np.ndim(cell) == 0 and cell == 3
    assert tree.predict(np.array([2.0, -5.0])) == 3.0
    empty = tree.apply(np.zeros((0, 2)))
    assert empty.dtype == np.int64 and empty.shape == (0,)
    assert tree.predict(np.zeros((0, 2))).shape == (0,)


# node 0 splits into 1 and 2, node 1 into 3 and 4: a path of two splits
DEEP = dict(feature=[0, 0, -1, -1, -1], threshold=[0.0, -1.0] + [math.nan] * 3,
            left=[1, 3, -1, -1, -1], right=[2, 4, -1, -1, -1])


def test_path_deeper_than_max_depth_raises():
    """Node 1 splits below node 0 in a tree that claims max_depth 1: the
    tree is rejected when built, not when a row reaches node 1."""
    with pytest.raises(DataError, match="split levels"):
        hand_tree(**DEEP, max_depth=1)
    tree = hand_tree(**DEEP, max_depth=2)
    X = np.array([[1.0, 0.0], [-0.5, 0.0], [-2.0, 0.0]])
    assert tree.apply(X).tolist() == [2, 4, 3]
    assert tree.apply(X, max_depth=1).tolist() == [2, 1, 1]


@pytest.mark.parametrize("feature", [-1, 2])
def test_split_feature_out_of_range_raises(feature):
    """A tree built in code whose split reads a column the points lack is
    rejected when built; prediction never meets it."""
    with pytest.raises(DataError, match="split features"):
        hand_tree(feature=[feature, -1, -1], threshold=[0.5, math.nan, math.nan],
                  left=[1, -1, -1], right=[2, -1, -1], max_depth=1)


@pytest.mark.parametrize("side, child", [("right", -1), ("right", 3), ("left", 3)])
def test_split_child_out_of_range_raises(side, child):
    """A split node pointing outside the node arrays would send rows to
    another node's value (-1, the last one's) without a word: built in code
    it is rejected, and a built tree's arrays cannot be edited into it."""
    tree = hand_tree(feature=[0, -1, -1], threshold=[0.5, math.nan, math.nan],
                     left=[1, -1, -1], right=[2, -1, -1], max_depth=1)
    with pytest.raises(ValueError, match="read-only"):
        getattr(tree, side)[0] = child
    children = getattr(tree, side).copy()
    children[0] = child
    with pytest.raises(DataError, match="children"):
        dataclasses.replace(tree, **{side: children})


@pytest.mark.parametrize("cut", [1.5, True, "1"])
def test_cut_depth_must_be_an_int(cut):
    """A cut at 1.5 would act as a cut at 2 and one at True as a cut at 1.
    Predictions and partitions take the same check; a numpy integer cut is
    an int."""
    tree = hand_tree(**CROSSED, max_depth=2)
    X = points(np.random.default_rng(5), 50, 2)
    for call in (tree.apply, tree.predict_value, tree.predict):
        with pytest.raises(ConfigError, match="max_depth"):
            call(X, cut)
    with pytest.raises(ConfigError, match="max_depth"):
        tree.partition_ids(cut)
    assert np.array_equal(tree.apply(X, np.int64(1)), walk_all(tree, X, 1))
    assert tree.partition_ids(np.int64(1)).tolist() == tree.partition_ids(1).tolist()


CHUNK = 7


@pytest.mark.parametrize("rows", [0, 1, CHUNK, CHUNK + 1, 3 * CHUNK + 1])
@pytest.mark.parametrize("cut", [None, 0, 1, 3])
def test_chunked_descent_matches_one_shot(monkeypatch, rows, cut):
    """`apply` descends `tree._APPLY_ROWS` rows at a time; with small chunks
    it gives the cells of one descent over all rows, for a grown tree and a
    hand-built one, on contiguous, strided and broadcast inputs."""
    rng = np.random.default_rng(rows)
    features = np.round(rng.normal(size=(2, 200)), 1)
    grown = grow(Dataset(features=features, targets=rng.normal(size=200) + features[1],
                         task=REGRESSION), GrowConfig(criterion="minimax", max_depth=5))
    base = points(rng, 3 * rows, 2)
    inputs = [base[:rows], base[::3], np.broadcast_to(base[:1], (rows, 2)) if rows else base[:0]]
    for tree in (grown, hand_tree(**CROSSED, max_depth=2)):
        one_shot = [tree.apply(X, cut) for X in inputs]
        with monkeypatch.context() as patch:
            patch.setattr(tree_module, "_APPLY_ROWS", CHUNK)
            for X, want in zip(inputs, one_shot):
                got = tree.apply(X, cut)
                assert got.dtype == np.int64 and np.array_equal(got, want)
                assert np.array_equal(got, walk_all(tree, X, cut))
                assert np.array_equal(tree.predict(X, cut), tree.value[want])


def test_too_deep_path_in_a_later_chunk_raises(monkeypatch):
    """A path deeper than max_depth is rejected when the tree is built, so
    no chunk meets one; a tree of the right depth gives the deep rows their
    cells in a later chunk as in the first."""
    monkeypatch.setattr(tree_module, "_APPLY_ROWS", CHUNK)
    with pytest.raises(DataError, match="split levels"):
        hand_tree(**DEEP, max_depth=1)
    tree = hand_tree(**DEEP, max_depth=2)
    X = np.ones((3 * CHUNK + 1, 2))
    assert tree.apply(X).tolist() == [2] * len(X)
    X[-1, 0] = -0.5
    X[CHUNK, 0] = -2.0
    want = [2] * len(X)
    want[-1], want[CHUNK] = 4, 3
    assert tree.apply(X).tolist() == want
    assert np.array_equal(tree.apply(X), walk_all(tree, X))
