"""The tree-v1 and forest-v1 layouts, pinned byte for byte.

Readers outside the package walk these documents node by node
(`bench/checkers.py` does), so the layout may change only on purpose. The
models are built by hand, not grown, so no numpy version can move the
literals.
"""

import dataclasses
import math

import numpy as np

from minimaxsplit import (ForestModel, TreeModel, forest_from_json, forest_to_json,
                          load_model, model_to_json, tree_from_json, tree_to_json)

NAN = math.nan


def node_arrays(depth, count, risk, value, log_odds, feature, threshold, left, right,
                split_level):
    ints = dict(depth=depth, count=count, feature=feature, left=left, right=right,
                split_level=split_level)
    floats = dict(risk=risk, value=value, log_odds=log_odds, threshold=threshold)
    return {**{k: np.array(v, dtype=np.int64) for k, v in ints.items()},
            **{k: np.array(v, dtype=np.float64) for k, v in floats.items()}}


# root splits feature 1 at 0.5; the targets 0.5 | 1, 1.5, 2
TREE = TreeModel(
    task="regression", n_features=2, criterion="minimax", max_depth=1, n_min=1, n_train=4,
    **node_arrays(depth=[0, 1, 1], count=[4, 1, 3], risk=[1.25, 0.0, 0.5],
                  value=[1.25, 0.5, 1.5], log_odds=[NAN] * 3, feature=[1, -1, -1],
                  threshold=[0.5, NAN, NAN], left=[1, -1, -1], right=[2, -1, -1],
                  split_level=[0, -1, -1]),
    leaf_reason=[None, "depth", "depth"], risk_trace=[0.3125, 0.125],
    feature_names=("p", "q"))

TREE_JSON = (
    '{"criterion":"minimax","feature_names":["p","q"],"format":"tree-v1","max_depth":1,'
    '"n_features":2,"n_min":1,"n_train":4,"nodes":['
    '{"count":4,"depth":0,"feature":1,"leaf_reason":null,"left":1,"log_odds":null,'
    '"right":2,"risk":1.25,"split_level":0,"threshold":0.5,"value":1.25},'
    '{"count":1,"depth":1,"feature":null,"leaf_reason":"depth","left":null,'
    '"log_odds":null,"right":null,"risk":0.0,"split_level":null,"threshold":null,'
    '"value":0.5},'
    '{"count":3,"depth":1,"feature":null,"leaf_reason":"depth","left":null,'
    '"log_odds":null,"right":null,"risk":0.5,"split_level":null,"threshold":null,'
    '"value":1.5}],'
    '"risk_trace":[0.3125,0.125],"task":"regression"}')

# one tree on x = 0, 1, 2, 3 with labels +1, +1, -1, -1; log-odds are
# log((p + 1/2) / (m - p + 1/2)): 0, log 5 and -log 5
FOREST = ForestModel(
    task="classification", n_features=1, criterion="entropy_minimax", n_trees=1,
    max_depth=1, n_min=1, m_try=None, bootstrap=False, seed=0,
    trees=[TreeModel(
        task="classification", n_features=1, criterion="entropy_minimax", max_depth=1,
        n_min=1, n_train=4,
        **node_arrays(depth=[0, 1, 1], count=[4, 2, 2], risk=[2.772588722239781, 0.0, 0.0],
                      value=[0.5, 1.0, 0.0],
                      log_odds=[0.0, 1.6094379124341003, -1.6094379124341003],
                      feature=[0, -1, -1], threshold=[1.5, NAN, NAN], left=[1, -1, -1],
                      right=[2, -1, -1], split_level=[0, -1, -1]),
        leaf_reason=[None, "constant_target", "constant_target"],
        risk_trace=[0.6931471805599453, 0.0])],
    bootstrap_indices=[np.arange(4, dtype=np.int64)])

FOREST_JSON = (
    '{"bootstrap":false,"bootstrap_indices":[[0,1,2,3]],"criterion":"entropy_minimax",'
    '"format":"forest-v1","m_try":null,"max_depth":1,"n_features":1,"n_min":1,'
    '"n_trees":1,"seed":0,"task":"classification","trees":['
    '{"criterion":"entropy_minimax","format":"tree-v1","max_depth":1,"n_features":1,'
    '"n_min":1,"n_train":4,"nodes":['
    '{"count":4,"depth":0,"feature":0,"leaf_reason":null,"left":1,"log_odds":0.0,'
    '"right":2,"risk":2.772588722239781,"split_level":0,"threshold":1.5,"value":0.5},'
    '{"count":2,"depth":1,"feature":null,"leaf_reason":"constant_target","left":null,'
    '"log_odds":1.6094379124341003,"right":null,"risk":0.0,"split_level":null,'
    '"threshold":null,"value":1.0},'
    '{"count":2,"depth":1,"feature":null,"leaf_reason":"constant_target","left":null,'
    '"log_odds":-1.6094379124341003,"right":null,"risk":0.0,"split_level":null,'
    '"threshold":null,"value":0.0}],'
    '"risk_trace":[0.6931471805599453,0.0],"task":"classification"}]}')


def assert_same_model(got, want):
    """Field by field; arrays by value and dtype, NaN equal to NaN."""
    assert type(got) is type(want)
    for f in dataclasses.fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if f.name == "trees":
            assert len(a) == len(b)
            for x, y in zip(a, b):
                assert_same_model(x, y)
        elif f.name == "bootstrap_indices":
            assert len(a) == len(b)
            for x, y in zip(a, b):
                np.testing.assert_array_equal(x, y, strict=True)
        elif isinstance(b, np.ndarray):
            np.testing.assert_array_equal(a, b, strict=True)
        else:
            assert a == b, f.name


def test_regression_tree_layout():
    assert tree_to_json(TREE) == TREE_JSON == model_to_json(TREE)
    assert_same_model(tree_from_json(TREE_JSON), TREE)
    assert_same_model(load_model(TREE_JSON), TREE)


def test_classification_forest_layout():
    assert forest_to_json(FOREST) == FOREST_JSON == model_to_json(FOREST)
    assert_same_model(forest_from_json(FOREST_JSON), FOREST)
    assert_same_model(load_model(FOREST_JSON), FOREST)
    # the hand-built forest votes as its leaves say
    np.testing.assert_array_equal(FOREST.predict([[0.0], [3.0]]), [1.0, -1.0])
