import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from minimaxsplit import (
    CLASSIFICATION,
    REGRESSION,
    ConfigError,
    DataError,
    Dataset,
    ForestConfig,
    ForestModel,
    GrowConfig,
    forest_from_json,
    forest_to_json,
    grow,
    load_model,
    model_to_json,
    train_forest,
    tree_to_json,
)

from conftest import build_model, predict_exit, same_json


def toy_regression(seed=0, n=200, d=3):
    rng = np.random.default_rng(seed)
    X = rng.uniform(size=(d, n))
    y = np.sin(6 * X[0]) + 0.5 * X[1] + 0.1 * rng.normal(size=n)
    return Dataset(features=X, targets=y, task=REGRESSION)


class TestSingleTreeEquivalence:
    def test_one_tree_no_bootstrap_equals_grow(self):
        data = toy_regression()
        forest = train_forest(data, ForestConfig(criterion="minimax", n_trees=1,
                                                 max_depth=4, bootstrap=False))
        alone = grow(data, GrowConfig(criterion="minimax", max_depth=4))
        same_json(tree_to_json(forest.trees[0]), tree_to_json(alone))
        X = data.features.T[:20]
        np.testing.assert_array_equal(forest.predict(X), alone.predict(X))
        np.testing.assert_array_equal(forest.bootstrap_indices[0], np.arange(200))


class TestAveraging:
    def test_ensemble_never_beats_jensen(self):
        """MSE of the averaged prediction is at most the average per-tree MSE
        (bias-variance identity for a plain mean)."""
        data = toy_regression(seed=1)
        test = toy_regression(seed=2)
        X, y = test.features.T, test.targets
        forest = train_forest(data, ForestConfig(criterion="variance", n_trees=20,
                                                 max_depth=6), seed=5)
        ens = float(np.mean((forest.predict(X) - y) ** 2))
        per_tree = [float(np.mean((t.predict(X) - y) ** 2)) for t in forest.trees]
        assert ens <= np.mean(per_tree) + 1e-10

    def test_prediction_is_tree_mean(self):
        data = toy_regression(seed=3)
        forest = train_forest(data, ForestConfig(criterion="minimax", n_trees=7,
                                                 max_depth=3), seed=9)
        X = data.features.T[:15]
        want = np.mean([t.predict_value(X) for t in forest.trees], axis=0)
        np.testing.assert_array_equal(forest.predict(X), want)


class TestDeterminism:
    def test_same_seed_same_bytes(self):
        data = toy_regression(seed=4)
        cfg = ForestConfig(criterion="minimax", n_trees=6, max_depth=4, m_try=2)
        a = train_forest(data, cfg, seed=21)
        b = train_forest(data, cfg, seed=21)
        same_json(forest_to_json(a), forest_to_json(b))
        c = train_forest(data, cfg, seed=22)
        assert forest_to_json(c) != forest_to_json(a)


class TestCyclicPlans:
    def test_m_try_one_maps_to_plain_minimax(self):
        data = toy_regression(seed=8)
        forest = train_forest(data, ForestConfig(criterion="cyclic_minimax",
                                                 n_trees=3, max_depth=3, m_try=1))
        assert forest.criterion == "cyclic_minimax"
        assert all(t.criterion == "minimax" for t in forest.trees)

    def test_full_feature_set_keeps_schedule(self):
        data = toy_regression(seed=8)
        for m_try in (None, 3):
            forest = train_forest(data, ForestConfig(criterion="cyclic_minimax",
                                                     n_trees=2, max_depth=3,
                                                     m_try=m_try))
            assert all(t.criterion == "cyclic_minimax" for t in forest.trees)

    def test_partial_subsets_rejected(self):
        data = toy_regression(seed=8)
        with pytest.raises(ConfigError):
            train_forest(data, ForestConfig(criterion="cyclic_minimax", n_trees=2,
                                            max_depth=2, m_try=2))

    def test_m_try_over_dimension_rejected(self):
        data = toy_regression()
        with pytest.raises(ConfigError):
            train_forest(data, ForestConfig(criterion="minimax", n_trees=2,
                                            max_depth=2, m_try=4))


class TestClassificationVoting:
    def make(self, seed=0):
        rng = np.random.default_rng(seed)
        X = rng.uniform(-1, 1, size=(2, 300))
        y = np.where(X[0] + 0.3 * X[1] > 0, 1.0, -1.0)
        return Dataset(features=X, targets=y, task=CLASSIFICATION)

    def test_votes_recover_signal(self):
        data = self.make()
        forest = train_forest(data, ForestConfig(criterion="entropy_minimax",
                                                 n_trees=15, max_depth=6), seed=2)
        grid = np.array([[0.8, 0.0], [-0.8, 0.0]])
        np.testing.assert_array_equal(forest.predict(grid), [1.0, -1.0])

    def test_value_is_mean_log_odds(self):
        data = self.make(seed=1)
        forest = train_forest(data, ForestConfig(criterion="entropy_sum",
                                                 n_trees=5, max_depth=4), seed=4)
        X = data.features.T[:10]
        want = np.mean([t.predict_log_odds(X) for t in forest.trees], axis=0)
        np.testing.assert_array_equal(forest.predict_value(X), want)
        labels = forest.predict(X)
        np.testing.assert_array_equal(labels, np.where(want >= 0, 1.0, -1.0))


class TestSerialization:
    def test_round_trip_bytes_and_predictions(self):
        data = toy_regression(seed=10)
        forest = train_forest(data, ForestConfig(criterion="minimax", n_trees=4,
                                                 max_depth=4), seed=13)
        text = forest_to_json(forest)
        back = forest_from_json(text)
        same_json(forest_to_json(back), text)
        X = data.features.T[:25]
        np.testing.assert_array_equal(back.predict(X), forest.predict(X))

    def test_load_model_dispatch(self):
        data = toy_regression(seed=12)
        tree = grow(data, GrowConfig(criterion="variance", max_depth=3))
        forest = train_forest(data, ForestConfig(criterion="variance", n_trees=2,
                                                 max_depth=3))
        from minimaxsplit import TreeModel
        assert isinstance(load_model(model_to_json(tree)), TreeModel)
        assert isinstance(load_model(model_to_json(forest)), ForestModel)
        with pytest.raises(DataError):
            load_model("{\"format\": \"mystery\"}")
        with pytest.raises(DataError):
            load_model("not json at all")
        with pytest.raises(ConfigError):
            model_to_json(object())

    def test_forest_json_rejects_tree_document(self):
        data = toy_regression(seed=12)
        tree = grow(data, GrowConfig(criterion="variance", max_depth=2))
        with pytest.raises(DataError):
            forest_from_json(tree_to_json(tree))


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_bootstrap_indices_are_recorded(seed):
    data = toy_regression(seed=seed % 100, n=60)
    forest = train_forest(data, ForestConfig(criterion="variance", n_trees=3,
                                             max_depth=2), seed=seed)
    assert len(forest.bootstrap_indices) == 3
    for idx in forest.bootstrap_indices:
        assert idx.shape == (60,)
        assert idx.min() >= 0 and idx.max() < 60
    # distinct trees see distinct resamples almost surely
    assert not np.array_equal(forest.bootstrap_indices[0],
                              forest.bootstrap_indices[1])


def _forest_set(key, value):
    return lambda doc: doc.update({key: value})


def _each_tree(key, value):
    def mutate(doc):
        doc["trees"][1][key] = value
    return mutate


# each mutation of a 5-tree, 8-feature forest document that load must reject
CRAFTED_FORESTS = {
    "n_trees_overflows": _forest_set("n_trees", math.inf),
    "max_depth_overflows": _forest_set("max_depth", math.inf),
    "n_trees_disagrees": _forest_set("n_trees", 99),
    "n_features_disagrees": _forest_set("n_features", 3),
    "seed_not_an_integer": _forest_set("seed", -1.5),
    "n_min_a_bool": _forest_set("n_min", True),
    "m_try_not_an_integer": _forest_set("m_try", 2.0),
    "max_depth_disagrees": _forest_set("max_depth", 5),
    "n_min_disagrees": _forest_set("n_min", 4),
    "task_disagrees": _forest_set("task", CLASSIFICATION),
    "unknown_criterion": _forest_set("criterion", "gini"),
    "bootstrap_not_a_bool": _forest_set("bootstrap", "false"),
    "one_bootstrap_list_missing": lambda doc: doc["bootstrap_indices"].pop(),
    "bootstrap_index_not_an_integer": lambda doc: doc["bootstrap_indices"][0].__setitem__(0, 0.5),
    "tree_missing": lambda doc: doc["trees"].pop(),
    "no_trees": lambda doc: doc.update(n_trees=0, trees=[], bootstrap_indices=[]),
    "tree_of_other_depth": _each_tree("max_depth", 9),
    "names_too_few": _forest_set("feature_names", ["a", "b"]),
    "names_repeat": _forest_set("feature_names", ["a"] * 8),
    "names_on_one_tree_only": _each_tree("feature_names", [f"x{j}" for j in range(8)]),
}


class TestCraftedForests:
    """Each crafted fault is rejected with DataError wherever the forest is
    built: by the loader, by a direct ForestModel(...) call and by
    `predict` (exit 3)."""

    @pytest.fixture
    def doc(self):
        forest = train_forest(toy_regression(seed=5, n=80, d=8),
                              ForestConfig(criterion="minimax", n_trees=5, max_depth=3),
                              seed=7)
        doc = json.loads(forest_to_json(forest))
        same_json(forest_to_json(forest_from_json(json.dumps(doc))), forest_to_json(forest))
        same_json(forest_to_json(build_model(json.loads(json.dumps(doc)))),
                  forest_to_json(forest))
        return doc

    @pytest.mark.parametrize("name", sorted(CRAFTED_FORESTS))
    def test_rejected_on_load(self, doc, name):
        CRAFTED_FORESTS[name](doc)
        text = json.dumps(doc).replace("Infinity", "1e400")
        with pytest.raises(DataError):
            load_model(text)

    @pytest.mark.parametrize("name", sorted(CRAFTED_FORESTS))
    def test_rejected_when_built(self, doc, name):
        CRAFTED_FORESTS[name](doc)
        with pytest.raises(DataError):
            build_model(doc)

    @pytest.mark.parametrize("name", sorted(CRAFTED_FORESTS))
    def test_predict_exits_three(self, doc, tmp_path, name):
        assert predict_exit(tmp_path / "good", doc, 8) == 0
        CRAFTED_FORESTS[name](doc)
        assert predict_exit(tmp_path, doc, 8) == 3

    def test_feature_names_round_trip(self, doc):
        names = [f"x{j}" for j in range(8)]
        doc["feature_names"] = names
        for tree in doc["trees"]:
            tree["feature_names"] = names
        forest = load_model(json.dumps(doc))
        assert forest.feature_names == tuple(names)
        assert json.loads(model_to_json(forest)) == doc


def test_forest_of_disagreeing_trees_is_rejected_when_built():
    """Trees grown on data of another width cannot join a forest: such a
    forest would save a model.json that no loader takes."""
    forest = train_forest(toy_regression(seed=1, n=60, d=3),
                          ForestConfig(criterion="variance", n_trees=2, max_depth=2))
    other = grow(toy_regression(seed=2, n=60, d=2), GrowConfig(criterion="variance",
                                                                max_depth=2))
    with pytest.raises(DataError, match="n_features"):
        dataclasses.replace(forest, trees=(forest.trees[0], other))


def test_built_forest_is_frozen():
    forest = train_forest(toy_regression(seed=1, n=60),
                          ForestConfig(criterion="variance", n_trees=2, max_depth=2))
    assert isinstance(forest.trees, tuple) and isinstance(forest.bootstrap_indices, tuple)
    with pytest.raises(dataclasses.FrozenInstanceError):
        forest.n_trees = 3
    with pytest.raises(ValueError, match="read-only"):
        forest.bootstrap_indices[0][0] = 0
    with pytest.raises(ValueError, match="read-only"):
        forest.trees[0].left[0] = 0


@pytest.mark.parametrize("nulls", ["one_leaf", "every_node"])
def test_classification_log_odds_must_be_numbers(nulls):
    """A classification forest votes with its trees' log-odds; a null one
    would read as NaN and label every row it reaches -1."""
    base = toy_regression(seed=3, n=80)
    data = Dataset(features=base.features, targets=np.where(base.targets > 0.3, 1.0, -1.0),
                   task=CLASSIFICATION)
    forest = train_forest(data, ForestConfig(criterion="entropy_minimax", n_trees=3,
                                             max_depth=3), seed=1)
    doc = json.loads(forest_to_json(forest))
    nodes = doc["trees"][1]["nodes"]
    for node in nodes if nulls == "every_node" else [nodes[-1]]:
        node["log_odds"] = None
    with pytest.raises(DataError, match="log_odds"):
        load_model(json.dumps(doc))


def test_forest_records_dataset_feature_names():
    base = toy_regression(seed=2, n=60)
    data = Dataset(features=base.features, targets=base.targets, task=REGRESSION,
                   feature_names=["u", "v", "w"])
    forest = train_forest(data, ForestConfig(criterion="variance", n_trees=2, max_depth=2))
    assert forest.feature_names == ("u", "v", "w")
    assert all(t.feature_names == ("u", "v", "w") for t in forest.trees)
    back = load_model(model_to_json(forest))
    assert back.feature_names == ("u", "v", "w")
    # models of unnamed data write no key, as before
    plain = train_forest(base, ForestConfig(criterion="variance", n_trees=2, max_depth=2))
    assert "feature_names" not in model_to_json(plain)
