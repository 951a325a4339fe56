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
    GrowConfig,
    grow,
    load_model,
    tree_from_json,
    tree_to_json,
)
from minimaxsplit.rng import stream
from minimaxsplit.tree import grow_trees, tree_from_doc, tree_to_doc


def small_regression():
    return Dataset(features=[[0.0, 1, 2, 3]], targets=[0.0, 4, 5, 9],
                   task=REGRESSION)


class TestStumpExample:
    """One fully worked stump: every number checkable by hand."""

    def grown(self):
        return grow(small_regression(), GrowConfig(criterion="minimax", max_depth=1))

    def test_structure(self):
        t = self.grown()
        assert t.n_nodes == 3 and t.n_leaves == 2
        assert t.feature[0] == 0 and t.threshold[0] == 1.5

    def test_leaf_values(self):
        t = self.grown()
        assert t.predict([0.5]) == 2.0
        assert t.predict([3.0]) == 7.0
        np.testing.assert_array_equal(t.predict([[0.0], [1.0], [2.0], [3.0]]),
                                      [2.0, 2.0, 7.0, 7.0])

    def test_risk_trace(self):
        t = self.grown()
        # root SSE 41 over 4 points, then two children of SSE 8 each
        assert t.risk_trace == [10.25, 4.0]

    def test_leaf_reasons(self):
        t = self.grown()
        assert t.leaf_reason[0] is None
        assert t.leaf_reason[1] == "depth" and t.leaf_reason[2] == "depth"

    def test_partition_report(self):
        t = self.grown()
        ids = t.partition_ids()
        assert ids.tolist() == [1, 2]
        assert t.count[ids].tolist() == [2, 2]
        assert t.value[ids].tolist() == [2.0, 7.0]
        assert t.risk[ids].sum() == 16.0 and t.risk[ids].sum() / t.n_train == 4.0

    def test_cell_bounds(self):
        # x < 1.5 lands in the left cell, x = 1.5 already in the right one
        t = self.grown()
        assert t.apply([[-math.inf], [1.4999], [1.5], [math.inf]]).tolist() == [
            int(t.left[0]), int(t.left[0]), int(t.right[0]), int(t.right[0])]

    def test_depth_zero_truncation(self):
        t = self.grown()
        assert t.predict([0.0], max_depth=0) == 4.5
        assert t.partition_ids(0).tolist() == [0]


class TestLeafSizeSplit:
    def test_two_eight_partition(self):
        y = [100.0, 100] + [0.0] * 8
        data = Dataset(features=[list(range(10))], targets=y, task=REGRESSION)
        t = grow(data, GrowConfig(criterion="variance", max_depth=1))
        counts = t.count[t.partition_ids()]
        assert sorted(counts.tolist()) == [2, 8]
        assert np.mean(counts) == 5.0 and np.std(counts) == 3.0
        assert t.risk[t.partition_ids()].tolist() == [0.0, 0.0]


class TestStoppingRules:
    def test_constant_target(self):
        data = Dataset(features=[[0.0, 1, 2]], targets=[5.0, 5, 5], task=REGRESSION)
        t = grow(data, GrowConfig(criterion="minimax", max_depth=4))
        assert t.n_nodes == 1 and t.leaf_reason[0] == "constant_target"

    def test_constant_features(self):
        data = Dataset(features=[[2.0, 2, 2]], targets=[0.0, 1, 2], task=REGRESSION)
        t = grow(data, GrowConfig(criterion="minimax", max_depth=4))
        assert t.n_nodes == 1 and t.leaf_reason[0] == "constant_features"

    def test_n_min_is_strict(self):
        data = small_regression()
        blocked = grow(data, GrowConfig(criterion="minimax", max_depth=3, n_min=4))
        assert blocked.n_nodes == 1 and blocked.leaf_reason[0] == "n_min"
        open_ = grow(data, GrowConfig(criterion="minimax", max_depth=1, n_min=3))
        assert open_.n_nodes == 3

    def test_no_valid_split_under_feature_draws(self):
        # with m_try=1 a node may draw the constant feature and must give up
        X = [[7.0, 7, 7, 7], [0.0, 1, 2, 3]]
        data = Dataset(features=X, targets=[0.0, 4, 5, 9], task=REGRESSION)
        reasons = set()
        for seed in range(16):
            t = grow(data, GrowConfig(criterion="variance", max_depth=3,
                                      m_try=1, seed=seed))
            reasons.update(r for r in t.leaf_reason if r is not None)
        assert "no_valid_split" in reasons

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            GrowConfig(criterion="minimax", max_depth=-1)
        with pytest.raises(ConfigError):
            GrowConfig(criterion="minimax", max_depth=2, n_min=0)
        with pytest.raises(ConfigError):
            GrowConfig(criterion="minimax", max_depth=2,
                       fixed_features=(0,), m_try=1)
        with pytest.raises(ConfigError):
            GrowConfig(criterion="minimax", max_depth=2, m_try=0)

    def test_grow_validation(self):
        data = small_regression()
        with pytest.raises(ConfigError):
            grow(data, GrowConfig(criterion="minimax", max_depth=2, m_try=5))
        with pytest.raises(ConfigError):
            grow(data, GrowConfig(criterion="cyclic_minimax", max_depth=2, m_try=1))
        with pytest.raises(ConfigError):
            grow(data, GrowConfig(criterion="entropy_sum", max_depth=2))
        with pytest.raises(ConfigError):
            grow(data, GrowConfig(criterion="minimax", max_depth=2,
                                  fixed_features=(3,)))


class TestGrowTreesChecks:
    """`grow_trees` (through `growth.Growth`) rejects a missing stream, an
    empty sample and an index outside [0, n) instead of crashing or reading
    a wrapped-around row."""

    def grow(self, samples, criterion="minimax", m_try=None, features=True, splits=True):
        data = Dataset(features=[[0.0, 1, 2, 3], [3.0, 1, 2, 0]], targets=[0.0, 4, 5, 9],
                       task=REGRESSION)
        cfg = GrowConfig(criterion=criterion, max_depth=2, m_try=m_try)
        trees = range(len(samples))
        return grow_trees(data, cfg, samples,
                          [stream(b, "features") if features else None for b in trees],
                          [stream(b, "splits") if splits else None for b in trees])

    @pytest.mark.parametrize("criterion,m_try,features,splits", [
        ("minimax", 1, False, True),
        ("random_uniform", None, True, False),
        ("random_observed", None, True, False),
    ])
    def test_missing_stream(self, criterion, m_try, features, splits):
        with pytest.raises(ConfigError, match="stream"):
            self.grow([np.arange(4)], criterion, m_try, features, splits)

    @pytest.mark.parametrize("sample", [np.array([], dtype=np.int64), [], None,
                                        np.array([0.0, 1.0]), np.zeros((2, 2), dtype=np.int64)])
    def test_malformed_sample(self, sample):
        with pytest.raises(DataError, match="non-empty 1-D index array"):
            self.grow([np.arange(4), sample])

    @pytest.mark.parametrize("sample", [[0, -1], [4], [0, 1, 2, 3, 10]])
    def test_index_out_of_range(self, sample):
        with pytest.raises(DataError, match=r"\[0, 4\)"):
            self.grow([np.array(sample)])


class TestCyclicPersistence:
    """A node whose scheduled feature is constant waits for the next level
    instead of dying; split_level records where it finally cut."""

    def data(self):
        return Dataset(features=[[5.0, 5, 5, 5], [0.0, 1, 2, 3]],
                       targets=[0.0, 0, 10, 10], task=REGRESSION)

    def test_root_waits_one_level(self):
        t = grow(self.data(), GrowConfig(criterion="cyclic_minimax", max_depth=2))
        assert t.split_level[0] == 1 and t.depth[0] == 0
        assert t.feature[0] == 1 and t.threshold[0] == 1.5
        np.testing.assert_array_equal(
            t.predict([[0.0, 0.5], [0.0, 2.5]]), [0.0, 10.0])

    def test_truncated_partitions_follow_split_level(self):
        t = grow(self.data(), GrowConfig(criterion="cyclic_minimax", max_depth=2))
        assert t.partition_ids(1).tolist() == [0]
        assert len(t.partition_ids(2)) == 2
        # cutting at depth 1 therefore predicts the root mean everywhere
        assert t.predict([0.0, 3.0], max_depth=1) == 5.0

    def test_exhausted_schedule(self):
        # both features constant from the start: plain constant-features leaf
        data = Dataset(features=[[1.0, 1], [2.0, 2]], targets=[0.0, 1],
                       task=REGRESSION)
        t = grow(data, GrowConfig(criterion="cyclic_minimax", max_depth=3))
        assert t.n_nodes == 1 and t.leaf_reason[0] == "constant_features"


class TestClassification:
    def data(self):
        return Dataset(features=[[0.0, 1, 2, 3, 4, 5, 6]],
                       targets=[1.0, 1, 1, 1, -1, -1, -1],
                       task=CLASSIFICATION)

    def test_pure_leaves_and_smoothed_log_odds(self):
        t = grow(self.data(), GrowConfig(criterion="entropy_minimax", max_depth=1))
        assert t.threshold[0] == 3.5
        labels, lo = t.predict([[1.0], [5.0]]), t.predict_log_odds([[1.0], [5.0]])
        np.testing.assert_array_equal(labels, [1.0, -1.0])
        assert lo[0] == pytest.approx(math.log(4.5 / 0.5), abs=1e-12)
        assert lo[1] == pytest.approx(math.log(0.5 / 3.5), abs=1e-12)

    def test_label_threshold_at_half(self):
        t = grow(self.data(), GrowConfig(criterion="entropy_minimax", max_depth=0))
        # root has 4/7 positives -> +1
        assert t.predict([2.0]) == 1.0

    def test_classify_rejects_regression_tree(self):
        t = grow(small_regression(), GrowConfig(criterion="minimax", max_depth=1))
        with pytest.raises(ConfigError):
            t.predict_log_odds([[0.0]])


class TestSerialization:
    def test_round_trip_is_byte_stable(self):
        data = Dataset(features=[[0.0, 1, 2, 3], [3.0, 1, 0, 2]],
                       targets=[0.0, 4, 5, 9], task=REGRESSION)
        t = grow(data, GrowConfig(criterion="minimax", max_depth=3))
        text = tree_to_json(t)
        again = tree_to_json(tree_from_json(text))
        assert text == again
        doc = json.loads(text)
        assert doc["format"] == "tree-v1"

    def test_round_trip_preserves_predictions(self):
        rng = np.random.default_rng(7)
        data = Dataset(features=rng.normal(size=(3, 200)),
                       targets=rng.normal(size=200), task=REGRESSION)
        t = grow(data, GrowConfig(criterion="variance", max_depth=5))
        back = tree_from_json(tree_to_json(t))
        X = rng.normal(size=(50, 3))
        np.testing.assert_array_equal(t.predict(X), back.predict(X))
        assert back.risk_trace == t.risk_trace
        assert back.leaf_reason == t.leaf_reason

    def test_classification_round_trip(self):
        rng = np.random.default_rng(11)
        data = Dataset(features=rng.normal(size=(2, 80)),
                       targets=np.where(rng.random(80) < 0.5, -1.0, 1.0),
                       task=CLASSIFICATION)
        t = grow(data, GrowConfig(criterion="entropy_sum", max_depth=4))
        back = tree_from_json(tree_to_json(t))
        X = rng.normal(size=(30, 2))
        np.testing.assert_array_equal(t.predict(X), back.predict(X))
        np.testing.assert_array_equal(t.predict_log_odds(X), back.predict_log_odds(X))

    def test_bad_documents(self):
        with pytest.raises(DataError):
            tree_from_json("{\"format\": \"something-else\"}")
        with pytest.raises(DataError):
            tree_from_json("[]")


def _set(node: int, key: str, value):
    def mutate(doc):
        doc["nodes"][node][key] = value
    return mutate


# each mutation of a grown depth-3 tree's document (node 0 splits into 1 and
# 2, node 1 into 3 and 4) that load must reject
CRAFTED = {
    "root_left_is_itself": _set(0, "left", 0),
    "child_points_back": _set(1, "right", 0),
    "child_past_the_end": _set(0, "right", 99),
    "child_shared": _set(1, "left", 2),
    "one_child_missing": _set(0, "right", None),
    "feature_out_of_range": _set(0, "feature", 2),
    "feature_negative": _set(1, "feature", -1),
    "feature_not_an_integer": _set(0, "feature", 0.5),
    "child_not_an_integer": _set(0, "left", 1.5),
    "child_a_bool": _set(0, "left", True),
    "child_overflows": _set(0, "left", 2 ** 70),
    "threshold_missing": _set(1, "threshold", None),
    "split_level_at_max_depth": _set(0, "split_level", 3),
    "child_splits_no_later": _set(1, "split_level", 0),
    "node_field_not_a_number": _set(2, "risk", [1.0, 2.0]),
    "risk_trace_too_short": lambda doc: doc["risk_trace"].pop(),
    "no_nodes": lambda doc: doc["nodes"].clear(),
    "unknown_task": lambda doc: doc.update(task="ranking"),
}


class TestCraftedModels:
    @pytest.fixture
    def doc(self):
        rng = np.random.default_rng(3)
        data = Dataset(features=rng.normal(size=(2, 60)), targets=rng.normal(size=60),
                       task=REGRESSION)
        doc = tree_to_doc(grow(data, GrowConfig(criterion="variance", max_depth=3)))
        assert [doc["nodes"][i]["left"] for i in (0, 1)] == [1, 3]
        assert tree_from_doc(json.loads(json.dumps(doc))) is not None
        return doc

    @pytest.mark.parametrize("name", sorted(CRAFTED))
    def test_rejected_on_load(self, doc, name):
        CRAFTED[name](doc)
        with pytest.raises(DataError):
            tree_from_doc(doc)
        with pytest.raises(DataError):
            load_model(json.dumps(doc))

    def test_descent_is_capped(self, doc):
        """A tree built in code, so never checked, whose root is its own
        child: apply stops after max_depth steps instead of looping."""
        tree = tree_from_doc(doc)
        tree.left[0] = 0
        X = np.zeros((4, 2))
        X[:, tree.feature[0]] = tree.threshold[0] - 1.0  # every point goes left
        with pytest.raises(DataError):
            tree.apply(X)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       crit=st.sampled_from(["variance", "minimax", "cyclic_minimax"]))
def test_trace_never_increases(seed, crit):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 200))
    d = int(rng.integers(1, 4))
    data = Dataset(features=rng.normal(size=(d, n)),
                   targets=rng.normal(size=n), task=REGRESSION)
    depth = int(rng.integers(0, 7))
    t = grow(data, GrowConfig(criterion=crit, max_depth=depth))
    trace = t.risk_trace
    assert len(trace) == depth + 1
    assert all(b <= a for a, b in zip(trace, trace[1:]))
    assert trace[0] == pytest.approx(float(np.var(data.targets)), rel=1e-9)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_partitions_cover_training_data(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 150))
    data = Dataset(features=rng.normal(size=(2, n)),
                   targets=rng.normal(size=n), task=REGRESSION)
    t = grow(data, GrowConfig(criterion="minimax", max_depth=5))
    X = data.features.T
    for cut in (0, 1, 3, None):
        ids = t.partition_ids(cut)
        hits = t.apply(X, cut)
        assert set(np.unique(hits)) <= set(ids.tolist())
        counts = {int(i): int(c) for i, c in zip(*np.unique(hits, return_counts=True))}
        for i in ids:
            assert counts.get(int(i), 0) == int(t.count[i])
    leaves = t.partition_ids()
    assert t.count[leaves].sum() == n
    assert t.risk[leaves].sum() / t.n_train == pytest.approx(t.risk_trace[-1], rel=1e-9,
                                                             abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_feature_subsampling_is_reproducible(seed):
    rng = np.random.default_rng(seed)
    data = Dataset(features=rng.normal(size=(4, 100)),
                   targets=rng.normal(size=100), task=REGRESSION)
    cfg = GrowConfig(criterion="minimax", max_depth=4, m_try=2, seed=seed)
    a = grow(data, cfg)
    b = grow(data, cfg)
    assert tree_to_json(a) == tree_to_json(b)


@pytest.mark.parametrize("names", [["a"], ["a", "a"], ["a", ""], ["a", 1], "ab", {"a": 1}])
def test_bad_feature_names_rejected_on_load(names):
    rng = np.random.default_rng(4)
    data = Dataset(features=rng.normal(size=(2, 40)), targets=rng.normal(size=40),
                   task=REGRESSION)
    doc = tree_to_doc(grow(data, GrowConfig(criterion="variance", max_depth=2)))
    assert "feature_names" not in doc
    doc["feature_names"] = names
    with pytest.raises(DataError, match="feature names"):
        tree_from_doc(doc)
    with pytest.raises(DataError):
        load_model(json.dumps(doc))


def test_header_fields_must_be_integers():
    rng = np.random.default_rng(4)
    data = Dataset(features=rng.normal(size=(2, 40)), targets=rng.normal(size=40),
                   task=REGRESSION, feature_names=("p", "q"))
    doc = tree_to_doc(grow(data, GrowConfig(criterion="variance", max_depth=2)))
    assert doc["feature_names"] == ["p", "q"]
    assert tree_from_doc(doc).feature_names == ("p", "q")
    for key, value in [("max_depth", 2.0), ("n_features", 1e400), ("n_train", "40")]:
        bad = dict(doc, **{key: value})
        with pytest.raises(DataError):
            tree_from_doc(bad)
