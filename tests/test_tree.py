import dataclasses
import json
import math
import tracemalloc

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
    GrowConfig,
    best_splits,
    forest_to_json,
    grow,
    load_model,
    train_forest,
    tree_from_json,
    tree_to_json,
)
from minimaxsplit.growth import _REASONS
from minimaxsplit.rng import stream
from minimaxsplit.tree import NODE_FIELDS, grow_trees, tree_from_doc, tree_to_doc

from conftest import build_model, predict_exit


def reason_names(tree):
    """The leaf reason of each node by name, None on split nodes."""
    return [_REASONS[k] for k in tree.leaf_reason]


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
        assert t.risk_trace.tolist() == [10.25, 4.0]

    def test_leaf_reasons(self):
        t = self.grown()
        assert t.leaf_reason.tolist() == [0, 1, 1]
        assert reason_names(t) == [None, "depth", "depth"]

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
        assert reason_names(t) == ["constant_target"]

    def test_constant_features(self):
        data = Dataset(features=[[2.0, 2, 2]], targets=[0.0, 1, 2], task=REGRESSION)
        t = grow(data, GrowConfig(criterion="minimax", max_depth=4))
        assert reason_names(t) == ["constant_features"]

    def test_n_min_is_strict(self):
        data = small_regression()
        blocked = grow(data, GrowConfig(criterion="minimax", max_depth=3, n_min=4))
        assert reason_names(blocked) == ["n_min"]
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
            reasons.update(reason_names(t))
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

    def test_fixed_features_must_be_ints(self):
        # a float would be truncated and a string parsed to some feature index
        for feats in ((0.7,), ("1",), (True,), (0, 1.0)):
            with pytest.raises(ConfigError, match="fixed_features must be ints"):
                GrowConfig(criterion="minimax", max_depth=2, fixed_features=feats)
        for feats in ((np.int64(1), np.uint8(0)), np.array([1, 0])):
            config = GrowConfig(criterion="minimax", max_depth=2, fixed_features=feats)
            assert config.fixed_features == (1, 0)
            assert all(type(j) is int for j in config.fixed_features)

    def test_numpy_ints_are_ints(self):
        """Every integer field takes a numpy int, as `fixed_features` does,
        and stores a Python int, so the model bytes are the same."""
        rng = np.random.default_rng(3)
        data = Dataset(features=rng.normal(size=(2, 60)), targets=rng.normal(size=60),
                       task=REGRESSION)
        config = GrowConfig(criterion="minimax", max_depth=np.int64(3), n_min=np.int32(2))
        assert (config.max_depth, config.n_min) == (3, 2)
        assert type(config.max_depth) is int and type(config.n_min) is int
        assert tree_to_json(grow(data, config)) == tree_to_json(
            grow(data, GrowConfig(criterion="minimax", max_depth=3, n_min=2)))
        forest = ForestConfig(criterion="minimax", n_trees=np.int64(2), max_depth=2)
        assert type(forest.n_trees) is int
        assert forest_to_json(train_forest(data, forest, seed=1)) == forest_to_json(
            train_forest(data, ForestConfig(criterion="minimax", n_trees=2, max_depth=2),
                         seed=1))

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


class TestHugeTargets:
    """Regression targets whose squared sums overflow would give a root
    risk of 0 and a flat risk trace without a word; every way into growth
    rejects them with DataError (`dataset.check_scale`). A sum never runs
    over more rows than one tree's sample, so the bound takes n from the
    largest sample block, not from the blocks stacked."""

    data = Dataset(features=[[0.0, 1, 2, 3]], targets=[1e200, 1, 2, 3], task=REGRESSION)

    def test_every_entry_rejects(self):
        config = GrowConfig(criterion="minimax", max_depth=1)
        with pytest.raises(DataError, match="target"):
            grow(self.data, config)
        with pytest.raises(DataError, match="target"):
            grow_trees(self.data, config, [np.arange(4)], [None], [None])
        with pytest.raises(DataError, match="target"):
            best_splits(self.data, "minimax", [np.arange(4)], [None])
        with pytest.raises(DataError, match="target"):
            train_forest(self.data, ForestConfig(criterion="minimax", n_trees=2, max_depth=1))

    def test_bound_takes_the_largest_block(self):
        # past the bound for 4 rows, sqrt(largest float) / 8, within the
        # one for 2 rows
        big = math.sqrt(np.finfo(np.float64).max) / 5
        data = Dataset(features=[[0.0, 1, 2, 3]], targets=[big, -big, 2, 3], task=REGRESSION)
        with pytest.raises(DataError, match="over 4 rows"):
            best_splits(data, "minimax", [np.arange(4)], [None])
        split = best_splits(data, "minimax", [np.arange(2), np.arange(2, 4)], [None, None])
        assert split.feature.tolist() == [0, 0]
        assert np.all(np.isfinite(split.left_risk)) and np.all(np.isfinite(split.right_risk))
        trees = grow_trees(data, GrowConfig(criterion="minimax", max_depth=1),
                           [np.arange(2), np.arange(2, 4)], [None, None], [None, None])
        assert trees[0].risk_trace[0] > 0 and all(np.isfinite(t.risk).all() for t in trees)


def test_full_feature_subset_draws_nothing():
    """m_try = d allows every feature, so growth reads no features stream and
    grows the trees that m_try = None grows."""
    class Untouchable:
        def __getattr__(self, name):
            raise AssertionError(f"the features stream was used ({name})")

    rng = np.random.default_rng(5)
    data = Dataset(features=rng.normal(size=(3, 90)), targets=rng.normal(size=90),
                   task=REGRESSION)
    samples = [rng.integers(0, 90, size=90) for _ in range(3)]
    for criterion in ("minimax", "variance", "random_observed", "random_uniform"):
        trees = [grow_trees(data, GrowConfig(criterion=criterion, max_depth=5, m_try=m_try),
                            samples, [Untouchable()] * 3,
                            [stream(b, "splits") for b in range(3)])
                 for m_try in (3, None)]
        assert [tree_to_json(t) for t in trees[0]] == [tree_to_json(t) for t in trees[1]]


class TestCyclicPersistence:
    """A node whose scheduled feature is constant waits for the next level
    instead of dying; split_level records where it finally cut."""

    def data(self):
        return Dataset(features=[[5.0, 5, 5, 5], [0.0, 1, 2, 3]],
                       targets=[0.0, 0, 10, 10], task=REGRESSION)

    def test_root_waits_one_level(self):
        t = grow(self.data(), GrowConfig(criterion="cyclic_minimax", max_depth=2))
        assert t.split_level[0] == 1 and t.depth[0] == 0
        # its children sit one level below the level it split at
        assert t.depth.tolist() == [0, 2, 2]
        assert load_model(tree_to_json(t)).depth.tolist() == [0, 2, 2]
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
        assert reason_names(t) == ["constant_features"]


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
        np.testing.assert_array_equal(back.risk_trace, t.risk_trace, strict=True)
        np.testing.assert_array_equal(back.leaf_reason, t.leaf_reason, strict=True)

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
# 2, node 1 into 3 and 4; node 3 is a leaf) that load must reject
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
    "value_nan": _set(2, "value", math.nan),
    "value_null": _set(2, "value", None),
    "value_infinite": _set(2, "value", math.inf),
    "value_a_string": _set(2, "value", "0.5"),
    "value_a_bool": _set(2, "value", True),
    "risk_nan": _set(1, "risk", math.nan),
    "risk_negative": _set(3, "risk", -3.0),
    "risk_trace_rises": lambda doc: doc["risk_trace"].__setitem__(1, doc["risk_trace"][0] + 1.0),
    "risk_trace_strings": lambda doc: doc.update(risk_trace=["NaN", "1e999", 0, 0]),
    "risk_trace_nan": lambda doc: doc["risk_trace"].__setitem__(1, math.nan),
    "risk_trace_infinite": lambda doc: doc["risk_trace"].__setitem__(1, math.inf),
    "risk_trace_a_bool": lambda doc: doc["risk_trace"].__setitem__(0, True),
    "leaf_reason_on_split_node": _set(0, "leaf_reason", "depth"),
    "leaf_reason_missing_on_leaf": _set(3, "leaf_reason", None),
    "leaf_reason_unknown": _set(3, "leaf_reason", "tired"),
    "leaf_reason_an_object": _set(3, "leaf_reason", {"x": [1]}),
    "leaf_reason_a_code": _set(3, "leaf_reason", 1),
    "risk_trace_too_short": lambda doc: doc["risk_trace"].pop(),
    "no_nodes": lambda doc: doc["nodes"].clear(),
    "unknown_task": lambda doc: doc.update(task="ranking"),
    "criterion_of_the_other_task": lambda doc: doc.update(criterion="entropy_minimax"),
    "leaf_count_negative": _set(3, "count", -7),
    "leaf_depth_off": _set(3, "depth", 5),
    "root_depth_one": _set(0, "depth", 1),
    "child_counts_do_not_sum": lambda doc: doc["nodes"][3].update(
        count=doc["nodes"][3]["count"] + 1),
    "n_train_not_the_root_count": lambda doc: doc.update(n_train=7),
}


class TestCraftedModels:
    """Each crafted fault is rejected with DataError wherever the tree is
    built: by the loader, by a direct TreeModel(...) call and by `predict`
    (exit 3)."""

    @pytest.fixture
    def doc(self):
        rng = np.random.default_rng(3)
        data = Dataset(features=rng.normal(size=(2, 60)), targets=rng.normal(size=60),
                       task=REGRESSION)
        doc = tree_to_doc(grow(data, GrowConfig(criterion="variance", max_depth=3)))
        assert [doc["nodes"][i]["left"] for i in (0, 1, 3)] == [1, 3, None]
        assert tree_from_doc(json.loads(json.dumps(doc))) is not None
        assert tree_to_doc(build_model(json.loads(json.dumps(doc)))) == doc
        return doc

    @pytest.mark.parametrize("name", sorted(CRAFTED))
    def test_rejected_on_load(self, doc, name):
        CRAFTED[name](doc)
        with pytest.raises(DataError):
            tree_from_doc(doc)
        with pytest.raises(DataError):
            load_model(json.dumps(doc))

    @pytest.mark.parametrize("name", sorted(CRAFTED))
    def test_rejected_when_built(self, doc, name):
        CRAFTED[name](doc)
        with pytest.raises(DataError):
            build_model(doc)

    @pytest.mark.parametrize("name", sorted(CRAFTED))
    def test_predict_exits_three(self, doc, tmp_path, name):
        assert predict_exit(tmp_path / "good", doc, 2) == 0
        CRAFTED[name](doc)
        assert predict_exit(tmp_path, doc, 2) == 3

    def test_descent_is_capped(self, doc):
        """A tree whose root is its own child would send `apply` round a
        loop: built in code it is rejected, and a built tree's node arrays
        cannot be edited into it."""
        tree = tree_from_doc(doc)
        with pytest.raises(ValueError, match="read-only"):
            tree.left[0] = 0
        left = tree.left.copy()
        left[0] = 0
        with pytest.raises(DataError, match="children"):
            dataclasses.replace(tree, left=left)


def test_nan_threshold_tree_is_rejected_when_built():
    """A split at a NaN threshold would send every row right without a
    word, and the tree could not be saved."""
    tree = grow(small_regression(), GrowConfig(criterion="minimax", max_depth=1))
    threshold = tree.threshold.copy()
    threshold[0] = math.nan
    with pytest.raises(DataError, match="thresholds"):
        dataclasses.replace(tree, threshold=threshold)


def test_built_tree_is_frozen():
    tree = grow(small_regression(), GrowConfig(criterion="minimax", max_depth=1))
    with pytest.raises(dataclasses.FrozenInstanceError):
        tree.max_depth = 5
    for f in NODE_FIELDS:
        with pytest.raises(ValueError, match="read-only"):
            getattr(tree, f.name)[0] = 0
    with pytest.raises(ValueError, match="read-only"):
        tree.risk_trace[0] = 99.0
    # a caller's own arrays are copied, not frozen or shared
    left = np.array(tree.left)
    again = dataclasses.replace(tree, left=left)
    left[0] = 0
    assert left.flags.writeable and again.left[0] == 1


@pytest.mark.parametrize("field, value", [
    ("depth", np.zeros(3)),                       # floats in an integer field
    ("left", np.array([True, False, False])),     # bools in an integer field
    ("value", np.array([True, False, False])),    # bools in a float field
    ("count", np.array([4, 1, 3], dtype=np.uint64)),
    ("risk", np.zeros((3, 1))),
    ("risk", [1.25, 0.0, 0.5]),                   # a list, not an array
    ("leaf_reason", [0, 1, 1]),                   # a list, not an array
    ("risk_trace", np.array([10.25, True], dtype=object)),
    ("n_train", 4.0),
    ("criterion", "gini"),
    ("leaf_reason", np.array([None, "depth", "depth"], dtype=object)),  # names, not codes
    ("leaf_reason", np.array([0, 1, 6])),         # no such reason
    ("risk_trace", [10.25, 4.0]),                 # a list, not an array
])
def test_ill_typed_fields_are_rejected_when_built(field, value):
    tree = grow(small_regression(), GrowConfig(criterion="minimax", max_depth=1))
    with pytest.raises(DataError):
        dataclasses.replace(tree, **{field: value})


def test_cells_are_what_growth_built():
    """A node's depth and count follow from its parent's: a stump whose
    second leaf claims depth 5 and count -7 would drop that leaf from the
    depth-1 partition without a word."""
    doc = tree_to_doc(grow(small_regression(), GrowConfig(criterion="minimax", max_depth=1)))
    assert tree_from_doc(doc).partition_ids(1).tolist() == [1, 2]
    doc["nodes"][2].update(count=-7, depth=5)
    with pytest.raises(DataError, match="depth"):
        load_model(json.dumps(doc))
    with pytest.raises(DataError, match="depth"):
        build_model(doc)


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
    with pytest.raises(DataError, match="feature names"):
        build_model(doc)


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
        with pytest.raises(DataError):
            build_model(bad)


def test_growth_memory_stays_near_the_features():
    """A depth-12 minimax tree on 62 500 rows of 8 uniform features peaks
    below 3x its feature matrix: growth holds 16-bit rank keys read in place
    and its index lists, and sorts a large block one feature row at a time.
    Float copies of the sample and whole-block sorts took 3.6x."""
    rng = np.random.default_rng(10)
    X = rng.uniform(size=(8, 62_500))
    data = Dataset(features=X, targets=np.sin(4 * X[0]) + X[1] * X[2]
                   + 0.3 * rng.normal(size=X.shape[1]), task=REGRESSION)
    tracemalloc.start()
    try:
        grow(data, GrowConfig("minimax", max_depth=12))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * X.nbytes, peak / X.nbytes
