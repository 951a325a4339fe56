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
    SplitCriterion,
)
from minimaxsplit.splitting import entropy, node_risk

from conftest import brute_scan, entropy_risk, make_node, two_pass_sse
from one_node import NodeView, _one_node_config, best_split, root_node
from pernode_scan import (UnsplittableError, _risk_curves, candidate_thresholds, minimax_search,
                          scan_feature)


def node_of(x, y, task=REGRESSION):
    return root_node(Dataset(features=np.asarray(x, dtype=float)[None, :],
                             targets=y, task=task))


class TestEntropy:
    def test_reference_values(self):
        assert entropy(0.0) == 0.0
        assert entropy(1.0) == 0.0
        assert entropy(0.5) == pytest.approx(math.log(2), abs=0)
        assert entropy(0.25) == pytest.approx(0.5623351446188083, abs=1e-15)

    def test_domain(self):
        with pytest.raises(ConfigError):
            entropy(-0.01)
        with pytest.raises(ConfigError):
            entropy(1.01)

    @given(st.floats(0.0, 1.0))
    def test_symmetric_and_bounded(self, p):
        assert entropy(p) == pytest.approx(entropy(1.0 - p), abs=1e-12)
        assert 0.0 <= entropy(p) <= math.log(2) + 1e-12


class TestNodeStats:
    def test_tiny_nodes_have_zero_risk(self):
        assert node_risk(np.array([3.7]), REGRESSION) == 0.0
        assert node_risk(np.array([5.0, 5.0]), REGRESSION) == 0.0

    def test_matches_two_pass(self, rng):
        for _ in range(50):
            y = rng.normal(0, 10.0 ** float(rng.integers(-2, 3)), rng.integers(1, 100))
            got = node_risk(y, REGRESSION)
            want = two_pass_sse(y)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_classification_risk(self):
        y = np.array([1.0, 1.0, 1.0, -1.0])
        assert node_risk(y, CLASSIFICATION) == pytest.approx(
            4 * entropy(0.75), abs=1e-12)


class TestCandidateThresholds:
    def test_midpoints_of_distinct_values(self):
        node = node_of([3.0, 1.0, 2.0, 2.0], [0.0, 0, 0, 0])
        assert candidate_thresholds(node, 0).tolist() == [1.5, 2.5]

    def test_constant_feature_has_none(self):
        node = node_of([2.0, 2.0], [0.0, 1.0])
        assert candidate_thresholds(node, 0).size == 0

    def test_threshold_separates_adjacent_and_huge_values(self):
        # the midpoint of 1 and the next float rounds onto 1, and that of
        # two huge values overflows; either would route both values right
        lo = 1.0
        hi = float(np.nextafter(lo, 2.0))
        node = node_of([lo, hi, 1e308, 1.7e308], [0.0, 1, 2, 3])
        t = candidate_thresholds(node, 0)
        assert t.tolist() == [hi, (hi + 1e308) / 2, 1.7e308]
        values = np.array([lo, hi, 1e308, 1.7e308])
        assert [int(np.sum(values < u)) for u in t] == [1, 2, 3]


class TestScanExamples:
    """Worked examples small enough to verify by hand."""

    def test_sum_versus_max_disagree(self):
        node = node_of([0.0, 1, 2, 3], [0.0, 4, 5, 9])
        s = scan_feature(node, 0, "sum")
        assert (s.threshold, s.criterion_value) == (0.5, 14.0)
        m = scan_feature(node, 0, "max")
        assert (m.threshold, m.criterion_value) == (1.5, 8.0)
        assert m.left_risk == 8.0 and m.right_risk == 8.0

    def test_perfect_step(self):
        node = node_of([1.0, 2, 3, 4], [0.0, 0, 10, 10])
        m = scan_feature(node, 0, "max")
        assert (m.threshold, m.criterion_value) == (2.5, 0.0)

    def test_one_sided_modes(self):
        node = node_of([0.0, 1, 2, 3], [0.0, 4, 5, 9])
        left = scan_feature(node, 0, "left_only")
        # singleton left child has exactly zero risk -> first cut wins
        assert left.threshold == 0.5 and left.criterion_value == 0.0
        right = scan_feature(node, 0, "right_only")
        assert right.threshold == 2.5 and right.criterion_value == 0.0

    def test_tie_prefers_smallest_threshold(self):
        node = node_of([0.0, 1, 2, 3], [0.0, 1, 1, 0])
        s = scan_feature(node, 0, "sum")
        assert s.threshold == 0.5  # 2.5 ties at the same criterion value 2/3
        # symmetric target: cuts at 0.5 and 1.5 both give max risk 0.5
        sym = node_of([0.0, 1, 2], [0.0, 1, 0])
        m = scan_feature(sym, 0, "max")
        assert m.threshold == 0.5 and m.criterion_value == 0.5

    def test_duplicates_move_together(self):
        # the atom at x=2 can never be divided; both cuts route it whole
        node = node_of([1.0, 2, 2, 3], [0.0, 10, -10, 0])
        for t in candidate_thresholds(node, 0):
            left = node.feature_values(0) < t
            assert left.sum() in (1, 3)

    def test_unsplittable_feature_raises(self):
        node = node_of([5.0, 5.0], [0.0, 1.0])
        with pytest.raises(UnsplittableError):
            scan_feature(node, 0, "sum")
        with pytest.raises(UnsplittableError):
            minimax_search(node, 0)


class TestBestSplit:
    def test_feature_tie_prefers_smaller_index(self):
        x = np.array([0.0, 1, 2, 3])
        data = Dataset(features=np.vstack([x, x]), targets=[0.0, 4, 5, 9],
                       task=REGRESSION)
        dec = best_split(root_node(data), SplitCriterion("minimax"))
        assert dec.feature == 0 and dec.threshold == 1.5

    def test_cyclic_overrides_quality(self):
        # feature 1 separates y perfectly, but depth 0 schedules feature 0
        X = np.array([[0.0, 1, 2, 3], [0.0, 0, 10, 10]])
        data = Dataset(features=X, targets=[0.0, 0, 10, 10], task=REGRESSION)
        dec = best_split(root_node(data), SplitCriterion("cyclic_minimax"))
        assert dec.feature == 0
        deeper = root_node(data)
        object.__setattr__(deeper, "depth", 1)
        dec1 = best_split(deeper, SplitCriterion("cyclic_minimax"))
        assert dec1.feature == 1 and dec1.criterion_value == 0.0

    def test_all_constant_is_unsplittable(self):
        data = Dataset(features=[[1.0, 1.0], [2.0, 2.0]], targets=[0.0, 1.0],
                       task=REGRESSION)
        assert best_split(root_node(data), SplitCriterion("variance")) is None

    def test_allowed_features_validation(self):
        node = node_of([0.0, 1.0], [0.0, 1.0])
        with pytest.raises(ConfigError):
            best_split(node, SplitCriterion("variance"), allowed_features=[])
        with pytest.raises(ConfigError):
            best_split(node, SplitCriterion("variance"), allowed_features=[2])

    def test_allowed_features_must_be_ints(self):
        # feature 1 separates y perfectly; 1.9 must not be read as feature 1
        X = np.array([[0.0, 1, 2, 3], [0.0, 0, 10, 10]])
        data = Dataset(features=X, targets=[0.0, 0, 10, 10], task=REGRESSION)
        for allowed in ([1.9], ["1"], [True]):
            with pytest.raises(ConfigError):
                best_split(root_node(data), SplitCriterion("minimax"), allowed_features=allowed)
        dec = best_split(root_node(data), SplitCriterion("minimax"),
                         allowed_features=np.array([1]))
        assert dec.feature == 1 and dec.criterion_value == 0.0

    def test_allowed_features_errors_name_the_argument(self):
        X = np.array([[0.0, 1, 2, 3], [0.0, 0, 10, 10]])
        data = Dataset(features=X, targets=[0.0, 0, 10, 10], task=REGRESSION)
        with pytest.raises(ConfigError, match=r"^allowed_features must be ints, got \[1\.9\]"):
            best_split(root_node(data), SplitCriterion("minimax"), allowed_features=[1.9])
        with pytest.raises(ConfigError, match=r"^allowed_features outside \[0, 2\)"):
            best_split(root_node(data), SplitCriterion("minimax"), allowed_features=[2])
        with pytest.raises(ConfigError, match="^allowed_features must be nonempty"):
            best_split(root_node(data), SplitCriterion("minimax"), allowed_features=[])

    def test_one_config_per_criterion_and_features(self):
        """Repeated best_split calls on one criterion build and check their
        one-node GrowConfig once, not per call."""
        node = node_of([0.0, 1.0, 2.0], [0.0, 1.0, 5.0])
        _one_node_config.cache_clear()
        decisions = {best_split(node, SplitCriterion("minimax")) for _ in range(3)}
        assert len(decisions) == 1 and _one_node_config.cache_info().misses == 1
        best_split(node, "minimax", allowed_features=np.array([0]))
        assert _one_node_config.cache_info().misses == 2

    @pytest.mark.parametrize("criterion", ["nope", ["minimax"], {"tag": "minimax"}])
    def test_a_bad_criterion_is_a_config_error(self, criterion):
        with pytest.raises(ConfigError, match="unknown criterion tag"):
            best_split(node_of([0.0, 1.0], [0.0, 1.0]), criterion)

    def test_node_depth_must_be_an_int(self):
        # a cyclic criterion schedules feature depth % d: 1.5 cannot index
        # it, and True would read as depth 1
        X = np.array([[0.0, 1, 2, 3], [0.0, 0, 10, 10]])
        data = Dataset(features=X, targets=[0.0, 0, 10, 10], task=REGRESSION)
        for depth in (1.5, True, "1"):
            with pytest.raises(ConfigError, match="node depth"):
                NodeView(data, np.arange(4), depth=depth)
        view = NodeView(data, np.arange(4), depth=np.int64(1))
        assert type(view.depth) is int
        assert best_split(view, SplitCriterion("cyclic_minimax")).feature == 1

    def test_task_mismatch(self):
        node = node_of([0.0, 1.0], [0.0, 1.0])
        with pytest.raises(ConfigError):
            best_split(node, SplitCriterion("entropy_sum"))

    def test_random_requires_rng(self):
        node = node_of([0.0, 1.0], [0.0, 1.0])
        with pytest.raises(ConfigError):
            best_split(node, SplitCriterion("random_uniform"))

    def test_malformed_members(self):
        data = Dataset(features=[[0.0, 1, 2, 3]], targets=[0.0, 4, 5, 9], task=REGRESSION)
        for members, match in [([], "non-empty"), ([0, -1], r"\[0, 4\)"),
                               ([1, 4], r"\[0, 4\)")]:
            with pytest.raises(DataError, match=match):
                best_split(NodeView(dataset=data, member_indices=members),
                           SplitCriterion("variance"))

    def test_non_integer_members_are_rejected(self):
        data = Dataset(features=[[0.0, 1, 2, 3]], targets=[0.0, 4, 5, 9], task=REGRESSION)
        for members in ([0.7, 1.9], np.array([0.0, 1.0]), [True, False, True]):
            with pytest.raises(DataError, match="must be integers"):
                NodeView(dataset=data, member_indices=members)
        view = NodeView(dataset=data, member_indices=np.array([3, 1], dtype=np.uint8))
        assert view.member_indices.dtype == np.int64 and view.member_indices.tolist() == [3, 1]

    def test_random_observed_picks_valid_midpoint(self, rng):
        for _ in range(40):
            node = make_node(rng, max_size=64)
            dec = best_split(node, SplitCriterion("random_observed"),
                             rng=np.random.default_rng(rng.integers(2 ** 32)))
            if dec is None:
                continue
            mids = candidate_thresholds(node, dec.feature)
            assert dec.threshold in mids
            assert dec.left_count + dec.right_count == node.size

    def test_random_uniform_range_and_counts(self, rng):
        for _ in range(40):
            node = make_node(rng, max_size=64, atom_prob=0.3)
            dec = best_split(node, SplitCriterion("random_uniform"),
                             rng=np.random.default_rng(rng.integers(2 ** 32)))
            if dec is None:
                continue
            v = node.feature_values(dec.feature)
            assert v.min() < dec.threshold <= v.max()
            assert dec.left_count == int(np.sum(v < dec.threshold))
            assert 1 <= dec.left_count <= node.size - 1

    def test_classification_split(self):
        node = node_of([0.0, 1, 2, 3], [-1.0, -1, 1, 1], task=CLASSIFICATION)
        dec = best_split(node, SplitCriterion("entropy_minimax"))
        assert dec.threshold == 1.5 and dec.criterion_value == 0.0


# ---------------------------------------------------------------------------
# Property battery on random nodes
# ---------------------------------------------------------------------------


node_seeds = st.integers(0, 2 ** 32 - 1)


@settings(max_examples=150, deadline=None)
@given(seed=node_seeds)
def test_prefix_curves_are_monotone(seed):
    """phi_L never decreases and phi_R never increases along the threshold
    order, with zero tolerance: the clamped-increment construction makes the
    cumulative sums exactly monotone."""
    gen = np.random.default_rng(seed)
    task = CLASSIFICATION if seed % 3 == 0 else REGRESSION
    node = make_node(gen, max_size=256, task=task)
    curves = _risk_curves(node, 0)
    if curves.thresholds.size == 0:
        return
    assert np.all(np.diff(curves.phi_left) >= 0.0)
    assert np.all(np.diff(curves.phi_right) <= 0.0)


@settings(max_examples=150, deadline=None)
@given(seed=node_seeds)
def test_children_risks_never_exceed_parent(seed):
    gen = np.random.default_rng(seed)
    task = CLASSIFICATION if seed % 3 == 0 else REGRESSION
    node = make_node(gen, max_size=256, task=task)
    curves = _risk_curves(node, 0)
    if curves.thresholds.size == 0:
        return
    parent = node_risk(node.targets(), task)
    slack = 1e-9 * (1.0 + parent)
    assert np.all(curves.phi_left + curves.phi_right <= parent + slack)


@settings(max_examples=150, deadline=None)
@given(seed=node_seeds)
def test_minimax_search_equals_exhaustive_scan(seed):
    """The crossing-point search must reproduce the full scan exactly —
    same criterion value and the same smallest-threshold argmin."""
    gen = np.random.default_rng(seed)
    node = make_node(gen, max_size=256)
    try:
        full = scan_feature(node, 0, "max")
    except UnsplittableError:
        return
    fast = minimax_search(node, 0)
    assert fast.criterion_value == full.criterion_value
    assert fast.threshold == full.threshold
    assert fast.left_count == full.left_count


@settings(max_examples=60, deadline=None)
@given(seed=node_seeds)
def test_scan_agrees_with_two_pass_oracle(seed):
    gen = np.random.default_rng(seed)
    task = CLASSIFICATION if seed % 2 == 0 else REGRESSION
    node = make_node(gen, max_size=64, task=task)
    x, y = node.feature_values(0), node.targets()
    for mode in ("sum", "max"):
        ref = brute_scan(x, y, mode, task)
        if ref is None:
            return
        got = scan_feature(node, 0, mode)
        scale = 1e-9 * (1.0 + abs(ref[3]))
        # value agreement; and ours can never beat the true optimum
        assert abs(got.criterion_value - ref[3]) <= scale or \
            got.criterion_value <= ref[3] + scale
        assert got.criterion_value >= ref[3] - scale


@settings(max_examples=150, deadline=None)
@given(seed=node_seeds)
def test_minimax_halving_with_atomic_slack(seed):
    """max(left, right) at the minimax split is at most half the parent risk
    plus the indivisible-atom allowance: w_max * (range of y)^2 for squared
    error, w_max * log(node size) for entropy."""
    gen = np.random.default_rng(seed)
    task = CLASSIFICATION if seed % 3 == 0 else REGRESSION
    node = make_node(gen, max_size=256, task=task)
    try:
        s = minimax_search(node, 0)
    except UnsplittableError:
        return
    y = node.targets()
    parent = node_risk(y, task)
    _, counts = np.unique(node.feature_values(0), return_counts=True)
    w_max = int(counts.max())
    if task == REGRESSION:
        slack = w_max * float(y.max() - y.min()) ** 2
    else:
        slack = w_max * math.log(node.size)
    assert max(s.left_risk, s.right_risk) <= 0.5 * parent + slack + 1e-9 * (1.0 + parent)


@settings(max_examples=100, deadline=None)
@given(seed=node_seeds)
def test_dyadic_scale_equivariance_is_exact(seed):
    """Scaling targets by 4 scales every intermediate float by exactly 16, so
    the argmin and the criterion value transform with zero error."""
    gen = np.random.default_rng(seed)
    node = make_node(gen, max_size=128)
    x, y = node.feature_values(0), node.targets()
    scaled = root_node(Dataset(features=x[None, :], targets=4.0 * y, task=REGRESSION))
    try:
        a = minimax_search(node, 0)
    except UnsplittableError:
        return
    b = minimax_search(scaled, 0)
    assert b.threshold == a.threshold
    assert b.criterion_value == 16.0 * a.criterion_value
    assert b.left_count == a.left_count


@settings(max_examples=100, deadline=None)
@given(seed=node_seeds)
def test_shift_leaves_criterion_nearly_fixed(seed):
    gen = np.random.default_rng(seed)
    node = make_node(gen, max_size=128)
    x, y = node.feature_values(0), node.targets()
    shifted = root_node(Dataset(features=x[None, :], targets=y + 100.0, task=REGRESSION))
    try:
        a = minimax_search(node, 0)
    except UnsplittableError:
        return
    b = minimax_search(shifted, 0)
    scale = 1e-7 * (1.0 + abs(a.criterion_value) + np.abs(y).max() ** 2)
    assert abs(b.criterion_value - a.criterion_value) <= scale


@settings(max_examples=100, deadline=None)
@given(seed=node_seeds)
def test_entropy_curves_match_direct_counts(seed):
    """Left-prefix entropy risk equals count * h(positive fraction) computed
    directly from the sorted label prefix."""
    gen = np.random.default_rng(seed)
    node = make_node(gen, max_size=128, task=CLASSIFICATION)
    curves = _risk_curves(node, 0)
    if curves.thresholds.size == 0:
        return
    order = np.argsort(node.feature_values(0), kind="stable")
    ys = node.targets()[order]
    for pos_idx in range(curves.thresholds.size):
        m = int(curves.left_counts[pos_idx])
        want = entropy_risk(ys[:m])
        assert curves.phi_left[pos_idx] == pytest.approx(want, rel=1e-9, abs=1e-9)
