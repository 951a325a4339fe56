"""Reference grower for the differential tests: one `best_split` call per
node, breadth-first, exactly as `tree.grow` worked before it resolved whole
levels in array passes. `best_split` here is the per-node split search the
library had before its `best_split` became a one-node call into that level
pass: a loop over features, each scanned on its own stably sorted values
by the single-node search of `pernode_scan`.
`forest_per_tree` is `train_forest` as it was before it grew its trees as
one batch: one `grow_per_node` per tree, on that tree's bootstrap sample.
All three are kept only to check that the level pass makes the same splits,
trees and forests, byte for byte; the library does not use them.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from minimaxsplit.dataset import CLASSIFICATION, Dataset
from minimaxsplit.errors import ConfigError
from minimaxsplit.forest import ForestConfig, ForestModel, _effective_plan
from minimaxsplit.growth import _REASONS
from minimaxsplit.rng import derive_seed, stream
from minimaxsplit.splitting import SplitCriterion, node_risk
from minimaxsplit.tree import GrowConfig, TreeModel

from one_node import NodeView, SplitDecision, root_node
from pernode_scan import (UnsplittableError, _risk_curves, _scan_from_curves, minimax_search,
                          scan_feature)


def _nonconstant(node: NodeView, feature: int) -> bool:
    v = node.feature_values(feature)
    return v.size > 1 and float(v.min()) < float(v.max())


def _random_split(node: NodeView, criterion: SplitCriterion,
                  features: Sequence[int], rng: np.random.Generator) -> Optional[SplitDecision]:
    eligible = [j for j in features if _nonconstant(node, j)]
    if not eligible:
        return None
    j = int(eligible[int(rng.integers(len(eligible)))])
    curves = _risk_curves(node, j)
    if criterion.tag == "random_observed":
        idx = int(rng.integers(curves.thresholds.size))
    else:  # random_uniform over the node's value range
        v = node.feature_values(j)
        vmin, vmax = float(v.min()), float(v.max())
        t = vmin
        for _ in range(64):
            t = vmin + float(rng.uniform()) * (vmax - vmin)
            if t > vmin:  # guarantees a nonempty left child; right holds vmax
                break
        else:  # pathological range; take the smallest valid midpoint
            t = float(curves.thresholds[0])
        # t lands in (vmin, vmax); the induced partition has left count #{x < t}
        order_stat = np.sort(v)
        left_count = int(np.searchsorted(order_stat, t, side="left"))
        idx = int(np.searchsorted(curves.left_counts, left_count))
        scan = _scan_from_curves(curves, "sum", idx)
        return SplitDecision(j, float(t), scan.left_risk, scan.right_risk,
                             scan.left_risk + scan.right_risk, left_count,
                             node.size - left_count)
    scan = _scan_from_curves(curves, "sum", idx)
    return SplitDecision(j, scan.threshold, scan.left_risk, scan.right_risk,
                         scan.criterion_value, scan.left_count, scan.right_count)


def best_split(node: NodeView, criterion: SplitCriterion,
               allowed_features: Optional[Sequence[int]] = None,
               rng: Optional[np.random.Generator] = None) -> Optional[SplitDecision]:
    """Best (feature, threshold) for the node under the criterion.

    allowed_features defaults to all; cyclic tags ignore it and use feature
    (depth mod d). Random baselines draw the feature uniformly among allowed
    features that are non-constant on the node (a constant feature offers no
    thresholds), then draw their threshold from `rng`. Returns None when no
    allowed feature is splittable.
    """
    d = node.dataset.n_features
    want = criterion.task()
    if node.dataset.task != want:
        raise ConfigError(f"criterion {criterion.tag!r} requires a {want} dataset")
    if allowed_features is None:
        features = range(d)
    else:
        features = list(allowed_features)
        if not features:
            raise ConfigError("allowed_features must be nonempty")
        if any(not 0 <= j < d for j in features):
            raise ConfigError(f"feature index outside [0, {d})")

    if criterion.is_random:
        if rng is None:
            raise ConfigError(f"{criterion.tag} requires an rng stream")
        return _random_split(node, criterion, features, rng)

    if criterion.is_cyclic:
        features = [node.depth % d]

    mode = criterion.scan_mode
    best: Optional[SplitDecision] = None
    for j in sorted(set(int(j) for j in features)):
        try:
            if mode == "max":
                scan = minimax_search(node, j)
            else:
                scan = scan_feature(node, j, mode)
        except UnsplittableError:
            continue
        if best is None or scan.criterion_value < best.criterion_value:
            best = SplitDecision(j, scan.threshold, scan.left_risk, scan.right_risk,
                                 scan.criterion_value, scan.left_count, scan.right_count)
    return best


class _Builder:
    """Accumulates per-node records during growth."""

    def __init__(self, task: str):
        self.task = task
        self.depth: List[int] = []
        self.count: List[int] = []
        self.risk: List[float] = []
        self.value: List[float] = []
        self.log_odds: List[float] = []
        self.feature: List[int] = []
        self.threshold: List[float] = []
        self.left: List[int] = []
        self.right: List[int] = []
        self.split_level: List[int] = []
        self.leaf_reason: List[Optional[str]] = []

    def add(self, view: NodeView, risk: float) -> int:
        y = view.targets()
        m = y.size
        if self.task == CLASSIFICATION:
            pos = int(np.sum(y == 1.0))
            value = pos / m
            log_odds = math.log((pos + 0.5) / (m - pos + 0.5))
        else:
            value = float(np.mean(y))
            log_odds = math.nan
        self.depth.append(view.depth)
        self.count.append(m)
        self.risk.append(float(risk))
        self.value.append(value)
        self.log_odds.append(log_odds)
        self.feature.append(-1)
        self.threshold.append(math.nan)
        self.left.append(-1)
        self.right.append(-1)
        self.split_level.append(-1)
        self.leaf_reason.append(None)
        return len(self.count) - 1

    def make_internal(self, node_id: int, feature: int, threshold: float,
                      left_id: int, right_id: int, level: int) -> None:
        self.feature[node_id] = feature
        self.threshold[node_id] = threshold
        self.left[node_id] = left_id
        self.right[node_id] = right_id
        self.split_level[node_id] = level


def grow_per_node(data: Dataset, config: GrowConfig, *,
                  features_rng: Optional[np.random.Generator] = None,
                  splits_rng: Optional[np.random.Generator] = None) -> TreeModel:
    """`tree.grow` with one split search per node (argument checks left to
    the caller: run `tree.grow` on the same input first)."""
    crit = config.criterion
    d = data.n_features
    n = data.n_samples
    m_try = config.m_try
    fixed = config.fixed_features
    if m_try is not None and features_rng is None:
        features_rng = stream(config.seed, "features")
    if splits_rng is None and crit.is_random:
        splits_rng = stream(config.seed, "splits")

    builder = _Builder(data.task)
    view = root_node(data)
    root_risk = node_risk(data.targets, data.task)
    root_id = builder.add(view, root_risk)
    total = root_risk
    trace = [total / n]
    frontier: List[Tuple[int, NodeView]] = [(root_id, view)]
    screen = fixed if (fixed is not None and not crit.is_cyclic) else tuple(range(d))

    for level in range(config.max_depth):
        nxt: List[Tuple[int, NodeView]] = []
        for node_id, node in frontier:
            y = node.targets()
            if float(y.min()) == float(y.max()):
                builder.leaf_reason[node_id] = "constant_target"
                continue
            if not any(_nonconstant(node, j) for j in screen):
                builder.leaf_reason[node_id] = "constant_features"
                continue
            if node.size <= config.n_min:
                builder.leaf_reason[node_id] = "n_min"
                continue
            allowed: Optional[Sequence[int]] = fixed
            if m_try is not None:
                allowed = np.sort(features_rng.choice(d, size=m_try, replace=False)).tolist()
            decision = best_split(node, crit, allowed, rng=splits_rng)
            if decision is None:
                if crit.is_cyclic:
                    nxt.append((node_id, NodeView(data, node.member_indices, node.depth + 1)))
                else:
                    builder.leaf_reason[node_id] = "no_valid_split"
                continue
            mask = node.feature_values(decision.feature) < decision.threshold
            left_view = NodeView(data, node.member_indices[mask], node.depth + 1)
            right_view = NodeView(data, node.member_indices[~mask], node.depth + 1)
            left_id = builder.add(left_view, decision.left_risk)
            right_id = builder.add(right_view, decision.right_risk)
            builder.make_internal(node_id, decision.feature, decision.threshold,
                                  left_id, right_id, level)
            nxt.append((left_id, left_view))
            nxt.append((right_id, right_view))
            total -= max(0.0, builder.risk[node_id]
                         - decision.left_risk - decision.right_risk)
        trace.append(total / n)
        frontier = nxt
        if not frontier:
            break
    for node_id, _ in frontier:
        builder.leaf_reason[node_id] = "depth"
    while len(trace) < config.max_depth + 1:
        trace.append(trace[-1])

    return TreeModel(
        task=data.task,
        n_features=d,
        criterion=crit.tag,
        max_depth=config.max_depth,
        n_min=config.n_min,
        n_train=n,
        depth=np.asarray(builder.depth, dtype=np.int64),
        count=np.asarray(builder.count, dtype=np.int64),
        risk=np.asarray(builder.risk, dtype=np.float64),
        value=np.asarray(builder.value, dtype=np.float64),
        log_odds=np.asarray(builder.log_odds, dtype=np.float64),
        feature=np.asarray(builder.feature, dtype=np.int64),
        threshold=np.asarray(builder.threshold, dtype=np.float64),
        left=np.asarray(builder.left, dtype=np.int64),
        right=np.asarray(builder.right, dtype=np.int64),
        split_level=np.asarray(builder.split_level, dtype=np.int64),
        leaf_reason=np.array([_REASONS.index(r) for r in builder.leaf_reason]),
        risk_trace=np.array(trace),
        feature_names=data.feature_names,
    )


def forest_per_tree(data: Dataset, config: ForestConfig, seed: int = 0) -> ForestModel:
    """`forest.train_forest`, one tree after another: tree b draws its
    bootstrap sample from its own "bootstrap" stream and grows on
    `data.subset` of it (on `data` itself without bootstrap) with its own
    "features" and "splits" streams (argument checks left to the caller: run
    `train_forest` on the same input first)."""
    n = data.n_samples
    crit, m_try = _effective_plan(config, data.n_features)
    grow_cfg = GrowConfig(criterion=crit, max_depth=config.max_depth,
                          n_min=config.n_min, m_try=m_try)
    trees, indices = [], []
    for b in range(config.n_trees):
        tree_seed = derive_seed(seed, f"tree/{b}")
        if config.bootstrap:
            idx = stream(tree_seed, "bootstrap").integers(0, n, size=n)
            boot = data.subset(idx)
        else:
            idx = np.arange(n, dtype=np.int64)
            boot = data
        trees.append(grow_per_node(boot, grow_cfg, features_rng=stream(tree_seed, "features"),
                                   splits_rng=stream(tree_seed, "splits")))
        indices.append(idx)
    return ForestModel(
        task=data.task,
        n_features=data.n_features,
        criterion=config.criterion.tag,
        n_trees=config.n_trees,
        max_depth=config.max_depth,
        n_min=config.n_min,
        m_try=config.m_try,
        bootstrap=config.bootstrap,
        seed=int(seed),
        trees=trees,
        bootstrap_indices=indices,
        feature_names=data.feature_names,
    )
