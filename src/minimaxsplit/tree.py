"""Tree growth, prediction, depth-cut partitions, and serialization.

Growth is breadth-first and level-synchronous: every node at depth k is
resolved (split, persisted, or retired to a leaf) before any node at depth
k + 1. A node becomes a leaf at the first matching rule, checked in this
order: depth cap, constant targets (exact equality), no non-constant feature,
size <= n_min. Cyclic criteria add a persistence case: when only the
*scheduled* feature is constant on the node, the node stays active and
retries at the next level with the next scheduled feature.

risk_trace[k] is the mean unnormalized risk (per training sample) of the
partition obtained by cutting the tree at depth k; it has max_depth + 1
entries and is exactly non-increasing.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .dataset import CLASSIFICATION, REGRESSION, Dataset, NodeView, check_feature_names
from .errors import ConfigError, DataError
from .growth import Growth
from .rng import stream
from .splitting import TAGS, SplitCriterion, SplitDecision

FORMAT_TREE = "tree-v1"


def canonical_json(doc) -> str:
    """Deterministic JSON encoding: sorted keys, no whitespace, no NaN."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)


@dataclass(frozen=True)
class GrowConfig:
    """Knobs for a single tree. n_min is a *strict* lower bound: a node is
    split only when it holds more than n_min samples.

    Feature policy: by default every feature is in play at every node;
    fixed_features restricts all nodes to one subset; m_try draws a fresh
    random subset of that size per split attempt (the forest hook). The two
    are mutually exclusive. The seed only matters for m_try and the random
    baseline criteria."""

    criterion: Union[SplitCriterion, str]
    max_depth: int
    n_min: int = 1
    fixed_features: Optional[Tuple[int, ...]] = None
    m_try: Optional[int] = None
    seed: int = 0

    def __post_init__(self):
        if isinstance(self.criterion, str):
            object.__setattr__(self, "criterion", SplitCriterion(self.criterion))
        if not config_int(self.max_depth, 0):
            raise ConfigError(f"max_depth must be a nonnegative int, got {self.max_depth!r}")
        if not config_int(self.n_min, 1):
            raise ConfigError(f"n_min must be a positive int, got {self.n_min!r}")
        if self.fixed_features is not None:
            if self.m_try is not None:
                raise ConfigError("fixed_features and m_try are mutually exclusive")
            if any(isinstance(j, bool) for j in self.fixed_features):
                raise ConfigError(f"fixed_features must be ints, got {self.fixed_features!r}")
            feats = tuple(int(j) for j in self.fixed_features)
            if not feats:
                raise ConfigError("fixed_features must be nonempty")
            object.__setattr__(self, "fixed_features", feats)
        if self.m_try is not None and not config_int(self.m_try, 1):
            raise ConfigError(f"m_try must be a positive int or None, got {self.m_try!r}")


def config_int(value, low: int) -> bool:
    """Whether a config value is an int of at least `low`. As in
    `header_int`, a bool is not an int: `true` in a JSON config must not
    read as 1."""
    return type(value) is int and value >= low


@dataclass
class TreeModel:
    """Flat-array tree. Leaves have left == -1; their threshold is NaN.

    `value` is the node's fitted prediction (target mean for regression, the
    raw positive-class fraction for classification) and is stored for every
    node so that depth-truncated prediction works. `split_level` records the
    level a node split at, which exceeds its creation depth only for nodes a
    cyclic criterion persisted past a constant scheduled feature.
    `feature_names` are the training columns' names when the training data
    had them (a CSV header); prediction from a CSV then matches by name.
    """

    task: str
    n_features: int
    criterion: str
    max_depth: int
    n_min: int
    n_train: int
    depth: np.ndarray
    count: np.ndarray
    risk: np.ndarray
    value: np.ndarray
    log_odds: np.ndarray
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    split_level: np.ndarray
    leaf_reason: List[Optional[str]]
    risk_trace: List[float] = field(default_factory=list)
    feature_names: Optional[Tuple[str, ...]] = None

    @property
    def n_nodes(self) -> int:
        return int(self.count.size)

    @property
    def n_leaves(self) -> int:
        return int(np.sum(self.left < 0))

    # -- prediction --------------------------------------------------------

    def _as_matrix(self, X) -> Tuple[np.ndarray, bool]:
        X = np.asarray(X, dtype=np.float64)
        single = X.ndim == 1
        if single:
            X = X[None, :]
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ConfigError(
                f"expected points with {self.n_features} features, got shape {X.shape}")
        return X, single

    def apply(self, X, max_depth: Optional[int] = None) -> np.ndarray:
        """Index of the partition cell each point falls into, where the
        partition is the tree cut at `max_depth` (None = full tree)."""
        X, single = self._as_matrix(X)
        if max_depth is not None and max_depth < 0:
            raise ConfigError("max_depth must be nonnegative")
        idx = np.zeros(X.shape[0], dtype=np.int64)
        # split levels rise along every path and stay below the tree's
        # max_depth, so a descent ends within max_depth steps
        for _ in range(self.max_depth + 1):
            descend = self.left[idx] >= 0
            if max_depth is not None:
                descend &= self.split_level[idx] < max_depth
            if not descend.any():
                return idx[0] if single else idx
            rows = np.nonzero(descend)[0]
            cur = idx[rows]
            go_left = X[rows, self.feature[cur]] < self.threshold[cur]
            idx[rows] = np.where(go_left, self.left[cur], self.right[cur])
        raise DataError(f"a path of the tree runs deeper than its max_depth {self.max_depth}")

    def predict_value(self, X, max_depth: Optional[int] = None):
        """Fitted node value (mean / positive fraction) at each point."""
        cell = self.apply(X, max_depth)
        out = self.value[cell]
        return float(out) if np.ndim(cell) == 0 else out

    def predict_log_odds(self, X, max_depth: Optional[int] = None):
        if self.task != CLASSIFICATION:
            raise ConfigError("log-odds prediction requires a classification tree")
        cell = self.apply(X, max_depth)
        out = self.log_odds[cell]
        return float(out) if np.ndim(cell) == 0 else out

    def predict(self, X, max_depth: Optional[int] = None):
        """Regression: fitted mean. Classification: label in {-1, +1}, +1 when
        the node's positive fraction is >= 1/2."""
        vals = self.predict_value(X, max_depth)
        if self.task == CLASSIFICATION:
            return np.where(np.asarray(vals) >= 0.5, 1.0, -1.0) if np.ndim(vals) else (
                1.0 if vals >= 0.5 else -1.0)
        return vals

    # -- partitions ---------------------------------------------------------

    def partition_ids(self, max_depth: Optional[int] = None) -> np.ndarray:
        """Node ids forming the partition at the given cut (leaves if None)."""
        leaf = self.left < 0
        if max_depth is None:
            return np.nonzero(leaf)[0]
        if max_depth < 0:
            raise ConfigError("max_depth must be nonnegative")
        member = (self.depth <= max_depth) & (leaf | (self.split_level >= max_depth))
        return np.nonzero(member)[0]


# The combined sample count of one group of trees grown through one level
# loop: it bounds the group's index matrices and gathered samples (int32
# positions stay far from overflow), and a tree larger than this grows alone.
_GROUP_SAMPLES = 1 << 18


def grow(data: Dataset, config: GrowConfig) -> TreeModel:
    """Grow one tree, breadth-first, on every sample of `data` in order.
    With m_try set, a fresh feature subset of that size is drawn for every
    split attempt, in breadth-first node order, from the `features` stream
    of config.seed; the random criteria draw from its `splits` stream.

    Each level is resolved in array passes over every frontier node at once
    (see `growth`); the tree is the same, byte for byte, as the one the
    node-at-a-time reference grower in `tests/pernode_grower.py` makes."""
    features_rng = stream(config.seed, "features") if config.m_try is not None else None
    splits_rng = stream(config.seed, "splits") if config.criterion.is_random else None
    return grow_trees(data, config, [np.arange(data.n_samples)], [features_rng],
                      [splits_rng])[0]


def grow_trees(data: Dataset, config: GrowConfig, samples: Sequence[np.ndarray],
               features_rngs: Sequence[Optional[np.random.Generator]],
               splits_rngs: Sequence[Optional[np.random.Generator]]) -> List[TreeModel]:
    """One tree per entry of `samples`: tree b grows on the rows samples[b]
    of `data` (a non-empty index array, repeats allowed) with the streams
    features_rngs[b] (needed with m_try) and splits_rngs[b] (needed by the
    random criteria). Each tree is the one `grow` makes on `data.subset`
    of its rows with those streams, byte for byte. `growth.Growth` checks
    the arguments and raises ConfigError or DataError.

    Consecutive trees grow as one group through one shared level loop, as
    many as fit in _GROUP_SAMPLES samples together (at least one), so a
    forest pays each level's fixed numpy calls once per group, not once per
    tree."""
    groups: List[List[int]] = []
    held = 0
    for b, sample in enumerate(samples):
        size = np.size(sample)
        if not groups or held + size > _GROUP_SAMPLES:
            groups.append([])
            held = 0
        groups[-1].append(b)
        held += size
    trees: List[TreeModel] = []
    for group in groups:
        grown = Growth(data, config, [samples[b] for b in group],
                       [features_rngs[b] for b in group], [splits_rngs[b] for b in group]).run()
        trees += [TreeModel(task=data.task, n_features=data.n_features,
                            criterion=config.criterion.tag, max_depth=config.max_depth,
                            n_min=config.n_min, n_train=int(nodes["count"][0]),
                            feature_names=data.feature_names, **nodes)
                  for nodes in grown]
    return trees


def best_split(node: NodeView, criterion: SplitCriterion,
               allowed_features: Optional[Sequence[int]] = None,
               rng: Optional[np.random.Generator] = None) -> Optional[SplitDecision]:
    """Best (feature, threshold) for the node under the criterion: the
    choice step of `grow`'s level pass, run on a frontier of this one node,
    whose sample is the node's member indices.

    allowed_features defaults to all; cyclic tags ignore it and use feature
    (depth mod d). Deterministic tags take the least criterion, ties to the
    smallest threshold, then the smallest feature index. Random baselines
    draw the feature uniformly among allowed features that are non-constant
    on the node (a constant feature offers no thresholds), then draw their
    threshold from `rng`. Returns None when no allowed feature is splittable.
    `growth.Growth` checks the arguments, as it does for `grow`.
    """
    growth = Growth(node.dataset,
                    GrowConfig(criterion, max_depth=1, fixed_features=allowed_features),
                    [node.member_indices], [None], [rng])
    front = growth.root()
    nodes, feats, scan = growth.choose(node.depth, front, np.zeros(1, dtype=np.int64),
                                       growth.spread(front))
    if nodes.size == 0:
        return None
    left = int(scan.left_count[0])
    return SplitDecision(int(feats[0]), float(scan.threshold[0]), float(scan.left_risk[0]),
                         float(scan.right_risk[0]), float(scan.criterion[0]), left,
                         node.size - left)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _none_if_nan(x: float) -> Optional[float]:
    return None if math.isnan(x) else float(x)


def tree_to_doc(tree: TreeModel) -> dict:
    nodes = []
    for i in range(tree.n_nodes):
        leaf = tree.left[i] < 0
        nodes.append({
            "depth": int(tree.depth[i]),
            "count": int(tree.count[i]),
            "risk": float(tree.risk[i]),
            "value": float(tree.value[i]),
            "log_odds": _none_if_nan(float(tree.log_odds[i])),
            "feature": None if leaf else int(tree.feature[i]),
            "threshold": None if leaf else float(tree.threshold[i]),
            "left": None if leaf else int(tree.left[i]),
            "right": None if leaf else int(tree.right[i]),
            "split_level": None if leaf else int(tree.split_level[i]),
            "leaf_reason": tree.leaf_reason[i],
        })
    doc = {
        "format": FORMAT_TREE,
        "task": tree.task,
        "n_features": tree.n_features,
        "criterion": tree.criterion,
        "max_depth": tree.max_depth,
        "n_min": tree.n_min,
        "n_train": tree.n_train,
        "risk_trace": [float(u) for u in tree.risk_trace],
        "nodes": nodes,
    }
    if tree.feature_names is not None:
        doc["feature_names"] = list(tree.feature_names)
    return doc


def _check_structure(tree: TreeModel) -> None:
    """Reject a loaded tree that prediction could not walk, or would walk
    to a wrong cell. Every node field holds one number per node; each split
    node's two children lie after it and before the end; every node but the
    root has exactly one parent; split levels lie in [0, max_depth) and rise
    from parent to child, so every descent ends within max_depth steps; split
    features lie in [0, n_features) and split thresholds are finite."""
    if tree.task not in (REGRESSION, CLASSIFICATION):
        raise DataError(f"unknown task {tree.task!r}")
    if tree.criterion not in TAGS:
        raise DataError(f"unknown criterion {tree.criterion!r}")
    if tree.max_depth < 0:
        raise DataError(f"max_depth must be nonnegative, got {tree.max_depth}")
    if len(tree.risk_trace) != tree.max_depth + 1:
        raise DataError(f"risk_trace needs max_depth + 1 = {tree.max_depth + 1} entries, "
                        f"got {len(tree.risk_trace)}")
    n = len(tree.leaf_reason)
    if n == 0:
        raise DataError("tree has no nodes")
    if any(np.shape(a) != (n,) for a in (tree.depth, tree.count, tree.risk, tree.value,
                                          tree.log_odds, tree.feature, tree.threshold,
                                          tree.left, tree.right, tree.split_level)):
        raise DataError(f"every node field must hold one number per node ({n})")
    ids = np.arange(n)
    left, right = tree.left, tree.right
    split = left >= 0
    leaf_ok = (left == -1) & (right == -1)
    split_ok = (left > ids) & (left < n) & (right > ids) & (right < n)
    if not np.all(np.where(split, split_ok, leaf_ok)):
        raise DataError("each split node's children must lie in (node, n_nodes)")
    parents = np.bincount(np.concatenate([left[split], right[split]]), minlength=n)
    if np.any(parents[1:] != 1):
        raise DataError("every node but the root must have exactly one parent")
    level = tree.split_level[split]
    if np.any((level < 0) | (level >= tree.max_depth)):
        raise DataError(f"split levels must lie in [0, max_depth = {tree.max_depth})")
    for child in (left[split], right[split]):
        inner = split[child]
        if np.any(tree.split_level[child[inner]] <= level[inner]):
            raise DataError("a child must split at a later level than its parent")
    feature = tree.feature[split]
    if np.any((feature < 0) | (feature >= tree.n_features)):
        raise DataError(f"split features must lie in [0, n_features = {tree.n_features})")
    if not np.all(np.isfinite(tree.threshold[split])):
        raise DataError("split thresholds must be finite")


def int_list(values: list,
             what: str = "node ids, features, levels, depths and counts") -> np.ndarray:
    """An integer field; a float or bool would otherwise turn silently into
    another node or feature."""
    if not all(type(v) is int for v in values):
        raise DataError(f"{what} must be integers")
    return np.asarray(values, dtype=np.int64)


def header_int(doc: dict, key: str) -> int:
    """An integer header field of a model document; a float such as 1e400
    or 3.5 is rejected rather than truncated."""
    value = doc[key]
    if type(value) is not int:
        raise DataError(f"{key!r} must be an integer, got {value!r}")
    return value


def doc_feature_names(doc: dict, n_features: int) -> Optional[Tuple[str, ...]]:
    """The optional `feature_names` of a model document, checked."""
    names = doc.get("feature_names")
    return None if names is None else check_feature_names(names, n_features)


def tree_from_doc(doc: dict) -> TreeModel:
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_TREE:
        raise DataError(f"not a {FORMAT_TREE} document")
    try:
        raw = doc["nodes"]
        nan = math.nan
        n_features = header_int(doc, "n_features")
        tree = TreeModel(
            task=doc["task"],
            n_features=n_features,
            criterion=doc["criterion"],
            max_depth=header_int(doc, "max_depth"),
            n_min=header_int(doc, "n_min"),
            n_train=header_int(doc, "n_train"),
            depth=int_list([r["depth"] for r in raw]),
            count=int_list([r["count"] for r in raw]),
            risk=np.asarray([r["risk"] for r in raw], dtype=np.float64),
            value=np.asarray([r["value"] for r in raw], dtype=np.float64),
            log_odds=np.asarray(
                [nan if r["log_odds"] is None else r["log_odds"] for r in raw],
                dtype=np.float64),
            feature=int_list([-1 if r["feature"] is None else r["feature"] for r in raw]),
            threshold=np.asarray(
                [nan if r["threshold"] is None else r["threshold"] for r in raw],
                dtype=np.float64),
            left=int_list([-1 if r["left"] is None else r["left"] for r in raw]),
            right=int_list([-1 if r["right"] is None else r["right"] for r in raw]),
            split_level=int_list(
                [-1 if r["split_level"] is None else r["split_level"] for r in raw]),
            leaf_reason=[r["leaf_reason"] for r in raw],
            risk_trace=[float(u) for u in doc["risk_trace"]],
            feature_names=doc_feature_names(doc, n_features),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"malformed {FORMAT_TREE} document: {exc}") from exc
    _check_structure(tree)
    return tree


def tree_to_json(tree: TreeModel) -> str:
    """Canonical (byte-stable) JSON for a tree."""
    return canonical_json(tree_to_doc(tree))


def tree_from_json(text: str) -> TreeModel:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"invalid JSON: {exc}") from exc
    return tree_from_doc(doc)
