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

A saved tree is a tree-v1 JSON document, a header and one object per node.
The table NODE_FIELDS names each numeric node field, whether it holds
integers and where a document writes null for it; `tree_to_doc`,
`tree_from_doc` and `_check_structure` all work from it. `header_doc`,
`read_header` and `parse_doc` serve forest-v1 documents too, so a new
layout, such as one array per field, changes only these.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from operator import itemgetter
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .config import CRITERION, TYPED, at_least, check, each, spec
from .dataset import CLASSIFICATION, REGRESSION, Dataset, check_feature_names, is_int
from .errors import ConfigError, DataError
from .growth import _REASONS, Growth, dense_ranks, ranks_pay
from .rng import stream
from .splitting import TAGS, SplitCriterion, _flat

FORMAT_TREE = "tree-v1"


def canonical_json(doc) -> str:
    """Deterministic JSON encoding: sorted keys, no whitespace, no NaN."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)


@dataclass(frozen=True)
class GrowConfig:
    """Knobs for a single tree. n_min is a *strict* lower bound: a node is
    split only when it holds more than n_min samples.

    Feature policy: by default every feature is in play at every node;
    fixed_features (any sequence of ints, an array too) restricts all nodes
    to one subset; m_try draws a fresh random subset of that size per split
    attempt (the forest hook). The two are mutually exclusive. The seed only
    matters for m_try and the random baseline criteria."""

    criterion: Union[SplitCriterion, str] = spec(CRITERION)
    max_depth: int = spec(at_least(0))
    n_min: int = spec(at_least(1), 1)
    fixed_features: Optional[Tuple[int, ...]] = spec(each(at_least(0)), None)
    m_try: Optional[int] = spec(at_least(1), None)
    seed: int = spec(TYPED, 0)

    def __post_init__(self):
        if self.fixed_features is not None:
            object.__setattr__(self, "fixed_features",
                               feature_ints(self.fixed_features, "fixed_features"))
        check(self)
        if isinstance(self.criterion, str):
            object.__setattr__(self, "criterion", SplitCriterion(self.criterion))
        if self.fixed_features is not None and self.m_try is not None:
            raise ConfigError("fixed_features and m_try are mutually exclusive")


def feature_ints(features: Sequence[int], name: str,
                 d: Optional[int] = None) -> Tuple[int, ...]:
    """A nonempty list of feature indices as a tuple of Python ints, in
    [0, d) if d is given; ConfigError naming the argument `name` for
    anything else."""
    if not (np.iterable(features) and all(is_int(j) for j in features)):
        raise ConfigError(f"{name} must be ints, got {features!r}")
    feats = tuple(int(j) for j in features)
    if not feats:
        raise ConfigError(f"{name} must be nonempty")
    if d is not None and any(not 0 <= j < d for j in feats):
        raise ConfigError(f"{name} outside [0, {d})")
    return feats


def check_cut(max_depth: Optional[int]) -> None:
    """ConfigError unless a prediction's cut depth is None or a nonnegative
    int: a cut at 1.5 would act as a cut at 2, and one at True as a cut at 1."""
    if max_depth is not None and not (is_int(max_depth) and max_depth >= 0):
        raise ConfigError(f"max_depth must be None or a nonnegative int, got {max_depth!r}")


# rows `TreeModel.apply` descends at a time: a chunk's index arrays (128 KiB
# each) stay in cache, as QuickScorer (Lucchese et al., SIGIR 2015) blocks
# its documents
_APPLY_ROWS = 1 << 14


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
        partition is the tree cut at `max_depth` (None = full tree). x < t
        goes left; anything else, NaN included, goes right."""
        X, single = self._as_matrix(X)
        check_cut(max_depth)
        stop = self.left < 0
        if max_depth is not None:
            stop |= self.split_level >= max_depth
        # a feature out of range would read another row's value through the
        # flat offsets below (the loader rejects one; a tree built in code
        # meets this check)
        feature = self.feature[~stop]
        if np.any((feature < 0) | (feature >= self.n_features)):
            raise DataError(f"split features must lie in [0, n_features = {self.n_features})")
        # so would a child out of range: -1 reads the last node
        outside = ~stop & ((np.minimum(self.left, self.right) < 0)
                           | (np.maximum(self.left, self.right) >= self.n_nodes))
        if outside.any():
            raise DataError(f"split node {int(np.argmax(outside))} has a child outside "
                            f"[0, n_nodes = {self.n_nodes})")
        # node k's children at 2k (x < t) and 2k + 1 (anything else)
        children = np.stack([self.left, self.right], axis=1).reshape(-1)
        cell = np.zeros(X.shape[0], dtype=np.int64)
        flat, steps = _flat(X)
        for lo in range(0, cell.size, _APPLY_ROWS):
            self._descend(flat, steps, lo, stop, children, cell[lo:lo + _APPLY_ROWS])
        return cell[0] if single else cell

    def _descend(self, flat: np.ndarray, steps: Tuple[int, ...], lo: int, stop: np.ndarray,
                 children: np.ndarray, cell: np.ndarray) -> None:
        """Fill `cell` with the cells of the rows from `lo` of the matrix
        `splitting._flat` gave as (flat, steps); the tree is checked."""
        row_step, col_step = steps
        # the rows still descending, the flat offset of each one's first
        # feature and the node each one is at
        rows = np.arange(cell.size)
        at = (rows + lo) * row_step
        node = np.zeros(cell.size, dtype=np.int64)
        # split levels rise along every path and stay below the tree's
        # max_depth, so a descent ends within max_depth steps
        for _ in range(self.max_depth + 1):
            done = stop.take(node)
            if done.any():
                cell[rows[done]] = node[done]
                going = np.flatnonzero(~done)
                if going.size == 0:
                    return
                # one at a time, so at most one old array outlives its copy
                rows = rows.take(going)
                at = at.take(going)
                node = node.take(going)
            x = flat.take(at + self.feature.take(node) * col_step)
            node = children.take(2 * node + ~(x < self.threshold.take(node)))
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
        check_cut(max_depth)
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
    tree. The dataset is ranked at most once (`growth.dense_ranks`), for
    every group whose roots sort by rank."""
    groups: List[List[int]] = []
    held = 0
    for b, sample in enumerate(samples):
        size = np.size(sample)
        if not groups or held + size > _GROUP_SAMPLES:
            groups.append([])
            held = 0
        groups[-1].append(b)
        held += size
    # the groups that sort their roots by dense ranks share one ranking
    ranks = dense_ranks(data.features) if any(
        ranks_pay(data, [np.size(samples[b]) for b in group]) for group in groups) else None
    trees: List[TreeModel] = []
    for group in groups:
        grown = Growth(data, config, [samples[b] for b in group],
                       [features_rngs[b] for b in group], [splits_rngs[b] for b in group],
                       ranks).run()
        trees += [TreeModel(task=data.task, n_features=data.n_features,
                            criterion=config.criterion.tag, max_depth=config.max_depth,
                            n_min=config.n_min, n_train=int(nodes["count"][0]),
                            feature_names=data.feature_names, **nodes)
                  for nodes in grown]
    return trees


class RootSplits(NamedTuple):
    """Per sample block, `best_splits`' feature (-1 for no valid split, with
    NaN, or 0 left, in the other fields), threshold, left count, child risks."""

    feature: np.ndarray
    threshold: np.ndarray
    left_count: np.ndarray
    left_risk: np.ndarray
    right_risk: np.ndarray


def best_splits(data: Dataset, criterion: Union[SplitCriterion, str],
                samples: Sequence[np.ndarray],
                splits_rngs: Sequence[Optional[np.random.Generator]]) -> RootSplits:
    """The root split of every sample block at once: block b is the rows
    samples[b] of `data` (a non-empty index array, repeats allowed) and, under
    a random criterion, draws from its own stream splits_rngs[b]. This is the
    choice step of `grow`'s first level, run over every block's root in one
    level pass, with no leaf rule first: a block with constant targets still
    splits if a feature varies on it. Every feature is allowed (a cyclic
    rule's level-0 feature is feature 0); deterministic rules take the least
    criterion, ties to the smallest threshold, then the smallest feature;
    random rules draw the feature among the non-constant ones, then the
    threshold. No root risk is summed and no tree is built. `growth.Growth`
    checks the arguments, as it does for `grow`."""
    t = len(samples)
    growth = Growth(data, GrowConfig(criterion, max_depth=1), samples, [None] * t, splits_rngs)
    front = growth.root()
    nodes, feats, scan, threshold = growth.choose(0, front, np.arange(t), growth.spread(front))
    out = RootSplits(np.full(t, -1, dtype=np.int64), np.full(t, math.nan),
                     np.zeros(t, dtype=np.int64), np.full(t, math.nan), np.full(t, math.nan))
    for column, values in zip(out, (feats, threshold, scan.left_count, scan.left_risk,
                                    scan.right_risk)):
        column[nodes] = values
    return out


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


class NodeField(NamedTuple):
    """A TreeModel array and tree-v1 node key. A document writes null for it
    on leaf nodes (null "leaf", held as -1 or NaN) or for NaN (null "nan")."""

    name: str
    integer: bool
    null: Optional[str] = None


NODE_FIELDS = (
    NodeField("depth", True),
    NodeField("count", True),
    NodeField("risk", False),
    NodeField("value", False),
    NodeField("log_odds", False, "nan"),
    NodeField("feature", True, "leaf"),
    NodeField("threshold", False, "leaf"),
    NodeField("left", True, "leaf"),
    NodeField("right", True, "leaf"),
    NodeField("split_level", True, "leaf"),
)


def _doc_column(tree: TreeModel, f: NodeField) -> list:
    values = np.asarray(getattr(tree, f.name), dtype=np.int64 if f.integer else np.float64)
    if f.null is None:
        return values.tolist()
    column = values.astype(object)
    column[(tree.left < 0) if f.null == "leaf" else np.isnan(values)] = None
    return column.tolist()


def tree_to_doc(tree: TreeModel) -> dict:
    keys = [f.name for f in NODE_FIELDS] + ["leaf_reason"]
    columns = [_doc_column(tree, f) for f in NODE_FIELDS] + [tree.leaf_reason]
    return {**header_doc(tree, FORMAT_TREE), "n_train": tree.n_train,
            "risk_trace": [float(u) for u in tree.risk_trace],
            "nodes": [dict(zip(keys, node)) for node in zip(*columns)]}


def _check_structure(tree: TreeModel) -> None:
    """Reject a loaded tree that prediction could not walk, or would walk
    to a wrong cell. Every node field holds one number per node; each split
    node's two children lie after it and before the end; every node but the
    root has exactly one parent; split levels lie in [0, max_depth) and rise
    from parent to child, so every descent ends within max_depth steps; split
    features lie in [0, n_features), split thresholds are finite, and so are
    a classification tree's log-odds; a leaf_reason is null on split nodes
    and one of growth's reason names on leaves."""
    if len(tree.risk_trace) != tree.max_depth + 1:
        raise DataError(f"risk_trace needs max_depth + 1 = {tree.max_depth + 1} entries, "
                        f"got {len(tree.risk_trace)}")
    n = len(tree.leaf_reason)
    if n == 0:
        raise DataError("tree has no nodes")
    if any(np.shape(getattr(tree, f.name)) != (n,) for f in NODE_FIELDS):
        raise DataError(f"every node field must hold one number per node ({n})")
    ids = np.arange(n)
    left, right = tree.left, tree.right
    split = left >= 0
    leaf_ok = (left == -1) & (right == -1)
    split_ok = (left > ids) & (left < n) & (right > ids) & (right < n)
    if not np.all(np.where(split, split_ok, leaf_ok)):
        raise DataError("each split node's children must lie in (node, n_nodes)")
    if not all(r is None if s else r in _REASONS[1:]
               for r, s in zip(tree.leaf_reason, split.tolist())):
        raise DataError(f"leaf_reason must be null on split nodes and one of "
                        f"{list(_REASONS[1:])} on leaves")
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
    if tree.task == CLASSIFICATION and not np.all(np.isfinite(tree.log_odds)):
        raise DataError("a classification tree's log_odds must be finite")


def int_list(values: list, what: str) -> np.ndarray:
    """An integer field; a float or bool would otherwise turn silently into
    another node or feature."""
    if not set(map(type, values)) <= {int}:
        raise DataError(f"{what} must be integers")
    return np.asarray(values, dtype=np.int64)


def _node_column(nodes: list, f: NodeField) -> np.ndarray:
    """Field f of every node: integers through `int_list`, other fields
    finite JSON numbers (not bools or strings), or null where f allows."""
    get = itemgetter(f.name)
    if f.null:  # null reads as -1 or NaN
        fill = -1 if f.integer else math.nan
        column = [fill if v is None else v for v in map(get, nodes)]
    else:
        column = list(map(get, nodes))
    if f.integer:
        return int_list(column, f"node {f.name} values")
    # NaN is null's stand-in, so only the infinities are out where null is in
    return _float_list(column, f"node {f.name} values", nan=bool(f.null))


def _float_list(values: list, what: str, nan: bool = False) -> np.ndarray:
    """A float field: finite JSON numbers, not bools or strings (NaN too if
    `nan`)."""
    if not set(map(type, values)) <= {int, float}:
        raise DataError(f"{what} must be numbers")
    array = np.asarray(values, dtype=np.float64)
    if np.any(np.isinf(array) if nan else ~np.isfinite(array)):
        raise DataError(f"{what} must be finite")
    return array


def header_int(doc: dict, key: str, low: Optional[int] = None) -> int:
    """An integer header field of a model document, at least `low` if given;
    a float such as 1e400 or 3.5 is rejected rather than truncated."""
    value = doc.get(key)
    if type(value) is not int or (low is not None and value < low):
        at_least = "" if low is None else f" >= {low}"
        raise DataError(f"{key!r} must be an integer{at_least}, got {value!r}")
    return value


_HEADER = ("task", "n_features", "criterion", "max_depth", "n_min")


def header_doc(model, fmt: str) -> dict:
    """The header that tree and forest documents share (see `read_header`)."""
    doc = {"format": fmt, **{key: getattr(model, key) for key in _HEADER}}
    if model.feature_names is not None:
        doc["feature_names"] = list(model.feature_names)
    return doc


def read_header(doc: dict, fmt: str) -> dict:
    """The header that tree and forest documents share, checked: the format
    tag `fmt`, a known task and criterion, n_features >= 1, max_depth >= 0,
    an integer n_min and the optional feature names. Returns the fields as
    keywords of TreeModel and ForestModel alike."""
    if not isinstance(doc, dict) or doc.get("format") != fmt:
        raise DataError(f"not a {fmt} document")
    task, criterion = doc.get("task"), doc.get("criterion")
    if task not in (REGRESSION, CLASSIFICATION):
        raise DataError(f"unknown task {task!r}")
    if criterion not in TAGS:
        raise DataError(f"unknown criterion {criterion!r}")
    n_features, names = header_int(doc, "n_features", 1), doc.get("feature_names")
    return {"task": task, "n_features": n_features, "criterion": criterion,
            "max_depth": header_int(doc, "max_depth", 0), "n_min": header_int(doc, "n_min"),
            "feature_names": None if names is None else check_feature_names(names, n_features)}


def parse_doc(text: str) -> dict:
    """The JSON object of a model document; DataError for anything else."""
    try:
        doc = json.loads(text)
    except ValueError as exc:  # bad JSON, or an int past int()'s digit limit
        raise DataError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataError("model document must be a JSON object")
    return doc


def tree_from_doc(doc: dict) -> TreeModel:
    header = read_header(doc, FORMAT_TREE)
    try:
        nodes = doc["nodes"]
        tree = TreeModel(**header, n_train=header_int(doc, "n_train"),
                         **{f.name: _node_column(nodes, f) for f in NODE_FIELDS},
                         leaf_reason=[node["leaf_reason"] for node in nodes],
                         risk_trace=_float_list(doc["risk_trace"], "risk_trace").tolist())
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"malformed {FORMAT_TREE} document: {exc}") from exc
    _check_structure(tree)
    return tree


def tree_to_json(tree: TreeModel) -> str:
    """Canonical (byte-stable) JSON for a tree."""
    return canonical_json(tree_to_doc(tree))


def tree_from_json(text: str) -> TreeModel:
    return tree_from_doc(parse_doc(text))
