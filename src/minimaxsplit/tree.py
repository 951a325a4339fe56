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

A `TreeModel` is valid by construction: grown, loaded or built in code, it
checks its fields' rules (`config.check`) and that growth could build it
once, when built, raising DataError for any fault; prediction trusts it.

A saved tree is a tree-v1 JSON document, a header and one object per node.
The table NODE_FIELDS names each node field, whether it holds integers and
how a document writes it (null, or a code's name); `tree_to_doc`,
`tree_from_doc` (which only parses) and `_check_structure` all work from
it. `header_doc`, `read_header` and `parse_doc` serve forest-v1 documents
too, so a new layout, such as one array per field, changes only these.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from operator import itemgetter
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .config import CRITERION, TASK, TYPED, at_least, check, each, spec
from .dataset import CLASSIFICATION, Dataset, check_feature_names, is_int
from .errors import ConfigError, DataError
from .growth import _REASONS, Growth, dense_ranks, ranks_pay
from .rng import stream
from .splitting import SplitCriterion, _flat

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


@dataclass(frozen=True)
class TreeModel:
    """Flat-array tree. Leaves have left == -1; their threshold is NaN.

    `value` is the node's fitted prediction (target mean for regression, the
    raw positive-class fraction for classification) and is stored for every
    node so that depth-truncated prediction works. `split_level` records the
    level a node split at, which exceeds its creation depth only for nodes a
    cyclic criterion persisted past a constant scheduled feature.
    `leaf_reason` is 0 on split nodes and on a leaf the index in
    `growth._REASONS` of the rule that stopped it (a document writes names).
    `feature_names` are the training columns' names when the training data
    had them (a CSV header); prediction from a CSV then matches by name.
    Valid by construction (see above): the header fields take the rules of
    their twins in `GrowConfig`, the criterion is of the model's task, and
    the node arrays and risk trace are `frozen`.
    """

    task: str = spec(TASK)
    n_features: int = spec(at_least(1))
    criterion: str = spec(CRITERION)
    max_depth: int = spec(at_least(0))
    n_min: int = spec(at_least(1))
    n_train: int = spec(at_least(1))
    # `_check_structure` types these: `check` types a tuple entry by entry
    depth: np.ndarray = spec(TYPED)
    count: np.ndarray = spec(TYPED)
    risk: np.ndarray = spec(TYPED)
    value: np.ndarray = spec(TYPED)
    log_odds: np.ndarray = spec(TYPED)
    feature: np.ndarray = spec(TYPED)
    threshold: np.ndarray = spec(TYPED)
    left: np.ndarray = spec(TYPED)
    right: np.ndarray = spec(TYPED)
    split_level: np.ndarray = spec(TYPED)
    leaf_reason: np.ndarray = spec(TYPED)
    risk_trace: np.ndarray = spec(TYPED)
    feature_names: Optional[Tuple[str, ...]] = spec(TYPED, None)

    def __post_init__(self):
        if self.feature_names is not None:
            object.__setattr__(self, "feature_names",
                               check_feature_names(self.feature_names, self.n_features))
        check(self, DataError)
        if SplitCriterion(self.criterion).task() != self.task:
            raise DataError(f"criterion {self.criterion!r} is not one of a {self.task} model")
        _check_structure(self)

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
        `splitting._flat` gave as (flat, steps). Split levels rise along
        every path and stay below max_depth (`_check_structure`), so every
        row stops within max_depth + 1 steps."""
        row_step, col_step = steps
        # the rows still descending, the flat offset of each one's first
        # feature and the node each one is at
        rows = np.arange(cell.size)
        at = (rows + lo) * row_step
        node = np.zeros(cell.size, dtype=np.int64)
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
    every group that grows on rank keys."""
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
    on leaf nodes (null "leaf", held as -1 or NaN) or for NaN (null "nan"),
    or writes each integer code k as names[k]."""

    name: str
    integer: bool
    null: Optional[str] = None
    names: Tuple[Optional[str], ...] = ()


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
    NodeField("leaf_reason", True, names=_REASONS),
)


def _doc_column(tree: TreeModel, f: NodeField) -> list:
    values = getattr(tree, f.name)
    if f.names:
        return np.array(f.names, dtype=object)[values].tolist()
    if f.null is None:
        return values.tolist()
    column = values.astype(object)
    column[(tree.left < 0) if f.null == "leaf" else np.isnan(values)] = None
    return column.tolist()


def tree_to_doc(tree: TreeModel) -> dict:
    columns = {f.name: _doc_column(tree, f) for f in NODE_FIELDS}
    return {**header_doc(tree, FORMAT_TREE), "n_train": tree.n_train,
            "risk_trace": tree.risk_trace.tolist(),
            "nodes": [dict(zip(columns, node)) for node in zip(*columns.values())]}


def _check_structure(tree: TreeModel) -> None:
    """Reject a tree that growth could not have built, so that prediction
    could not walk it or would walk it to a wrong cell; store its arrays
    `frozen`. Every node field holds one number per node, finite or NaN
    where null (`NODE_FIELDS`), and the risk trace max_depth + 1 finite
    ones that never rise; node risks are not negative (growth's child risks
    come from clamped prefix curves and its gains are clamped at 0); each
    split node's two children lie after it and before the end;
    every node but the root has exactly one parent; a leaf reason is 0 on
    split nodes and one of growth's reason codes on leaves; split levels lie
    in [0, max_depth) and rise from parent to child, so every descent ends
    within max_depth steps; the root's depth is 0 and each child's is its
    parent's split level + 1; every count is at least 1, the root's is
    n_train and a split node's is the sum of its children's; split features
    lie in [0, n_features), split thresholds are finite, and so are a
    classification tree's log-odds."""
    trace = frozen(tree.risk_trace, False, "risk_trace")
    if trace.size != tree.max_depth + 1 or not np.all(np.isfinite(trace)):
        raise DataError(f"risk_trace needs max_depth + 1 = {tree.max_depth + 1} finite entries")
    if np.any(trace[1:] > trace[:-1]):
        raise DataError("risk_trace must never increase")
    object.__setattr__(tree, "risk_trace", trace)
    n = tree.depth.size
    if n == 0:
        raise DataError("tree has no nodes")
    for f in NODE_FIELDS:
        values = frozen(getattr(tree, f.name), f.integer, f"node {f.name} values")
        if values.size != n:
            raise DataError(f"every node field must hold one number per node ({n})")
        # NaN is null's stand-in, so only the infinities are out where null is in
        if not f.integer and np.any(np.isinf(values) if f.null else ~np.isfinite(values)):
            raise DataError(f"node {f.name} values must be finite")
        object.__setattr__(tree, f.name, values)
    if np.any(tree.risk < 0.0):
        raise DataError("node risks must not be negative")
    ids = np.arange(n)
    left, right = tree.left, tree.right
    split = left >= 0
    leaf_ok = (left == -1) & (right == -1)
    split_ok = (left > ids) & (left < n) & (right > ids) & (right < n)
    if not np.all(np.where(split, split_ok, leaf_ok)):
        raise DataError("each split node's children must lie in (node, n_nodes)")
    reason = tree.leaf_reason
    if not np.all(np.where(split, reason == 0, (reason >= 1) & (reason < len(_REASONS)))):
        raise DataError(f"leaf_reason must be 0 on split nodes and in [1, {len(_REASONS)}) "
                        f"on leaves")
    children = (left[split], right[split])
    parents = np.bincount(np.concatenate(children), minlength=n)
    if np.any(parents[1:] != 1):
        raise DataError("every node but the root must have exactly one parent")
    level = tree.split_level[split]
    if np.any((level < 0) | (level >= tree.max_depth)):
        raise DataError(f"split levels must lie in [0, max_depth = {tree.max_depth})")
    for child in children:
        inner = split[child]
        if np.any(tree.split_level[child[inner]] <= level[inner]):
            raise DataError("a child must split at a later level than its parent")
    depth, count = tree.depth, tree.count
    if depth[0] != 0 or any(np.any(depth[child] != level + 1) for child in children):
        raise DataError("the root's depth must be 0 and each child's its parent's "
                        "split level + 1")
    if (np.any(count < 1) or count[0] != tree.n_train
            or np.any(count[children[0]] + count[children[1]] != count[split])):
        raise DataError(f"counts must be at least 1, the root's n_train = {tree.n_train} "
                        f"and each split node's the sum of its children's")
    feature = tree.feature[split]
    if np.any((feature < 0) | (feature >= tree.n_features)):
        raise DataError(f"split features must lie in [0, n_features = {tree.n_features})")
    if not np.all(np.isfinite(tree.threshold[split])):
        raise DataError("split thresholds must be finite")
    if tree.task == CLASSIFICATION and not np.all(np.isfinite(tree.log_odds)):
        raise DataError("a classification tree's log_odds must be finite")


def frozen(values: np.ndarray, integer: bool, what: str) -> np.ndarray:
    """A read-only int64 (`integer`) or float64 copy of a 1-D array, which no
    caller can edit; DataError for floats or bools where integers are due
    (never cast), or for bools or objects where numbers are."""
    kinds, dtype = ("iu", np.int64) if integer else ("iuf", np.float64)
    if values.ndim != 1 or values.dtype.kind not in kinds or not np.can_cast(values.dtype, dtype):
        raise DataError(f"{what} must be a 1-D array of {'integers' if integer else 'numbers'}")
    copy = np.array(values, dtype=dtype)
    copy.setflags(write=False)
    return copy


def typed_list(values: list, integer: bool, what: str) -> np.ndarray:
    """A JSON list as int64 (`integer`: ints only, since a float or bool
    would turn silently into another node, feature or row) or float64
    (numbers, not bools or strings); DataError past either range."""
    if not set(map(type, values)) <= ({int} if integer else {int, float}):
        raise DataError(f"{what} must be {'integers' if integer else 'numbers'}")
    try:
        return np.asarray(values, dtype=np.int64 if integer else np.float64)
    except OverflowError:
        raise DataError(f"{what} must lie within the range of a 64-bit number") from None


def _node_column(nodes: list, f: NodeField) -> np.ndarray:
    """Field f of every node through `typed_list`; null, where f allows it,
    reads as -1 or NaN, and a name of f.names as its code."""
    column = map(itemgetter(f.name), nodes)
    if f.names:
        try:  # a missing, unknown or unhashable name
            column = list(map({name: k for k, name in enumerate(f.names)}.__getitem__, column))
        except (KeyError, TypeError):
            raise DataError(f"node {f.name} values must be one of {list(f.names)}") from None
    elif f.null:
        fill = -1 if f.integer else math.nan
        column = [fill if v is None else v for v in column]
    return typed_list(list(column), f.integer, f"node {f.name} values")


_HEADER = ("task", "n_features", "criterion", "max_depth", "n_min")


def header_doc(model, fmt: str) -> dict:
    """The header that tree and forest documents share (see `read_header`)."""
    doc = {"format": fmt, **{key: getattr(model, key) for key in _HEADER}}
    if model.feature_names is not None:
        doc["feature_names"] = list(model.feature_names)
    return doc


def read_header(doc: dict, fmt: str) -> dict:
    """The header fields that tree and forest documents share, as keywords
    of TreeModel and ForestModel alike (None where missing); DataError
    unless `doc` is a JSON object tagged `fmt`. The model built from them
    checks their values."""
    if not isinstance(doc, dict) or doc.get("format") != fmt:
        raise DataError(f"not a {fmt} document")
    return {key: doc.get(key) for key in _HEADER + ("feature_names",)}


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
    """Parse a tree-v1 document: the header as it is, the risk trace through
    `typed_list` and each node field through `NODE_FIELDS`. The tree built
    from them checks every value."""
    header = read_header(doc, FORMAT_TREE)
    try:
        nodes = doc["nodes"]
        fields = {"n_train": doc["n_train"],
                  "risk_trace": typed_list(doc["risk_trace"], False, "risk_trace"),
                  **{f.name: _node_column(nodes, f) for f in NODE_FIELDS}}
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed {FORMAT_TREE} document: {exc}") from exc
    return TreeModel(**header, **fields)


def tree_to_json(tree: TreeModel) -> str:
    """Canonical (byte-stable) JSON for a tree."""
    return canonical_json(tree_to_doc(tree))


def tree_from_json(text: str) -> TreeModel:
    return tree_from_doc(parse_doc(text))
