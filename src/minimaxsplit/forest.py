"""Bagged ensembles of trees.

Each tree b gets its own deterministic seed derived from the forest seed and
the label "tree/{b}", and draws from three private streams ("bootstrap",
"features", "splits"). Tree b is a pure function of (data, config, seed, b):
`train_forest` grows all the trees as one batch through shared level passes
(`tree.grow_trees`), and each comes out byte-identical to the tree a
sequential loop would grow on its own bootstrap sample.

Regression forests average the trees' fitted means. Classification forests
average the trees' smoothed per-leaf log-odds and threshold the average at
zero; the smoothing keeps single pure leaves from saturating the vote.

A `ForestModel`, like its trees, is valid by construction: when built, it
checks its fields, that its criterion is one of its task, that m_try is at
most n_features, that it holds n_trees trees and index lists, that each tree
agrees with it on task, n_features, max_depth, n_min and names, and that
index list b holds trees[b].n_train rows in [0, n_train), in order without
bootstrap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from .config import CRITERION, TASK, TYPED, at_least, check, spec
from .dataset import CLASSIFICATION, Dataset
from .errors import ConfigError, DataError
from .rng import derive_seed, stream
from .splitting import SplitCriterion
from .tree import (_APPLY_ROWS, FORMAT_TREE, GrowConfig, TreeModel, canonical_json, check_cut,
                   frozen, grow_trees, header_doc, parse_doc, read_header, tree_from_doc,
                   tree_to_json, typed_list)

FORMAT_FOREST = "forest-v1"


@dataclass(frozen=True)
class ForestConfig:
    """m_try is the per-node feature subset size; None means all features.
    bootstrap=False grows every tree on the full sample (only the feature
    subsampling then distinguishes the trees)."""

    criterion: Union[SplitCriterion, str] = spec(CRITERION)
    n_trees: int = spec(at_least(1))
    max_depth: int = spec(at_least(0))
    n_min: int = spec(at_least(1), 1)
    m_try: Optional[int] = spec(at_least(1), None)
    bootstrap: bool = spec(TYPED, True)

    def __post_init__(self):
        check(self)
        if isinstance(self.criterion, str):
            object.__setattr__(self, "criterion", SplitCriterion(self.criterion))


@dataclass(frozen=True)
class ForestModel:
    """Valid by construction (see above); the header fields take the rules
    of their twins in `ForestConfig`, and each index list is `frozen`."""

    task: str = spec(TASK)
    n_features: int = spec(at_least(1))
    criterion: str = spec(CRITERION)
    n_trees: int = spec(at_least(1))
    max_depth: int = spec(at_least(0))
    n_min: int = spec(at_least(1))
    m_try: Optional[int] = spec(at_least(1))
    bootstrap: bool = spec(TYPED)
    seed: int = spec(TYPED)
    trees: Tuple[TreeModel, ...] = spec(TYPED)
    bootstrap_indices: Tuple[np.ndarray, ...] = spec(TYPED)
    feature_names: Optional[Tuple[str, ...]] = spec(TYPED, None)

    def __post_init__(self):
        # the names must equal each (checked) tree's, so they are checked too
        check(self, DataError)
        if SplitCriterion(self.criterion).task() != self.task:
            raise DataError(f"criterion {self.criterion!r} is not one of a {self.task} model")
        if self.m_try is not None and self.m_try > self.n_features:
            raise DataError(f"m_try {self.m_try} exceeds n_features = {self.n_features}")
        if not self.n_trees == len(self.trees) == len(self.bootstrap_indices):
            raise DataError(f"n_trees is {self.n_trees} but the forest holds {len(self.trees)} "
                            f"trees and {len(self.bootstrap_indices)} bootstrap index lists")
        for b, tree in enumerate(self.trees):
            for key in ("task", "n_features", "max_depth", "n_min", "feature_names"):
                if getattr(tree, key) != getattr(self, key):
                    raise DataError(f"tree {b} has {key} {getattr(tree, key)!r}, "
                                    f"the forest {getattr(self, key)!r}")
        indices = tuple(frozen(idx, True, "bootstrap indices") for idx in self.bootstrap_indices)
        for b, (tree, idx) in enumerate(zip(self.trees, indices)):
            n = tree.n_train
            if not (idx.size == n and np.all((idx >= 0) & (idx < n)) if self.bootstrap
                    else np.array_equal(idx, np.arange(n))):
                raise DataError(f"bootstrap index list {b} must hold tree {b}'s n_train = {n} "
                                f"rows in [0, {n})" + ("" if self.bootstrap else ", in order"))
        object.__setattr__(self, "bootstrap_indices", indices)

    def predict_value(self, X, max_depth: Optional[int] = None):
        """Mean over trees of the per-tree fitted value (regression) or
        smoothed log-odds (classification).

        The rows are taken `tree._APPLY_ROWS` at a time: each chunk's
        per-tree predictions fill one (n_trees, chunk) buffer, and its mean
        over axis 0 gives the chunk's values, so memory holds one chunk per
        tree, not every row for every tree. numpy sums a (T, m) array's
        axis 0 tree by tree when m >= 2 but pairwise when m == 1, so no
        chunk holds a single row unless n does: each point gets the float
        the mean over a (T, n) stack of all rows would give."""
        X, single = self.trees[0]._as_matrix(X)
        check_cut(max_depth)
        n = X.shape[0]
        bounds = list(range(0, n, _APPLY_ROWS)) + [n]
        if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
            bounds[-2] -= 1
        out = np.empty(n)
        per_tree = np.empty((self.n_trees, min(n, _APPLY_ROWS)))
        for lo, hi in zip(bounds, bounds[1:]):
            block = per_tree[:, :hi - lo]
            for row, t in zip(block, self.trees):
                cell = t.apply(X[lo:hi], max_depth)
                (t.log_odds if self.task == CLASSIFICATION else t.value).take(cell, out=row)
            np.mean(block, axis=0, out=out[lo:hi])
        return out[0] if single else out

    def predict(self, X, max_depth: Optional[int] = None):
        vals = self.predict_value(X, max_depth)
        if self.task == CLASSIFICATION:
            labels = np.where(vals >= 0.0, 1.0, -1.0)
            return labels if np.ndim(vals) else float(labels)
        return vals


def _effective_plan(config: ForestConfig, d: int):
    """Resolve criterion/m_try interaction; returns (criterion, m_try_or_None).

    A cyclic criterion schedules the feature by depth, which collides with
    per-node feature draws: with m_try == 1 the draw *replaces* the schedule
    (each node minimaxes its single drawn feature), with the full feature set
    the forest is plain bagging of cyclic trees, and anything in between has
    no coherent meaning, so it is rejected.
    """
    crit = config.criterion
    m_try = d if config.m_try is None else config.m_try
    if m_try > d:
        raise ConfigError(f"m_try {m_try} exceeds the {d} available features")
    if crit.is_cyclic:
        if m_try == 1:
            mapped = "entropy_minimax" if crit.is_entropy else "minimax"
            return SplitCriterion(mapped), 1
        if m_try == d:
            return crit, None
        raise ConfigError("cyclic criteria support only m_try=1 or m_try=d in forests")
    return crit, m_try


def train_forest(data: Dataset, config: ForestConfig, seed: int = 0) -> ForestModel:
    """Grow the forest's trees as one batch on the calling thread (see
    `tree.grow_trees`), so each level's numpy calls cover every tree's nodes
    at once."""
    n = data.n_samples
    crit, m_try = _effective_plan(config, data.n_features)
    grow_cfg = GrowConfig(criterion=crit, max_depth=config.max_depth,
                          n_min=config.n_min, m_try=m_try)
    tree_seeds = [derive_seed(seed, f"tree/{b}") for b in range(config.n_trees)]
    if config.bootstrap:
        indices = [stream(s, "bootstrap").integers(0, n, size=n) for s in tree_seeds]
    else:
        indices = [np.arange(n, dtype=np.int64) for _ in tree_seeds]
    trees = grow_trees(data, grow_cfg, indices,
                       [stream(s, "features") for s in tree_seeds],
                       [stream(s, "splits") for s in tree_seeds])
    return ForestModel(task=data.task, n_features=data.n_features,
                       criterion=config.criterion.tag, n_trees=config.n_trees,
                       max_depth=config.max_depth, n_min=config.n_min, m_try=config.m_try,
                       bootstrap=config.bootstrap, seed=int(seed), trees=trees,
                       bootstrap_indices=indices, feature_names=data.feature_names)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def forest_from_doc(doc: dict) -> ForestModel:
    """Parse a forest-v1 document: the header as it is, each tree through
    `tree_from_doc`, each index list through `typed_list`; the ForestModel
    built from them checks the values and that the trees agree with it."""
    header = read_header(doc, FORMAT_FOREST)
    try:
        fields = {**{key: doc[key] for key in ("n_trees", "m_try", "bootstrap", "seed")},
                  "trees": [tree_from_doc(t) for t in doc["trees"]],
                  "bootstrap_indices": [typed_list(i, True, "bootstrap indices")
                                        for i in doc["bootstrap_indices"]]}
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed {FORMAT_FOREST} document: {exc}") from exc
    return ForestModel(**header, **fields)


def forest_to_json(forest: ForestModel) -> str:
    """Canonical (byte-stable) JSON for a forest: the bytes `canonical_json`
    gives the whole forest-v1 document, written key by key and one index
    list or tree document at a time, so the whole forest is never held as
    Python objects; the text's pieces and the text itself are what the
    writer holds at its peak."""
    fields = {**header_doc(forest, FORMAT_FOREST), "n_trees": forest.n_trees,
              "m_try": forest.m_try, "bootstrap": forest.bootstrap, "seed": forest.seed}
    lists = {"bootstrap_indices": (canonical_json(idx.tolist())
                                   for idx in forest.bootstrap_indices),
             "trees": map(tree_to_json, forest.trees)}

    def pieces():
        for k, key in enumerate(sorted([*fields, *lists])):
            yield ("{" if k == 0 else ",") + canonical_json(key) + ":"
            if key in fields:
                yield canonical_json(fields[key])
                continue
            yield "["
            for i, text in enumerate(lists[key]):
                if i:
                    yield ","
                yield text
            yield "]"
        yield "}"

    return "".join(pieces())


def forest_from_json(text: str) -> ForestModel:
    return forest_from_doc(parse_doc(text))


def model_to_json(model: Union[TreeModel, ForestModel]) -> str:
    """Canonical JSON for either model kind."""
    if isinstance(model, TreeModel):
        return tree_to_json(model)
    if isinstance(model, ForestModel):
        return forest_to_json(model)
    raise ConfigError(f"not a model: {type(model).__name__}")


def load_model(text: str) -> Union[TreeModel, ForestModel]:
    """Parse either model format, dispatching on the embedded format tag."""
    doc = parse_doc(text)
    fmt = doc.get("format")
    if fmt == FORMAT_TREE:
        return tree_from_doc(doc)
    if fmt == FORMAT_FOREST:
        return forest_from_doc(doc)
    raise DataError(f"unknown model format {fmt!r}")
