"""Bagged ensembles of trees.

Each tree b gets its own deterministic seed derived from the forest seed and
the label "tree/{b}", and draws from three private streams ("bootstrap",
"features", "splits"). Training tree b is a pure function of (data, config,
seed, b), so growing trees across a thread pool yields exactly the same
forest as a sequential loop — byte-identical after serialization.

Regression forests average the trees' fitted means. Classification forests
average the trees' smoothed per-leaf log-odds and threshold the average at
zero; the smoothing keeps single pure leaves from saturating the vote.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

from .dataset import CLASSIFICATION, Dataset
from .errors import ConfigError, DataError
from .rng import derive_seed, stream
from .splitting import TAGS, SplitCriterion
from .tree import (FORMAT_TREE, GrowConfig, TreeModel, canonical_json, doc_feature_names,
                   grow, header_int, int_list, tree_from_doc, tree_to_doc, tree_to_json)

FORMAT_FOREST = "forest-v1"


@dataclass(frozen=True)
class ForestConfig:
    """m_try is the per-node feature subset size; None means all features.
    bootstrap=False grows every tree on the full sample (only the feature
    subsampling then distinguishes the trees)."""

    criterion: Union[SplitCriterion, str]
    n_trees: int
    max_depth: int
    n_min: int = 1
    m_try: Optional[int] = None
    bootstrap: bool = True

    def __post_init__(self):
        if isinstance(self.criterion, str):
            object.__setattr__(self, "criterion", SplitCriterion(self.criterion))
        if not isinstance(self.n_trees, int) or self.n_trees < 1:
            raise ConfigError(f"n_trees must be a positive int, got {self.n_trees!r}")
        if not isinstance(self.max_depth, int) or self.max_depth < 0:
            raise ConfigError(f"max_depth must be a nonnegative int, got {self.max_depth!r}")
        if not isinstance(self.n_min, int) or self.n_min < 1:
            raise ConfigError(f"n_min must be a positive int, got {self.n_min!r}")
        if self.m_try is not None and (not isinstance(self.m_try, int) or self.m_try < 1):
            raise ConfigError(f"m_try must be a positive int or None, got {self.m_try!r}")


@dataclass
class ForestModel:
    task: str
    n_features: int
    criterion: str
    n_trees: int
    max_depth: int
    n_min: int
    m_try: Optional[int]
    bootstrap: bool
    seed: int
    trees: List[TreeModel]
    bootstrap_indices: List[np.ndarray]
    feature_names: Optional[Tuple[str, ...]] = None

    def predict_value(self, X, max_depth: Optional[int] = None):
        """Mean over trees of the per-tree fitted value (regression) or
        smoothed log-odds (classification)."""
        if self.task == CLASSIFICATION:
            per_tree = [t.predict_log_odds(X, max_depth) for t in self.trees]
        else:
            per_tree = [t.predict_value(X, max_depth) for t in self.trees]
        return np.mean(np.asarray(per_tree), axis=0)

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


def _pmap(fn, items, threads: int) -> list:
    """Order-preserving map, threaded when asked. Every worker owns its own
    derived streams, so the result does not depend on scheduling."""
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def train_forest(data: Dataset, config: ForestConfig, seed: int = 0,
                 threads: int = 1) -> ForestModel:
    if not isinstance(threads, int) or threads < 1:
        raise ConfigError(f"threads must be a positive int, got {threads!r}")
    n = data.n_samples
    crit, m_try = _effective_plan(config, data.n_features)
    grow_cfg = GrowConfig(criterion=crit, max_depth=config.max_depth,
                          n_min=config.n_min, m_try=m_try)

    def one_tree(b: int):
        tree_seed = derive_seed(seed, f"tree/{b}")
        if config.bootstrap:
            idx = stream(tree_seed, "bootstrap").integers(0, n, size=n)
            boot = data.subset(idx)
        else:
            idx = np.arange(n, dtype=np.int64)
            boot = data
        tree = grow(boot, grow_cfg,
                    features_rng=stream(tree_seed, "features"),
                    splits_rng=stream(tree_seed, "splits"))
        return idx, tree

    results = _pmap(one_tree, range(config.n_trees), threads)
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
        trees=[t for _, t in results],
        bootstrap_indices=[i for i, _ in results],
        feature_names=data.feature_names,
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def forest_to_doc(forest: ForestModel) -> dict:
    doc = {
        "format": FORMAT_FOREST,
        "task": forest.task,
        "n_features": forest.n_features,
        "criterion": forest.criterion,
        "n_trees": forest.n_trees,
        "max_depth": forest.max_depth,
        "n_min": forest.n_min,
        "m_try": forest.m_try,
        "bootstrap": forest.bootstrap,
        "seed": forest.seed,
        "bootstrap_indices": [[int(i) for i in idx] for idx in forest.bootstrap_indices],
        "trees": [tree_to_doc(t) for t in forest.trees],
    }
    if forest.feature_names is not None:
        doc["feature_names"] = list(forest.feature_names)
    return doc


def forest_from_doc(doc: dict) -> ForestModel:
    """Load a forest document. Its header must agree with its trees: as many
    trees as `n_trees` and as many bootstrap index lists, and every tree of
    the header's task, `n_features`, `max_depth`, `n_min` and feature names."""
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_FOREST:
        raise DataError(f"not a {FORMAT_FOREST} document")
    try:
        n_features = header_int(doc, "n_features")
        forest = ForestModel(
            task=doc["task"],
            n_features=n_features,
            criterion=doc["criterion"],
            n_trees=header_int(doc, "n_trees"),
            max_depth=header_int(doc, "max_depth"),
            n_min=header_int(doc, "n_min"),
            m_try=None if doc["m_try"] is None else header_int(doc, "m_try"),
            bootstrap=doc["bootstrap"],
            seed=header_int(doc, "seed"),
            trees=[tree_from_doc(t) for t in doc["trees"]],
            bootstrap_indices=[int_list(i, "bootstrap indices")
                               for i in doc["bootstrap_indices"]],
            feature_names=doc_feature_names(doc, n_features),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"malformed {FORMAT_FOREST} document: {exc}") from exc
    if forest.criterion not in TAGS:
        raise DataError(f"unknown criterion {forest.criterion!r}")
    if type(forest.bootstrap) is not bool:
        raise DataError(f"'bootstrap' must be true or false, got {forest.bootstrap!r}")
    if forest.n_trees < 1:
        raise DataError(f"a forest needs at least one tree, got n_trees {forest.n_trees}")
    if not forest.n_trees == len(forest.trees) == len(forest.bootstrap_indices):
        raise DataError(f"n_trees is {forest.n_trees} but the document holds "
                        f"{len(forest.trees)} trees and {len(forest.bootstrap_indices)} "
                        f"bootstrap index lists")
    for b, tree in enumerate(forest.trees):
        for key in ("task", "n_features", "max_depth", "n_min", "feature_names"):
            if getattr(tree, key) != getattr(forest, key):
                raise DataError(f"tree {b} has {key} {getattr(tree, key)!r}, "
                                f"the forest {getattr(forest, key)!r}")
    return forest


def forest_to_json(forest: ForestModel) -> str:
    """Canonical (byte-stable) JSON for a forest."""
    return canonical_json(forest_to_doc(forest))


def forest_from_json(text: str) -> ForestModel:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"invalid JSON: {exc}") from exc
    return forest_from_doc(doc)


def model_to_json(model: Union[TreeModel, ForestModel]) -> str:
    """Canonical JSON for either model kind."""
    if isinstance(model, TreeModel):
        return tree_to_json(model)
    if isinstance(model, ForestModel):
        return forest_to_json(model)
    raise ConfigError(f"not a model: {type(model).__name__}")


def load_model(text: str) -> Union[TreeModel, ForestModel]:
    """Parse either model format, dispatching on the embedded format tag."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataError("model document must be a JSON object")
    fmt = doc.get("format")
    if fmt == FORMAT_TREE:
        return tree_from_doc(doc)
    if fmt == FORMAT_FOREST:
        return forest_from_doc(doc)
    raise DataError(f"unknown model format {fmt!r}")
