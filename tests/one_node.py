"""The one-node split entry the package had before `tree.best_splits`,
kept for the tests: `NodeView` (a node's member samples at some depth) and
`root_node`, `SplitDecision`, and `best_split`, the choice step of the level
pass run on a frontier of one node, with the cache of its one-node configs.
`pernode_scan` and `pernode_grower` take their nodes as `NodeView`s, and
`best_split` is the per-block oracle of `tree.best_splits`; the library
does not use any of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence, Tuple

import numpy as np

from minimaxsplit.dataset import Dataset, is_int
from minimaxsplit.errors import ConfigError, DataError
from minimaxsplit.growth import Growth
from minimaxsplit.splitting import SplitCriterion
from minimaxsplit.tree import GrowConfig, feature_ints


@dataclass(frozen=True)
class NodeView:
    """A node's-eye view of a dataset: member sample indices at some depth."""

    dataset: Dataset
    member_indices: np.ndarray
    depth: int = 0

    def __post_init__(self):
        idx = np.asarray(self.member_indices)
        if idx.size and idx.dtype.kind not in "iu":
            raise DataError(f"member indices must be integers, got dtype {idx.dtype}")
        object.__setattr__(self, "member_indices", idx.astype(np.int64, copy=False))
        if not is_int(self.depth) or self.depth < 0:
            raise ConfigError(f"node depth must be a nonnegative int, got {self.depth!r}")
        object.__setattr__(self, "depth", int(self.depth))

    @property
    def size(self) -> int:
        return self.member_indices.shape[0]

    def feature_values(self, j: int) -> np.ndarray:
        if not is_int(j):
            raise ConfigError(f"feature index must be an int, got {j!r}")
        if not 0 <= j < self.dataset.n_features:
            raise ConfigError(f"feature index {j} out of range [0, {self.dataset.n_features})")
        return self.dataset.features[j, self.member_indices]

    def targets(self) -> np.ndarray:
        return self.dataset.targets[self.member_indices]


def root_node(data: Dataset) -> NodeView:
    return NodeView(dataset=data, member_indices=np.arange(data.n_samples, dtype=np.int64), depth=0)


@dataclass(frozen=True)
class SplitDecision:
    feature: int
    threshold: float
    left_risk: float
    right_risk: float
    criterion_value: float
    left_count: int
    right_count: int


@lru_cache(maxsize=64)
def _one_node_config(criterion: SplitCriterion,
                     allowed_features: Optional[Tuple[int, ...]]) -> GrowConfig:
    """The config of a `best_split` call, built and checked once per
    (criterion, features): the differential tests make thousands of calls."""
    return GrowConfig(criterion, max_depth=1, fixed_features=allowed_features)


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
    if allowed_features is not None:
        allowed_features = feature_ints(allowed_features, "allowed_features",
                                        node.dataset.n_features)
    if not isinstance(criterion, SplitCriterion):  # a tag, or a fault that may not hash
        criterion = SplitCriterion(criterion)
    growth = Growth(node.dataset, _one_node_config(criterion, allowed_features),
                    [node.member_indices], [None], [rng])
    front = growth.root()
    nodes, feats, scan, threshold = growth.choose(node.depth, front, np.zeros(1, dtype=np.int64),
                                                  growth.spread(front))
    if nodes.size == 0:
        return None
    left = int(scan.left_count[0])
    return SplitDecision(int(feats[0]), float(threshold[0]), float(scan.left_risk[0]),
                         float(scan.right_risk[0]), float(scan.criterion[0]), left,
                         node.size - left)
