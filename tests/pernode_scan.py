"""Reference single-node threshold search for the tests: one node, one
feature at a time, on that feature's stably sorted values. This is the split
search the library ran before the level pass in `growth` resolved every
frontier node of a level at once; `pernode_grower.best_split` loops it over
features. It is kept only as the oracle the level pass is checked against,
split for split; the library does not use it.

The prefix risk curves phi_L / phi_R are built by `splitting`'s prefix
kernels and are exactly monotone (see the `splitting` module docstring),
which is what lets the bisection search (`minimax_search`) agree with the
exhaustive scan (`scan_feature`) bit-for-bit instead of merely within
tolerance.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from minimaxsplit.dataset import CLASSIFICATION
from minimaxsplit.errors import ConfigError
from minimaxsplit.splitting import (_MODE_CRITERIA, _child_curves, _prefix_entropy_risk,
                                    _prefix_sse, midpoints)

from one_node import NodeView


class UnsplittableError(RuntimeError):
    """Raised when a split is requested on a node/feature with no candidates."""


class FeatureScan(NamedTuple):
    """Result of a single-feature threshold search."""

    threshold: float
    left_risk: float
    right_risk: float
    criterion_value: float
    left_count: int
    right_count: int


def candidate_thresholds(node: NodeView, feature: int) -> np.ndarray:
    """Midpoints between consecutive distinct sorted values of the feature
    within the node. Empty when the feature is constant on the node.

    Convention throughout the package: x_j < t routes left, x_j >= t right.
    """
    v = np.sort(node.feature_values(feature))
    distinct = v[1:] > v[:-1]
    return midpoints(v[:-1], v[1:])[distinct]


class _Curves(NamedTuple):
    thresholds: np.ndarray  # ascending candidate thresholds
    phi_left: np.ndarray  # risk of {x_j < t}, exactly non-decreasing
    phi_right: np.ndarray  # risk of {x_j >= t}, exactly non-increasing
    left_counts: np.ndarray
    node_size: int


def _risk_curves(node: NodeView, feature: int) -> _Curves:
    v = node.feature_values(feature)
    order = np.argsort(v, kind="stable")
    v = v[order]
    y = node.targets()[order]
    m = v.size
    prefix_fn = _prefix_entropy_risk if node.dataset.task == CLASSIFICATION else _prefix_sse
    left, right = _child_curves(prefix_fn, (y[None],), np.array([m]))
    valid = v[1:] > v[:-1]  # split index i in 1..m-1 sits between v[i-1], v[i]
    thresholds = midpoints(v[:-1], v[1:])[valid]
    left_counts = np.arange(1, m)[valid]
    return _Curves(thresholds, left[0][valid], right[0][valid], left_counts, m)


def _scan_from_curves(curves: _Curves, mode: str, idx: int) -> FeatureScan:
    lc = int(curves.left_counts[idx])
    left = float(curves.phi_left[idx])
    right = float(curves.phi_right[idx])
    return FeatureScan(float(curves.thresholds[idx]), left, right,
                       float(_MODE_CRITERIA[mode](left, right)), lc, curves.node_size - lc)


def scan_feature(node: NodeView, feature: int, mode: str = "sum") -> FeatureScan:
    """Exhaustive left-to-right threshold scan for one feature.

    mode 'sum' minimizes left+right risk, 'max' the larger child risk,
    'left_only'/'right_only' the single indicated child risk. Ties go to the
    smallest threshold.
    """
    curves = _risk_curves(node, feature)
    if curves.thresholds.size == 0:
        raise UnsplittableError(f"feature {feature} is constant on the node")
    if mode not in _MODE_CRITERIA:
        raise ConfigError(f"unknown scan mode {mode!r}")
    crit = _MODE_CRITERIA[mode](curves.phi_left, curves.phi_right)
    return _scan_from_curves(curves, mode, int(np.argmin(crit)))


def minimax_search(node: NodeView, feature: int) -> FeatureScan:
    """Bisection search for the minimax threshold.

    phi_L is non-decreasing and phi_R non-increasing over candidates (exactly,
    see module docstring), so max(phi_L, phi_R) is valley-shaped: locate the
    first crossing index by bisection, compare the two bracketing candidates,
    and when the left bracket wins walk its plateau to the smallest threshold
    by a second bisection. Returns the same decision as
    scan_feature(node, feature, "max"), exactly.
    """
    curves = _risk_curves(node, feature)
    L, R = curves.phi_left, curves.phi_right
    n_cand = L.size
    if n_cand == 0:
        raise UnsplittableError(f"feature {feature} is constant on the node")

    lo, hi = 0, n_cand  # bisect the first index where L >= R
    while lo < hi:
        mid = (lo + hi) // 2
        if L[mid] >= R[mid]:
            hi = mid
        else:
            lo = mid + 1
    cross = lo

    def plateau_left(bound: int, value: float) -> int:
        # smallest q <= bound with R[q] <= value (R is non-increasing)
        a, b = 0, bound
        while a < b:
            mid = (a + b) // 2
            if R[mid] <= value:
                b = mid
            else:
                a = mid + 1
        return a

    if cross == 0:
        pick = 0
    elif cross == n_cand:
        pick = plateau_left(n_cand - 1, float(R[n_cand - 1]))
    else:
        crit_before = max(float(L[cross - 1]), float(R[cross - 1]))
        crit_at = max(float(L[cross]), float(R[cross]))
        if crit_at < crit_before:
            pick = cross
        else:
            pick = plateau_left(cross - 1, crit_before)
    return _scan_from_curves(curves, "max", pick)
