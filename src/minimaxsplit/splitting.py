"""Split criteria and threshold search.

Node risks are kept unnormalized throughout (sum of squared errors for
regression, count * entropy for classification); the global 1/N shows up only
in reported metrics. Argmins are unaffected and it saves a division per
candidate.

The prefix risk curves phi_L / phi_R over candidate thresholds are computed as
cumulative sums of per-sample Welford increments clamped at zero. The true
increments are non-negative (risk can only grow when a sample joins a child),
so the clamp only strips float noise — and a cumulative sum of non-negative
floats is *exactly* non-decreasing. That exactness is what lets the bisection
search (`minimax_search`) agree with the exhaustive scan bit-for-bit instead
of merely within tolerance.

Tie rule everywhere in this module: smallest threshold. Across features the
level pass in `growth` (and `tree.best_split`, its one-node entry) keeps the
smallest feature index among equal criteria.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from .dataset import CLASSIFICATION, REGRESSION, NodeView
from .errors import ConfigError, UnsplittableError

TAGS = (
    "variance",
    "minimax",
    "cyclic_minimax",
    "one_sided_min",
    "one_sided_max",
    "random_uniform",
    "random_observed",
    "entropy_sum",
    "entropy_minimax",
    "entropy_cyclic_minimax",
)

_SCAN_MODE = {
    "variance": "sum",
    "minimax": "max",
    "cyclic_minimax": "max",
    "one_sided_min": "left_only",
    "one_sided_max": "right_only",
    "entropy_sum": "sum",
    "entropy_minimax": "max",
    "entropy_cyclic_minimax": "max",
}


# how each scan mode turns the curves of the two child risks into the
# criterion it minimizes
_MODE_CRITERIA = {
    "sum": np.add,
    "max": np.maximum,
    "left_only": lambda left, right: left,
    "right_only": lambda left, right: right,
}


@dataclass(frozen=True)
class SplitCriterion:
    """Tagged choice of splitting rule.

    one_sided_min / one_sided_max are *surrogates* for the one-sided-purity
    criteria from the end-cut-preference literature (exact published formulas
    are not available): they minimize the single indicated child risk, with
    the usual smallest-threshold tie rule and the node-level min-leaf guard
    applied by the grower.
    """

    tag: str

    def __post_init__(self):
        if self.tag not in TAGS:
            raise ConfigError(f"unknown criterion tag {self.tag!r}; valid: {TAGS}")

    @property
    def is_entropy(self) -> bool:
        return self.tag.startswith("entropy")

    @property
    def is_cyclic(self) -> bool:
        return "cyclic" in self.tag

    @property
    def is_random(self) -> bool:
        return self.tag.startswith("random")

    @property
    def scan_mode(self) -> str:
        return _SCAN_MODE[self.tag]

    def task(self) -> str:
        return CLASSIFICATION if self.is_entropy else REGRESSION


@dataclass(frozen=True)
class SplitDecision:
    feature: int
    threshold: float
    left_risk: float
    right_risk: float
    criterion_value: float
    left_count: int
    right_count: int


@dataclass(frozen=True)
class NodeStats:
    """Sufficient statistics of a node's targets plus its unnormalized risk."""

    count: int
    sum_y: float
    sum_y_sq: float
    pos_count: int
    risk: float

    @classmethod
    def from_targets(cls, y: np.ndarray, task: str = REGRESSION) -> "NodeStats":
        y = np.asarray(y, dtype=np.float64)
        m = int(y.size)
        if m == 0:
            return cls(0, 0.0, 0.0, 0, 0.0)
        # exactly-rounded sums: risk comes from a cancellation-prone
        # difference, so cheap insurance here
        s1 = math.fsum(y)
        s2 = math.fsum(y * y)
        if task == CLASSIFICATION:
            pos = int(np.sum(y == 1.0))
            return cls(m, s1, s2, pos, m * entropy(pos / m))
        if m <= 1 or y.min() == y.max():
            risk = 0.0
        else:
            risk = max(0.0, s2 - s1 * s1 / m)
        return cls(m, s1, s2, int(np.sum(y == 1.0)), risk)


class FeatureScan(NamedTuple):
    """Result of a single-feature threshold search."""

    threshold: float
    left_risk: float
    right_risk: float
    criterion_value: float
    left_count: int
    right_count: int


def entropy(p: float) -> float:
    """Natural-log Shannon entropy of a Bernoulli(p), with 0*log 0 = 0."""
    if not 0.0 <= p <= 1.0:
        raise ConfigError(f"entropy argument {p} outside [0, 1]")
    if p == 0.0 or p == 1.0:
        return 0.0
    return float(-p * math.log(p) - (1.0 - p) * math.log1p(-p))


def _entropy_arr(p: np.ndarray) -> np.ndarray:
    out = np.zeros_like(p)
    inner = (p > 0.0) & (p < 1.0)
    q = p[inner]
    out[inner] = -q * np.log(q) - (1.0 - q) * np.log1p(-q)
    return out


def midpoints(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Thresholds between consecutive values lo < hi: the midpoint, or hi
    where the midpoint rounds onto lo (hi is the next float after lo) or
    overflows. Either way lo < t <= hi, so x < t separates them."""
    with np.errstate(over="ignore"):
        t = 0.5 * (lo + hi)
    return np.where((lo < t) & (t <= hi), t, hi)


def candidate_thresholds(node: NodeView, feature: int) -> np.ndarray:
    """Midpoints between consecutive distinct sorted values of the feature
    within the node. Empty when the feature is constant on the node.

    Convention throughout the package: x_j < t routes left, x_j >= t right.
    """
    v = np.sort(node.feature_values(feature))
    distinct = v[1:] > v[:-1]
    return midpoints(v[:-1], v[1:])[distinct]


# ---------------------------------------------------------------------------
# Prefix risk curves
# ---------------------------------------------------------------------------


def _prefix_sse(y: np.ndarray, w: Optional[np.ndarray] = None) -> np.ndarray:
    """prefix_sse[..., i] = sum_{j<=i} w_j (y_j - weighted mean of
    y[..., : i + 1])^2, unit weights when w is None; exactly non-decreasing
    (a cumsum of clamped West increments). Works along the last axis, so each
    row of a 2-D block gets exactly the floats its 1-D call would (cumsum is
    a sequential recurrence along the axis; whatever follows a row's real
    length does not reach it). Unit weights give the same floats as ones."""
    if w is None:
        means = np.cumsum(y, axis=-1) / np.arange(1, y.shape[-1] + 1, dtype=np.float64)
    else:
        means = np.cumsum(w * y, axis=-1) / np.cumsum(w, axis=-1)
    prev = np.empty_like(means)
    prev[..., 0] = y[..., 0]
    prev[..., 1:] = means[..., :-1]
    inc = y - prev if w is None else w * (y - prev)
    inc *= y - means
    np.maximum(inc, 0.0, out=inc)
    inc[..., 0] = 0.0
    return np.cumsum(inc, axis=-1)


def _prefix_entropy_risk(y: np.ndarray) -> np.ndarray:
    """prefix[..., i] = (i+1) * h(pos/(i+1)) for y[..., : i + 1],
    non-decreasing; row-wise along the last axis like _prefix_sse."""
    m = y.shape[-1]
    counts = np.arange(1, m + 1, dtype=np.float64)
    pos = np.cumsum(y == 1.0, axis=-1)
    risk = counts * _entropy_arr(pos / counts)
    inc = np.diff(risk, axis=-1)
    np.maximum(inc, 0.0, out=inc)
    out = np.empty(y.shape)
    out[..., 0] = 0.0  # single sample is pure
    np.cumsum(inc, axis=-1, out=out[..., 1:])
    return out


# most entries a block scan holds at once (rows x width)
_BLOCK = 1 << 14


def _padded_width(sizes: np.ndarray) -> np.ndarray:
    """The width class of a row of each size in a block scan: the smallest
    power of two, at least 8, that holds it. Rows of one class share blocks,
    so padding never outweighs the data."""
    return 2 ** np.frexp(np.maximum(sizes, 8) - 1)[1]


def _row_blocks(widths: np.ndarray) -> List[np.ndarray]:
    """Index arrays that split the rows into blocks of one width each, at
    most _BLOCK entries (rows x width) per block, which bounds the memory.
    One sort groups them, so a level of many widths costs no loop."""
    order = np.argsort(widths, kind="stable")
    w = widths[order]
    # a row's place in its group of one width: its rank less the group's first
    place = np.arange(w.size) - np.searchsorted(w, w)
    bounds = np.flatnonzero(place % np.maximum(_BLOCK // w, 1) == 0).tolist() + [w.size]
    return [order[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def _child_curves(prefix, rows: Tuple[np.ndarray, ...],
                  m: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Left and right child risk curves of a block scan. `rows` are the
    arrays `prefix` takes (values, then weights if any), one row per segment,
    each of true length m[row] and padded past it. Cut c splits a row after
    its entry c: left[:, c] is the risk of entries 0..c, right[:, c] that of
    entries c+1..m-1, both valid for c < m - 1. right is the prefix of the
    reversed row read back at the mirrored position; when no row is padded
    the reversed rows are views."""
    width = rows[0].shape[-1]
    left = prefix(*rows)[:, :-1]
    if m.min() == width:
        return left, prefix(*(r[:, ::-1] for r in rows))[:, -2::-1]
    cols = np.arange(width)
    at = np.maximum(m[:, None] - 1 - cols, 0)
    rev = prefix(*(np.take_along_axis(r, at, axis=1) for r in rows))
    return left, np.take_along_axis(rev, at[:, 1:], axis=1)


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
