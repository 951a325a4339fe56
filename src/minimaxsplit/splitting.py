"""Split criteria and the prefix risk kernels of the level pass in `growth`.

Node risks are kept unnormalized throughout (sum of squared errors for
regression, count * entropy for classification); the global 1/N shows up only
in reported metrics. Argmins are unaffected and it saves a division per
candidate.

The prefix risk curves phi_L / phi_R over candidate thresholds are computed as
cumulative sums of per-sample Welford increments clamped at zero. The true
increments are non-negative (risk can only grow when a sample joins a child),
so the clamp only strips float noise — and a cumulative sum of non-negative
floats is *exactly* non-decreasing. So max(phi_L, phi_R) is exactly
valley-shaped, and a bisection for its minimum lands bit-for-bit where the
exhaustive scan does, not merely within tolerance. `tests/pernode_scan.py`
keeps that single-node scan and bisection as the reference the level pass is
checked against.

Tie rule: among equal criteria the level pass in `growth` (and
`tree.best_splits`, its root-only entry) takes the smallest threshold within
a feature and the smallest feature index across features.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .dataset import CLASSIFICATION, REGRESSION
from .errors import ConfigError

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


def node_risk(y: np.ndarray, task: str) -> float:
    """Unnormalized risk of a node with targets y: the sum of squared
    deviations from the mean (regression) or m times the entropy of the
    positive fraction (classification)."""
    y = np.asarray(y, dtype=np.float64)
    m = int(y.size)
    if m == 0:
        return 0.0
    if task == CLASSIFICATION:
        return m * entropy(int(np.sum(y == 1.0)) / m)
    if m <= 1 or y.min() == y.max():
        return 0.0
    # exactly-rounded sums: the risk is a cancellation-prone difference
    # (fsum reads a list of Python floats faster than an array's scalars)
    s1 = math.fsum(y.tolist())
    return max(0.0, math.fsum((y * y).tolist()) - s1 * s1 / m)


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


# ---------------------------------------------------------------------------
# Prefix risk curves
# ---------------------------------------------------------------------------


def _prefix_sse(y: np.ndarray, w: Optional[np.ndarray] = None) -> np.ndarray:
    """prefix_sse[..., i] = sum_{j<=i} w_j (y_j - weighted mean of
    y[..., : i + 1])^2, unit weights when w is None; exactly non-decreasing
    (a cumsum of clamped West increments). Works along the last axis, so each
    row of a 2-D block gets exactly the floats its 1-D call would (cumsum is
    a sequential recurrence along the axis; whatever follows a row's real
    length does not reach it). Unit weights give the same floats as ones.

    Two buffers of y's shape carry the whole computation: the running means
    (built in the product buffer w * y when weighted) and the increments
    (which first hold each entry's previous mean); every step after them is
    a ufunc with `out=`, applied to the whole array, in the order of
    operations of the formula, so the floats are those of the plain
    expression with its temporaries."""
    if w is None:
        means = np.cumsum(y, axis=-1)
        means /= np.arange(1, y.shape[-1] + 1, dtype=np.float64)
    else:
        means = np.multiply(w, y)
        np.cumsum(means, axis=-1, out=means)
        means /= np.cumsum(w, axis=-1)
    # each entry's previous mean, then its increment (y - prev) w (y - mean)
    inc = np.empty_like(means)
    inc[..., 0] = y[..., 0]
    inc[..., 1:] = means[..., :-1]
    np.subtract(y, inc, out=inc)
    if w is not None:
        np.multiply(w, inc, out=inc)
    inc *= np.subtract(y, means, out=means)
    np.maximum(inc, 0.0, out=inc)
    inc[..., 0] = 0.0
    return np.cumsum(inc, axis=-1, out=inc)


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


def _flat(a: np.ndarray) -> Tuple[np.ndarray, Tuple[int, ...]]:
    """A 1-D view of the memory under `a` and `a`'s strides in items, so that
    a[i, j] is flat[i * steps[0] + j * steps[1]]. One `take` of such flat
    offsets gathers two to three times faster than 2-D fancy indexing or
    `take_along_axis`. A view such as a block's leading columns is not
    copied; an array with negative strides, or strides that are not whole
    items, is (once)."""
    if not a.flags.c_contiguous and any(s < 0 or s % a.itemsize for s in a.strides):
        a = np.ascontiguousarray(a)
    steps = tuple(s // a.itemsize for s in a.strides)
    if a.flags.c_contiguous:
        return a.reshape(-1), steps
    span = 1 + sum((n - 1) * s for n, s in zip(a.shape, steps))
    return as_strided(a, (span,), (a.itemsize,), writeable=False), steps


def _child_curves(prefix, rows: Tuple[np.ndarray, ...],
                  m: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Left and right child risk curves of a block scan. `rows` are the
    arrays `prefix` takes (values, then weights if any), one row per segment,
    each of true length m[row] and padded past it. Cut c splits a row after
    its entry c: left[:, c] is the risk of entries 0..c, right[:, c] that of
    entries c+1..m-1, both valid for c < m - 1. right is the prefix of each
    reversed row (padded with the row's first entry) read back at the
    mirrored position; one array of flat offsets serves both gathers."""
    n, width = rows[0].shape
    left = prefix(*rows)[:, :-1]
    at = np.maximum(m[:, None] - 1 - np.arange(width), 0)
    at += np.arange(0, n * width, width)[:, None]
    rev = prefix(*(r.ravel().take(at) for r in rows))
    return left, rev.ravel().take(at[:, 1:])
