"""Reference cell trees for the differential tests; the library uses none
of this.

- `build_levels` / `mse_curve`: one `split_cell` call per cell, and each
  level's risk summed cell by cell, as `martingale.build_cell_tree` and
  `CellTree.mse_curve` worked before they resolved whole levels in array
  passes.
- `level_pass_tree`: the first array level pass. Every round computes both
  child risk curves of every cell afresh through `splitting._child_curves`,
  and the simons rule takes each cell's mean with one `np.dot`. Its levels
  and level risks are the bitwise reference for `build_cell_tree`.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from minimaxsplit.errors import ConfigError
from minimaxsplit.martingale import RULES, DiscreteLaw
from minimaxsplit.splitting import _child_curves, _padded_width, _prefix_sse, _row_blocks


def cell_risk(law: DiscreteLaw, lo: int, hi: int) -> float:
    """Unconditional contribution sum_i w_i (u_i - cell mean)^2."""
    if hi - lo <= 1:
        return 0.0
    u = law.atoms[lo:hi]
    w = law.weights[lo:hi]
    delta = u - np.dot(w, u) / np.sum(w)
    return max(0.0, float(np.dot(w, delta * delta)))


def _weighted_prefix_sse(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """prefix[i] = sum_{j<=i} w_j (u_j - weighted mean of u[:i+1])^2,
    exactly non-decreasing (cumsum of clamped West increments)."""
    cw = np.cumsum(w)
    means = np.cumsum(w * u) / cw
    prev = np.empty_like(u)
    prev[0] = u[0]
    prev[1:] = means[:-1]
    inc = w * (u - prev) * (u - means)
    np.maximum(inc, 0.0, out=inc)
    inc[0] = 0.0
    return np.cumsum(inc)


def _cell_curves(law: DiscreteLaw, lo: int, hi: int) -> Tuple[np.ndarray, np.ndarray]:
    """(phi_L, phi_R) over boundaries b = lo+1 .. hi-1; phi_L[j] / phi_R[j] is
    the risk contribution of [lo, lo+1+j) / [lo+1+j, hi)."""
    u = law.atoms[lo:hi]
    w = law.weights[lo:hi]
    left = _weighted_prefix_sse(u, w)
    right = _weighted_prefix_sse(u[::-1], w[::-1])[::-1]
    return left[:-1], right[1:]


def split_cell(law: DiscreteLaw, lo: int, hi: int, rule: str) -> int:
    """Boundary index b in (lo, hi) for the rule; [lo, b) goes left.

    variance: minimize left + right risk contribution (largest minimizer).
    simons: cut at the cell's conditional mean; an atom exactly at the mean
      goes right.
    minimax: minimize max(left, right) contribution (largest minimizer),
      found by bisection on the monotone prefix curves.
    median: make the child masses as equal as possible (largest minimizer).
    """
    if rule not in RULES:
        raise ConfigError(f"unknown rule {rule!r}; valid: {RULES}")
    if not 0 <= lo < hi <= law.n_atoms:
        raise ConfigError(f"bad cell [{lo}, {hi})")
    if hi - lo < 2:
        raise ConfigError("cannot split a single-atom cell")

    if rule == "simons":
        mean = law.cell_mean(lo, hi)
        b_rel = int(np.searchsorted(law.atoms[lo:hi], mean, side="left"))
        # the mean is strictly inside (atoms[lo], atoms[hi-1]]; clamp anyway
        # so float dust can never produce an empty child
        return lo + min(max(b_rel, 1), hi - lo - 1)

    if rule == "median":
        w = law.weights[lo:hi]
        total = float(np.sum(w))
        left_mass = np.cumsum(w[:-1])
        gap = np.abs(2.0 * left_mass - total)
        return lo + 1 + (gap.size - 1 - int(np.argmin(gap[::-1])))

    L, R = _cell_curves(law, lo, hi)
    if rule == "variance":
        crit = L + R
        return lo + 1 + (crit.size - 1 - int(np.argmin(crit[::-1])))

    # minimax: first crossing of the monotone curves, then the right edge of
    # the minimizing plateau
    n_cand = L.size
    a, b = 0, n_cand
    while a < b:
        mid = (a + b) // 2
        if L[mid] >= R[mid]:
            b = mid
        else:
            a = mid + 1
    cross = a

    def plateau_right(start: int, value: float) -> int:
        # largest q >= start with L[q] <= value (L is non-decreasing)
        a2, b2 = start, n_cand - 1
        while a2 < b2:
            mid = (a2 + b2 + 1) // 2
            if L[mid] <= value:
                a2 = mid
            else:
                b2 = mid - 1
        return a2

    if cross == n_cand:
        pick = n_cand - 1
    elif cross == 0:
        pick = plateau_right(0, float(L[0]))
    else:
        before = max(float(L[cross - 1]), float(R[cross - 1]))
        at = max(float(L[cross]), float(R[cross]))
        if at <= before:
            pick = plateau_right(cross, at)
        else:
            pick = cross - 1
    return lo + 1 + pick


def build_levels(law: DiscreteLaw, rule: str, depth: int) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
    """Split every multi-atom cell for `depth` rounds. Single-atom cells
    persist unchanged (their risk is already zero)."""
    if rule not in RULES:
        raise ConfigError(f"unknown rule {rule!r}; valid: {RULES}")
    if not isinstance(depth, int) or depth < 0:
        raise ConfigError(f"depth must be a nonnegative int, got {depth!r}")
    levels = [((0, law.n_atoms),)]
    for _ in range(depth):
        nxt: List[Tuple[int, int]] = []
        for lo, hi in levels[-1]:
            if hi - lo < 2:
                nxt.append((lo, hi))
                continue
            b = split_cell(law, lo, hi, rule)
            nxt.append((lo, b))
            nxt.append((b, hi))
        levels.append(tuple(nxt))
    return tuple(levels)


def mse_curve(law: DiscreteLaw, levels) -> np.ndarray:
    """Partition risk of each level, summed cell by cell."""
    return np.asarray(
        [sum(cell_risk(law, lo, hi) for lo, hi in cells)
         for cells in levels], dtype=np.float64)


def _rows(law: DiscreteLaw, lo: np.ndarray, m: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(atoms, weights) of the cells [lo, lo + m) as the rows of two blocks.
    Past a row's end the atom repeats its last one and the weight is zero.
    A single cell is a view of the law."""
    if lo.size == 1:
        cell = slice(int(lo[0]), int(lo[0] + m[0]))
        return law.atoms[cell][None], law.weights[cell][None]
    cols = np.arange(int(m.max()))
    at = lo[:, None] + np.minimum(cols, m[:, None] - 1)
    return law.atoms[at], np.where(cols < m[:, None], law.weights[at], 0.0)


def _risks(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Per row, sum_i w_i (u_i - weighted row mean)^2, by two passes."""
    delta = u - (np.sum(w * u, axis=-1) / np.sum(w, axis=-1))[..., None]
    delta *= delta
    delta *= w
    return np.sum(delta, axis=-1)


def _last_argmin(crit: np.ndarray) -> np.ndarray:
    return crit.shape[1] - 1 - np.argmin(crit[:, ::-1], axis=1)


def _level_pass(law: DiscreteLaw, lo: np.ndarray, hi: np.ndarray, rule):
    """(boundaries, risks) of the multi-atom cells [lo, hi)."""
    m = hi - lo
    cuts = np.empty(m.size, dtype=np.int64)
    risks = np.empty(m.size)
    if rule == "simons":
        means = np.array([law.cell_mean(a, b) for a, b in zip(lo.tolist(), hi.tolist())])
        cuts[:] = np.clip(np.searchsorted(law.atoms, means, side="left"), lo + 1, hi - 1)
    for rows in _row_blocks(m if rule == "median" else _padded_width(m)):
        r_lo, r_m = lo[rows], m[rows]
        u, w = _rows(law, r_lo, r_m)
        risks[rows] = _risks(u, w)
        if rule == "median":
            gap = np.abs(2.0 * np.cumsum(w[:, :-1], axis=1) - np.sum(w, axis=1)[:, None])
            cuts[rows] = r_lo + 1 + _last_argmin(gap)
        elif rule in ("variance", "minimax"):
            left, right = _child_curves(_prefix_sse, (u, w), r_m)
            crit = left + right if rule == "variance" else np.maximum(left, right)
            crit = np.where(u[:, 1:] > u[:, :-1], crit, np.inf)
            cuts[rows] = r_lo + 1 + _last_argmin(crit)
    return cuts, risks


def level_pass_tree(law: DiscreteLaw, rule: str, depth: int):
    """(levels, level_risks) of the first array level pass: one
    `_level_pass` per round over every multi-atom cell."""
    lo = np.zeros(1, dtype=np.int64)
    hi = np.full(1, law.n_atoms, dtype=np.int64)
    levels, level_risks = [], []
    for k in range(depth + 1):
        multi = np.flatnonzero(hi - lo >= 2)
        cuts, risks = _level_pass(law, lo[multi], hi[multi], rule if k < depth else None)
        cell_risks = np.zeros(lo.size)
        cell_risks[multi] = risks
        levels.append(tuple(zip(lo.tolist(), hi.tolist())))
        level_risks.append(cell_risks)
        if k < depth:
            width = np.ones(lo.size, dtype=np.int64)
            width[multi] = 2
            first = (np.cumsum(width) - width)[multi]
            lo, hi = np.repeat(lo, width), np.repeat(hi, width)
            hi[first] = cuts
            lo[first + 1] = cuts
    return tuple(levels), tuple(level_risks)
