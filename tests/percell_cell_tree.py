"""Reference cell tree for the differential tests: one `split_cell` call per
cell, and each level's risk summed cell by cell, exactly as
`martingale.build_cell_tree` and `CellTree.mse_curve` worked before they
resolved whole levels in array passes. It is kept only to check that the
level pass makes the same partitions and curves; the library does not use it.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from minimaxsplit.errors import ConfigError
from minimaxsplit.martingale import RULES, DiscreteLaw


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
