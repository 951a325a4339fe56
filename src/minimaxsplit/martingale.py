"""Recursive partitioning of a discrete law on the line.

A `DiscreteLaw` is a finite probability measure with strictly ascending atoms.
Cells of a partition are contiguous index ranges [lo, hi); splitting at
boundary b sends {U < atoms[b]} left and {U >= atoms[b]} right, and the
reported boundary is atoms[b] — the supremum of the minimizing equivalence
class of cut points. The mse curve of a rule is the partition risk
E[(U - E[U | cell])^2] after k rounds of splitting every multi-atom cell,
which is non-increasing in k by the martingale property of conditional means.

Tie rule for the scanned rules (variance, minimax, median): the *largest*
minimizing boundary. The within-cell prefix risk curves reuse the clamped
weighted-increment construction (West's update), so they are exactly
monotone, mirroring the empirical splitter.

Each round is one array pass over every multi-atom cell of a level, the
block scan `growth` runs on tree levels: the cells become (atom, weight)
rows of the padded blocks of `splitting._padded_width` and
`splitting._row_blocks`, which give each cell's risk by a two-pass
reduction, the sums the mse curve adds up. The picks:

- variance and minimax take the last argmin of L + R and of max(L, R) over
  the boundaries (L and R are the left and right child risks). L at
  boundary b is the forward prefix curve of the cell read at atom b - 1, R
  the reversed one read at atom b; both come from the weighted
  `splitting._prefix_sse`, a sequential cumsum along the row, so they are
  the floats a one-cell computation makes, bit for bit. Two flat buffers
  indexed by atom hold the current cells' forward and reversed curves for
  a whole build. A left child's forward curve is its parent's up to the
  cut and a right child's reversed curve is its parent's from the cut on,
  bit for bit, since both cumsums start at the same atom; so after the
  root each round computes only the other half (the left children's
  reversed rows and the right children's forward rows), writes it into the
  buffers, and picks every cell's cut by one segmented last argmin over
  the flat criterion. L is a cumsum of non-negative increments, so it is
  exactly non-decreasing, and R is exactly non-increasing. Let c be the
  first boundary with L >= R: before c, max(L, R) = R is non-increasing,
  and from c on, max(L, R) = L is non-decreasing. So every minimizer lies
  at c - 1 or on the plateau of L that starts at c, and the last argmin is
  the largest minimizer, with no search for the crossing.
- median groups rows by exact length instead, so each cell's total mass is
  the pairwise `np.sum` of its own weights and no padding enters it.
- simons cuts where the first atom at or above the cell's mean lies, the
  mean taken as `np.dot(w, u) / np.sum(w)` of that one cell. The block
  reduction's mean sums in another order, but both lie within a float
  error bound of the exact mean whatever the order (Higham, *Accuracy and
  Stability of Numerical Algorithms*, 2002, section 3.1). Where no atom
  lies within a safe multiple of that bound of the block mean, every mean
  in reach gives the same cut; only the other cells, such as an odd
  equal-weight cell whose mean is its middle atom, take the one-cell mean
  (a filter with an exact fallback, as in Shewchuk's adaptive predicates,
  1997).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple, Union

import numpy as np

from .errors import ConfigError, DataError
from .rng import stream
from .splitting import _padded_width, _prefix_sse, _row_blocks

RULES = ("variance", "simons", "minimax", "median")

# the simons rule trusts a block-summed cell mean to within this many times
# its float error bound (see `_level_pass`)
_MEAN_SLACK = 8.0


@dataclass(frozen=True)
class DiscreteLaw:
    """Probability law with strictly ascending float atoms. Weights are
    normalized to sum to one on construction."""

    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        atoms = np.ascontiguousarray(np.asarray(self.atoms, dtype=np.float64))
        weights = np.ascontiguousarray(np.asarray(self.weights, dtype=np.float64))
        if atoms.ndim != 1 or weights.ndim != 1 or atoms.size != weights.size:
            raise ConfigError("atoms and weights must be 1-D arrays of equal length")
        if atoms.size == 0:
            raise ConfigError("law needs at least one atom")
        if not np.all(np.isfinite(atoms)) or not np.all(np.isfinite(weights)):
            raise ConfigError("atoms and weights must be finite")
        if np.any(atoms[1:] <= atoms[:-1]):
            raise ConfigError("atoms must be strictly ascending")
        if np.any(weights <= 0.0):
            raise ConfigError("weights must be positive")
        total = float(np.sum(weights))
        weights = weights / total
        if not np.all(weights > 0.0):
            # a weight far below the total underflows; a zero-mass atom
            # would make the prefix curves of a cell starting there 0/0
            raise ConfigError("every weight must stay positive once normalized "
                              "(a weight underflows to 0 against their total)")
        atoms.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)

    @property
    def n_atoms(self) -> int:
        return int(self.atoms.size)

    def cell_mass(self, lo: int, hi: int) -> float:
        return float(np.sum(self.weights[lo:hi]))

    def cell_mean(self, lo: int, hi: int) -> float:
        w = self.weights[lo:hi]
        return float(np.dot(w, self.atoms[lo:hi]) / np.sum(w))

    def cell_risk(self, lo: int, hi: int) -> float:
        """Unconditional contribution sum_i w_i (u_i - cell mean)^2."""
        if hi - lo <= 1:
            return 0.0
        return float(_level_pass(self, np.array([lo]), np.array([hi]), None)[1][0])

    def mean(self) -> float:
        return self.cell_mean(0, self.n_atoms)

    def variance(self) -> float:
        return self.cell_risk(0, self.n_atoms)


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


def _risks(u: np.ndarray, w: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """Per row, sum_i w_i (u_i - mean)^2 about the row's weighted mean:
    the second of two passes."""
    delta = u - mean[..., None]
    delta *= delta  # in place: a cell can span the whole law
    delta *= w
    return np.sum(delta, axis=-1)


def _last_argmin(crit: np.ndarray) -> np.ndarray:
    """Per row, the last index of the row's least value."""
    return crit.shape[1] - 1 - np.argmin(crit[:, ::-1], axis=1)


def _mean_cuts(atoms: np.ndarray, mean: np.ndarray, slack: np.ndarray) -> np.ndarray:
    """Per cell, the number of atoms below its mean, which is the same for
    every mean within `slack` of the estimate `mean`; -1 where an atom lies
    within the slack or the bounds are not finite, so the count may turn on
    the last bits of the mean."""
    low, high = mean - slack, mean + slack
    below = np.searchsorted(atoms, low, side="left")
    sure = (below == np.searchsorted(atoms, high, side="right"))
    sure &= np.isfinite(low) & np.isfinite(high)
    return np.where(sure, below, -1)


def _fill_curves(law: DiscreteLaw, curves: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                 down: Union[bool, np.ndarray]) -> None:
    """Write the prefix-SSE curve of each cell [lo, hi) into `curves` (2n + 1
    floats for n atoms), one padded row per cell: where `down` is false the
    row walks the cell's atoms up and its entry i lands in curves[lo + i]
    (the forward curve), where it is true the row walks them down and entry
    i lands in curves[n + hi - 1 - i] (the reversed curve). Entries past a
    row's end land in the last slot, which nothing reads."""
    n = law.n_atoms
    m = (hi - lo)[:, None]
    step = np.where(down, -1, 1)[..., None]
    cols = np.arange(int(m.max()))
    inside = cols < m
    at = np.where(down, hi - 1, lo)[:, None] + step * np.minimum(cols, m - 1)
    sse = _prefix_sse(law.atoms[at], np.where(inside, law.weights[at], 0.0))
    at += n * (step < 0)
    curves[np.where(inside, at, 2 * n)] = sse


def _curve_cuts(curves: np.ndarray, lo: np.ndarray, hi: np.ndarray, rule: str) -> np.ndarray:
    """Per cell [lo, hi), the last boundary b that minimizes L + R
    (variance) or max(L, R) (minimax), with L = curves[b - 1] the forward
    curve and R = curves[n + b] the reversed one (see `_fill_curves`). One
    flat pass over every cell: crit[q] is the criterion at b = q + 1."""
    n = (curves.size - 1) // 2
    base, end = int(lo[0]), int(hi[-1]) - 1
    combine = np.add if rule == "variance" else np.maximum
    # the last entry pairs the end of the span with the slot past it and
    # belongs to no cell
    crit = combine(curves[base:end + 1], curves[n + base + 1:n + end + 2])
    # cell i owns crit[lo - base : hi - 1 - base]; every other segment is a gap
    edges = np.stack([lo, hi - 1], axis=1).ravel() - base
    least = np.minimum.reduceat(crit, edges)
    hit = crit == np.repeat(least, np.diff(edges, append=crit.size))
    if np.isnan(least[::2]).any():  # argmin counts a NaN as the least value
        hit |= np.isnan(crit)
    hits = np.flatnonzero(hit)
    # the last hit before a cell's end lies in that cell, which holds one
    return base + 1 + hits[np.searchsorted(hits, hi - 1 - base) - 1]


def _level_pass(law: DiscreteLaw, lo: np.ndarray, hi: np.ndarray, rule: Optional[str],
                curves: Optional[np.ndarray] = None,
                left: Optional[np.ndarray] = None) -> Tuple[np.ndarray, np.ndarray]:
    """(boundaries, risks) of the multi-atom cells [lo, hi): the boundary
    the rule picks in each cell (left unset without a rule) and each cell's
    risk contribution.

    variance and minimax keep each cell's curves in `curves`, the buffer of
    `_fill_curves`. A left child inherits its forward curve from its parent
    and a right child its reversed one, so given `left`, which marks the
    left children, the pass makes only the other curve of each cell and
    reads the inherited one from `curves`. Without `left` it makes both
    (in a buffer of its own if `curves` is not given)."""
    m = hi - lo
    cuts = np.empty(m.size, dtype=np.int64)
    risks = np.empty(m.size)
    if not m.size:
        return cuts, risks
    if curves is None and rule in ("variance", "minimax"):
        curves = np.zeros(2 * law.n_atoms + 1)
    for rows in _row_blocks(m if rule == "median" else _padded_width(m)):
        r_lo, r_m = lo[rows], m[rows]
        u, w = _rows(law, r_lo, r_m)
        wu = w * u
        total = np.sum(w, axis=-1)
        mean = np.sum(wu, axis=-1) / total
        risks[rows] = _risks(u, w, mean)
        if rule == "median":
            gap = np.abs(2.0 * np.cumsum(w[:, :-1], axis=1) - total[:, None])
            cuts[rows] = r_lo + 1 + _last_argmin(gap)
        elif rule == "simons":
            # in any summation order, the block mean and the one-cell
            # `cell_mean` each lie within about (2m + 1) 2^-53 sum w|u| / sum w
            # of the exact mean, plus m 2^-1075 / sum w for products that
            # underflow; the slack is _MEAN_SLACK (m + 2) times that scale
            slack = (2.0 ** -53 * np.sum(np.abs(wu), axis=-1) + 2.0 ** -1074) / total
            cuts[rows] = _mean_cuts(law.atoms, mean, _MEAN_SLACK * (r_m + 2) * slack)
        elif rule in ("variance", "minimax"):
            for down in ((False, True) if left is None else (left[rows],)):
                _fill_curves(law, curves, r_lo, hi[rows], down)
    if rule == "simons":
        # the first atom at or above the mean goes right. Where the block
        # mean cannot settle which atom that is, the one-cell mean does
        for i in np.flatnonzero(cuts < 0).tolist():
            cuts[i] = np.searchsorted(law.atoms, law.cell_mean(int(lo[i]), int(hi[i])))
        # the mean lies in (atoms[lo], atoms[hi-1]]; clamp anyway so float
        # dust can never produce an empty child
        np.clip(cuts, lo + 1, hi - 1, out=cuts)
    elif rule in ("variance", "minimax"):
        cuts = _curve_cuts(curves, lo, hi, rule)
    return cuts, risks


def split_cell(law: DiscreteLaw, lo: int, hi: int, rule: str) -> int:
    """Boundary index b in (lo, hi) for the rule; [lo, b) goes left.

    variance: minimize left + right risk contribution (largest minimizer).
    simons: cut at the cell's conditional mean; an atom exactly at the mean
      goes right.
    minimax: minimize max(left, right) contribution (largest minimizer).
    median: make the child masses as equal as possible (largest minimizer).

    The boundary is the one `build_cell_tree` picks for the cell: this is
    its level pass run on one cell.
    """
    if rule not in RULES:
        raise ConfigError(f"unknown rule {rule!r}; valid: {RULES}")
    if not 0 <= lo < hi <= law.n_atoms:
        raise ConfigError(f"bad cell [{lo}, {hi})")
    if hi - lo < 2:
        raise ConfigError("cannot split a single-atom cell")
    return int(_level_pass(law, np.array([lo]), np.array([hi]), rule)[0][0])


@dataclass(frozen=True)
class CellTree:
    """Level-by-level record of the recursive partition: levels[k] is the
    list of cells after k rounds, each an index range (lo, hi), and
    level_risks[k] holds each of those cells' risk contribution."""

    law: DiscreteLaw
    rule: str
    levels: Tuple[Tuple[Tuple[int, int], ...], ...]
    level_risks: Tuple[np.ndarray, ...]

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    def boundaries(self, k: int) -> List[float]:
        """Interior cell boundaries (as atom values) at level k."""
        return [float(self.law.atoms[lo]) for lo, _ in self.levels[k][1:]]

    def masses(self, k: int) -> np.ndarray:
        return np.asarray([self.law.cell_mass(lo, hi) for lo, hi in self.levels[k]])

    def means(self, k: int) -> np.ndarray:
        return np.asarray([self.law.cell_mean(lo, hi) for lo, hi in self.levels[k]])

    def risks(self, k: int) -> np.ndarray:
        return self.level_risks[k].copy()

    def mse_curve(self) -> np.ndarray:
        return np.asarray([np.sum(r) for r in self.level_risks], dtype=np.float64)


def _grow(law: DiscreteLaw, rule: str, depth: int):
    """Yield each level's cells, as arrays lo and hi, and each cell's risk
    contribution, after 0..depth rounds of splitting every multi-atom cell
    in one level pass per round."""
    if rule not in RULES:
        raise ConfigError(f"unknown rule {rule!r}; valid: {RULES}")
    if not isinstance(depth, int) or depth < 0:
        raise ConfigError(f"depth must be a nonnegative int, got {depth!r}")
    lo = np.zeros(1, dtype=np.int64)
    hi = np.full(1, law.n_atoms, dtype=np.int64)
    curves = np.zeros(2 * law.n_atoms + 1) if rule in ("variance", "minimax") else None
    left = None  # the root inherits no curve
    for k in range(depth + 1):
        multi = np.flatnonzero(hi - lo >= 2)
        cuts, risks = _level_pass(law, lo[multi], hi[multi], rule if k < depth else None,
                                  curves, None if left is None else left[multi])
        cell_risks = np.zeros(lo.size)
        cell_risks[multi] = risks
        yield lo, hi, cell_risks
        if k < depth:
            # each multi-atom cell becomes its left then right child in place
            width = np.ones(lo.size, dtype=np.int64)
            width[multi] = 2
            first = (np.cumsum(width) - width)[multi]
            lo, hi = np.repeat(lo, width), np.repeat(hi, width)
            hi[first] = cuts
            lo[first + 1] = cuts
            left = np.zeros(lo.size, dtype=bool)
            left[first] = True


def build_cell_tree(law: DiscreteLaw, rule: str, depth: int) -> CellTree:
    """Split every multi-atom cell for `depth` rounds, one level pass per
    round. Single-atom cells persist unchanged (their risk is already
    zero)."""
    levels, level_risks = [], []
    for lo, hi, risks in _grow(law, rule, depth):
        levels.append(tuple(zip(lo.tolist(), hi.tolist())))
        level_risks.append(risks)
    return CellTree(law=law, rule=rule, levels=tuple(levels), level_risks=tuple(level_risks))


def mse_curve(law: DiscreteLaw, rule: str, depth: int) -> np.ndarray:
    """Partition risk after 0..depth rounds of splitting: the sums
    `build_cell_tree(law, rule, depth).mse_curve()` gives, without the
    cells' index pairs."""
    return np.asarray([np.sum(risks) for _, _, risks in _grow(law, rule, depth)],
                      dtype=np.float64)


def rate_bound(rule: str, k: int) -> float:
    """Guaranteed risk bound after k rounds for laws supported in [0, 1]:
    c * 2^(-2k/3) with c = 2.71 (variance) / 0.4 (minimax), and 2^(1-k) /
    2^(-k) for simons / median."""
    if k < 0:
        raise ConfigError("k must be nonnegative")
    if rule == "variance":
        return 2.71 * 2.0 ** (-2.0 * k / 3.0)
    if rule == "minimax":
        return 0.4 * 2.0 ** (-2.0 * k / 3.0)
    if rule == "simons":
        return 2.0 ** (1 - k)
    if rule == "median":
        return 2.0 ** (-k)
    raise ConfigError(f"unknown rule {rule!r}; valid: {RULES}")


# ---------------------------------------------------------------------------
# Grids and densities
# ---------------------------------------------------------------------------


def uniform_grid(n: int) -> DiscreteLaw:
    """Equal-weight law at the n cell midpoints (i + 1/2)/n of [0, 1]."""
    if n < 1:
        raise ConfigError("n must be positive")
    atoms = (np.arange(n, dtype=np.float64) + 0.5) / n
    return DiscreteLaw(atoms, np.full(n, 1.0 / n))


def law_from_density(pdf: Callable[[np.ndarray], np.ndarray], n: int,
                     support: Tuple[float, float] = (0.0, 1.0),
                     resolution: Optional[int] = None) -> DiscreteLaw:
    """Equal-weight quantile grid of a (piecewise continuous, positive)
    density: atom i sits at the (i + 1/2)/n quantile, computed by trapezoid
    integration on a fine grid followed by inverse interpolation."""
    lo, hi = float(support[0]), float(support[1])
    if not lo < hi:
        raise ConfigError(f"empty support ({lo}, {hi})")
    if n < 1:
        raise ConfigError("n must be positive")
    res = int(resolution) if resolution is not None else max(4096, 8 * n)
    grid = np.linspace(lo, hi, res + 1)
    f = np.asarray(pdf(grid), dtype=np.float64)
    if f.shape != grid.shape or not np.all(np.isfinite(f)) or np.any(f < 0.0):
        raise DataError("density must return finite nonnegative values on the grid")
    panel = 0.5 * (f[1:] + f[:-1]) * np.diff(grid)
    cdf = np.concatenate(([0.0], np.cumsum(panel)))
    if cdf[-1] <= 0.0:
        raise DataError("density integrates to zero on the support")
    cdf /= cdf[-1]
    atoms = np.interp((np.arange(n) + 0.5) / n, cdf, grid)
    if np.any(np.diff(atoms) <= 0.0):
        raise DataError("quantiles collide; density must be positive on the support")
    return DiscreteLaw(atoms, np.full(n, 1.0 / n))


def random_density(seed: int, knots: int = 8, low: float = 0.2,
                   high: float = 1.8) -> Callable[[np.ndarray], np.ndarray]:
    """Random piecewise-linear density on [0, 1], bounded in [low, high]
    (up to normalization). Deterministic in the seed."""
    if knots < 2:
        raise ConfigError("need at least 2 knots")
    if not 0.0 < low <= high:
        raise ConfigError("need 0 < low <= high")
    gen = stream(seed, "random-density")
    xs = np.linspace(0.0, 1.0, knots)
    ys = gen.uniform(low, high, size=knots)

    def pdf(u: np.ndarray) -> np.ndarray:
        return np.interp(np.asarray(u, dtype=np.float64), xs, ys)

    return pdf


def ramp_density(u: np.ndarray) -> np.ndarray:
    """Flat-plus-spike density on [0, 1]: proportional to 1 on [0, 0.9] and to
    1 + 1e4 (u - 0.9) on (0.9, 1], so virtually all mass hides in the last
    tenth of the interval."""
    u = np.asarray(u, dtype=np.float64)
    return np.where(u <= 0.9, 1.0, 1.0 + 1e4 * (u - 0.9))


def power_density(u: np.ndarray) -> np.ndarray:
    """f(u) proportional to u^10 on [0, 1]: mass piles up at 1."""
    u = np.asarray(u, dtype=np.float64)
    return np.clip(u, 0.0, 1.0) ** 10


# ---------------------------------------------------------------------------
# Slow-rate witness families
# ---------------------------------------------------------------------------

_TAIL_NUDGE = 1e-9


def _simons_witness(s: float, levels: int, guard: int) -> DiscreteLaw:
    """Law on which the mean-split rule peels one atom per round.

    Atoms: -1 with mass 1-s, then A_J = sum_{j=1..J} ((1-s)/s)^j with mass
    s^(J+1) (1-s) for J = 0, 1, ...; the conditional mean of {U >= A_J} is
    exactly A_{J+1}, so every split strips a single atom and the risk decays
    like ((1-s)^2/s)^k instead of geometrically.

    The infinite tail J >= J* (J* = levels + guard) is collapsed to one atom
    at its conditional mean minus a tiny nudge. Collapsing at the mean keeps
    every upstream conditional mean identity intact; the downward nudge makes
    each computed mean land strictly below the next atom, so float rounding
    can never push the cut past it. The nudge is at most 1e-9 (and at most a
    thousandth of the final atom gap), far below the tolerances the family
    is used with.
    """
    r = (1.0 - s) / s
    n_kept = levels + guard
    a = np.empty(n_kept + 2)
    w = np.empty(n_kept + 2)
    a[0], w[0] = -1.0, 1.0 - s
    powers = r ** np.arange(1, n_kept + 2)
    partial = np.concatenate(([0.0], np.cumsum(powers)))  # partial[J] = A_J
    a[1:n_kept + 1] = partial[:n_kept]
    w[1:n_kept + 1] = s ** np.arange(1, n_kept + 1) * (1.0 - s)
    nudge = min(_TAIL_NUDGE, 1e-3 * (partial[n_kept + 1] - partial[n_kept]))
    a[n_kept + 1] = partial[n_kept + 1] - nudge  # tail mean = A_{J*+1}
    w[n_kept + 1] = s ** (n_kept + 1)
    return DiscreteLaw(a, w)


def _median_witness(s: float, levels: int, guard: int) -> DiscreteLaw:
    """Law on which the mass-balancing rule keeps peeling near-degenerate
    halves: atom k (k = 1, 2, ...) sits at sum_{j<k} s^(j-1) - s^(k-1) with
    mass 2^-k, and the tail past J* = levels + guard is collapsed to a single
    atom of mass 2^-J* at the supremum sum_{j<=J*} s^(j-1). Halving the mass
    always cuts off exactly the first atom (the masses are exact dyadics, so
    the comparisons are exact), while the atom spacings shrink like s^k,
    giving risk increments 2^-k s^(2k)."""
    n_kept = levels + guard
    k = np.arange(1, n_kept + 1)
    geo = np.concatenate(([0.0], np.cumsum(s ** (k - 1.0))))  # geo[j] = sum_{i<=j} s^(i-1)
    a = np.empty(n_kept + 1)
    w = np.empty(n_kept + 1)
    a[:n_kept] = geo[:-1] - s ** (k - 1.0)
    w[:n_kept] = 2.0 ** (-k.astype(np.float64))
    a[n_kept] = geo[-1]
    w[n_kept] = 2.0 ** (-float(n_kept))
    return DiscreteLaw(a, w)


def witness_increments(family: str, s: float, levels: int) -> np.ndarray:
    """Closed-form one-step decrements E[(M_{k+1} - M_k)^2], k = 0..levels-1:
    (1-s)^(2k+1) / s^(k+1) for the simons family, 2^-k s^(2k) for median."""
    k = np.arange(levels, dtype=np.float64)
    if family in ("simons_halfrate", "simons"):
        if not 0.5 < s < 1.0:
            raise ConfigError(f"simons witness needs s in (1/2, 1), got {s}")
        return (1.0 - s) ** (2.0 * k + 1.0) / s ** (k + 1.0)
    if family in ("median_halfrate", "median"):
        if not 0.0 < s < 1.0:
            raise ConfigError(f"median witness needs s in (0, 1), got {s}")
        return 2.0 ** (-k) * s ** (2.0 * k)
    raise ConfigError(f"unknown witness family {family!r}")


def rate_witness(family: str, s: float, depth: int,
                 guard: int = 4) -> Tuple[DiscreteLaw, np.ndarray]:
    """Witness law showing the rule's rate bound is tight, plus its predicted
    one-step increments for k = 0..depth-1.

    family 'simons_halfrate' (s in (1/2, 1)): the mean-split rule peels one
    atom per round, with increments approaching a 1/2-rate as s -> 1/2.
    family 'median_halfrate' (s in (0, 1)): the mass-balancing rule halves a
    geometric tail, with increments 2^-k s^(2k) approaching 1/2-rate as
    s -> 1. The infinite laws are truncated past depth + guard levels, which
    leaves the first `depth` increments unchanged (the truncation deficit
    cancels in consecutive differences)."""
    if not isinstance(depth, int) or depth < 1:
        raise ConfigError(f"depth must be a positive int, got {depth!r}")
    if guard < 1:
        raise ConfigError("guard must be positive")
    increments = witness_increments(family, s, depth)
    if family in ("simons_halfrate", "simons"):
        law = _simons_witness(s, depth, guard)
    else:
        law = _median_witness(s, depth, guard)
    return law, increments
