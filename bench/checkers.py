"""Checkers that recompute the program's outputs by other means.

Nothing here imports minimaxsplit. Each checker restates the documented
rule it checks and computes it directly, so a fault in the library cannot
hide in a shared helper:

- `brute_force_split`: every candidate threshold of every offered feature,
  each child risk by a direct two-pass mean / squared-deviation sum, then
  the documented tie rules (smallest threshold, then smallest feature).
- `brute_force_cell_split`: the same for one cell of a discrete law, with
  the martingale module's largest-boundary tie rule.
- `walk_model`: scores a saved `model.json` from its plain JSON, matching
  columns by header name rather than by position.
- `law_variance`, `uniform_grid_mse`, `RATE_CEILINGS`: closed forms.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

# ---------------------------------------------------------------------------
# Empirical splits
# ---------------------------------------------------------------------------


def two_pass_sse(y: np.ndarray) -> float:
    """Sum of squared deviations from the mean, mean taken first."""
    y = np.asarray(y, dtype=np.float64)
    if y.size == 0:
        return 0.0
    mean = math.fsum(y) / y.size
    return math.fsum((y - mean) ** 2)


def candidate_thresholds(x: np.ndarray) -> np.ndarray:
    """Midpoints between consecutive distinct values of x, ascending."""
    distinct = np.unique(np.asarray(x, dtype=np.float64))
    return 0.5 * (distinct[:-1] + distinct[1:])


def _candidate_risks(x: np.ndarray, y: np.ndarray) -> Tuple[np.ndarray, np.ndarray,
                                                             np.ndarray, np.ndarray]:
    """(thresholds, left_risk, right_risk, left_count) for every candidate
    threshold of x; x < t goes left. Each risk is a two-pass SSE over the
    rows that fall on that side."""
    thresholds = candidate_thresholds(x)
    left = x[None, :] < thresholds[:, None]  # (candidates, rows)
    right = ~left
    n_left = left.sum(axis=1)
    n_right = right.sum(axis=1)
    mean_left = (left * y).sum(axis=1) / n_left
    mean_right = (right * y).sum(axis=1) / n_right
    risk_left = (left * (y[None, :] - mean_left[:, None]) ** 2).sum(axis=1)
    risk_right = (right * (y[None, :] - mean_right[:, None]) ** 2).sum(axis=1)
    return thresholds, risk_left, risk_right, n_left


def _criterion(mode: str, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    if mode == "sum":
        return left + right
    if mode == "max":
        return np.maximum(left, right)
    raise ValueError(f"brute-force oracle has no scan mode {mode!r}")


def brute_force_split(X: np.ndarray, y: np.ndarray, features: Sequence[int],
                      mode: str) -> Optional[dict]:
    """Best split of the rows (X is (d, m), y is (m,)) over `features`.

    mode 'sum' minimizes left + right risk, 'max' the larger child risk.
    Ties go to the smallest threshold, then the smallest feature index.
    Returns None when every offered feature is constant on the rows.
    """
    best = None
    for j in sorted(set(int(f) for f in features)):
        t, left, right, n_left = _candidate_risks(np.asarray(X[j], dtype=np.float64),
                                                  np.asarray(y, dtype=np.float64))
        if t.size == 0:
            continue
        crit = _criterion(mode, left, right)
        i = int(np.argmin(crit))  # first minimum = smallest threshold
        if best is None or crit[i] < best["criterion"]:
            best = {"feature": j, "threshold": float(t[i]), "criterion": float(crit[i]),
                    "left_count": int(n_left[i])}
    return best


def split_criterion_at(X: np.ndarray, y: np.ndarray, feature: int, threshold: float,
                       mode: str) -> float:
    """Two-pass criterion value of one given split."""
    x = np.asarray(X[feature], dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    go_left = x < threshold
    left, right = two_pass_sse(y[go_left]), two_pass_sse(y[~go_left])
    return float(_criterion(mode, np.asarray([left]), np.asarray([right]))[0])


# ---------------------------------------------------------------------------
# Discrete laws
# ---------------------------------------------------------------------------


def law_variance(atoms: np.ndarray, weights: np.ndarray) -> float:
    """Two-pass variance of a weighted law; weights need not sum to one."""
    atoms = np.asarray(atoms, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    total = math.fsum(weights)
    mean = math.fsum(weights * atoms) / total
    return math.fsum(weights * (atoms - mean) ** 2) / total


def _cell_risks(u: np.ndarray, w: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(left_risk, right_risk, left_mass) for boundaries 1 .. m-1 of one cell;
    risks are unconditional contributions sum w (u - cell mean)^2."""
    m = u.size
    b = np.arange(1, m)
    left = np.arange(m)[None, :] < b[:, None]
    right = ~left
    mass_left = (left * w).sum(axis=1)
    mass_right = (right * w).sum(axis=1)
    mean_left = (left * w * u).sum(axis=1) / mass_left
    mean_right = (right * w * u).sum(axis=1) / mass_right
    risk_left = (left * w * (u[None, :] - mean_left[:, None]) ** 2).sum(axis=1)
    risk_right = (right * w * (u[None, :] - mean_right[:, None]) ** 2).sum(axis=1)
    return risk_left, risk_right, mass_left


def cell_split_scores(atoms: np.ndarray, weights: np.ndarray, lo: int, hi: int,
                      rule: str) -> np.ndarray:
    """Score of every boundary b = lo+1 .. hi-1 under a scanned rule (lower
    is better): variance L+R, minimax max(L, R), median |2 left mass - mass|."""
    u = np.asarray(atoms[lo:hi], dtype=np.float64)
    w = np.asarray(weights[lo:hi], dtype=np.float64)
    left, right, mass_left = _cell_risks(u, w)
    if rule == "variance":
        return left + right
    if rule == "minimax":
        return np.maximum(left, right)
    if rule == "median":
        return np.abs(2.0 * mass_left - math.fsum(w))
    raise ValueError(f"no scanned rule {rule!r}")


def brute_force_cell_split(atoms: np.ndarray, weights: np.ndarray, lo: int, hi: int,
                           rule: str) -> int:
    """Boundary b in (lo, hi) for the rule; [lo, b) goes left.

    variance / minimax / median take the *largest* minimizing boundary.
    simons cuts at the cell's conditional mean: atoms at or above the mean go
    right, and both children stay nonempty.
    """
    if hi - lo < 2:
        raise ValueError("cannot split a single-atom cell")
    if rule == "simons":
        u = np.asarray(atoms[lo:hi], dtype=np.float64)
        w = np.asarray(weights[lo:hi], dtype=np.float64)
        mean = math.fsum(w * u) / math.fsum(w)
        first_right = int(np.count_nonzero(u < mean))
        return lo + min(max(first_right, 1), hi - lo - 1)
    scores = cell_split_scores(atoms, weights, lo, hi, rule)
    last_min = scores.size - 1 - int(np.argmin(scores[::-1]))
    return lo + 1 + last_min


def uniform_grid_mse(n_atoms: int, k: int) -> float:
    """Exact partition risk of the equal-weight grid (i + 1/2)/n after k
    halvings, n a power of two and 2^k <= n: each cell holds m = n / 2^k
    atoms spaced 1/n apart, whose variance is (m^2 - 1) / (12 n^2), so the
    total is (4^-k - n^-2) / 12, i.e. 4^-k / 12 up to the grid term."""
    return (4.0 ** -k - 1.0 / float(n_atoms) ** 2) / 12.0


# Risk ceilings after k rounds for laws supported in [0, 1], restated from
# the paper rather than imported from the library.
RATE_CEILINGS = {
    "variance": lambda k: 2.71 * 2.0 ** (-2.0 * k / 3.0),
    "minimax": lambda k: 0.4 * 2.0 ** (-2.0 * k / 3.0),
    "simons": lambda k: 2.0 ** (1.0 - k),
    "median": lambda k: 2.0 ** (-float(k)),
}


# ---------------------------------------------------------------------------
# Saved models
# ---------------------------------------------------------------------------


def _tree_arrays(tree: dict) -> Tuple[np.ndarray, ...]:
    nodes = tree["nodes"]
    feature = np.asarray([-1 if r["feature"] is None else r["feature"] for r in nodes],
                         dtype=np.int64)
    threshold = np.asarray([math.nan if r["threshold"] is None else r["threshold"]
                            for r in nodes], dtype=np.float64)
    left = np.asarray([-1 if r["left"] is None else r["left"] for r in nodes], dtype=np.int64)
    right = np.asarray([-1 if r["right"] is None else r["right"] for r in nodes],
                       dtype=np.int64)
    value = np.asarray([r["value"] for r in nodes], dtype=np.float64)
    return feature, threshold, left, right, value


def _walk_tree(tree: dict, X: np.ndarray) -> np.ndarray:
    """Leaf value per row of X (columns already in the model's order)."""
    feature, threshold, left, right, value = _tree_arrays(tree)
    node = np.zeros(X.shape[0], dtype=np.int64)
    for _ in range(len(feature) + 1):  # a path visits each node at most once
        inner = np.nonzero(left[node] >= 0)[0]
        if inner.size == 0:
            return value[node]
        at = node[inner]
        goes_left = X[inner, feature[at]] < threshold[at]
        node[inner] = np.where(goes_left, left[at], right[at])
    raise ValueError("tree has a cycle")


def walk_model(doc: dict, train_features: Sequence[str], header: Sequence[str],
               rows: np.ndarray) -> np.ndarray:
    """Regression predictions of a tree-v1 / forest-v1 document for `rows`
    (one row per line of a CSV with columns `header`). Model feature j is
    the training CSV's j-th feature column, found in `header` by name."""
    header = [h.strip() for h in header]
    try:
        columns = [header.index(name) for name in train_features]
    except ValueError as exc:
        raise ValueError(f"scoring header lacks a training column: {exc}") from None
    X = np.asarray(rows, dtype=np.float64)[:, columns]
    trees = doc["trees"] if doc["format"] == "forest-v1" else [doc]
    if any(t["task"] != "regression" for t in trees):
        raise ValueError("walker scores regression models only")
    return np.mean(np.vstack([_walk_tree(t, X) for t in trees]), axis=0)


def model_problems(doc: dict) -> List[str]:
    """Structural faults in a saved model: an internal node whose children's
    counts do not sum to its own, or a risk trace that ever increases."""
    problems: List[str] = []
    trees = doc["trees"] if doc["format"] == "forest-v1" else [doc]
    for b, tree in enumerate(trees):
        nodes = tree["nodes"]
        for i, node in enumerate(nodes):
            if node["left"] is None:
                continue
            got = nodes[node["left"]]["count"] + nodes[node["right"]]["count"]
            if got != node["count"]:
                problems.append(f"tree {b} node {i}: children hold {got} of {node['count']}")
        trace = tree["risk_trace"]
        for k in range(1, len(trace)):
            if trace[k] > trace[k - 1]:
                problems.append(f"tree {b}: risk_trace rises at depth {k}")
                break
    return problems


def regression_scores(y: np.ndarray, yhat: np.ndarray) -> Dict[str, float]:
    """MSE and R^2 = 1 - MSE / population variance, by two-pass sums."""
    y = np.asarray(y, dtype=np.float64)
    err = y - np.asarray(yhat, dtype=np.float64)
    mse = math.fsum(err * err) / y.size
    var = two_pass_sse(y) / y.size
    return {"mse": mse, "r2": 1.0 - mse / var}


def read_pgm(path) -> np.ndarray:
    """Intensities in [0, 1] of an ASCII (P2) graymap without comments."""
    tokens = open(path, encoding="ascii").read().split()
    if tokens[0] != "P2":
        raise ValueError(f"{path}: not an ASCII graymap")
    width, height, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    raster = np.asarray(tokens[4:4 + width * height], dtype=np.float64)
    if raster.size != width * height:
        raise ValueError(f"{path}: truncated raster")
    return raster.reshape(height, width) / maxval
