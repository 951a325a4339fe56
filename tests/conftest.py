"""Shared generators and independent oracles for the test suite.

The oracles here recompute quantities with deliberately different arithmetic
(two-pass sums via math.fsum, explicit window loops) so that agreement with
the library is meaningful rather than tautological.
"""

import json
import math

import numpy as np
import pytest

from minimaxsplit import CLASSIFICATION, REGRESSION, Dataset, ForestModel, TreeModel
from minimaxsplit.cli import main
from minimaxsplit.tree import NODE_FIELDS

from one_node import NodeView, root_node


def make_node(rng: np.random.Generator, min_size: int = 2, max_size: int = 512,
              n_features: int = 1, task: str = REGRESSION,
              atom_prob: float = 0.5) -> NodeView:
    """A random node: features are continuous or heavily tied ("atomic") per
    coordinate, targets are scaled normals or +-1 labels."""
    m = int(rng.integers(min_size, max_size + 1))
    cols = []
    for _ in range(n_features):
        if rng.uniform() < atom_prob:
            k = int(rng.integers(1, max(2, m // 2) + 1))
            cols.append(rng.integers(0, k, m).astype(np.float64))
        else:
            cols.append(rng.uniform(-1.0, 1.0, m))
    if task == CLASSIFICATION:
        y = np.where(rng.uniform(size=m) < rng.uniform(0.05, 0.95), 1.0, -1.0)
    else:
        scale = 10.0 ** float(rng.integers(-2, 3))
        y = rng.normal(0.0, scale, m)
        if rng.uniform() < 0.1:  # occasional constant target
            y = np.full(m, float(y[0]))
    data = Dataset(features=np.vstack(cols), targets=y, task=task)
    return root_node(data)


def two_pass_sse(y) -> float:
    y = np.asarray(y, dtype=np.float64)
    if y.size <= 1:
        return 0.0
    mu = math.fsum(y) / y.size
    return math.fsum((v - mu) ** 2 for v in y)


def entropy_risk(y) -> float:
    """count * h(positive fraction), natural log."""
    y = np.asarray(y, dtype=np.float64)
    m = y.size
    pos = int(np.sum(y == 1.0))
    if pos == 0 or pos == m:
        return 0.0
    p = pos / m
    return m * (-p * math.log(p) - (1 - p) * math.log(1 - p))


def brute_scan(x, y, mode: str, task: str = REGRESSION):
    """Exhaustive split search with two-pass child risks. Returns
    (threshold, left_risk, right_risk, criterion, left_count) under the
    smallest-threshold tie rule, or None if the feature is constant."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    order = np.argsort(x, kind="stable")
    xs, ys = x[order], y[order]
    risk = two_pass_sse if task == REGRESSION else entropy_risk
    best = None
    for i in range(1, xs.size):
        if xs[i] <= xs[i - 1]:
            continue
        lr, rr = risk(ys[:i]), risk(ys[i:])
        crit = {"sum": lr + rr, "max": max(lr, rr),
                "left_only": lr, "right_only": rr}[mode]
        if best is None or crit < best[3]:
            best = ((xs[i - 1] + xs[i]) / 2.0, lr, rr, crit, i)
    return best


def same_json(got: str, want: str) -> None:
    """Fail, naming the first differing offset and the text around it, when
    two serialized models differ. A bare `assert got == want` would have
    pytest diff the whole strings, which takes minutes on long documents."""
    if got == want:
        return
    at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
              min(len(got), len(want)))
    lo, hi = max(0, at - 40), at + 40
    pytest.fail(f"JSON differs at offset {at} (lengths {len(got)} and {len(want)}):\n"
                f"  got  ...{got[lo:hi]!r}\n  want ...{want[lo:hi]!r}")


def as_built(values: list) -> np.ndarray:
    """A document's list as the array a caller in code would pass: int64
    when every entry is an int, float64 when every one is a number, and an
    object array otherwise, so that a stray bool, string, list, null or
    int past int64 stays visible rather than being cast."""
    kinds = set(map(type, values))
    try:
        if kinds <= {int}:
            return np.array(values, dtype=np.int64)
        if kinds <= {int, float}:
            return np.array(values, dtype=np.float64)
    except OverflowError:
        pass
    return np.fromiter(values, dtype=object, count=len(values))


def build_model(doc: dict):
    """The model a tree-v1 or forest-v1 document describes, built by calling
    TreeModel(...) or ForestModel(...) directly, with no loader: the header
    values go in as they are and each node column and bootstrap index list
    through `as_built`; a null node entry reads as the loader reads it (-1
    or NaN)."""
    header = {key: value for key, value in doc.items() if key not in ("format", "nodes")}
    if doc["format"] == "forest-v1":
        return ForestModel(**{**header, "trees": [build_model(t) for t in doc["trees"]],
                              "bootstrap_indices": [as_built(i)
                                                    for i in doc["bootstrap_indices"]]})
    nodes = doc["nodes"]
    columns = {}
    for f in NODE_FIELDS:
        fill = -1 if f.integer else math.nan
        columns[f.name] = as_built([fill if f.null and node[f.name] is None else node[f.name]
                                    for node in nodes])
    return TreeModel(**header, **columns,
                     leaf_reason=[node["leaf_reason"] for node in nodes])


def predict_exit(tmp_path, doc: dict, n_features: int) -> int:
    """The CLI exit code of `predict` with the model document `doc` on a
    two-row CSV of `n_features` feature columns, written under `tmp_path`."""
    tmp_path.mkdir(parents=True, exist_ok=True)
    (tmp_path / "model.json").write_text(json.dumps(doc).replace("Infinity", "1e400"),
                                         encoding="utf-8")
    columns = [f"x{j}" for j in range(n_features)]
    (tmp_path / "d.csv").write_text(",".join(columns) + "\n" + "0.5," * (n_features - 1)
                                    + "0.5\n" + "1," * (n_features - 1) + "1\n",
                                    encoding="utf-8")
    config = {"model": str(tmp_path / "model.json"), "data": str(tmp_path / "d.csv")}
    return main(["predict", "--out", str(tmp_path / "out"), "--config", json.dumps(config)])


def naive_ssim(a, b, window: int = 11, sigma: float = 1.5,
               k1: float = 0.01, k2: float = 0.03) -> float:
    """Doubly-looped reference SSIM with renormalized Gaussian weights."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    ax = np.arange(window) - (window - 1) / 2.0
    g = np.exp(-(ax ** 2) / (2 * sigma ** 2))
    wgt = np.outer(g, g)
    wgt /= wgt.sum()
    c1, c2 = k1 ** 2, k2 ** 2
    vals = []
    for r in range(a.shape[0] - window + 1):
        for c in range(a.shape[1] - window + 1):
            pa = a[r:r + window, c:c + window]
            pb = b[r:r + window, c:c + window]
            mua = float((wgt * pa).sum())
            mub = float((wgt * pb).sum())
            va = float((wgt * pa * pa).sum()) - mua * mua
            vb = float((wgt * pb * pb).sum()) - mub * mub
            cov = float((wgt * pa * pb).sum()) - mua * mub
            vals.append(((2 * mua * mub + c1) * (2 * cov + c2))
                        / ((mua ** 2 + mub ** 2 + c1) * (va + vb + c2)))
    return float(np.mean(vals))


def window_product_ssim(a, b, window: int = 11, sigma: float = 1.5,
                        k1: float = 0.01, k2: float = 0.03) -> float:
    """The vectorized SSIM as `metrics.ssim` computed it before it took the
    window moments of product images: the second moments multiply the 4-D
    window views (`wa * wb`). The library must match it bit for bit."""
    from numpy.lib.stride_tricks import sliding_window_view

    A = np.asarray(a, dtype=np.float64)
    B = np.asarray(b, dtype=np.float64)
    ax = np.arange(window, dtype=np.float64) - (window - 1) / 2.0
    g = np.exp(-(ax * ax) / (2.0 * sigma * sigma))
    w = np.outer(g, g)
    w = w / w.sum()
    wa = sliding_window_view(A, (window, window))
    wb = sliding_window_view(B, (window, window))
    axes = ([2, 3], [0, 1])
    mu_a = np.tensordot(wa, w, axes=axes)
    mu_b = np.tensordot(wb, w, axes=axes)
    e_aa = np.tensordot(wa * wa, w, axes=axes)
    e_bb = np.tensordot(wb * wb, w, axes=axes)
    e_ab = np.tensordot(wa * wb, w, axes=axes)
    var_a = e_aa - mu_a * mu_a
    var_b = e_bb - mu_b * mu_b
    cov = e_ab - mu_a * mu_b
    c1 = k1 ** 2
    c2 = k2 ** 2
    per_window = ((2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)) / (
        (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2))
    return float(np.mean(per_window))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
