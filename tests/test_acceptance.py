"""Release gate: fourteen numbered end-to-end checks over the whole library.

Every check prints one ``criterion NN: PASS|FAIL -- detail`` line before
asserting, so a verbose run doubles as a checklist. Statistical checks pin
their seeds and sample sizes; checks with a wall-clock budget assert it.
Thresholds live here and nowhere else -- they are the contract.
"""

import json
import math
import time
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from minimaxsplit import (
    CLASSIFICATION,
    REGRESSION,
    Dataset,
    ForestConfig,
    GrowConfig,
    forest_to_json,
    grow,
    law_from_density,
    make_phantom,
    mse_curve,
    random_density,
    rate_witness,
    regression_metrics,
    ssim,
    train_forest,
    uniform_grid,
)
from minimaxsplit.cli import main as cli_main
from minimaxsplit.dataset import AdditiveTVSpec, AsbpSpec, gen_synthetic
from minimaxsplit.experiments import (
    DenoiseConfig,
    EcpConfig,
    PowellConfig,
    run_denoise,
    run_ecp,
    run_powell,
)

from conftest import entropy_risk, make_node, naive_ssim, two_pass_sse
from one_node import root_node
from pernode_grower import forest_per_tree
from pernode_scan import UnsplittableError, _risk_curves, minimax_search, scan_feature


def report(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    assert ok, line


# Closed-form per-depth ceilings for the four interval-splitting rules on a
# law supported in [0, 1]; the constants are re-stated here rather than
# imported so the check is independent of rate_bound().
RULE_BOUNDS = {
    "variance": lambda k: 2.71 * 2.0 ** (-2.0 * k / 3.0),
    "minimax": lambda k: 0.4 * 2.0 ** (-2.0 * k / 3.0),
    "simons": lambda k: 2.0 ** (1.0 - k),
    "median": lambda k: 2.0 ** (-k),
}


@lru_cache(maxsize=1)
def regression_nodes():
    gen = np.random.default_rng(20250801)
    return tuple(make_node(gen) for _ in range(10_000))


@lru_cache(maxsize=1)
def classification_nodes():
    gen = np.random.default_rng(20250802)
    return tuple(make_node(gen, task=CLASSIFICATION) for _ in range(10_000))


def test_criterion_01_uniform_grid_rates():
    t0 = time.perf_counter()
    law = uniform_grid(2 ** 16)
    target = 4.0 ** -np.arange(9) / 12.0
    worst = 0.0
    for rule in RULE_BOUNDS:
        curve = mse_curve(law, rule, 8)
        worst = max(worst, float(np.max(np.abs(curve - target) / target)))
    elapsed = time.perf_counter() - t0
    report(1, worst <= 1e-3 and elapsed < 5.0,
           f"4 rules vs 4^-k/12 on 2^16 atoms, worst rel err {worst:.2e} "
           f"(cap 1e-3), {elapsed:.1f}s (cap 5s)")


def test_criterion_02_random_density_bounds():
    t0 = time.perf_counter()
    violations = 0
    worst_margin = -np.inf  # most dangerous curve-minus-bound gap seen
    ks = np.arange(13, dtype=np.float64)
    for seed in range(50):
        law = law_from_density(random_density(seed), 2 ** 14)
        for rule, bound in RULE_BOUNDS.items():
            curve = mse_curve(law, rule, 12)
            gap = curve - bound(ks)
            violations += int(np.sum(gap > 1e-6))
            worst_margin = max(worst_margin, float(gap.max()))
    elapsed = time.perf_counter() - t0
    report(2, violations == 0 and elapsed < 60.0,
           f"50 densities x 4 rules x k<=12, {violations} bound violations, "
           f"max(curve - bound) {worst_margin:.2e}, {elapsed:.1f}s (cap 60s)")


def test_criterion_03_witness_increments():
    k = np.arange(7, dtype=np.float64)
    worst = 0.0
    for family, s, expected in (
        ("simons", 0.6, (1.0 - 0.6) ** (2.0 * k + 1.0) / 0.6 ** (k + 1.0)),
        ("median", 0.9, 2.0 ** (-k) * 0.9 ** (2.0 * k)),
    ):
        law, _ = rate_witness(family, s, depth=7)
        curve = mse_curve(law, family, 7)
        measured = curve[:-1] - curve[1:]
        worst = max(worst, float(np.max(np.abs(measured - expected) / expected)))
    report(3, worst <= 0.01,
           f"simons(0.6)/median(0.9) one-step drops vs closed form, "
           f"worst rel err {worst:.2e} (cap 1%)")


def test_criterion_04_bisection_matches_scan():
    t0 = time.perf_counter()
    checked = mismatches = 0
    for node in regression_nodes():
        try:
            slow = scan_feature(node, 0, "max")
        except UnsplittableError:
            with pytest.raises(UnsplittableError):
                minimax_search(node, 0)
            continue
        fast = minimax_search(node, 0)
        checked += 1
        if (fast.threshold != slow.threshold
                or fast.criterion_value != slow.criterion_value
                or fast.left_count != slow.left_count):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    report(4, mismatches == 0 and elapsed < 30.0,
           f"bisection vs exhaustive max-scan on {checked} random nodes, "
           f"{mismatches} mismatches, {elapsed:.1f}s (cap 30s)")


def test_criterion_05_split_invariants():
    violations = 0
    checked = 0
    for node in regression_nodes():
        curves = _risk_curves(node, 0)
        if curves.thresholds.size == 0:
            continue
        checked += 1
        y = node.targets()
        parent = two_pass_sse(y)
        tol = 1e-9 * (1.0 + parent)
        if np.any(np.diff(curves.phi_left) < 0.0):
            violations += 1
        if np.any(np.diff(curves.phi_right) > 0.0):
            violations += 1
        if np.any(curves.phi_left + curves.phi_right > parent + tol):
            violations += 1
        best = scan_feature(node, 0, "max")
        dy = float(np.max(y) - np.min(y))
        _, tie_counts = np.unique(node.feature_values(0), return_counts=True)
        w_max = int(tie_counts.max())
        if best.criterion_value > 0.5 * parent + w_max * dy * dy + tol:
            violations += 1
        scaled = root_node(Dataset(features=node.feature_values(0)[None, :],
                                   targets=4.0 * y, task=REGRESSION))
        rescan = scan_feature(scaled, 0, "max")
        if (rescan.threshold != best.threshold
                or rescan.criterion_value != 16.0 * best.criterion_value):
            violations += 1
    report(5, violations == 0,
           f"monotone prefix risks, child-sum bound, minimax halving, x16 "
           f"target-scale equivariance on {checked} nodes, {violations} violations")


def test_criterion_06_cyclic_depth_rate():
    t0 = time.perf_counter()
    violations = 0
    worst = -np.inf
    for i in range(20):
        d = 1 + i % 3
        spec = AdditiveTVSpec.random(d=d, seed=i, noise_sigma=0.1)
        data = gen_synthetic(replace(spec, n=10_000), seed=1_000 + i)
        tree = grow(data, GrowConfig(criterion="cyclic_minimax", max_depth=12))
        dy2 = float(np.max(data.targets) - np.min(data.targets)) ** 2
        sigma2 = spec.noise_sigma ** 2
        tv2 = spec.tv ** 2
        for k, risk in enumerate(tree.risk_trace):
            c = 2.0 ** (-2.0 * (k // d) / 3.0)
            rhs = ((2.0 + (8.0 / 3.0) * c) * sigma2
                   + 2.0 * (1.0 / 3.0 + 0.5 ** (2.0 / 3.0)) * c * tv2
                   + 2.0 * dy2 * 2.0 ** k / data.n_samples)
            worst = max(worst, risk - rhs)
            if risk > rhs:
                violations += 1
    elapsed = time.perf_counter() - t0
    report(6, violations == 0,
           f"20 additive-TV datasets (d in 1..3, n=10^4), cyclic risk trace vs "
           f"closed-form ceiling for k<=12, {violations} violations, "
           f"max(risk - ceiling) {worst:.4f}, {elapsed:.1f}s")


def test_criterion_07_end_cut_fractions(tmp_path):
    t0 = time.perf_counter()
    cfg = EcpConfig(n=500, replicates=1000, noise_laws=("normal", "t3", "t1"),
                    methods=("variance", "minimax"))
    res = run_ecp(cfg, seed=0, out=tmp_path / "ecp")
    elapsed = time.perf_counter() - t0
    frac = {law: res.summary[f"{law}/minimax"]["frac_below"]
            for law in ("normal", "t3", "t1")}
    gap = res.summary["t1/variance"]["frac_below"] - frac["t1"]
    gap_ok = gap >= 0.15
    small_ok = all(v < 0.05 for v in frac.values())
    report(7, gap_ok and small_ok and elapsed < 120.0,
           f"t1 variance-minus-minimax below-5% gap {gap:.4f} (need >= 0.15); "
           f"minimax below-5% fractions normal={frac['normal']:.4f} "
           f"t3={frac['t3']:.4f} t1={frac['t1']:.4f} (need < 0.05 each); "
           f"{elapsed:.1f}s (cap 120s)")


def test_criterion_08_symmetry_lock_and_escape():
    locked = 0
    floor_ok = True
    cyclic_ok = True
    for s in range(10):
        train = gen_synthetic(AsbpSpec(n=4096, d=2), seed=s)
        test = gen_synthetic(AsbpSpec(n=4096, d=2), seed=10_000 + s)
        xt = test.features.T
        tree = grow(train, GrowConfig(criterion="minimax", max_depth=3))
        internal = tree.left >= 0
        if internal.any() and np.all(tree.feature[internal] == 0):
            locked += 1
        for k in range(4):
            err = test.targets - tree.predict(xt, max_depth=k)
            if float(np.mean(err * err)) < 0.06:
                floor_ok = False
        cyc = grow(train, GrowConfig(criterion="cyclic_minimax", max_depth=12))
        err = test.targets - cyc.predict(xt)
        if float(np.mean(err * err)) >= 0.02:
            cyclic_ok = False
    report(8, locked >= 9 and floor_ok and cyclic_ok,
           f"minimax locked on coordinate 0 in {locked}/10 seeds (need >= 9); "
           f"held-out floor >= 0.06 at depths 0-3: {floor_ok}; "
           f"cyclic depth-12 held-out < 0.02: {cyclic_ok}")


def test_criterion_09_forest_properties():
    asbp_train = gen_synthetic(AsbpSpec(n=4096, d=2), seed=0)
    asbp_test = gen_synthetic(AsbpSpec(n=4096, d=2), seed=1)
    xt = asbp_test.features.T

    gen = np.random.default_rng(5)
    X = gen.uniform(size=(3, 400))
    y = np.sin(6.0 * X[0]) + 0.5 * X[1] + 0.1 * gen.normal(size=400)
    toy_train = Dataset(features=X[:, :300], targets=y[:300], task=REGRESSION)
    toy_test = Dataset(features=X[:, 300:], targets=y[300:], task=REGRESSION)

    jensen_ok = True
    for train, test in ((asbp_train, asbp_test), (toy_train, toy_test)):
        forest = train_forest(train, ForestConfig(criterion="minimax",
                                                  n_trees=25, max_depth=6),
                              seed=11)
        x_eval = test.features.T
        ens_mse = float(np.mean((test.targets - forest.predict(x_eval)) ** 2))
        per_tree = [float(np.mean((test.targets - t.predict(x_eval)) ** 2))
                    for t in forest.trees]
        if ens_mse > float(np.mean(per_tree)) + 1e-10:
            jensen_ok = False

    cfg = ForestConfig(criterion="minimax", n_trees=30, max_depth=5)
    bytes_ok = (forest_to_json(train_forest(asbp_train, cfg, seed=3))
                == forest_to_json(forest_per_tree(asbp_train, cfg, seed=3)))

    rand_dim = train_forest(asbp_train, ForestConfig(criterion="minimax",
                                                     n_trees=200, max_depth=5,
                                                     m_try=1), seed=0)
    full_dim = train_forest(asbp_train, ForestConfig(criterion="minimax",
                                                     n_trees=200, max_depth=5,
                                                     m_try=2), seed=0)
    mse_rand = float(np.mean((asbp_test.targets - rand_dim.predict(xt)) ** 2))
    mse_full = float(np.mean((asbp_test.targets - full_dim.predict(xt)) ** 2))
    escape_ok = mse_rand < 0.03 and mse_full >= 0.06
    report(9, jensen_ok and bytes_ok and escape_ok,
           f"Jensen ensemble bound: {jensen_ok}; batch == per-tree bytes: "
           f"{bytes_ok}; m_try=1 held-out {mse_rand:.4f} (< 0.03) vs m_try=d "
           f"{mse_full:.4f} (>= 0.06)")


def test_criterion_10_classification_invariants():
    violations = 0
    checked = 0
    for node in classification_nodes():
        curves = _risk_curves(node, 0)
        if curves.thresholds.size == 0:
            continue
        checked += 1
        parent = entropy_risk(node.targets())
        tol = 1e-9 * (1.0 + parent)
        if np.any(np.diff(curves.phi_left) < 0.0):
            violations += 1
        if np.any(np.diff(curves.phi_right) > 0.0):
            violations += 1
        best = scan_feature(node, 0, "max")
        _, tie_counts = np.unique(node.feature_values(0), return_counts=True)
        slack = int(tie_counts.max()) * math.log(node.size)
        if best.criterion_value > 0.5 * parent + slack + tol:
            violations += 1

    gen = np.random.default_rng(404)
    x = gen.uniform(size=200)
    labels = np.where(x >= 0.37, 1.0, -1.0)
    tree = grow(Dataset(features=x[None, :], targets=labels,
                        task=CLASSIFICATION),
                GrowConfig(criterion="entropy_minimax", max_depth=6))
    train_err = float(np.mean(tree.predict(x[:, None]) != labels))
    report(10, violations == 0 and train_err == 0.0,
           f"entropy prefix monotonicity + halving (atomic slack) on {checked} "
           f"binary nodes, {violations} violations; separable 1-D training "
           f"error {train_err}")


def test_criterion_11_metric_identities():
    gen = np.random.default_rng(20250811)
    worst = 0.0
    for _ in range(100):
        a = gen.uniform(size=(32, 32))
        b = np.clip(a + gen.normal(0.0, 0.2, size=(32, 32)), 0.0, 1.0)
        worst = max(worst, abs(ssim(a, b) - naive_ssim(a, b)))
    phantom = make_phantom(32, 32).pixels
    self_ok = (ssim(phantom, phantom) == 1.0
               and ssim(a, a) == 1.0 and ssim(b, b) == 1.0)
    r2_ok = True
    for seed in range(5):
        g = np.random.default_rng(seed)
        y = g.normal(size=64)
        rep = regression_metrics(y, y + 0.3 * g.normal(size=64))
        var = float(np.mean((y - np.mean(y)) ** 2))
        if rep.r2 != 1.0 - rep.mse / var:
            r2_ok = False
    report(11, worst <= 1e-10 and self_ok and r2_ok,
           f"fast vs naive SSIM on 100 pairs, worst |diff| {worst:.2e} "
           f"(cap 1e-10); ssim(y,y)==1: {self_ok}; r2 == 1 - mse/var: {r2_ok}")


def test_criterion_12_denoising_direction(tmp_path):
    t0 = time.perf_counter()
    forest_methods = ("forest:variance", "forest:minimax", "forest:minimax:m1")
    ssim_wins = 0
    worse_than_noisy = []
    for s in range(5):
        res = run_denoise(DenoiseConfig(), seed=s, out=tmp_path / f"d{s}")
        noisy = res.summary["noisy"]["mse"]
        for m in forest_methods:
            if res.summary[m]["mse"] >= noisy:
                worse_than_noisy.append(f"{m}@seed{s}")
        if res.summary["forest:minimax"]["ssim"] >= \
                res.summary["forest:variance"]["ssim"]:
            ssim_wins += 1
    elapsed = time.perf_counter() - t0
    report(12, not worse_than_noisy and ssim_wins >= 3 and elapsed < 180.0,
           f"all forest methods beat noisy MSE on 5 seeds (failures: "
           f"{worse_than_noisy or 'none'}); minimax SSIM >= variance SSIM in "
           f"{ssim_wins}/5 seeds (need >= 3); {elapsed:.1f}s (cap 180s)")


def test_criterion_13_powell_parity(tmp_path):
    cfg = PowellConfig(n_values=(10_000,), d_values=(4,), max_depth=3,
                       n_test=10_000)
    res = run_powell(cfg, seed=0, out=tmp_path / "powell")
    with open(Path(res.outdir) / "powell.csv", newline="") as fh:
        rows = [line.rstrip("\n").split(",") for line in fh]
    header_ok = rows[0] == ["n", "d", "method", "mse"]
    a = res.summary["n=10000/d=4/variance"]
    b = res.summary["n=10000/d=4/minimax"]
    finite = math.isfinite(a) and math.isfinite(b)
    rel = abs(a - b) / min(a, b)
    report(13, header_ok and finite and rel <= 0.10,
           f"(n,d,method,mse) schema: {header_ok}; variance {a:.4f} vs minimax "
           f"{b:.4f}, relative gap {rel:.4f} (cap 0.10)")


def _dir_bytes(d: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(d.iterdir()) if p.is_file()}


def test_criterion_14_cli_determinism(tmp_path):
    src = tmp_path / "train.csv"
    lines = ["x,y"] + [f"{i / 40!r},{math.sin(i / 5.0)!r}" for i in range(40)]
    src.write_text("\n".join(lines) + "\n", encoding="utf-8")

    cases = {
        "ecp": {"n": 40, "replicates": 4, "noise_laws": ["normal"],
                "methods": ["variance", "minimax"]},
        "leafsize": {"n": 64, "replicates": 2, "max_depth": 3,
                     "noise_sigmas": [0.1], "methods": ["variance", "minimax"]},
        "sine": {"n": 64, "p_values": [1], "max_depth": 3, "batches": 2,
                 "eval_depths": [2], "n_test": 64},
        "asbp": {"n": 128, "d": 2, "max_depth": 3, "n_test": 64},
        "denoise": {"height": 16, "width": 16, "n_trees": 2, "max_depth": 4,
                    "methods": ["tree:minimax", "forest:minimax:m1"]},
        "powell": {"n_values": [128], "d_values": [4], "max_depth": 2,
                   "n_test": 128},
        "timeseries": {"n_synthetic": 80, "depths": [2, 3]},
        "martingale": {"n_atoms": 32, "max_depth": 4},
        "train": {"data": str(src), "target": "y", "max_depth": 3},
    }
    unstable = []
    for name, conf in cases.items():
        dirs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{name}-{tag}"
            code = cli_main([name, "--seed", "5", "--out", str(out),
                             "--config", json.dumps(conf)])
            assert code == 0, f"{name} exited {code}"
            dirs.append(out)
        if _dir_bytes(dirs[0]) != _dir_bytes(dirs[1]):
            unstable.append(name)

    pred_conf = {"model": str(tmp_path / "train-a" / "model.json"),
                 "data": str(src), "target": "y"}
    dirs = []
    for tag in ("a", "b"):
        out = tmp_path / f"predict-{tag}"
        code = cli_main(["predict", "--seed", "5", "--out", str(out),
                         "--config", json.dumps(pred_conf)])
        assert code == 0, f"predict exited {code}"
        dirs.append(out)
    if _dir_bytes(dirs[0]) != _dir_bytes(dirs[1]):
        unstable.append("predict")

    report(14, not unstable,
           f"10/10 subcommands rerun byte-identical"
           + (f" except {unstable}" if unstable else ""))
