"""Differential tests: `grow` resolves each level in array passes, and must
make the same trees, byte for byte, as the per-node grower it replaced
(kept as the reference in pernode_grower.py); `train_forest` grows all its
trees through shared level passes, and must make the same forests as one
per-node grower run per tree. Models are compared as canonical JSON, so
every split, count, mean, risk, leaf reason and risk trace must agree
exactly."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from minimaxsplit import (CLASSIFICATION, REGRESSION, Dataset, ForestConfig, GrowConfig,
                          forest_to_json, grow, train_forest, tree_to_json)
from minimaxsplit import growth as growth_module, tree as tree_module
from minimaxsplit.dataset import image_to_dataset, make_phantom
from minimaxsplit.rng import stream
from minimaxsplit.splitting import TAGS

from conftest import same_json
from pernode_grower import forest_per_tree, grow_per_node


def assert_same_tree(data: Dataset, config: GrowConfig) -> None:
    got = tree_to_json(grow(data, config))
    same_json(got, tree_to_json(grow_per_node(data, config)))


def regression(X, y) -> Dataset:
    return Dataset(features=np.asarray(X, dtype=float), targets=y, task=REGRESSION)


def classification(X, y) -> Dataset:
    return Dataset(features=np.asarray(X, dtype=float), targets=y, task=CLASSIFICATION)


def _noisy(seed: int, d: int, n: int, levels: int = 0):
    """(X, y): uniform features, or integers in [0, levels) when levels > 0
    (heavy ties), and a noisy target with structure in the first feature."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, levels, (d, n)).astype(float) if levels else rng.uniform(size=(d, n))
    y = np.sin(4.0 * X[0]) + 0.3 * rng.standard_normal(n)
    return X, y


def _labels(seed: int, d: int, n: int):
    rng = np.random.default_rng(seed)
    X = rng.uniform(size=(d, n))
    y = np.where(X[0] + 0.4 * rng.standard_normal(n) > 0.5, 1.0, -1.0)
    return X, y


def _corpus():
    X, y = _noisy(1, 3, 300)
    Xt, yt = _noisy(2, 2, 200, levels=4)
    Xc, yc = _labels(3, 3, 250)
    step = np.repeat([0.0, 0.0, 5.0, 5.0], 40)  # constant within each half
    x_step = np.arange(160) / 160.0
    cases = {
        "tie_across_features": (regression([[0, 1, 2, 3], [0, 1, 2, 3]], [0.0, 1, 0, 1]),
                                GrowConfig("variance", max_depth=3)),
        "tie_within_feature": (regression([[0, 1, 2, 3, 4, 5]], [1.0, 0, 1, 0, 1, 0]),
                               GrowConfig("minimax", max_depth=4)),
        "duplicate_values": (regression(Xt, yt), GrowConfig("minimax", max_depth=7)),
        "duplicate_values_variance": (regression(Xt, yt), GrowConfig("variance", max_depth=7)),
        "constant_feature": (regression(np.vstack([np.full(300, 2.0), X[:2]]), y),
                             GrowConfig("minimax", max_depth=6)),
        "all_features_constant": (regression([[1.0, 1, 1], [4.0, 4, 4]], [0.0, 1, 2]),
                                  GrowConfig("variance", max_depth=3)),
        "constant_target": (regression(X, np.full(300, 0.25)), GrowConfig("minimax", max_depth=4)),
        "piecewise_constant_target": (regression([x_step, x_step[::-1]], step),
                                      GrowConfig("variance", max_depth=5)),
        "single_sample": (regression([[3.0]], [1.0]), GrowConfig("minimax", max_depth=2)),
        # adjacent floats whose midpoint rounds onto the upper one, which
        # must still route right (x < t goes left)
        "threshold_on_upper_value": (regression([[1 + 2.0 ** -52, 1 + 2.0 ** -51, 3.0]],
                                                [0.0, 1.0, 1.0]),
                                     GrowConfig("variance", max_depth=2)),
        # a midpoint that rounds onto the lower value, and one that overflows
        "threshold_past_midpoint": (regression([[1.0, 1 + 2.0 ** -52, 3.0, 1e308, 1.7e308]],
                                               [0.0, 1.0, 5.0, 2.0, 7.0]),
                                    GrowConfig("minimax", max_depth=4)),
        "n_min": (regression(X, y), GrowConfig("minimax", max_depth=8, n_min=12)),
        "fixed_features": (regression(X, y), GrowConfig("variance", max_depth=6,
                                                        fixed_features=(2, 0))),
        "fixed_repeats_random": (regression(Xt, yt), GrowConfig(
            "random_observed", max_depth=5, fixed_features=(1, 0, 1), seed=4)),
        "m_try_1": (regression(X, y), GrowConfig("minimax", max_depth=7, m_try=1, seed=5)),
        "m_try_draws_constant_feature": (regression(np.vstack([np.full(300, 2.0), X[0]]), y),
                                         GrowConfig("variance", max_depth=6, m_try=1, seed=13)),
        "m_try_2_ties": (regression(Xt, yt), GrowConfig("variance", max_depth=6, m_try=2, seed=6)),
        "entropy_sum": (classification(Xc, yc), GrowConfig("entropy_sum", max_depth=6)),
        "entropy_minimax": (classification(Xc, yc), GrowConfig("entropy_minimax", max_depth=6,
                                                               m_try=2, seed=7)),
        "entropy_cyclic": (classification(Xc, yc), GrowConfig("entropy_cyclic_minimax",
                                                              max_depth=6)),
        "cyclic_persistence": (regression([[5.0, 5, 5, 5], [0.0, 1, 2, 3]], [0.0, 0, 10, 10]),
                               GrowConfig("cyclic_minimax", max_depth=3)),
        # a two-level first feature is constant on every node below the
        # root, so those nodes wait for their next scheduled feature
        "cyclic_persistence_deep": (regression(np.vstack([Xt[:1] % 2, X[1:, :200]]), yt),
                                    GrowConfig("cyclic_minimax", max_depth=8)),
        "random_uniform": (regression(X, y), GrowConfig("random_uniform", max_depth=6, seed=8)),
        "random_uniform_m_try": (regression(Xt, yt), GrowConfig("random_uniform", max_depth=6,
                                                                m_try=1, seed=9)),
        "random_observed": (regression(X, y), GrowConfig("random_observed", max_depth=6,
                                                         seed=10)),
        "one_sided_min": (regression(X, y), GrowConfig("one_sided_min", max_depth=5)),
        "one_sided_max": (regression(X, y), GrowConfig("one_sided_max", max_depth=5)),
        # a linear target on an even grid splits every node in half, so the
        # nodes of levels 1-3 all hold 32, 16 or 8 samples: blocks of several
        # rows with no padding (see test_unpadded_levels_split_in_half)
        "unpadded_levels": (regression([np.arange(64.0), np.arange(64.0)[::-1]],
                                       np.arange(64.0)),
                            GrowConfig("minimax", max_depth=5)),
        "max_depth_0": (regression(X, y), GrowConfig("minimax", max_depth=0)),
        "max_depth_0_classification": (classification(Xc, yc),
                                       GrowConfig("entropy_sum", max_depth=0)),
    }
    return cases


CORPUS = _corpus()


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_matches_per_node_grower(name):
    data, config = CORPUS[name]
    assert_same_tree(data, config)


def test_unpadded_levels_split_in_half():
    data, config = CORPUS["unpadded_levels"]
    tree = grow(data, config)
    for depth, size in ((1, 32), (2, 16), (3, 8)):
        at = tree.depth == depth
        assert at.sum() == 64 // size
        assert (tree.count[at] == size).all()


def test_denoise_phantom_tree_matches_per_node_grower():
    clean = make_phantom(32, 32)
    base = image_to_dataset(clean)
    noisy = clean.pixels.ravel() + 0.1 * stream(11, "noise").standard_normal(base.n_samples)
    data = regression(base.features, noisy)
    for tag in ("minimax", "variance", "cyclic_minimax"):
        assert_same_tree(data, GrowConfig(tag, max_depth=10))


def _denoise_phantom(size: int, seed: int) -> Dataset:
    clean = make_phantom(size, size)
    base = image_to_dataset(clean)
    noisy = clean.pixels.ravel() + 0.1 * stream(seed, "noise").standard_normal(base.n_samples)
    return regression(base.features, noisy)


def test_denoise_forest_matches_per_node_grower():
    # the denoise study's forest:minimax:m1 method on a smaller phantom
    data = _denoise_phantom(24, 12)
    config = ForestConfig(criterion="minimax", n_trees=6, max_depth=8, m_try=1)
    got = forest_to_json(train_forest(data, config, seed=3))
    same_json(got, forest_to_json(forest_per_tree(data, config, seed=3)))


@pytest.mark.parametrize("cap", [1, 576, 1200])
def test_forest_spanning_several_groups_matches_per_tree(monkeypatch, cap):
    # 576 samples per tree: one tree per group, then exactly two, then two
    # with room left over (the last group holds one tree); each group's
    # roots sorted by the dataset's ranks (threshold 1) and by their floats
    monkeypatch.setattr(tree_module, "_GROUP_SAMPLES", cap)
    data = _denoise_phantom(24, 13)
    for config in (ForestConfig(criterion="variance", n_trees=5, max_depth=7),
                   ForestConfig(criterion="random_uniform", n_trees=5, max_depth=6, m_try=1)):
        want = forest_to_json(forest_per_tree(data, config, seed=4))
        for rank_entries in (1, math.inf):
            monkeypatch.setattr(growth_module, "_RANK_ENTRIES", rank_entries)
            same_json(forest_to_json(train_forest(data, config, seed=4)), want)


@st.composite
def grow_cases(draw):
    """Small datasets with constant, few-level (tied) and many-level
    features; targets with ties or none, or labels; every criterion, with
    all features, a fixed subset (repeats allowed) or per-node draws."""
    n = draw(st.integers(1, 48))
    d = draw(st.integers(1, 4))
    tag = draw(st.sampled_from(TAGS))
    cols = []
    for _ in range(d):
        levels = draw(st.sampled_from([1, 2, 3, 1000]))
        cols.append(draw(st.lists(st.integers(0, levels - 1), min_size=n, max_size=n)))
    X = np.asarray(cols, dtype=float) / 7.0
    if tag.startswith("entropy"):
        y = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n))
        data = classification(X, y)
    else:
        y = draw(st.one_of(
            st.lists(st.integers(-3, 3).map(float), min_size=n, max_size=n),
            st.lists(st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
                     min_size=n, max_size=n)))
        data = regression(X, y)
    policy = draw(st.sampled_from(["all", "fixed", "m_try"]))
    kwargs = {}
    if policy == "fixed":
        kwargs["fixed_features"] = tuple(draw(st.lists(st.integers(0, d - 1),
                                                       min_size=1, max_size=3)))
    elif policy == "m_try" and "cyclic" not in tag:
        kwargs["m_try"] = draw(st.integers(1, d))
    config = GrowConfig(tag, max_depth=draw(st.integers(0, 6)), n_min=draw(st.integers(1, 4)),
                        seed=draw(st.integers(0, 2 ** 32 - 1)), **kwargs)
    return data, config


@settings(max_examples=300, deadline=None)
@given(case=grow_cases())
def test_random_cases_match_per_node_grower(case):
    data, config = case
    assert_same_tree(data, config)


@st.composite
def forest_cases(draw):
    """Forests on the same kinds of small datasets: every criterion, with
    all features or an m_try subset (cyclic forests at m_try 1 or d), with
    or without bootstrap, and a group cap that puts one tree, a few or all
    of them in each group."""
    data, config = draw(grow_cases())
    d = data.n_features
    m_try = draw(st.one_of(st.none(), st.integers(1, d)))
    if config.criterion.is_cyclic and m_try is not None:
        m_try = draw(st.sampled_from([1, d]))
    forest = ForestConfig(criterion=config.criterion, n_trees=draw(st.integers(1, 6)),
                          max_depth=config.max_depth, n_min=config.n_min, m_try=m_try,
                          bootstrap=draw(st.booleans()))
    cap = draw(st.sampled_from([tree_module._GROUP_SAMPLES, 1, data.n_samples,
                                2 * data.n_samples + 1]))
    return data, forest, config.seed, cap


@settings(max_examples=200, deadline=None)
@given(case=forest_cases())
def test_random_forests_match_per_tree_grower(case):
    data, config, seed, cap = case
    want = forest_to_json(forest_per_tree(data, config, seed=seed))
    # these datasets are far below the rank threshold: force either presort
    for rank_entries in (1, math.inf):
        with mock.patch.object(tree_module, "_GROUP_SAMPLES", cap), \
                mock.patch.object(growth_module, "_RANK_ENTRIES", rank_entries):
            got = forest_to_json(train_forest(data, config, seed=seed))
        same_json(got, want)
