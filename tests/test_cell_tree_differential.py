"""Differential tests: `build_cell_tree` splits every cell of a level in one
array pass, and must make the same partitions as the per-cell loop it
replaced (kept as the reference in percell_cell_tree.py). Levels must be
identical; the mse curves, now summed from a block two-pass reduction
instead of one `np.dot` per cell, must agree within 1e-12 relative."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from minimaxsplit import (RULES, DiscreteLaw, build_cell_tree, law_from_density,
                          power_density, ramp_density, random_density, rate_witness,
                          split_cell, uniform_grid)
from minimaxsplit.splitting import _prefix_sse

import percell_cell_tree as oracle


def assert_same_tree(law: DiscreteLaw, rule: str, depth: int) -> None:
    tree = build_cell_tree(law, rule, depth)
    levels = oracle.build_levels(law, rule, depth)
    assert tree.levels == levels
    curve = tree.mse_curve()
    np.testing.assert_allclose(curve, oracle.mse_curve(law, levels), rtol=1e-12, atol=0)
    for k, cells in enumerate(levels):
        risks = tree.risks(k)
        assert np.sum(risks) == curve[k]
        want = [oracle.cell_risk(law, lo, hi) for lo, hi in cells]
        np.testing.assert_allclose(risks, want, rtol=1e-12, atol=0)


def assert_same_cells(law: DiscreteLaw, rule: str, depth: int) -> None:
    """split_cell, a one-cell level pass, agrees with the oracle on every
    multi-atom cell the oracle's partition holds."""
    for cells in oracle.build_levels(law, rule, depth):
        for lo, hi in cells:
            if hi - lo >= 2:
                assert split_cell(law, lo, hi, rule) == oracle.split_cell(law, lo, hi, rule)


def equal(atoms) -> DiscreteLaw:
    atoms = np.asarray(atoms, dtype=float)
    return DiscreteLaw(atoms, np.ones(atoms.size))


CORPUS = {
    "three_equal_atoms": (equal([0.0, 1, 2]), 2),  # cuts 1 and 2 tie; the mean is an atom
    "atom_at_mean": (DiscreteLaw([0.0, 1, 3, 4, 7], [3.0, 1, 2, 1, 1]), 3),
    "two_atoms": (DiscreteLaw([-1.0, 2.0], [0.3, 0.7]), 3),
    "two_atom_cells": (equal(np.arange(12.0)), 4),
    "fifteen_equal_atoms": (equal(np.arange(-7.0, 8.0)), 3),  # median ties on odd cells
    "single_atom": (DiscreteLaw([0.25], [1.0]), 3),
    "depth_0": (uniform_grid(50), 0),
    "dyadic_grid": (uniform_grid(256), 9),
    "non_dyadic_grid": (uniform_grid(300), 9),
    "odd_grid": (uniform_grid(2 ** 10 + 1), 11),
    "simons_witness": (rate_witness("simons_halfrate", 0.6, 10)[0], 10),
    "median_witness": (rate_witness("median_halfrate", 0.9, 10)[0], 10),
    "skewed_weights": (DiscreteLaw(np.arange(40.0) ** 1.5, 1.1 ** np.arange(40.0)), 6),
    # two clusters whose inner spacings square to below the least float:
    # every curve inside a cluster is exactly 0, so all cuts tie and the
    # last argmin must stop at the last real boundary, not in the padding
    "underflowing_clusters": (equal(np.concatenate([np.arange(5) * 1e-165,
                                                    1e-150 + np.arange(6) * 1e-165])), 3),
}


@pytest.mark.parametrize("rule", RULES)
@pytest.mark.parametrize("name", sorted(CORPUS))
def test_fixed_corpus(name, rule):
    law, depth = CORPUS[name]
    assert_same_tree(law, rule, depth)
    assert_same_cells(law, rule, depth)


def bench_laws(seed: int = 101):
    """The five laws of the benchmark's martingale-curves workload."""
    n = 2 ** 14
    return {
        "random_density_a": law_from_density(random_density(2 * seed), n),
        "random_density_b": law_from_density(random_density(2 * seed + 1), n),
        "uniform": uniform_grid(2 ** 16),
        "ramp": law_from_density(ramp_density, n),
        "power10": law_from_density(power_density, n),
    }


@pytest.fixture(scope="module")
def benchmark_laws():
    return bench_laws()


@pytest.mark.parametrize("rule", RULES)
@pytest.mark.parametrize("name", ["random_density_a", "random_density_b", "uniform",
                                  "ramp", "power10"])
def test_benchmark_laws_depth_12(benchmark_laws, name, rule):
    law = benchmark_laws[name]
    assert_same_tree(law, rule, 12)
    assert_same_cells(law, rule, 5)


@st.composite
def laws(draw):
    """Atoms on an integer grid, scaled (ties in spacing are common), with
    equal, integer or continuous weights."""
    n = draw(st.integers(1, 60))
    ints = draw(st.lists(st.integers(-500, 500), min_size=n, max_size=n, unique=True))
    scale = draw(st.sampled_from([1.0, 0.1, 1.0 / 3.0, 1e-3, 7.5]))
    atoms = np.sort(np.asarray(ints, dtype=float)) * scale
    kind = draw(st.sampled_from(["equal", "integer", "float"]))
    if kind == "equal":
        weights = np.ones(n)
    elif kind == "integer":
        weights = np.asarray(draw(st.lists(st.integers(1, 5), min_size=n, max_size=n)),
                             dtype=float)
    else:
        weights = np.asarray(draw(st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n)))
    return DiscreteLaw(atoms, weights)


@settings(max_examples=300, deadline=None)
@given(law=laws(), rule=st.sampled_from(RULES), depth=st.integers(0, 7))
def test_random_laws(law, rule, depth):
    assert_same_tree(law, rule, depth)
    assert_same_cells(law, rule, depth)


def test_prefix_sse_unit_weights_are_bitwise_ones():
    """The unweighted prefix kernel makes the floats of the weighted one at
    unit weights, which are the oracle's floats row by row."""
    gen = np.random.default_rng(5)
    rows = np.vstack([gen.standard_normal(40), 1e8 + gen.standard_normal(40),
                      np.repeat(gen.standard_normal(8), 5), gen.integers(0, 3, 40),
                      np.full(40, 0.1), np.arange(40.0)[::-1] / 3.0])
    bits = _prefix_sse(rows).view(np.uint64)
    assert (_prefix_sse(rows, np.ones_like(rows)).view(np.uint64) == bits).all()
    for row, row_bits in zip(rows, bits):
        want = oracle._weighted_prefix_sse(row, np.ones_like(row))
        assert (want.view(np.uint64) == row_bits).all()
        assert (_prefix_sse(row).view(np.uint64) == row_bits).all()


def test_prefix_sse_weighted_is_bitwise_oracle():
    gen = np.random.default_rng(6)
    u = np.sort(gen.standard_normal((5, 30)), axis=1)
    w = gen.uniform(0.01, 1.0, (5, 30))
    got = _prefix_sse(u, w).view(np.uint64)
    for k in range(5):
        assert (oracle._weighted_prefix_sse(u[k], w[k]).view(np.uint64) == got[k]).all()
