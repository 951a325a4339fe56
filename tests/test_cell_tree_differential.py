"""Differential tests: `build_cell_tree` splits every cell of a level in one
array pass, and must make the same partitions as the per-cell loop it
replaced (kept as the reference in percell_cell_tree.py). Levels must be
identical; the mse curves, now summed from a block two-pass reduction
instead of one `np.dot` per cell, must agree within 1e-12 relative.

Against the first array level pass (`percell_cell_tree.level_pass_tree`,
which made both child curves of every cell afresh and took each simons
mean with `np.dot`) the levels and the risks must agree bit for bit."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from minimaxsplit import (RULES, DiscreteLaw, build_cell_tree, law_from_density, mse_curve,
                          power_density, ramp_density, random_density, rate_witness,
                          split_cell, uniform_grid)
from minimaxsplit import martingale
from minimaxsplit.errors import ConfigError
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


def assert_bitwise_level_pass(law: DiscreteLaw, rule: str, depth: int) -> None:
    """Levels equal, and level risks and the mse curve equal bit for bit
    (NaN and inf included), to the first array level pass."""
    levels, level_risks = oracle.level_pass_tree(law, rule, depth)
    tree = build_cell_tree(law, rule, depth)
    assert tree.levels == levels
    for got, want in zip(tree.level_risks, level_risks, strict=True):
        assert (got.view(np.uint64) == want.view(np.uint64)).all()
    curve = mse_curve(law, rule, depth)
    assert (curve.view(np.uint64) == tree.mse_curve().view(np.uint64)).all()


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


def unchecked_law(atoms, weights) -> DiscreteLaw:
    """A law normalized as `DiscreteLaw` normalizes it, but past its checks,
    so a weight that normalizes to 0 is kept."""
    law = object.__new__(DiscreteLaw)
    atoms = np.ascontiguousarray(np.asarray(atoms, dtype=np.float64))
    weights = np.ascontiguousarray(np.asarray(weights, dtype=np.float64))
    object.__setattr__(law, "atoms", atoms)
    object.__setattr__(law, "weights", weights / float(np.sum(weights)))
    return law


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


# weights that normalize to exactly 0: half the least subnormal rounds to
# zero. `DiscreteLaw` rejects them; built past that check, such an atom
# turns a cell's forward prefix curve NaN, and the level pass must still
# match the oracle bit for bit
ZERO_WEIGHT = {
    "weight_underflows_to_zero": (np.arange(10.0), np.r_[1.0, 5e-324, np.ones(8)]),
    # ... and the right child [2, 5) starts at that atom, so its forward
    # curve is NaN past its first entry and the last argmin lands on the NaN
    "zero_weight_starts_a_cell": ([0.0, 1, 10, 11, 12], [1.0, 1, 5e-324, 1, 1]),
}


# laws whose curves or risks underflow, overflow or turn NaN, which the
# per-cell oracle's one-`np.dot` risks do not reproduce bit for bit
EXTREME = {
    # every difference squares past the largest float: curves and risks inf
    "atoms_near_1e300": (equal(np.arange(1.0, 40.0) * 1e300), 6),
    "skewed_near_1e300": (DiscreteLaw(1e300 + np.arange(20.0) * 1e286,
                                      1.0 + np.arange(20.0) % 3), 5),
    # every difference squares below the least float: all cuts tie
    "subnormal_atoms": (equal(np.arange(1.0, 40.0) * 5e-324), 6),
    "subnormal_skewed": (DiscreteLaw(np.arange(1.0, 30.0) ** 2 * 5e-324,
                                     1.0 + np.arange(29.0) % 4), 5),
    "weight_underflows_to_zero": (unchecked_law(*ZERO_WEIGHT["weight_underflows_to_zero"]), 4),
    "zero_weight_starts_a_cell": (unchecked_law(*ZERO_WEIGHT["zero_weight_starts_a_cell"]), 3),
    # atom differences overflow
    "spread_past_max_float": (equal(np.linspace(-1.7, 1.7, 9) * 1e308), 4),
}

# laws whose cuts or cell means sit exactly on atoms or ties
BITWISE = {
    **CORPUS,
    **EXTREME,
    "non_dyadic_grid_1000": (uniform_grid(1000), 10),
    "non_dyadic_grid_3": (uniform_grid(3), 3),
    # odd equal-weight cells: each one's mean is its middle atom
    "odd_equal_cells": (equal(np.arange(3.0 ** 5)), 6),
    "integer_atoms": (DiscreteLaw(np.arange(-30.0, 31.0) ** 3, 1.0 + np.arange(61.0) % 5), 7),
    # single-atom cells from the first level on
    "single_atom_cells": (equal([0.0, 1, 2, 100, 101, 102, 1e4]), 5),
}


@pytest.mark.parametrize("rule", RULES)
@pytest.mark.parametrize("name", sorted(CORPUS))
def test_fixed_corpus(name, rule):
    law, depth = CORPUS[name]
    assert_same_tree(law, rule, depth)
    assert_same_cells(law, rule, depth)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("rule", RULES)
@pytest.mark.parametrize("name", sorted(BITWISE))
def test_fixed_corpus_bitwise(name, rule):
    law, depth = BITWISE[name]
    assert_bitwise_level_pass(law, rule, depth)


@pytest.mark.parametrize("name", sorted(ZERO_WEIGHT))
def test_weight_normalizing_to_zero_is_rejected(name):
    atoms, weights = ZERO_WEIGHT[name]
    with pytest.raises(ConfigError, match="positive once normalized"):
        DiscreteLaw(atoms, weights)


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
    assert_bitwise_level_pass(law, rule, 12)


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


@st.composite
def edge_laws(draw):
    """Non-dyadic uniform grids, and atoms on an integer grid scaled to
    lie near 1e300 or among the subnormals."""
    kind = draw(st.sampled_from(["grid", "huge", "subnormal"]))
    if kind == "grid":
        return uniform_grid(draw(st.integers(1, 400)))
    n = draw(st.integers(1, 60))
    ints = np.sort(draw(st.lists(st.integers(1, 1000), min_size=n, max_size=n, unique=True)))
    atoms = 1e300 + ints * 1e286 if kind == "huge" else ints * 5e-324
    weights = draw(st.sampled_from([np.ones(n), 1.0 + ints % 3]))
    return DiscreteLaw(atoms, weights)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(law=st.one_of(laws(), edge_laws()), rule=st.sampled_from(RULES),
       depth=st.integers(0, 9))
def test_random_laws_bitwise(law, rule, depth):
    assert_bitwise_level_pass(law, rule, depth)


def test_mean_on_an_atom_is_ambiguous():
    atoms = np.array([0.0, 1.0, 2.0, 3.0])
    mean = np.array([1.0, 0.5, 1.0 + 2.0 ** -52, 2.5, np.nan, np.inf])
    slack = np.array([1e-300, 1e-3, 1e-15, 0.49, 1e-3, 1e-3])
    assert martingale._mean_cuts(atoms, mean, slack).tolist() == [-1, 1, -1, 3, -1, -1]


def test_certified_simons_cuts_follow_the_exact_mean(monkeypatch):
    """Where the filter settles a cut, the exact rational mean has that
    many atoms below it. Subnormal atoms two units apart make products that
    round by up to half a unit each, so the block mean often misses the
    exact one by more than an atom gap."""
    settled = []
    mean_cuts = martingale._mean_cuts

    def spy(atoms, mean, slack):
        cuts = mean_cuts(atoms, mean, slack)
        settled.append(int(cuts[0]))
        return cuts

    monkeypatch.setattr(martingale, "_mean_cuts", spy)
    gen = np.random.default_rng(11)
    for trial in range(400):
        m = int(gen.integers(2, 12))
        if trial % 2:
            atoms = np.sort(gen.choice(np.arange(1000, 1100, 2), m, replace=False)) * 5e-324
        else:
            atoms = np.unique(gen.normal(size=m))
        law = DiscreteLaw(atoms, gen.integers(1, 5, atoms.size).astype(float))
        split_cell(law, 0, law.n_atoms, "simons")
        exact = (sum(Fraction(a) * Fraction(w) for a, w in zip(law.atoms, law.weights))
                 / sum(map(Fraction, law.weights)))
        if settled[-1] >= 0:
            assert settled[-1] == sum(Fraction(a) < exact for a in law.atoms)
    assert 0 < sum(c >= 0 for c in settled) < len(settled)


def test_every_cell_down_the_fallback_gives_the_same_cuts(monkeypatch):
    """The filter sends an odd equal-weight cell, whose mean is its middle
    atom, to the one-cell mean; with an infinite slack it sends every cell
    there, and no cut changes."""
    calls = []
    cell_mean = DiscreteLaw.cell_mean

    def counted(law, lo, hi):
        calls.append((lo, hi))
        return cell_mean(law, lo, hi)

    monkeypatch.setattr(DiscreteLaw, "cell_mean", counted)
    slack = martingale._MEAN_SLACK
    laws = [equal(np.arange(27.0)), uniform_grid(1000), *bench_laws(7).values(),
            rate_witness("simons_halfrate", 0.6, 10)[0]]
    for law in laws:
        calls.clear()
        tree = build_cell_tree(law, "simons", 10)
        filtered = len(calls)
        if law.n_atoms == 27:
            assert calls[0] == (0, 27)
        monkeypatch.setattr(martingale, "_MEAN_SLACK", np.inf)
        calls.clear()
        assert build_cell_tree(law, "simons", 10).levels == tree.levels
        splits = sum(hi - lo >= 2 for cells in tree.levels[:-1] for lo, hi in cells)
        assert len(calls) == splits > filtered
        monkeypatch.setattr(martingale, "_MEAN_SLACK", slack)


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
