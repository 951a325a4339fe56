"""`tree.best_splits`, the root split of many sample blocks in one level
pass, against the one-node `best_split` of `one_node.py` run block by block;
and the ecp study, which stacks each noise law's replicates into one dataset
and splits them with one `best_splits` call per method."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import minimaxsplit.experiments as experiments
import minimaxsplit.growth as growth_module
from minimaxsplit import (CLASSIFICATION, REGRESSION, ConfigError, DataError, Dataset,
                          SplitCriterion, best_splits)
from minimaxsplit.dataset import gen_synthetic
from minimaxsplit.experiments import EcpConfig, run_ecp
from minimaxsplit.rng import derive_seed, stream
from minimaxsplit.splitting import TAGS

from one_node import NodeView, best_split


def assert_block_by_block(data, crit, blocks, seeds):
    """best_splits over all blocks gives, for each, what best_split gives on
    a node of its rows at depth 0, and leaves each block's stream where
    best_split leaves it; a block with no valid split reads feature -1."""
    streams = [np.random.default_rng(s) if crit.is_random else None for s in seeds]
    got = best_splits(data, crit, blocks, streams)
    assert all(column.shape == (len(blocks),) for column in got)
    for b, (block, seed) in enumerate(zip(blocks, seeds)):
        rng = np.random.default_rng(seed) if crit.is_random else None
        want = best_split(NodeView(data, block), crit, rng=rng)
        row = (int(got.feature[b]), float(got.threshold[b]), int(got.left_count[b]),
               float(got.left_risk[b]), float(got.right_risk[b]))
        if want is None:
            assert row[0] == -1 and row[2] == 0 and all(np.isnan(row[i]) for i in (1, 3, 4))
        else:
            # repr compares the floats exactly, signed zeros too
            assert repr(row) == repr((want.feature, want.threshold, want.left_count,
                                      want.left_risk, want.right_risk))
        if rng is not None:
            assert streams[b].bit_generator.state == rng.bit_generator.state


@st.composite
def block_cases(draw):
    """A small dataset (constant, few-level and many-level features; tied,
    untied or label targets) and 1-12 sample blocks of its rows, drawn with
    repeats in any order: blocks of 1 or 2 rows, blocks of one shared size
    (which presort sorts together) and blocks of any size; every criterion,
    with a seed for each block's own stream."""
    n = draw(st.integers(1, 30))
    d = draw(st.integers(1, 3))
    tag = draw(st.sampled_from(TAGS))
    cols = []
    for _ in range(d):
        levels = draw(st.sampled_from([1, 2, 3, 1000]))
        cols.append(draw(st.lists(st.integers(0, levels - 1), min_size=n, max_size=n)))
    X = np.asarray(cols, dtype=float) / 7.0
    if tag.startswith("entropy"):
        y = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n))
        task = CLASSIFICATION
    else:
        y = draw(st.one_of(
            st.lists(st.integers(-3, 3).map(float), min_size=n, max_size=n),
            st.lists(st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
                     min_size=n, max_size=n)))
        task = REGRESSION
    shared = draw(st.integers(1, 2 * n))
    blocks = []
    for _ in range(draw(st.integers(1, 12))):
        size = draw(st.one_of(st.integers(1, 2), st.just(shared), st.integers(1, 2 * n)))
        rows = draw(st.lists(st.integers(0, n - 1), min_size=size, max_size=size))
        blocks.append(np.array(rows, dtype=np.int64))
    seeds = draw(st.lists(st.integers(0, 2 ** 32 - 1), min_size=len(blocks),
                          max_size=len(blocks)))
    return Dataset(features=X, targets=y, task=task), SplitCriterion(tag), blocks, seeds


@settings(max_examples=400, deadline=None)
@given(case=block_cases(), ranks=st.booleans(), sort_entries=st.sampled_from([1, 7, 1 << 18]))
def test_best_splits_match_best_split_per_block(case, ranks, sort_entries):
    # either presort, and equal-size blocks sorted one, a few or all per call
    with mock.patch.object(growth_module, "ranks_pay", lambda data, sizes: ranks), \
            mock.patch.object(growth_module, "_SORT_ENTRIES", sort_entries):
        assert_block_by_block(*case)


@pytest.mark.parametrize("tag", TAGS)
def test_every_criterion_on_fixed_blocks(tag):
    """Heavy ties, a constant feature, blocks of 1 and 2 rows, blocks with
    no valid split (one row repeated, two rows equal on every feature) and
    overlapping equal-size runs."""
    rng = np.random.default_rng(24)
    n = 40
    X = np.array([rng.integers(0, 3, n), np.round(rng.uniform(size=n), 1), np.zeros(n)])
    X[:, 31] = X[:, 30]
    if SplitCriterion(tag).is_entropy:
        data = Dataset(features=X, targets=np.where(rng.uniform(size=n) < 0.4, 1.0, -1.0),
                       task=CLASSIFICATION)
    else:
        data = Dataset(features=X, targets=rng.integers(-2, 3, n).astype(float),
                       task=REGRESSION)
    blocks = [np.arange(n), np.array([5]), np.array([3, 8]), np.array([7, 7, 7]),
              np.array([30, 31]), np.arange(10, 30), np.arange(20, 40), np.arange(0, 20),
              rng.integers(0, n, n)]
    assert_block_by_block(data, SplitCriterion(tag), blocks, range(len(blocks)))


def test_arguments_are_checked_as_for_grow():
    data = Dataset(features=[[0.0, 1.0, 2.0]], targets=[0.0, 1.0, 0.0], task=REGRESSION)
    with pytest.raises(ConfigError, match="requires a classification dataset"):
        best_splits(data, "entropy_sum", [np.arange(3)], [None])
    with pytest.raises(ConfigError, match="splits stream"):
        best_splits(data, "random_uniform", [np.arange(3), np.arange(2)],
                    [np.random.default_rng(0), None])
    with pytest.raises(DataError, match="index array"):
        best_splits(data, "minimax", [np.array([0, 3])], [None])


# ---------------------------------------------------------------------------
# The ecp study
# ---------------------------------------------------------------------------


def test_ecp_matches_one_split_per_replicate(tmp_path):
    """Each fraction in ecp.csv is the one a best_split of its replicate
    alone gives, with the replicate's own stream under a random rule."""
    cfg = EcpConfig(n=30, replicates=6, noise_laws=("normal", "t1"),
                    methods=("variance", "minimax", "random_uniform", "random_observed",
                             "cyclic_minimax", "one_sided_max"))
    run_ecp(cfg, seed=3, out=tmp_path)
    rows = (tmp_path / "ecp.csv").read_text(encoding="utf-8").splitlines()[1:]
    want = []
    for law in cfg.noise_laws:
        for rep in range(cfg.replicates):
            rep_seed = derive_seed(3, f"ecp/{law}/{rep}")
            node = NodeView(gen_synthetic(experiments._noise_spec(law, cfg.n), rep_seed),
                            np.arange(cfg.n))
            for m in cfg.methods:
                crit = SplitCriterion(m)
                dec = best_split(node, crit,
                                 rng=stream(rep_seed, f"split/{m}") if crit.is_random else None)
                fraction = min(dec.left_count, dec.right_count) / cfg.n
                want.append(f"{law},{m},{rep},{fraction!r}")
    assert rows == want


def constant_replicates(monkeypatch, seed, pairs):
    """The study's generator, with every feature zero for the replicates
    named by the (law, replicate) pairs: those admit no valid split."""
    bad = {derive_seed(seed, f"ecp/{law}/{rep}") for law, rep in pairs}

    def generate(spec, rep_seed):
        data = gen_synthetic(spec, rep_seed)
        if rep_seed in bad:
            return Dataset(np.zeros_like(data.features), data.targets, data.task)
        return data

    monkeypatch.setattr(experiments, "gen_synthetic", generate)


@pytest.mark.parametrize("pairs,methods,error,message", [
    # the first replicate in replicate order, not the first the batch sees
    ([("normal", 4), ("normal", 2)], ("random_uniform", "variance"), DataError,
     "replicate 2 of law 'normal' admits no valid split"),
    ([("t3", 5), ("t3", 1)], ("variance", "minimax"), DataError,
     "replicate 1 of law 't3' admits no valid split"),
    # a criterion for the wrong task fails at the first replicate, after
    # the methods before it
    ([("normal", 0)], ("minimax", "entropy_sum"), DataError,
     "replicate 0 of law 'normal' admits no valid split"),
    ([("normal", 3)], ("minimax", "entropy_sum"), ConfigError,
     "criterion 'entropy_sum' requires a classification dataset"),
])
def test_ecp_names_the_first_replicate_without_a_split(tmp_path, monkeypatch, pairs, methods,
                                                       error, message):
    constant_replicates(monkeypatch, 7, pairs)
    cfg = EcpConfig(n=20, replicates=6, noise_laws=("normal", "t3"), methods=methods)
    with pytest.raises(error) as info:
        run_ecp(cfg, seed=7, out=tmp_path)
    assert str(info.value) == message
    assert list(tmp_path.iterdir()) == []
