"""Differential test: `best_split` runs the level pass's choice step on a
frontier of one node, and must return, field for field, the decision of the
per-node split search it replaced (kept as the reference in
pernode_grower.py), and consume a random baseline's stream the same way."""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from minimaxsplit import CLASSIFICATION, REGRESSION, Dataset, SplitCriterion
from minimaxsplit.splitting import TAGS

import pernode_grower
from one_node import NodeView, best_split


@st.composite
def split_cases(draw):
    """A node of a small dataset (constant, few-level and many-level
    features; tied, untied or label targets): the whole dataset, or members
    drawn with repeats in any order, at any depth; every criterion, with all
    features or an allowed list with repeats in any order."""
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 4))
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
    data = Dataset(features=X, targets=y, task=task)
    if draw(st.booleans()):
        members = np.arange(n)
    else:
        members = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n))
    node = NodeView(data, members, depth=draw(st.integers(0, 6)))
    allowed = draw(st.one_of(st.none(), st.lists(st.integers(0, d - 1), min_size=1, max_size=5)))
    return node, SplitCriterion(tag), allowed, draw(st.integers(0, 2 ** 32 - 1))


def _three_feature_node() -> NodeView:
    X = np.random.default_rng(0).uniform(size=(3, 30))
    y = np.random.default_rng(1).normal(size=30)
    return NodeView(Dataset(features=X, targets=y, task=REGRESSION),
                    [7, 3, 3, 29, 0, 12, 7, 18, 5, 22, 14], depth=2)


@settings(max_examples=500, deadline=None)
@given(case=split_cases())
# a random baseline's feature is an index into the allowed list as given,
# order and repeats included
@example(case=(_three_feature_node(), SplitCriterion("random_observed"), [2, 0, 2], 0))
@example(case=(_three_feature_node(), SplitCriterion("random_uniform"), [2, 0, 2], 0))
def test_best_split_matches_per_node_search(case):
    node, crit, allowed, seed = case
    rng_got, rng_want = np.random.default_rng(seed), np.random.default_rng(seed)
    got = best_split(node, crit, allowed, rng=rng_got)
    want = pernode_grower.best_split(node, crit, allowed, rng=rng_want)
    # repr compares every field exactly (floats round-trip) and by type
    assert repr(got) == repr(want)
    assert rng_got.bit_generator.state == rng_want.bit_generator.state

