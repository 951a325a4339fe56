"""`growth.draw_subsets` against the per-node draw it replaces: one
`Generator.choice(d, m_try, replace=False)` per open node, node after node,
from the node's tree's stream. The subsets and every stream's final state
must match, so a forest's trees, and whatever later reads those streams,
stay the same. `tests/pernode_grower.py` keeps calling `choice`, so a numpy
release that changes `choice` also fails the grower's differential corpus.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from minimaxsplit.growth import draw_subsets


def choice_subsets(seeds, trees, d, m):
    """The subsets one `choice` call per node draws, and the streams after."""
    rngs = [np.random.default_rng(s) for s in seeds]
    allow = np.zeros((len(trees), d), dtype=bool)
    for row, b in zip(allow, trees):
        row[rngs[b].choice(d, size=m, replace=False)] = True
    return allow, rngs


def check(seeds, trees, d, m):
    want, oracle_rngs = choice_subsets(seeds, trees, d, m)
    rngs = [np.random.default_rng(s) for s in seeds]
    got = draw_subsets(rngs, np.asarray(trees, dtype=np.int64), d, m)
    assert got.dtype == bool and got.shape == (len(trees), d)
    assert np.array_equal(got, want)
    assert np.all(got.sum(axis=1) == m)
    for mine, theirs in zip(rngs, oracle_rngs):
        assert mine.bit_generator.state == theirs.bit_generator.state


@st.composite
def levels(draw):
    """A level's open nodes: 1-5 trees with 0-300 open nodes each, their
    nodes interleaved in any order."""
    d = draw(st.integers(2, 40))
    m = draw(st.integers(1, d - 1))
    counts = draw(st.lists(st.integers(0, 300), min_size=1, max_size=5))
    trees = draw(st.permutations([b for b, c in enumerate(counts) for _ in range(c)]))
    seeds = draw(st.lists(st.integers(0, 2 ** 64 - 1), min_size=len(counts),
                          max_size=len(counts)))
    return seeds, trees, d, m


@settings(max_examples=300, deadline=None)
@given(case=levels())
def test_matches_per_node_choice(case):
    check(*case)


@pytest.mark.parametrize("m", [200, 201])
def test_both_sides_of_the_tail_shuffle_threshold(m):
    """numpy's `choice` switches from Floyd's sampling to a partial shuffle
    of range(d) when d > 10 000 and m > d // 50: at d = 10 001 that is
    m = 201, not m = 200."""
    check([5, 6, 7], [0, 1, 0, 2, 2, 0, 1], 10_001, m)


def test_no_open_nodes_draws_nothing():
    check([3], [], 9, 4)
