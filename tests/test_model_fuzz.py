"""Seeded mutations of grown model documents.

The documents are trees and forests of both tasks, with and without
feature names. Each case takes one of them, walks from its root to a
random key or list entry and mutates what it finds there: drops it,
swaps its type (bool, string, null, list, object), moves an integer by
one, puts NaN, an infinity or 1e400 in place of a number, or swaps a
split node's children with each other or with another node's. Every
mutated document must either be rejected by `load_model` with DataError,
or load, save and load again to the same bytes and predict on points that
include NaN and both infinities without raising. Each case has 5 s.
"""

import json
import math
import signal
from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest

from minimaxsplit import (CLASSIFICATION, REGRESSION, DataError, Dataset, ForestConfig,
                          GrowConfig, grow, load_model, model_to_json, train_forest)

CASES_PER_BASE = 500
SECONDS_PER_CASE = 5
# json.dumps writes no 1e400, so a sentinel string stands in for it
BIG = "__1e400__"


def base_documents():
    """A tree and a forest document of each task, with and without names."""
    rng = np.random.default_rng(25)
    docs = {}
    for task in (REGRESSION, CLASSIFICATION):
        X = np.round(rng.normal(size=(3, 40)), 1)
        y = X[0] + 0.3 * rng.normal(size=40)
        y = np.where(y > 0, 1.0, -1.0) if task == CLASSIFICATION else y
        for names in (None, ("a", "b", "c")):
            data = Dataset(features=X, targets=y, task=task, feature_names=names)
            crit = "entropy_minimax" if task == CLASSIFICATION else "minimax"
            label = f"{task}-{'named' if names else 'unnamed'}"
            docs[f"tree-{label}"] = grow(data, GrowConfig(criterion=crit, max_depth=3))
            docs[f"forest-{label}"] = train_forest(
                data, ForestConfig(criterion=crit, n_trees=3, max_depth=3, m_try=2), seed=2)
    return {name: json.loads(model_to_json(model)) for name, model in docs.items()}


BASES = base_documents()


def walk(doc, rng):
    """A random (container, key) of the document: from the root, pick a key
    or an entry at random, and stop there at a scalar, at an empty
    container, or by a one-in-three chance."""
    container, key = None, None
    value = doc
    while isinstance(value, (dict, list)) and value:
        keys = list(value) if isinstance(value, dict) else list(range(len(value)))
        container, key = value, keys[rng.integers(len(keys))]
        value = container[key]
        if rng.random() < 1 / 3:
            break
    return container, key


def nodes_of(doc):
    """Every node list of the document (one per tree)."""
    if "nodes" in doc:
        return [doc["nodes"]]
    return [t["nodes"] for t in doc.get("trees", []) if isinstance(t, dict) and "nodes" in t]


def mutate(doc, rng) -> str:
    """Apply one seeded mutation to `doc` in place; returns its name."""
    kind = rng.integers(6)
    if kind == 5:  # swap children
        splits = [(nodes, i) for nodes in nodes_of(doc) for i, node in enumerate(nodes)
                  if node["left"] is not None]
        (nodes, i), (other, j) = (splits[k] for k in rng.integers(len(splits), size=2))
        a, b = (("left", "right")[k] for k in rng.integers(2, size=2))
        if nodes is other and i == j:
            a, b = "left", "right"
        nodes[i][a], other[j][b] = other[j][b], nodes[i][a]
        return "swap children"
    container, key = walk(doc, rng)
    value = container[key]
    if kind == 0:
        del container[key]
        return "drop"
    if kind == 1 or not isinstance(value, (int, float)) or isinstance(value, bool):
        container[key] = [True, "x", None, [1], {"a": 1}][rng.integers(5)]
        return "swap type"
    if isinstance(value, int) and kind in (2, 3):
        container[key] = value + (1 if kind == 2 else -1)
        return "int +-1"
    container[key] = [math.nan, math.inf, -math.inf, BIG][rng.integers(4)]
    return "not finite"


@contextmanager
def time_limit(seconds):
    def expire(signum, frame):
        raise TimeoutError(f"case took over {seconds} s")
    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def points(d: int) -> np.ndarray:
    rng = np.random.default_rng(d)
    X = rng.normal(size=(60, d))
    X[rng.random(X.shape) < 0.2] = math.nan
    X[rng.random(X.shape) < 0.1] = math.inf
    X[rng.random(X.shape) < 0.1] = -math.inf
    return X


def outcome(text: str) -> str:
    """'rejected', or 'loaded' once the model has passed the round trip and
    predicted."""
    try:
        model = load_model(text)
    except DataError:
        return "rejected"
    saved = model_to_json(model)
    again = load_model(saved)
    assert model_to_json(again) == saved
    X = points(model.n_features)
    np.testing.assert_array_equal(again.predict(X), model.predict(X))
    model.predict_value(X)
    return "loaded"


@pytest.mark.parametrize("base", sorted(BASES))
def test_mutated_documents(base):
    seen = Counter()
    for case in range(CASES_PER_BASE):
        rng = np.random.default_rng([25, case])
        doc = json.loads(json.dumps(BASES[base]))
        how = mutate(doc, rng)
        text = json.dumps(doc).replace(f'"{BIG}"', "1e400")
        with time_limit(SECONDS_PER_CASE):
            try:
                seen[outcome(text)] += 1
            except Exception as exc:
                raise AssertionError(f"{base} case {case} ({how}): {exc!r}") from exc
    # both outcomes occur, so neither check is vacuous
    assert seen["rejected"] >= CASES_PER_BASE // 20, seen
    assert seen["loaded"] >= CASES_PER_BASE // 20, seen
