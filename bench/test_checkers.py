"""Hand-made cases for the benchmark's checkers (run: python3 -m pytest bench)."""

import json
import math

import numpy as np
import pytest

import checkers as C


def test_two_pass_sse_duplicates():
    assert C.two_pass_sse([2.0, 2.0, 2.0]) == 0.0
    assert C.two_pass_sse([1.0, 1.0, 3.0, 3.0]) == 4.0
    assert C.two_pass_sse([]) == 0.0


def test_split_on_a_step():
    X = np.array([[1.0, 2.0, 3.0, 4.0]])
    y = np.array([0.0, 0.0, 5.0, 5.0])
    for mode in ("sum", "max"):
        got = C.brute_force_split(X, y, [0], mode)
        assert got == {"feature": 0, "threshold": 2.5, "criterion": 0.0, "left_count": 2}


def test_candidate_thresholds_are_midpoints_of_distinct_values():
    got = C.candidate_thresholds(np.array([3.0, 1.0, 1.0, 2.0, 3.0]))
    assert np.array_equal(got, np.array([1.5, 2.5]))
    assert C.candidate_thresholds(np.array([4.0, 4.0])).size == 0


def test_duplicate_values_never_separate():
    # x has two distinct values, so 1.5 is the only candidate, and the tied
    # rows at x = 1 stay together although their targets differ
    X = np.array([[1.0, 1.0, 2.0, 2.0]])
    y = np.array([0.0, 4.0, 0.0, 4.0])
    got = C.brute_force_split(X, y, [0], "sum")
    assert got["threshold"] == 1.5 and got["left_count"] == 2
    assert got["criterion"] == 16.0


def test_tied_thresholds_take_the_smallest():
    # symmetric targets: cutting after row 1 or after row 3 gives the same
    # minimax value; the smaller threshold wins
    X = np.array([[0.0, 1.0, 2.0, 3.0, 4.0]])
    y = np.array([0.0, 0.0, 1.0, 0.0, 0.0])
    mx = C.brute_force_split(X, y, [0], "max")
    crit = [C.split_criterion_at(X, y, 0, t, "max") for t in (0.5, 1.5, 2.5, 3.5)]
    assert crit[1] == crit[2] == min(crit)
    assert mx["threshold"] == 1.5


def test_tied_features_take_the_smallest_index():
    X = np.array([[3.0, 2.0, 1.0, 0.0],   # feature 0 and 2 give the same split
                  [0.0, 0.0, 0.0, 0.0],   # constant: offers nothing
                  [0.0, 1.0, 2.0, 3.0]])
    y = np.array([1.0, 1.0, 0.0, 0.0])
    got = C.brute_force_split(X, y, [2, 1, 0], "sum")
    assert got["feature"] == 0 and got["threshold"] == 1.5
    assert C.brute_force_split(X, y, [1], "sum") is None


def test_sum_and_max_can_disagree():
    X = np.array([[0.0, 1.0, 2.0, 3.0, 4.0]])
    y = np.array([0.0, 0.0, 1.0, 3.0, 0.0])
    s = C.brute_force_split(X, y, [0], "sum")
    m = C.brute_force_split(X, y, [0], "max")
    assert s["threshold"] == 1.5 and s["criterion"] == pytest.approx(14.0 / 3.0)
    assert m["threshold"] == 2.5 and m["criterion"] == 4.5


def test_law_variance_two_atoms_and_unnormalized_weights():
    assert C.law_variance([0.0, 1.0], [0.5, 0.5]) == 0.25
    assert C.law_variance([0.0, 1.0], [2.0, 2.0]) == 0.25
    assert C.law_variance([0.0, 1.0, 2.0], [1.0, 2.0, 1.0]) == 0.5


def test_uniform_grid_closed_form_against_direct_cells():
    n = 16
    atoms = (np.arange(n) + 0.5) / n
    for k in range(5):
        m = n >> k
        direct = sum(C.law_variance(atoms[c * m:(c + 1) * m], np.ones(m)) * m / n
                     for c in range(1 << k))
        assert C.uniform_grid_mse(n, k) == pytest.approx(direct, rel=1e-12, abs=1e-15)
    assert C.uniform_grid_mse(n, 4) == 0.0


def test_rate_ceilings_restated():
    assert C.RATE_CEILINGS["variance"](3) == pytest.approx(2.71 / 4)
    assert C.RATE_CEILINGS["minimax"](0) == 0.4
    assert C.RATE_CEILINGS["simons"](1) == 1.0
    assert C.RATE_CEILINGS["median"](2) == 0.25


def test_cell_split_ties_take_the_largest_boundary():
    atoms = np.arange(5, dtype=np.float64)
    weights = np.ones(5)  # unnormalized, so every score below is exact
    # odd cell: boundaries 2 and 3 tie for every scanned rule
    for rule in ("variance", "minimax", "median"):
        scores = C.cell_split_scores(atoms, weights, 0, 5, rule)
        assert scores[1] == scores[2] == scores.min()
        assert C.brute_force_cell_split(atoms, weights, 0, 5, rule) == 3
    # even cell: a unique middle
    for rule in ("variance", "minimax", "median", "simons"):
        assert C.brute_force_cell_split(atoms, weights, 0, 4, rule) == 2


def test_simons_atom_at_the_mean_goes_right():
    atoms = np.array([0.0, 1.0, 2.0])
    weights = np.array([1.0, 1.0, 1.0])
    assert C.brute_force_cell_split(atoms, weights, 0, 3, "simons") == 1
    # heavy right atom pulls the mean past the middle atom
    assert C.brute_force_cell_split(atoms, np.array([1.0, 1.0, 10.0]), 0, 3, "simons") == 2
    # both children stay nonempty even when the mean sits on the first atom
    assert C.brute_force_cell_split(atoms, np.array([1e9, 1.0, 1.0]), 0, 3, "simons") == 1


TREE = {
    "format": "tree-v1", "task": "regression", "n_features": 2,
    "risk_trace": [2.0, 1.0, 1.0],
    "nodes": [
        {"count": 4, "value": 0.5, "feature": 1, "threshold": 0.5, "left": 1, "right": 2},
        {"count": 2, "value": -1.0, "feature": None, "threshold": None, "left": None,
         "right": None},
        {"count": 2, "value": 2.0, "feature": None, "threshold": None, "left": None,
         "right": None},
    ],
}


def test_walker_matches_columns_by_name():
    # the model splits on its feature 1, which the training CSV called "b"
    rows_ab = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    rows_ba = rows_ab[:, ::-1]
    expect = np.array([-1.0, 2.0, -1.0, 2.0])
    assert np.array_equal(C.walk_model(TREE, ["a", "b"], ["a", "b"], rows_ab), expect)
    assert np.array_equal(C.walk_model(TREE, ["a", "b"], [" b", "a"], rows_ba), expect)
    # extra columns (a target) are ignored; a tie at the threshold goes right
    rows = np.array([[9.0, 0.5, 0.0]])
    assert C.walk_model(TREE, ["a", "b"], ["y", "b", "a"], rows)[0] == 2.0
    with pytest.raises(ValueError):
        C.walk_model(TREE, ["a", "b"], ["a", "c"], rows_ab)


def test_walker_averages_forest_trees():
    other = json.loads(json.dumps(TREE))
    other["nodes"][1]["value"] = 3.0
    forest = {"format": "forest-v1", "trees": [TREE, other]}
    got = C.walk_model(forest, ["a", "b"], ["a", "b"], np.array([[0.0, 0.0], [0.0, 1.0]]))
    assert np.array_equal(got, np.array([1.0, 2.0]))


def test_model_problems():
    assert C.model_problems(TREE) == []
    bad = json.loads(json.dumps(TREE))
    bad["nodes"][2]["count"] = 3
    bad["risk_trace"] = [2.0, 1.0, 1.5]
    assert len(C.model_problems(bad)) == 2


def test_regression_scores():
    got = C.regression_scores([0.0, 2.0], [0.0, 1.0])
    assert got["mse"] == 0.5 and got["r2"] == 0.5
    assert math.isclose(C.regression_scores([1.0, 3.0], [1.0, 3.0])["r2"], 1.0)


def test_read_pgm(tmp_path):
    path = tmp_path / "x.pgm"
    path.write_text("P2\n2 1\n255\n0 255\n", encoding="ascii")
    assert np.array_equal(C.read_pgm(path), np.array([[0.0, 1.0]]))
