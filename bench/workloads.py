"""The benchmark's workloads.

Each workload makes its inputs from the seed in `generate` (set-up), then
runs whole rounds of the same operations through the package's public
entry points. Every operation's output is checked by `checkers`, which
shares no code with the package. An operation fails when the program exits
nonzero, raises, or (for the one known fault kept as a counted failure)
disagrees with the header-matching walker; any other disagreement is a
correctness problem of the run.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional

import numpy as np

import checkers


class Round:
    """Times, failures and problems of one pass over a workload's operations."""

    def __init__(self):
        self.times: Dict[str, float] = {}
        self.values: Dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.problems: List[str] = []

    def op(self, key: str, call: Callable, check: Callable[[object], Optional[str]]):
        """Run one timed operation, then check its output outside the timer.
        `check` returns a reason when the operation failed and appends any
        correctness problem to `self.problems`."""
        self.attempted += 1
        start = perf_counter()
        try:
            out = call()
        except Exception as exc:  # the program's fault: count it and carry on
            out = exc
        self.times[key] = self.times.get(key, 0.0) + perf_counter() - start
        if isinstance(out, Exception):
            reason = f"raised {out!r}"
        else:
            try:
                reason = check(out)
            except (OSError, ValueError, KeyError) as exc:  # an output missing or malformed
                self.problems.append(f"{key}: unreadable output: {exc!r}")
                reason = None
        if reason is not None:
            self.failed += 1
            self.failures.append(f"{key}: {reason}")
            return None
        return out

    @property
    def pass_s(self) -> float:
        return sum(self.times.values())


def _cli(pkg, argv: List[str]) -> int:
    """cli.main looked up at call time, so a traced pass sees its wrapper;
    the program's progress lines are kept off the benchmark's output."""
    with contextlib.redirect_stdout(io.StringIO()):
        return pkg.cli.main(argv)


def _exit_status(rc) -> Optional[str]:
    return None if rc == 0 else f"exit status {rc}"


def _write_csv(path: Path, header: List[str], table: np.ndarray) -> np.ndarray:
    """Write a headered CSV with six decimals and return the values as a
    reader of the file sees them."""
    np.savetxt(path, table, fmt="%.6f", delimiter=",", header=",".join(header), comments="")
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


class Workload:
    name = ""
    # span names that must record calls in a traced pass, and span-name
    # prefixes that must record none
    expect_calls: tuple = ()
    expect_idle: tuple = ()

    def __init__(self, pkg, work: Path, seed: int, threads: int):
        self.pkg = pkg
        self.work = work
        self.seed = seed
        self.threads = threads

    def generate(self) -> None:
        """Make the inputs from the seed."""

    def run_round(self, rnd: Round) -> None:
        raise NotImplementedError

    def serial_check(self) -> List[str]:
        """Trace-only: the workload's forest fit again at one thread; returns
        the problems found in comparing it with the threaded fit."""
        return []


# ---------------------------------------------------------------------------
# denoise-forest
# ---------------------------------------------------------------------------


class DenoiseForest(Workload):
    """The denoise study on the builtin 64x64 phantom, default methods and
    noise, with the forests cut to N_TREES trees."""

    name = "denoise-forest"
    N_TREES = 4
    NOISE_SIGMA = 0.1  # the study's default
    METHODS = ("forest:variance", "forest:minimax", "forest:minimax:m1",
               "tree:variance", "tree:minimax")
    expect_calls = ("cli.main", "experiments.run_denoise", "dataset.Dataset",
                    "dataset.make_phantom", "dataset.image_to_dataset",
                    "dataset.dataset_to_image", "dataset.write_pgm",
                    "splitting.best_split", "tree.grow", "tree.apply",
                    "forest.train_forest", "metrics.ssim", "metrics.regression_metrics")
    expect_idle = ("martingale.",)

    def argv(self, out: Path, threads: int) -> List[str]:
        return ["denoise", "--seed", str(self.seed), "--out", str(out),
                "--threads", str(threads), "--config", json.dumps({"n_trees": self.N_TREES})]

    def run_round(self, rnd: Round) -> None:
        out = self.work / "denoise"
        rnd.op("denoise_s", lambda: _cli(self.pkg, self.argv(out, self.threads)),
               lambda rc: _exit_status(rc) or self.check(out, rnd))

    def check(self, out: Path, rnd: Round) -> None:
        metrics = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
        clean = checkers.read_pgm(out / "clean.pgm")
        noisy = metrics["noisy"]["mse"]
        expected = self.NOISE_SIGMA ** 2
        if not 0.8 * expected < noisy < 1.2 * expected:
            rnd.problems.append(f"noisy MSE {noisy} far from sigma^2 = {expected}")
        # both images were quantized to 1/255 steps, so each pixel error moved
        # by at most delta, and the MSE by at most delta * (2 sqrt(mse) + delta)
        delta = 1.0 / 255.0
        for method in self.METHODS:
            if method not in metrics:
                rnd.problems.append(f"metrics.json lacks {method}")
                continue
            image = checkers.read_pgm(out / f"denoised_{method.replace(':', '-')}.pgm")
            mse = float(np.mean((image - clean) ** 2))
            reported = metrics[method]["mse"]
            if abs(mse - reported) > delta * (2.0 * math.sqrt(mse) + delta):
                rnd.problems.append(f"{method}: PGM MSE {mse} vs metrics.json {reported}")
            if method.startswith("forest:") and not max(mse, reported) < noisy:
                rnd.problems.append(f"{method}: MSE {reported} does not beat noisy {noisy}")

    def serial_check(self) -> List[str]:
        """The same study at one thread; its images must match byte for byte."""
        serial = self.work / "denoise-serial"
        problems = []
        rc = _cli(self.pkg, self.argv(serial, 1))
        if rc != 0:
            return [f"serial denoise exit status {rc}"]
        for method in self.METHODS:
            name = f"denoised_{method.replace(':', '-')}.pgm"
            if (serial / name).read_bytes() != (self.work / "denoise" / name).read_bytes():
                problems.append(f"{name}: threaded and serial images differ")
        return problems


# ---------------------------------------------------------------------------
# csv-forest
# ---------------------------------------------------------------------------


class CsvForest(Workload):
    """train a minimax forest on a generated CSV, predict a larger one, and
    the permuted-column predict kept as a counted failure."""

    name = "csv-forest"
    N_TRAIN = 20_000
    N_SCORE = 100_000
    N_FEATURES = 8
    FOREST = {"model": "forest", "criterion": "minimax", "n_trees": 5, "max_depth": 8,
              "m_try": 3}
    TOY_ROWS = 500
    TOY_SEED = 1_070  # the toy inputs are fixed; they do not follow --seed
    expect_calls = ("cli.main", "experiments.run_train", "experiments.run_predict",
                    "dataset.load_csv", "dataset.Dataset", "splitting.best_split",
                    "tree.grow", "tree.apply", "forest.train_forest",
                    "forest.model_to_json", "forest.load_model",
                    "metrics.regression_metrics")
    expect_idle = ("martingale.",)

    def _table(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Seven uniform features, one ten-level feature (heavy ties), and a
        noisy additive target in the last column."""
        X = rng.uniform(size=(n, self.N_FEATURES))
        X[:, 7] = rng.integers(0, 10, size=n)
        y = (np.sin(2.0 * np.pi * X[:, 0]) + 2.0 * X[:, 1] * X[:, 2]
             + 0.5 * (X[:, 7] >= 5) + 0.3 * X[:, 3] + 0.2 * rng.standard_normal(n))
        return np.column_stack([X, y])

    def generate(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        self.features = [f"x{j}" for j in range(self.N_FEATURES)]
        header = self.features + ["y"]
        rng = np.random.default_rng([self.seed, 0xC5F])
        _write_csv(self.work / "train.csv", header, self._table(rng, self.N_TRAIN))
        self.score = _write_csv(self.work / "score.csv", header,
                                self._table(rng, self.N_SCORE))
        toy = np.random.default_rng(self.TOY_SEED)
        a, b = toy.uniform(size=(2, 2 * self.TOY_ROWS))
        y = 2.0 * a + 0.1 * toy.standard_normal(2 * self.TOY_ROWS)
        rows = slice(0, self.TOY_ROWS), slice(self.TOY_ROWS, None)
        _write_csv(self.work / "toy_train.csv", ["a", "b", "y"],
                   np.column_stack([a, b, y])[rows[0]])
        # scoring rows of the same law with the feature columns swapped
        self.toy_score = _write_csv(self.work / "toy_score_permuted.csv", ["b", "a", "y"],
                                    np.column_stack([b, a, y])[rows[1]])

    def run_round(self, rnd: Round) -> None:
        self.train(rnd, "train_s", self.work / "train.csv", self.work / "train",
                   dict(self.FOREST), self.threads)
        self.predict(rnd, "predict_s", self.work / "train", self.work / "score.csv",
                     self.features, self.features + ["y"], self.score, self.work / "predict",
                     known_fault=False)
        self.train(rnd, "toy_train_s", self.work / "toy_train.csv", self.work / "toy",
                   {"model": "tree", "criterion": "minimax", "max_depth": 4}, 1)
        self.predict(rnd, "predict_permuted_s", self.work / "toy",
                     self.work / "toy_score_permuted.csv", ["a", "b"], ["b", "a", "y"],
                     self.toy_score, self.work / "toy_predict", known_fault=True)

    def train_argv(self, data: Path, out: Path, model: dict, threads: int) -> List[str]:
        config = dict(model, data=str(data), target="y")
        return ["train", "--seed", "0", "--out", str(out), "--threads", str(threads),
                "--config", json.dumps(config)]

    def train(self, rnd: Round, key: str, data: Path, out: Path, model: dict,
              threads: int) -> None:
        def check(rc) -> Optional[str]:
            if rc != 0:
                return f"exit status {rc}"
            text = (out / "model.json").read_text(encoding="utf-8")
            if key == "train_s":
                rnd.values["model_bytes"] = len(text.encode("utf-8"))
            rnd.problems.extend(f"{key}: {p}" for p in checkers.model_problems(json.loads(text)))
            return None

        rnd.op(key, lambda: _cli(self.pkg, self.train_argv(data, out, model, threads)), check)

    def predict(self, rnd: Round, key: str, model_dir: Path, data: Path,
                train_features: List[str], header: List[str], rows: np.ndarray,
                out: Path, known_fault: bool) -> None:
        """Score `data` with the saved model. Predictions that differ from the
        walker's fail the operation when they are the known fault, and are a
        correctness problem otherwise."""
        config = {"model": str(model_dir / "model.json"), "data": str(data), "target": "y"}
        argv = ["predict", "--out", str(out), "--config", json.dumps(config)]

        def check(rc) -> Optional[str]:
            if rc != 0:
                return f"exit status {rc}"
            doc = json.loads((model_dir / "model.json").read_text(encoding="utf-8"))
            want = checkers.walk_model(doc, train_features, header, rows)
            got = np.loadtxt(out / "predictions.csv", delimiter=",", skiprows=1, ndmin=2)[:, 1]
            scores = checkers.regression_scores(rows[:, header.index("y")], want)
            reason = None
            if got.shape != want.shape:
                reason = f"{got.size} predictions for {want.size} rows"
            elif np.any(off := np.abs(got - want) > 1e-12 * np.maximum(1.0, np.abs(want))):
                wrong = checkers.regression_scores(rows[:, header.index("y")], got)["r2"]
                reason = (f"{int(np.count_nonzero(off))} of {want.size} predictions differ from "
                          f"the header-matched walker (R^2 {wrong:.3f}, walker "
                          f"{scores['r2']:.3f})")
            if reason is not None:
                if known_fault:
                    return reason
                rnd.problems.append(f"{key}: {reason}")
                return None
            reported = json.loads((out / "metrics.json").read_text(encoding="utf-8"))["mse"]
            if abs(reported - scores["mse"]) > 1e-9 * scores["mse"]:
                rnd.problems.append(f"{key}: metrics.json MSE {reported}, recomputed "
                                    f"{scores['mse']}")
            if not scores["r2"] > 0.0:
                rnd.problems.append(f"{key}: held-out R^2 {scores['r2']} <= 0")
            return None

        rnd.op(key, lambda: _cli(self.pkg, argv), check)

    def serial_check(self) -> List[str]:
        """The same forest at one thread; its model must match byte for byte."""
        out = self.work / "train-serial"
        rc = _cli(self.pkg, self.train_argv(self.work / "train.csv", out, dict(self.FOREST), 1))
        if rc != 0:
            return [f"serial train exit status {rc}"]
        same = (out / "model.json").read_bytes() == (self.work / "train" / "model.json").read_bytes()
        return [] if same else ["threaded and serial model.json differ"]


# ---------------------------------------------------------------------------
# martingale-curves
# ---------------------------------------------------------------------------


class MartingaleCurves(Workload):
    """mse_curve for all four rules at depth DEPTH on five laws."""

    name = "martingale-curves"
    RULES = ("variance", "simons", "minimax", "median")
    DEPTH = 12
    ATOMS = 2 ** 14
    GRID_ATOMS = 2 ** 16
    expect_calls = ("martingale.law_from_density", "martingale.uniform_grid",
                    "martingale.build_cell_tree", "martingale.split_cell",
                    "martingale.cell_risk")
    expect_idle = ("tree.", "forest.", "splitting.", "dataset.")

    def generate(self) -> None:
        self.laws = [("random_density", 2 * self.seed), ("random_density", 2 * self.seed + 1),
                     ("uniform", self.GRID_ATOMS), ("ramp", self.ATOMS),
                     ("power10", self.ATOMS)]

    def build(self, kind: str, arg: int):
        m = self.pkg.martingale
        if kind == "random_density":
            return m.law_from_density(m.random_density(arg), self.ATOMS)
        if kind == "uniform":
            return m.uniform_grid(arg)
        return m.law_from_density(m.ramp_density if kind == "ramp" else m.power_density, arg)

    def run_round(self, rnd: Round) -> None:
        for i, (kind, arg) in enumerate(self.laws):
            law = rnd.op(f"law {i}", lambda: self.build(kind, arg),
                         lambda law: self.check_law(kind, arg, law, rnd))
            if law is None:
                continue
            for rule in self.RULES:
                rnd.op(f"curve {i} {rule}",
                       lambda: self.pkg.martingale.mse_curve(law, rule, self.DEPTH),
                       lambda curve: self.check_curve(kind, law, rule, curve, rnd))

    def check_law(self, kind: str, arg: int, law, rnd: Round) -> None:
        if kind == "uniform":
            grid = (np.arange(arg, dtype=np.float64) + 0.5) / arg
            if not np.array_equal(law.atoms, grid):
                rnd.problems.append("uniform_grid atoms are not (i + 1/2)/n")

    def check_curve(self, kind: str, law, rule: str, curve, rnd: Round) -> None:
        c = np.asarray(curve, dtype=np.float64)
        where = f"{kind}/{rule}"
        if c.shape != (self.DEPTH + 1,):
            rnd.problems.append(f"{where}: curve shape {c.shape}")
            return
        if np.any(c[1:] > c[:-1]):
            rnd.problems.append(f"{where}: curve rises at depth {int(np.argmax(c[1:] > c[:-1])) + 1}")
        variance = checkers.law_variance(law.atoms, law.weights)
        if abs(c[0] - variance) > 1e-12 * variance:
            rnd.problems.append(f"{where}: curve[0] {c[0]!r} vs two-pass variance {variance!r}")
        if kind == "uniform":
            want = np.asarray([checkers.uniform_grid_mse(law.n_atoms, k)
                               for k in range(self.DEPTH + 1)])
            if np.any(np.abs(c - want) > 1e-9 * want):
                rnd.problems.append(f"{where}: curve departs from (4^-k - n^-2)/12")
        if law.atoms[0] >= 0.0 and law.atoms[-1] <= 1.0:  # the ceilings hold on [0, 1]
            ceiling = np.asarray([checkers.RATE_CEILINGS[rule](k)
                                  for k in range(self.DEPTH + 1)])
            if np.any(c > ceiling):
                rnd.problems.append(f"{where}: curve above the rate ceiling at depth "
                                    f"{int(np.argmax(c > ceiling))}")


WORKLOADS = {w.name: w for w in (DenoiseForest, CsvForest, MartingaleCurves)}
