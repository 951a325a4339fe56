"""Span tracing for the benchmark's traced run.

No file under src/ changes for tracing. Instead each public function is
replaced, for the length of one traced pass, in the namespace its callers
read it from: `best_split` as the name `tree` imported, `grow` as the names
`forest` and `experiments` imported, the study runners as the entries of
`experiments.EXPERIMENTS` that `cli` dispatches through, and methods on
their classes. `restore` puts every original back, so untraced passes run
the program untouched.

A span is (id, name, start, end, parent id, thread id). Spans are kept in
memory and written out when the run ends. Counts are taken in the same
wrappers. A span's self time is its duration minus the part of it that its
children cover; worker threads started by the forest's thread pool inherit
the submitting span as their parent, so a forest's self time excludes the
trees its workers grew.
"""

from __future__ import annotations

import functools
import itertools
import threading
import zlib
from collections import Counter
from time import perf_counter
from typing import Callable, Dict, List, Optional

import numpy as np

import checkers

# Re-solving a node costs (size x candidates) per feature, so only nodes up
# to this size are sampled, and only those whose content hashes to 0 mod the
# stride, which fixes the sample whatever order threads make the calls in.
ORACLE_MAX_ROWS = 1024
BEST_SPLIT_STRIDE = 37
SPLIT_CELL_STRIDE = 401

RUNNERS = ("denoise", "train", "predict")
PGM_SPANS = ("dataset.load_pgm", "dataset.write_pgm", "dataset.make_phantom",
             "dataset.image_to_dataset", "dataset.dataset_to_image")

# (metric, unit, how, span names or count key). "total" sums the outermost
# spans of the names, "self" their self time, "calls" counts spans, "count"
# reads a counter the wrappers kept.
LAYER_METRICS = (
    ("cli.self_s", "s", "self", ("cli.main",)),
    ("experiments.self_s", "s", "self", tuple(f"experiments.run_{r}" for r in RUNNERS)),
    ("dataset.parse_s", "s", "self", ("dataset.load_csv", "dataset.load_feature_matrix")),
    ("dataset.rows_parsed", "count", "count", "dataset.rows_parsed"),
    ("dataset.build_s", "s", "total", ("dataset.Dataset",)),
    ("dataset.builds", "count", "calls", ("dataset.Dataset",)),
    ("dataset.pgm_s", "s", "self", PGM_SPANS),
    ("splitting.best_split_s", "s", "total", ("splitting.best_split",)),
    ("splitting.best_split_calls", "count", "calls", ("splitting.best_split",)),
    ("splitting.samples_scanned", "count", "count", "splitting.samples_scanned"),
    ("tree.grow_s", "s", "total", ("tree.grow",)),
    ("tree.grow_self_s", "s", "self", ("tree.grow",)),
    ("tree.nodes", "count", "count", "tree.nodes"),
    ("tree.apply_s", "s", "total", ("tree.apply",)),
    ("tree.apply_rows", "count", "count", "tree.apply_rows"),
    ("forest.train_s", "s", "total", ("forest.train_forest",)),
    ("forest.trees", "count", "count", "forest.trees"),
    ("forest.save_s", "s", "total", ("forest.model_to_json",)),
    ("forest.load_s", "s", "total", ("forest.load_model",)),
    ("martingale.law_s", "s", "total", ("martingale.law_from_density",
                                        "martingale.uniform_grid")),
    ("martingale.build_s", "s", "total", ("martingale.build_cell_tree",)),
    ("martingale.split_cell_calls", "count", "calls", ("martingale.split_cell",)),
    ("martingale.split_cell_s", "s", "total", ("martingale.split_cell",)),
    ("martingale.cell_risk_calls", "count", "calls", ("martingale.cell_risk",)),
    ("martingale.cell_risk_s", "s", "total", ("martingale.cell_risk",)),
    ("metrics.ssim_s", "s", "total", ("metrics.ssim",)),
    ("metrics.regression_s", "s", "total", ("metrics.regression_metrics",)),
)


class Tracer:
    """Records spans and counts from the wrappers it installs."""

    def __init__(self):
        self.spans: List[tuple] = []
        self.counts: Counter = Counter()
        self.sampling = False
        self.samples: Dict[str, list] = {"best_split": [], "split_cell": []}
        self.missing: List[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: List[Callable[[], None]] = []

    # -- recording --------------------------------------------------------

    def current(self) -> Optional[int]:
        stack = getattr(self._local, "stack", None)
        if stack:
            return stack[-1]
        return getattr(self._local, "inherited", None)

    def add(self, key: str, n: int) -> None:
        with self._lock:
            self.counts[key] += n

    def wrap(self, fn: Callable, name: str, after: Optional[Callable] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            local = tracer._local
            stack = local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else getattr(local, "inherited", None)
            sid = next(tracer._ids)
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans.append((sid, name, start, end, parent, threading.get_ident()))
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return traced

    # -- installing -------------------------------------------------------

    def patch(self, owner, attr: str, name: str, after: Optional[Callable] = None) -> None:
        """Replace owner.attr (a module, class or the runner registry) by a
        traced wrapper; a name the owner lacks is recorded as missing."""
        if isinstance(owner, dict):  # experiments.EXPERIMENTS: name -> (config, runner)
            cfg_cls, runner = owner[attr]
            owner[attr] = (cfg_cls, self.wrap(runner, name, after))
            self._undo.append(lambda: owner.__setitem__(attr, (cfg_cls, runner)))
            return
        original = owner.__dict__.get(attr)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        setattr(owner, attr, self.wrap(original, name, after))
        self._undo.append(lambda: setattr(owner, attr, original))

    def propagate_threads(self, module) -> None:
        """Make module.ThreadPoolExecutor hand the submitting span to its
        workers as their parent."""
        original = module.__dict__.get("ThreadPoolExecutor")
        if original is None:
            return
        tracer = self

        class SpanExecutor(original):
            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()

                def run():
                    tracer._local.inherited = parent
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        tracer._local.inherited = None

                return super().submit(run)

        module.ThreadPoolExecutor = SpanExecutor
        self._undo.append(lambda: setattr(module, "ThreadPoolExecutor", original))

    def install(self, pkg) -> None:
        exp = pkg.experiments
        self.patch(pkg.cli, "main", "cli.main")
        for runner in RUNNERS:
            if runner in exp.EXPERIMENTS:
                self.patch(exp.EXPERIMENTS, runner, f"experiments.run_{runner}")
            else:
                self.missing.append(f"experiments.EXPERIMENTS[{runner!r}]")
        self.patch(exp, "load_csv", "dataset.load_csv", _count_dataset_rows)
        self.patch(exp, "load_feature_matrix", "dataset.load_feature_matrix",
                   _count_matrix_rows)
        for span in PGM_SPANS:
            self.patch(exp, span.split(".", 1)[1], span)
        self.patch(pkg.dataset.Dataset, "__post_init__", "dataset.Dataset")
        self.patch(pkg.tree, "best_split", "splitting.best_split", _after_best_split)
        self.patch(exp, "grow", "tree.grow", _count_nodes)
        self.patch(pkg.forest, "grow", "tree.grow", _count_nodes)
        self.patch(pkg.tree.TreeModel, "apply", "tree.apply", _count_applied_rows)
        self.patch(exp, "train_forest", "forest.train_forest", _count_trees)
        self.patch(exp, "model_to_json", "forest.model_to_json")
        self.patch(exp, "load_model", "forest.load_model")
        self.patch(exp, "ssim", "metrics.ssim")
        self.patch(exp, "regression_metrics", "metrics.regression_metrics")
        mart = pkg.martingale
        self.patch(mart, "law_from_density", "martingale.law_from_density")
        self.patch(mart, "uniform_grid", "martingale.uniform_grid")
        self.patch(mart, "build_cell_tree", "martingale.build_cell_tree")
        self.patch(mart, "split_cell", "martingale.split_cell", _after_split_cell)
        self.patch(mart.DiscreteLaw, "cell_risk", "martingale.cell_risk")
        self.propagate_threads(pkg.forest)
        self.propagate_threads(exp)

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- reading ----------------------------------------------------------

    def span_calls(self) -> Counter:
        return Counter(s[1] for s in self.spans)

    def layer_metrics(self) -> Dict[str, float]:
        """Every LAYER_METRICS value over the recorded spans and counts."""
        spans = self.spans
        name_of = {s[0]: s[1] for s in spans}
        self_names = {n for _, _, how, names in LAYER_METRICS if how == "self" for n in names}
        own = {s[0] for s in spans if s[1] in self_names}
        children: Dict[int, list] = {}
        for s in spans:
            if s[4] in own:
                children.setdefault(s[4], []).append((s[2], s[3]))
        out: Dict[str, float] = {}
        for metric, _, how, names in LAYER_METRICS:
            if how == "count":
                out[metric] = int(self.counts.get(names, 0))
            elif how == "calls":
                out[metric] = sum(1 for s in spans if s[1] in names)
            elif how == "total":
                out[metric] = sum(s[3] - s[2] for s in spans
                                  if s[1] in names and name_of.get(s[4]) not in names)
            else:
                out[metric] = sum(s[3] - s[2] - _covered(s[2], s[3], children.get(s[0], ()))
                                  for s in spans if s[1] in names)
        return out


def write_spans(tracers: List[Tracer], path) -> None:
    """All spans of the given tracers as CSV: times in microseconds from the
    earliest start, parent and thread as small ids; one pass per `pass` value."""
    t0 = min((s[2] for t in tracers for s in t.spans), default=0.0)
    threads: Dict[int, int] = {}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("pass,id,name,start_us,end_us,parent,thread\n")
        for k, tracer in enumerate(tracers):
            for sid, name, start, end, parent, thread in tracer.spans:
                tid = threads.setdefault(thread, len(threads))
                fh.write(f"{k},{sid},{name},{(start - t0) * 1e6:.1f},{(end - t0) * 1e6:.1f},"
                         f"{'' if parent is None else parent},{tid}\n")


def _covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    total, reach = 0.0, start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


# ---------------------------------------------------------------------------
# Counters and samplers run after a wrapped call returns
# ---------------------------------------------------------------------------


def _count_dataset_rows(tracer, args, kwargs, result):
    tracer.add("dataset.rows_parsed", int(result.n_samples))


def _count_matrix_rows(tracer, args, kwargs, result):
    tracer.add("dataset.rows_parsed", int(np.shape(result)[0]))


def _count_nodes(tracer, args, kwargs, result):
    tracer.add("tree.nodes", int(result.n_nodes))


def _count_trees(tracer, args, kwargs, result):
    tracer.add("forest.trees", len(result.trees))


def _count_applied_rows(tracer, args, kwargs, result):
    tracer.add("tree.apply_rows", int(np.size(result)))


def _offered_features(node, criterion, allowed) -> List[int]:
    d = node.dataset.n_features
    if criterion.is_cyclic:
        return [node.depth % d]
    return list(range(d)) if allowed is None else [int(j) for j in allowed]


def _after_best_split(tracer, args, kwargs, result):
    node, criterion = args[0], args[1]
    allowed = args[2] if len(args) > 2 else kwargs.get("allowed_features")
    features = _offered_features(node, criterion, allowed)
    tracer.add("splitting.samples_scanned", node.size * len(features))
    if not tracer.sampling or node.size > ORACLE_MAX_ROWS:
        return
    if criterion.is_random or criterion.is_entropy or criterion.scan_mode not in ("sum", "max"):
        return
    key = node.member_indices[:4].tobytes() + bytes(f"{node.size}/{node.depth}", "ascii")
    if zlib.crc32(key) % BEST_SPLIT_STRIDE == 0:
        tracer.samples["best_split"].append((node, criterion.scan_mode, features, result))


def _after_split_cell(tracer, args, kwargs, result):
    law, lo, hi, rule = args[:4]
    if tracer.sampling and hi - lo <= ORACLE_MAX_ROWS and \
            zlib.crc32(f"{lo}/{hi}/{rule}/{law.n_atoms}".encode()) % SPLIT_CELL_STRIDE == 0:
        tracer.samples["split_cell"].append((law, lo, hi, rule, int(result)))


# ---------------------------------------------------------------------------
# Oracle re-solves of the sampled calls
# ---------------------------------------------------------------------------


def resolve_samples(tracer) -> Dict[str, object]:
    """Re-solve every sampled call with the brute-force oracles. A call
    agrees when it picks the oracle's split, or another candidate midpoint
    whose oracle criterion is within 1e-9 of the node's risk of the
    oracle's minimum (a tie the two float evaluations order differently)."""
    problems: List[str] = []
    near = 0
    for node, mode, features, got in tracer.samples["best_split"]:
        X = node.dataset.features[:, node.member_indices]
        y = node.targets()
        want = checkers.brute_force_split(X, y, features, mode)
        if want is None or got is None:
            if (want is None) != (got is None):
                problems.append(f"best_split size {node.size}: program {got}, oracle {want}")
            continue
        if (got.feature, got.threshold, got.left_count) == \
                (want["feature"], want["threshold"], want["left_count"]):
            continue
        tol = 1e-9 * max(checkers.two_pass_sse(y), 1e-300)
        at_got = checkers.split_criterion_at(X, y, got.feature, got.threshold, mode)
        if at_got <= want["criterion"] + tol and \
                got.threshold in checkers.candidate_thresholds(X[got.feature]):
            near += 1
        else:
            problems.append(
                f"best_split size {node.size} depth {node.depth}: program "
                f"({got.feature}, {got.threshold}) criterion {at_got!r}, oracle "
                f"({want['feature']}, {want['threshold']}) criterion {want['criterion']!r}")
    for law, lo, hi, rule, got in tracer.samples["split_cell"]:
        want = checkers.brute_force_cell_split(law.atoms, law.weights, lo, hi, rule)
        if got == want:
            continue
        if rule == "simons":
            u = law.atoms[lo:hi]
            w = law.weights[lo:hi]
            mean = float(np.dot(w, u) / np.sum(w))
            moved = law.atoms[min(got, want):max(got, want)]
            if np.all(np.abs(moved - mean) <= 1e-12 * max(abs(mean), 1.0)):
                near += 1
                continue
        else:
            scores = checkers.cell_split_scores(law.atoms, law.weights, lo, hi, rule)
            tol = 1e-9 * max(float(np.max(scores)), 1e-300)
            if scores[got - lo - 1] <= scores[want - lo - 1] + tol:
                near += 1
                continue
        problems.append(f"split_cell [{lo}, {hi}) {rule}: program {got}, oracle {want}")
    return {"best_split": len(tracer.samples["best_split"]),
            "split_cell": len(tracer.samples["split_cell"]),
            "near_ties": near, "problems": problems}
