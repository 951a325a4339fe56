"""Study runners behind the CLI.

Every ``run_*`` function is a pure function of (config, seed): it writes
plot-ready CSV tables plus a canonical ``manifest.json`` (config echo, seed,
package version, file list, summary) into the output directory, and rerunning
with the same inputs reproduces every byte. Every study runs on the calling
thread: its replicates, methods and grid cells one after another, a forest
fit as one batch of trees (`train_forest`). Each config declares its fields'
types and ranges in the one schema of `config`, so a runner never re-checks
them; `config_from_dict` adds only the JSON-object and unknown-key checks.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from itertools import chain
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .config import (CRITERION, NOISE, NONEMPTY, TASK, TYPED, at_least, between, check,
                     each, must, one_of, spec)
from .dataset import (
    CLASSIFICATION,
    REGRESSION,
    AsbpSpec,
    Dataset,
    PiecewiseSpec,
    PowellSpec,
    PureNoiseSpec,
    SineSpec,
    check_labels,
    check_scale,
    dataset_to_image,
    gen_synthetic,
    image_to_dataset,
    is_number,
    load_csv,
    load_feature_matrix,
    load_pgm,
    make_phantom,
    read_records,
    read_text,
    write_file,
    write_pgm,
)
from .errors import ConfigError, DataError
from .forest import ForestConfig, ForestModel, load_model, model_to_json, train_forest
from .martingale import (
    RULES,
    DiscreteLaw,
    law_from_density,
    mse_curve,
    power_density,
    ramp_density,
    uniform_grid,
)
from .metrics import _reference, regression_metrics, ssim
from .rng import derive_seed, stream
from .splitting import SplitCriterion
from .tree import GrowConfig, TreeModel, best_splits, canonical_json, grow

from . import __version__ as VERSION


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunResult:
    """Where a run wrote its artifacts and what it concluded."""

    outdir: Path
    files: Tuple[str, ...]
    summary: dict
    warnings: Tuple[str, ...] = ()


def _outdir(out) -> Path:
    path = Path(out)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file at the path or above it, or no permission
        raise ConfigError(f"{path}: cannot make output directory "
                          f"({exc.strerror or exc})") from None
    return path


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


_NEEDS_CSV = frozenset(',"\r\n')


def _quoted(text: str) -> str:
    """A text cell as `csv.writer` writes it (QUOTE_MINIMAL); only cells
    holding a comma, a quote or a line break go through `csv`."""
    if _NEEDS_CSV.isdisjoint(text):
        return text
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text])
    return buf.getvalue()[:-1]


# cell text by exact type; numpy scalars and subclasses take `_cell`
_TEXT = {
    float: repr,
    int: str,
    bool: lambda v: "true" if v else "false",
    type(None): lambda v: "",
    str: _quoted,
}


def _text(v) -> str:
    fmt = _TEXT.get(type(v))
    return _quoted(_cell(v)) if fmt is None else fmt(v)


def _texts(values) -> List[str]:
    """The cell texts of one column (or of the header): a column of one
    builtin type is formatted by a single map."""
    kinds = set(map(type, values))
    fmt = _TEXT.get(kinds.pop()) if len(kinds) == 1 else None
    return list(map(fmt or _text, values))


# rows formatted and written per block
_CSV_ROWS = 1 << 12


def _write_csv(outdir: Path, name: str, header: Sequence[str], columns: Sequence) -> str:
    """Write a headered CSV, each line ended by '\\n', from one column per
    header cell, each a numpy array or a sequence of cells: floats by repr,
    ints in decimal, bools as true/false, None empty, anything else by str.
    The bytes are what `csv.writer` writes for those cells. A block of
    `_CSV_ROWS` rows at a time is sliced from every column once and
    formatted by one `%` format: '%r' for a float64 array, '%d' for an
    integer array and '%s' of the cell texts for any other column. Columns
    of unequal length raise ValueError and leave no file behind."""
    if len(columns) != len(header):
        raise ValueError(f"{name}: {len(columns)} columns for {len(header)} header cells")
    write_file(outdir / name, _csv_blocks(name, header, columns))
    return name


def _csv_blocks(name: str, header: Sequence[str], columns: Sequence) -> Iterator[str]:
    yield _line(_texts(header))
    kinds = list(map(_conversion, columns))
    row = ",".join(kinds) + "\n"
    for lo in range(0, max(map(len, columns), default=0), _CSV_ROWS):
        block = [_cells(c[lo:lo + _CSV_ROWS], kind, len(columns) == 1)
                 for c, kind in zip(columns, kinds)]
        if len(set(map(len, block))) > 1:
            raise ValueError(f"{name}: every column needs the same number of rows")
        yield (row * len(block[0])) % tuple(chain.from_iterable(zip(*block)))


def _line(texts: List[str]) -> str:
    # csv.writer writes a lone empty cell as "" to tell it from no cell
    return (",".join(texts) if texts != [""] else '""') + "\n"


def _conversion(column) -> str:
    """The `%` conversion of a column's cells: '%r' for a float64 array,
    '%d' for an integer array, '%s' (of `_texts`) for any other column."""
    if isinstance(column, np.ndarray):
        if column.dtype == np.float64:
            return "%r"
        if column.dtype.kind in "iu":
            return "%d"
    return "%s"


def _cells(part, kind: str, lone: bool) -> list:
    """What `kind` formats of a slice of a column: its Python numbers, or
    its cell texts, an empty one as '""' when it is the only column."""
    if isinstance(part, np.ndarray):
        part = part.tolist()
    if kind != "%s":
        return part
    texts = _texts(part)
    return [t or '""' for t in texts] if lone else texts


def _product(*axes: Sequence) -> List[list]:
    """The columns of the table whose rows are `itertools.product(*axes)`:
    the first axis varies slowest."""
    sizes = [len(a) for a in axes]
    return [[v for v in a for _ in range(math.prod(sizes[k + 1:]))] * math.prod(sizes[:k])
            for k, a in enumerate(axes)]


def _jsonable(x):
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, np.ndarray):
        return [_jsonable(v) for v in x.tolist()]
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, np.integer):
        return int(x)
    if isinstance(x, (float, np.floating)):
        x = float(x)
        return x if math.isfinite(x) else None
    if isinstance(x, Path):
        return str(x)
    return x


def _write_json(outdir: Path, name: str, doc) -> str:
    """Write `doc` as one line of canonical JSON; returns the file name."""
    write_file(outdir / name, [canonical_json(_jsonable(doc)), "\n"])
    return name


def _finish(outdir: Path, experiment: str, cfg, seed: int, files: List[str],
            summary: dict, warnings: Sequence[str] = ()) -> RunResult:
    doc = {
        "experiment": experiment,
        "config": _jsonable(asdict(cfg)),
        "seed": int(seed),
        "version": VERSION,
        "files": list(files),
        "summary": _jsonable(summary),
        "warnings": list(warnings),
    }
    _write_json(outdir, "manifest.json", doc)
    return RunResult(outdir=outdir, files=tuple(files) + ("manifest.json",),
                     summary=doc["summary"], warnings=tuple(warnings))


def config_from_dict(cls, payload: dict):
    """Build a config dataclass from parsed JSON, rejecting unknown keys; the
    config's own check (`config.check`) rejects values of the wrong type or
    range."""
    if not isinstance(payload, dict):
        raise ConfigError(f"{cls.__name__} config must be a JSON object, got {type(payload).__name__}")
    names = {f.name for f in fields(cls)}
    unknown = sorted(set(payload) - names)
    if unknown:
        raise ConfigError(f"unknown {cls.__name__} keys: {unknown} (valid: {sorted(names)})")
    try:
        return cls(**payload)
    except TypeError as exc:
        raise ConfigError(f"bad {cls.__name__}: {exc}") from None


# ---------------------------------------------------------------------------
# End-cut preference: smaller-child proportions of single root splits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EcpConfig:
    n: int = spec(at_least(2), 500)
    replicates: int = spec(at_least(1), 1000)
    noise_laws: Tuple[str, ...] = spec(each(TYPED), ("normal", "t3", "t1"))
    methods: Tuple[str, ...] = spec(each(CRITERION), ("variance", "minimax", "random_uniform",
                                                      "random_observed"))
    threshold: float = spec(between(0.0, 0.5), 0.05)

    def __post_init__(self):
        check(self)
        for law in self.noise_laws:
            _noise_spec(law, self.n)


def _noise_spec(tag: str, n: int) -> PureNoiseSpec:
    t = tag.strip().lower().replace("(", "").replace(")", "")
    if t == "normal":
        return PureNoiseSpec(n=n, law="normal")
    if t.startswith("t") and len(t) > 1:
        try:
            df = float(t[1:])
        except ValueError:
            raise ConfigError(f"bad Student-t tag {tag!r} (want e.g. 't3')") from None
        if not (math.isfinite(df) and df > 0):
            raise ConfigError(f"t degrees of freedom must be finite and positive, got {df}")
        return PureNoiseSpec(n=n, law="t", df=df)
    raise ConfigError(f"unknown noise law {tag!r} (want 'normal' or 't<df>')")


def run_ecp(cfg: EcpConfig, seed: int = 0, out="runs/ecp") -> RunResult:
    """One root split per (noise law, replicate, method); records the smaller
    child's share min(n_L, n_R)/n. The same replicate dataset is shared
    across methods so comparisons are paired. A law's replicates are the
    sample blocks of one dataset, split by one `best_splits` call per method;
    under a random rule each replicate draws from its own stream."""
    outdir = _outdir(out)
    # fractions[law, replicate, method]
    fractions = np.empty((len(cfg.noise_laws), cfg.replicates, len(cfg.methods)))
    blocks = np.arange(cfg.replicates * cfg.n).reshape(cfg.replicates, cfg.n)
    for i, law in enumerate(cfg.noise_laws):
        spec = _noise_spec(law, cfg.n)
        rep_seeds = [derive_seed(seed, f"ecp/{law}/{rep}") for rep in range(cfg.replicates)]
        reps = [gen_synthetic(spec, rep_seed) for rep_seed in rep_seeds]
        data = Dataset(np.concatenate([r.features for r in reps], axis=1),
                       np.concatenate([r.targets for r in reps]), REGRESSION)
        # failed[replicate, method]: the first failure in replicate, then
        # method order is raised (a method's ConfigError at replicate 0)
        failed = np.zeros((cfg.replicates, len(cfg.methods)), dtype=bool)
        errors: Dict[int, ConfigError] = {}
        for j, m in enumerate(cfg.methods):
            crit = SplitCriterion(m)
            rngs = [stream(rep_seed, f"split/{m}") if crit.is_random else None
                    for rep_seed in rep_seeds]
            try:
                split = best_splits(data, crit, blocks, rngs)
            except ConfigError as exc:
                failed[:, j], errors[j] = True, exc
                continue
            failed[:, j] = split.feature < 0
            fractions[i, :, j] = np.minimum(split.left_count, cfg.n - split.left_count) / cfg.n
        if failed.any():
            rep, j = np.argwhere(failed)[0].tolist()
            raise errors.get(j) or DataError(
                f"replicate {rep} of law {law!r} admits no valid split")
    # one row per (law, method): its replicates
    runs = fractions.transpose(0, 2, 1).reshape(-1, cfg.replicates)
    below = [float(np.mean(r < cfg.threshold)) for r in runs]
    median = [float(np.median(r)) for r in runs]
    laws, methods = _product(cfg.noise_laws, cfg.methods)
    summary = {f"{law}/{m}": {"frac_below": b, "median_fraction": q}
               for law, m, b, q in zip(laws, methods, below, median)}
    law_col, reps, method_col = _product(cfg.noise_laws, range(cfg.replicates), cfg.methods)
    files = [
        _write_csv(outdir, "ecp.csv", ("noise_law", "method", "replicate", "smaller_fraction"),
                   (law_col, method_col, reps, fractions.ravel())),
        _write_csv(outdir, "ecp_summary.csv",
                   ("noise_law", "method", "frac_below", "median_fraction"),
                   (laws, methods, below, median)),
    ]
    return _finish(outdir, "ecp", cfg, seed, files, summary)


# ---------------------------------------------------------------------------
# Leaf-size profiles on the three-piece signal
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LeafSizeConfig:
    n: int = spec(at_least(2), 1024)
    replicates: int = spec(at_least(1), 20)
    max_depth: int = spec(at_least(0), 10)
    noise_sigmas: Tuple[float, ...] = spec(each(NOISE), (0.01, 0.1))
    methods: Tuple[str, ...] = spec(each(CRITERION), ("variance", "minimax", "one_sided_min",
                                                      "one_sided_max"))
    n_min: int = spec(at_least(1), 1)

    __post_init__ = check


def run_leaf_size(cfg: LeafSizeConfig, seed: int = 0, out="runs/leafsize") -> RunResult:
    """Partition-size statistics per depth for each splitting rule. Each tree
    is grown once to max_depth; depth-k rows read the tree cut at level k,
    which coincides with the depth-k tree because growth is level-greedy."""
    outdir = _outdir(out)
    depths = range(cfg.max_depth + 1)
    # [sigma, method, depth, replicate]: each cell's replicates are one row
    shape = (len(cfg.noise_sigmas), len(cfg.methods), len(depths), cfg.replicates)
    cells = np.empty(shape, dtype=np.int64)
    sizes, spreads = np.empty(shape), np.empty(shape)
    for s, sigma in enumerate(cfg.noise_sigmas):
        for rep in range(cfg.replicates):
            data = gen_synthetic(PiecewiseSpec(n=cfg.n, noise_sigma=sigma),
                                 derive_seed(seed, f"leafsize/{sigma!r}/{rep}"))
            for j, m in enumerate(cfg.methods):
                tree = grow(data, GrowConfig(criterion=m, max_depth=cfg.max_depth,
                                             n_min=cfg.n_min))
                for k in depths:
                    counts = tree.count[tree.partition_ids(k)]
                    cells[s, j, k, rep] = counts.size
                    sizes[s, j, k, rep] = np.mean(counts)
                    spreads[s, j, k, rep] = np.std(counts)

    mean_size, mean_sd, mean_cells = ([float(np.mean(r)) for r in a.reshape(-1, cfg.replicates)]
                                      for a in (sizes, spreads, cells))
    final = np.reshape(mean_size, shape[:3])[:, :, -1]
    summary = {f"sigma={sigma}/{m}": float(final[s, j])
               for s, sigma in enumerate(cfg.noise_sigmas) for j, m in enumerate(cfg.methods)}
    sigmas, reps, methods, levels = _product(cfg.noise_sigmas, range(cfg.replicates),
                                             cfg.methods, depths)
    by_replicate = [a.transpose(0, 3, 1, 2).ravel() for a in (cells, sizes, spreads)]
    files = [
        _write_csv(outdir, "leafsize.csv",
                   ("noise_sigma", "method", "depth", "mean_leaf_size",
                    "sd_leaf_size", "mean_n_cells"),
                   (*_product(cfg.noise_sigmas, cfg.methods, depths),
                    mean_size, mean_sd, mean_cells)),
        _write_csv(outdir, "leafsize_replicates.csv",
                   ("noise_sigma", "method", "depth", "replicate", "n_cells",
                    "mean_leaf_size", "sd_leaf_size"),
                   (sigmas, methods, levels, reps, *by_replicate)),
    ]
    return _finish(outdir, "leafsize", cfg, seed, files, summary)


# ---------------------------------------------------------------------------
# Sinusoid risk traces across frequencies
# ---------------------------------------------------------------------------


def _finite_frequency(p: int) -> Optional[str]:
    # the angular frequency 2*pi*2^p of the signal overflows from p = 1022 on
    return None if p <= 1021 else f"p = {p} gives no finite frequency 2*pi*2^p"


@dataclass(frozen=True)
class SineConfig:
    n: int = spec(at_least(2), 2048)
    p_values: Tuple[int, ...] = spec(each(_finite_frequency), (1, 2, 3, 4))
    max_depth: int = spec(at_least(0), 12)
    methods: Tuple[str, ...] = spec(each(CRITERION), ("variance", "minimax"))
    noise_sigma: float = spec(NOISE, 0.0)
    batches: int = spec(at_least(1), 1)
    eval_depths: Tuple[int, ...] = spec(TYPED, ())
    n_test: int = spec(at_least(1), 4096)

    def __post_init__(self):
        check(self)
        if any(k < 0 or k > self.max_depth for k in self.eval_depths):
            raise ConfigError("eval_depths must lie in [0, max_depth]")


def run_sine(cfg: SineConfig, seed: int = 0, out="runs/sine") -> RunResult:
    """Training risk traces per frequency 2^p. When eval_depths is set, an
    average-MSE table against the noise-free signal on a fresh design is
    emitted across batches as well."""
    outdir = _outdir(out)
    risks: List[float] = []
    # mse[p, method, depth, batch]: each cell's batches are one row
    mse = np.empty((len(cfg.p_values), len(cfg.methods), len(cfg.eval_depths), cfg.batches))
    summary: Dict[str, dict] = {}
    for i, p in enumerate(cfg.p_values):
        for b in range(cfg.batches):
            if b > 0 and not cfg.eval_depths:
                break  # later batches only feed the eval table
            data = gen_synthetic(SineSpec(n=cfg.n, p=p, noise_sigma=cfg.noise_sigma),
                                 derive_seed(seed, f"sine/{p}/{b}"))
            if cfg.eval_depths:
                x_test = stream(derive_seed(seed, f"sine/{p}/eval/{b}"), "x").uniform(
                    0.0, 1.0, cfg.n_test)
                truth = np.sin(2.0 * math.pi * (2.0 ** p) * x_test)
            for j, m in enumerate(cfg.methods):
                tree = grow(data, GrowConfig(criterion=m, max_depth=cfg.max_depth))
                if b == 0:
                    risks.extend(tree.risk_trace)  # max_depth + 1 entries
                    summary[f"p={p}/{m}"] = {
                        "final_trace": tree.risk_trace[-1],
                        "first_ratio": (tree.risk_trace[1] / tree.risk_trace[0]
                                        if len(tree.risk_trace) > 1 and tree.risk_trace[0] > 0
                                        else None)}
                for e, k in enumerate(cfg.eval_depths):
                    err = truth - tree.predict(x_test[:, None], max_depth=k)
                    mse[i, j, e, b] = np.mean(err * err)

    files = [_write_csv(outdir, "sine_trace.csv", ("p", "method", "depth", "risk"),
                        (*_product(cfg.p_values, cfg.methods, range(cfg.max_depth + 1)), risks))]
    if cfg.eval_depths:
        runs = mse.reshape(-1, cfg.batches)
        files.append(_write_csv(outdir, "sine_mse.csv",
                                ("p", "method", "depth", "mean_mse", "sd_mse"),
                                (*_product(cfg.p_values, cfg.methods, cfg.eval_depths),
                                 [float(np.mean(r)) for r in runs],
                                 [float(np.std(r)) for r in runs])))
    return _finish(outdir, "sine", cfg, seed, files, summary)


# ---------------------------------------------------------------------------
# Symmetric-coordinate pathology: split dimensions and the 1/12 floor
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AsbpConfig:
    n: int = spec(at_least(2), 4096)
    d: int = spec(at_least(2), 2)
    max_depth: int = spec(at_least(0), 12)
    n_test: int = spec(at_least(1), 4096)
    methods: Tuple[str, ...] = spec(each(CRITERION), ("minimax", "cyclic_minimax"))

    __post_init__ = check


def run_asbp(cfg: AsbpConfig, seed: int = 0, out="runs/asbp") -> RunResult:
    """Which coordinate each level splits, plus held-out MSE per depth, for
    trees on the y = x_1 + ... + x_{d-1} + |x_d| target."""
    outdir = _outdir(out)
    train = gen_synthetic(AsbpSpec(n=cfg.n, d=cfg.d), derive_seed(seed, "asbp/train"))
    test = gen_synthetic(AsbpSpec(n=cfg.n_test, d=cfg.d), derive_seed(seed, "asbp/test"))
    x_test = test.features.T
    warnings = []
    if cfg.n < 64 ** cfg.max_depth:
        warnings.append(
            f"n={cfg.n} is far below the 64^K={64 ** cfg.max_depth} sample-size guidance "
            f"for depth K={cfg.max_depth}; deep-level statistics are unreliable")

    dim_methods: List[str] = []
    levels: List[int] = []
    features: List[str] = []
    mse: List[float] = []
    summary: Dict[str, dict] = {}
    for m in cfg.methods:
        tree = grow(train, GrowConfig(criterion=m, max_depth=cfg.max_depth))
        by_level: Dict[int, set] = {}
        for i in range(tree.n_nodes):
            if tree.left[i] >= 0:
                by_level.setdefault(int(tree.split_level[i]), set()).add(int(tree.feature[i]))
        dim_methods.extend([m] * len(by_level))
        levels.extend(sorted(by_level))
        features.extend(";".join(map(str, sorted(by_level[k]))) for k in sorted(by_level))
        for k in range(cfg.max_depth + 1):
            err = test.targets - tree.predict(x_test, max_depth=k)
            mse.append(float(np.mean(err * err)))
        summary[m] = {"final_mse": mse[-1],
                      "all_levels_split_first_coordinate":
                          bool(by_level) and all(feats == {0} for feats in by_level.values())}

    files = [
        _write_csv(outdir, "asbp_dims.csv", ("method", "level", "features"),
                   (dim_methods, levels, features)),
        _write_csv(outdir, "asbp_mse.csv", ("method", "depth", "heldout_mse"),
                   (*_product(cfg.methods, range(cfg.max_depth + 1)), mse)),
    ]
    return _finish(outdir, "asbp", cfg, seed, files, summary, warnings)


# ---------------------------------------------------------------------------
# Image denoising with partition forests
# ---------------------------------------------------------------------------

_DENOISE_CRIT = {"variance": "variance", "minimax": "minimax", "cyclic": "cyclic_minimax"}


def _parse_denoise_method(m: str) -> Tuple[str, str, Optional[int]]:
    """Grammar: 'tree:<crit>' or 'forest:<crit>[:m1]' with crit one of
    variance | minimax | cyclic. Returns (kind, criterion_tag, m_try)."""
    parts = m.split(":")
    if len(parts) < 2 or parts[0] not in ("tree", "forest"):
        raise ConfigError(f"bad denoise method {m!r} (want 'tree:<crit>' or 'forest:<crit>[:m1]')")
    kind, name = parts[0], parts[1]
    if name not in _DENOISE_CRIT:
        raise ConfigError(f"bad denoise criterion {name!r} (want one of {sorted(_DENOISE_CRIT)})")
    m_try: Optional[int] = None
    if len(parts) == 3:
        if kind != "forest" or parts[2] != "m1":
            raise ConfigError(f"bad denoise method {m!r}: only 'forest:<crit>:m1' takes a suffix")
        m_try = 1
    elif len(parts) > 3:
        raise ConfigError(f"bad denoise method {m!r}")
    return kind, _DENOISE_CRIT[name], m_try


@dataclass(frozen=True)
class DenoiseConfig:
    image: Optional[str] = spec(TYPED, None)  # PGM path; None uses the builtin phantom
    height: int = spec(at_least(1), 64)
    width: int = spec(at_least(1), 64)
    noise_sigma: float = spec(NOISE, 0.1)
    n_trees: int = spec(at_least(1), 50)
    max_depth: int = spec(at_least(0), 10)
    n_min: int = spec(at_least(1), 1)
    methods: Tuple[str, ...] = spec(each(TYPED), (
        "forest:variance", "forest:minimax", "forest:minimax:m1", "tree:variance", "tree:minimax"))

    def __post_init__(self):
        check(self)
        for m in self.methods:
            _parse_denoise_method(m)


def run_denoise(cfg: DenoiseConfig, seed: int = 0, out="runs/denoise") -> RunResult:
    """Add seeded Gaussian pixel noise, fit one model per method on the noisy
    targets at the pixel-center design, and score each clamped reconstruction
    against the clean image. The 'noisy' baseline row scores the raw noisy
    targets (unclamped), i.e. exactly what the models were trained on."""
    outdir = _outdir(out)
    clean = load_pgm(cfg.image) if cfg.image else make_phantom(cfg.height, cfg.width)
    h, w = clean.height, clean.width
    base = image_to_dataset(clean)
    noise = stream(derive_seed(seed, "denoise"), "noise").standard_normal(h * w)
    noisy = clean.pixels.ravel() + cfg.noise_sigma * noise
    train = Dataset(features=base.features, targets=noisy, task=REGRESSION)
    x_pixels = base.features.T

    files: List[str] = []
    write_pgm(clean, outdir / "clean.pgm")
    files.append("clean.pgm")
    write_pgm(dataset_to_image(noisy, h, w), outdir / "noisy.pgm")
    files.append("noisy.pgm")

    # every image is scored against the clean one: its moments once
    reference = _reference(clean.pixels)
    noisy_report = replace(regression_metrics(clean.pixels.ravel(), noisy),
                           ssim=ssim(reference, noisy.reshape(h, w)))
    metrics: Dict[str, dict] = {"noisy": noisy_report.as_dict()}

    for m in cfg.methods:
        kind, tag, m_try = _parse_denoise_method(m)
        model_seed = derive_seed(seed, f"denoise/{m}")
        if kind == "tree":
            model: Union[TreeModel, ForestModel] = grow(
                train, GrowConfig(criterion=tag, max_depth=cfg.max_depth,
                                  n_min=cfg.n_min, seed=model_seed))
        else:
            model = train_forest(
                train, ForestConfig(criterion=tag, n_trees=cfg.n_trees,
                                    max_depth=cfg.max_depth, n_min=cfg.n_min, m_try=m_try),
                seed=model_seed)
        img = dataset_to_image(model.predict(x_pixels), h, w)
        name = "denoised_" + m.replace(":", "-") + ".pgm"
        write_pgm(img, outdir / name)
        files.append(name)
        rep = replace(regression_metrics(clean.pixels.ravel(), img.pixels.ravel()),
                      ssim=ssim(reference, img.pixels))
        metrics[m] = rep.as_dict()

    files.append(_write_json(outdir, "metrics.json", metrics))
    files.append(_write_csv(outdir, "denoise.csv",
                            ("method", "mse", "rmse", "mae", "r2", "ssim"),
                            (list(metrics), *([d[key] for d in metrics.values()]
                                              for key in ("mse", "rmse", "mae", "r2", "ssim")))))
    return _finish(outdir, "denoise", cfg, seed, files, metrics)


# ---------------------------------------------------------------------------
# Singular-function sanity grid
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PowellConfig:
    n_values: Tuple[int, ...] = spec(each(at_least(2)), (1000, 10000))
    d_values: Tuple[int, ...] = spec(each(must(lambda d: d > 0 and d % 4 == 0,
                                               "a positive multiple of 4")), (4,))
    max_depth: int = spec(at_least(0), 3)
    n_test: int = spec(at_least(1), 10000)
    methods: Tuple[str, ...] = spec(each(CRITERION), ("variance", "minimax"))
    noise_sigma: float = spec(NOISE, 0.0)

    __post_init__ = check


def run_powell(cfg: PowellConfig, seed: int = 0, out="runs/powell") -> RunResult:
    """Test MSE over an (n, d) grid; the test draw of 10^4 points is shared
    across n for a given d so columns are comparable."""
    outdir = _outdir(out)
    mse: List[float] = []
    for d in cfg.d_values:
        for n in cfg.n_values:
            train = gen_synthetic(PowellSpec(n=n, d=d, noise_sigma=cfg.noise_sigma),
                                  derive_seed(seed, f"powell/train/{n}/{d}"))
            test = gen_synthetic(PowellSpec(n=cfg.n_test, d=d),
                                 derive_seed(seed, f"powell/test/{d}"))
            x_test = test.features.T
            for m in cfg.methods:
                tree = grow(train, GrowConfig(criterion=m, max_depth=cfg.max_depth))
                err = test.targets - tree.predict(x_test)
                mse.append(float(np.mean(err * err)))
    ds, ns, methods = _product(cfg.d_values, cfg.n_values, cfg.methods)
    summary = {f"n={n}/d={d}/{m}": e for n, d, m, e in zip(ns, ds, methods, mse)}
    files = [_write_csv(outdir, "powell.csv", ("n", "d", "method", "mse"), (ns, ds, methods, mse))]
    return _finish(outdir, "powell", cfg, seed, files, summary)


# ---------------------------------------------------------------------------
# Scalar time-series regression on (time, value) records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TimeseriesConfig:
    data: Optional[str] = spec(TYPED, None)  # two-column CSV (time, value); None = synthetic sine
    n_synthetic: int = spec(at_least(4), 2000)
    holdout: float = spec(between(0.0, 1.0), 0.2)
    depths: Tuple[int, ...] = spec(each(at_least(0)), (2, 4, 6, 8, 10))
    methods: Tuple[str, ...] = spec(each(CRITERION), ("variance", "minimax"))
    downsample: int = spec(at_least(1), 1)
    standardize: bool = spec(TYPED, True)

    __post_init__ = check


def synthetic_series(n: int, seed: int) -> Tuple[np.ndarray, np.ndarray]:
    """Default series when no file is given: a 4-cycle sine on a regular grid
    with light Gaussian noise."""
    t = np.linspace(0.0, 1.0, n)
    v = np.sin(2.0 * math.pi * 4.0 * t) + 0.1 * stream(
        derive_seed(seed, "timeseries/synthetic"), "noise").standard_normal(n)
    return t, v


def _load_series(path) -> Tuple[np.ndarray, np.ndarray, List[str]]:
    path = Path(path)
    records = read_records(path, key=1)  # a header names the value column
    short = next((line for line, cells in records if len(cells) < 2), None)
    if short is not None:
        raise DataError(f"{path}: line {short} has fewer than two cells")
    values, warnings = _numbers(path, records, 1, "value"), []
    if all(is_number(cells[0]) for _, cells in records):
        times = _numbers(path, records, 0, "time")
    else:
        times = np.arange(len(records), dtype=np.float64)
        warnings.append("non-numeric time column; substituted the row index")
    if not (np.all(np.isfinite(times)) and np.all(np.isfinite(values))):
        raise DataError(f"{path}: non-finite series entry")
    return times, values, warnings


def _numbers(path, records: List[Tuple[int, List[str]]], j: int, what: str) -> np.ndarray:
    """Cell j of each (line, cells) record of `read_records` as a float, 1.0
    where a record has none; DataError naming the line of the first that is
    not a number to `is_number`, the rule of train and predict."""
    cells = [(line, row[j] if j < len(row) else "1") for line, row in records]
    bad = next(((line, cell) for line, cell in cells if not is_number(cell)), None)
    if bad:
        raise DataError(f"{path}: line {bad[0]}: non-numeric {what} {bad[1]!r}")
    return np.array([float(cell) for _, cell in cells])


def run_timeseries(cfg: TimeseriesConfig, seed: int = 0, out="runs/timeseries") -> RunResult:
    """Regress value on time with one tree per method; a single seeded random
    holdout (and the train-set standardization it induces) is reused for
    every method and depth, so all rows are directly comparable."""
    outdir = _outdir(out)
    warnings: List[str] = []
    if cfg.data is None:
        t, v = synthetic_series(cfg.n_synthetic, seed)
    else:
        t, v, warnings = _load_series(cfg.data)
        order = np.argsort(t, kind="stable")
        t, v = t[order], v[order]
    if cfg.downsample > 1:
        t, v = t[::cfg.downsample], v[::cfg.downsample]
    m = t.size
    n_test = int(round(cfg.holdout * m))
    if n_test < 1 or n_test >= m:
        raise ConfigError(f"holdout {cfg.holdout} leaves no usable split of {m} records")
    perm = stream(derive_seed(seed, "timeseries"), "holdout").permutation(m)
    test_idx = np.sort(perm[:n_test])
    train_idx = np.sort(perm[n_test:])
    if cfg.standardize:
        mu = float(np.mean(v[train_idx]))
        sd = float(np.std(v[train_idx]))
        if sd == 0.0:
            sd = 1.0
            warnings.append("constant training values; standardization only centers")
        v = (v - mu) / sd
    train = Dataset(features=t[train_idx][None, :], targets=v[train_idx], task=REGRESSION)
    t_test, v_test = t[test_idx], v[test_idx]

    depths = sorted(set(cfg.depths))
    reports = []
    preds: List[np.ndarray] = []
    summary: Dict[str, dict] = {}
    for meth in cfg.methods:
        tree = grow(train, GrowConfig(criterion=meth, max_depth=max(cfg.depths)))
        for k in depths:
            preds.append(tree.predict(t_test[:, None], max_depth=k))
            reports.append(regression_metrics(v_test, preds[-1]))
        summary[meth] = {"depth": depths[-1], "rmse": reports[-1].rmse, "r2": reports[-1].r2}
    summary["n_train"] = int(train_idx.size)
    summary["n_test"] = int(test_idx.size)

    fits = len(preds)
    files = [
        _write_csv(outdir, "timeseries.csv", ("method", "depth", "rmse", "mae", "r2"),
                   (*_product(cfg.methods, depths),
                    *([getattr(r, key) for r in reports] for key in ("rmse", "mae", "r2")))),
        _write_csv(outdir, "predictions.csv",
                   ("method", "depth", "time", "value", "prediction"),
                   (*_product(cfg.methods, depths, range(t_test.size))[:2], np.tile(t_test, fits),
                    np.tile(v_test, fits), np.concatenate(preds))),
    ]
    return _finish(outdir, "timeseries", cfg, seed, files, summary, warnings)


# ---------------------------------------------------------------------------
# Martingale decay curves on univariate laws
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MartingaleRunConfig:
    density: str = spec(must(lambda d: d in ("uniform", "ramp", "power10") or d.endswith(".csv"),
                             "a density tag (uniform | ramp | power10 | *.csv)"), "uniform")
    n_atoms: int = spec(at_least(2), 65536)
    max_depth: int = spec(at_least(0), 12)
    rules: Tuple[str, ...] = spec(each(one_of(*RULES)), RULES)

    __post_init__ = check


def _law_from_atom_csv(path) -> DiscreteLaw:
    path = Path(path)
    records = read_records(path, key=0)  # a header names the atom column
    atoms, weights = _numbers(path, records, 0, "atom"), _numbers(path, records, 1, "weight")
    order = np.argsort(atoms, kind="stable")
    a = atoms[order]
    if np.any(np.diff(a) <= 0):
        raise DataError(f"{path}: duplicate atom positions")
    try:
        return DiscreteLaw(atoms=a, weights=weights[order])
    except ConfigError as exc:  # a bad value in the file, not in the config
        raise DataError(f"{path}: {exc}") from None


def run_martingale(cfg: MartingaleRunConfig, seed: int = 0,
                   out="runs/martingale") -> RunResult:
    """Approximation-error decay and consecutive-ratio curves for each
    interval-splitting rule on one univariate law."""
    outdir = _outdir(out)
    if cfg.density == "uniform":
        law = uniform_grid(cfg.n_atoms)
    elif cfg.density == "ramp":
        law = law_from_density(ramp_density, cfg.n_atoms)
    elif cfg.density == "power10":
        law = law_from_density(power_density, cfg.n_atoms)
    else:
        law = _law_from_atom_csv(cfg.density)

    curves = {r: mse_curve(law, r, cfg.max_depth) for r in cfg.rules}
    ratios = {r: [c[k + 1] / c[k] if c[k] > 0 else None for k in range(cfg.max_depth)]
              for r, c in curves.items()}
    summary = {r: {"initial": float(curves[r][0]), "final": float(curves[r][-1])}
               for r in cfg.rules}
    files = [
        _write_csv(outdir, "decay.csv", ("depth", *cfg.rules),
                   (range(cfg.max_depth + 1), *(curves[r] for r in cfg.rules))),
        _write_csv(outdir, "ratio.csv", ("depth", *cfg.rules),
                   (range(cfg.max_depth), *(ratios[r] for r in cfg.rules))),
    ]
    return _finish(outdir, "martingale", cfg, seed, files, summary)


# ---------------------------------------------------------------------------
# Model fitting / scoring on user CSVs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    data: str = spec(NONEMPTY, "")
    target: Union[str, int] = spec(TYPED, "y")
    task: str = spec(TASK, REGRESSION)
    model: str = spec(one_of("tree", "forest"), "tree")
    criterion: str = spec(CRITERION, "minimax")
    max_depth: int = spec(at_least(0), 6)
    n_min: int = spec(at_least(1), 1)
    m_try: Optional[int] = spec(at_least(1), None)
    n_trees: int = spec(at_least(1), 50)
    bootstrap: bool = spec(TYPED, True)
    fixed_features: Optional[Tuple[int, ...]] = spec(each(at_least(0)), None)

    def __post_init__(self):
        check(self)
        if self.fixed_features is not None and self.model == "forest":
            raise ConfigError("fixed_features applies to single trees only")
        if self.fixed_features is not None and self.m_try is not None:
            raise ConfigError("fixed_features and m_try are mutually exclusive")


def run_train(cfg: TrainConfig, seed: int = 0, out="runs/train") -> RunResult:
    outdir = _outdir(out)
    data = load_csv(cfg.data, cfg.target, cfg.task)
    if data.task == REGRESSION:
        check_scale(cfg.data, data.targets, data.n_samples)
    if cfg.model == "tree":
        model: Union[TreeModel, ForestModel] = grow(
            data, GrowConfig(criterion=cfg.criterion, max_depth=cfg.max_depth,
                             n_min=cfg.n_min, fixed_features=cfg.fixed_features,
                             m_try=cfg.m_try, seed=seed))
    else:
        model = train_forest(
            data, ForestConfig(criterion=cfg.criterion, n_trees=cfg.n_trees,
                               max_depth=cfg.max_depth, n_min=cfg.n_min,
                               m_try=cfg.m_try, bootstrap=cfg.bootstrap),
            seed=seed)
    write_file(outdir / "model.json", [model_to_json(model), "\n"])
    x_train = data.features.T
    if data.task == REGRESSION:
        fit = regression_metrics(data.targets, model.predict(x_train)).as_dict()
    else:
        fit = {"error_rate": float(np.mean(model.predict(x_train) != data.targets))}
    _write_json(outdir, "metrics.json", fit)
    summary = {"n": data.n_samples, "d": data.n_features, "task": data.task,
               "model": cfg.model, "fit": fit}
    return _finish(outdir, "train", cfg, seed, ["model.json", "metrics.json"], summary)


@dataclass(frozen=True)
class PredictConfig:
    model: str = spec(NONEMPTY, "")
    data: str = spec(NONEMPTY, "")
    target: Optional[Union[str, int]] = spec(TYPED, None)

    __post_init__ = check


def run_predict(cfg: PredictConfig, seed: int = 0, out="runs/predict") -> RunResult:
    outdir = _outdir(out)
    model = load_model(read_text(cfg.model))
    # a model that knows its training columns' names takes them by name
    table = load_feature_matrix(cfg.data, model.feature_names, cfg.target)
    if cfg.target is None:
        X, targets = table, None
    else:
        X, targets = table[:, :-1], table[:, -1]
        if model.task == CLASSIFICATION:
            check_labels(cfg.data, targets)
    # only a model without names can meet a file of another width
    if X.shape[1] != model.n_features:
        raise DataError(f"{cfg.data}: the model takes {model.n_features} features, "
                        f"the file has {X.shape[1]}")

    files: List[str] = []
    n = int(X.shape[0])
    summary: Dict[str, object] = {"n": n, "task": model.task}
    if model.task == REGRESSION:
        pred = np.asarray(model.predict(X), dtype=np.float64)
        files.append(_write_csv(outdir, "predictions.csv", ("row", "prediction"),
                                (np.arange(n), pred)))
        scores = None if targets is None else regression_metrics(targets, pred).as_dict()
    else:
        # one descent per tree: a tree's cell gives its label and log-odds,
        # a forest's label is the sign of its mean log-odds, as in `predict`
        if isinstance(model, TreeModel):
            cell = model.apply(X)
            labels = np.where(model.value[cell] >= 0.5, 1.0, -1.0)
            score = model.log_odds[cell]
        else:
            score = model.predict_value(X)
            labels = np.where(score >= 0.0, 1.0, -1.0)
        files.append(_write_csv(outdir, "predictions.csv", ("row", "label", "log_odds"),
                                (np.arange(n), labels.astype(np.int64),
                                 np.asarray(score, dtype=np.float64))))
        scores = None if targets is None else {"error_rate": float(np.mean(labels != targets))}
    if scores is not None:
        files.append(_write_json(outdir, "metrics.json", scores))
        summary["metrics"] = scores
    return _finish(outdir, "predict", cfg, seed, files, summary)


# ---------------------------------------------------------------------------
# Registry used by the CLI
# ---------------------------------------------------------------------------

EXPERIMENTS = {
    "ecp": (EcpConfig, run_ecp),
    "leafsize": (LeafSizeConfig, run_leaf_size),
    "sine": (SineConfig, run_sine),
    "asbp": (AsbpConfig, run_asbp),
    "denoise": (DenoiseConfig, run_denoise),
    "powell": (PowellConfig, run_powell),
    "timeseries": (TimeseriesConfig, run_timeseries),
    "martingale": (MartingaleRunConfig, run_martingale),
    "train": (TrainConfig, run_train),
    "predict": (PredictConfig, run_predict),
}
