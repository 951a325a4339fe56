"""Study runners behind the CLI.

Every ``run_*`` function is a pure function of (config, seed): it writes
plot-ready CSV tables plus a canonical ``manifest.json`` (config echo, seed,
package version, file list, summary) into the output directory, and rerunning
with the same inputs reproduces every byte. Every study runs on the calling
thread: its replicates, methods and grid cells one after another, a forest
fit as one batch of trees (`train_forest`).
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from itertools import islice
from typing import (Dict, Iterator, List, Optional, Sequence, Tuple, Union, get_args,
                    get_origin, get_type_hints)

import numpy as np

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
    dataset_to_image,
    gen_synthetic,
    image_to_dataset,
    load_csv,
    load_feature_matrix,
    load_pgm,
    make_phantom,
    read_records,
    read_text,
    root_node,
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
from .metrics import regression_metrics, ssim
from .rng import derive_seed, stream
from .splitting import SplitCriterion
from .tree import GrowConfig, TreeModel, best_split, canonical_json, grow

try:  # version stamp for manifests; absent when running from a raw checkout
    from importlib.metadata import version as _dist_version

    VERSION = _dist_version("minimaxsplit")
except Exception:  # pragma: no cover
    VERSION = "0.0.0"


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
    path.mkdir(parents=True, exist_ok=True)
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


def _write_csv(outdir: Path, name: str, header: Sequence[str], rows) -> str:
    """Write a headered CSV, each line ended by '\\n': floats by repr, ints in
    decimal, bools as true/false, None empty, anything else by str. The bytes
    are what `csv.writer` writes for those cells. Every row has the header's
    width. Rows may come from any iterable; they are taken, formatted a
    column at a time and written a block of `_CSV_ROWS` rows at a time. A
    ragged row raises ValueError and leaves no file behind."""
    rows = iter(rows)
    path = outdir / name
    with path.open("w", encoding="utf-8", newline="") as fh:
        try:
            fh.write(_lines([header]))
            while block := list(islice(rows, _CSV_ROWS)):
                if set(map(len, block)) - {len(header)}:
                    raise ValueError(f"{name}: every row needs the header's "
                                     f"{len(header)} cells")
                fh.write(_lines(block))
        except BaseException:
            fh.close()
            path.unlink()
            raise
    return name


def _lines(rows: list) -> str:
    """The CSV lines of rows of one width, each ended by '\\n'."""
    width = len(rows[0])
    lines = list(map(",".join, zip(*map(_texts, zip(*rows))))) if width else [""] * len(rows)
    if width == 1:
        # csv.writer writes a lone empty cell as "" to tell it from no row
        lines = [line or '""' for line in lines]
    lines.append("")
    return "\n".join(lines)


def _array_rows(*columns: np.ndarray) -> Iterator[tuple]:
    """The rows of equal-length 1-D arrays, as tuples of Python scalars
    converted a block of `_CSV_ROWS` at a time."""
    for lo in range(0, len(columns[0]), _CSV_ROWS):
        yield from zip(*(c[lo:lo + _CSV_ROWS].tolist() for c in columns))


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
    (outdir / name).write_text(canonical_json(_jsonable(doc)) + "\n", encoding="utf-8")
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


_JSON_TYPE = {int: "integer", float: "number", bool: "boolean", str: "string",
              type(None): "null"}


def _fits(hint, value) -> bool:
    """Whether a parsed JSON value has a config field's declared type. As in
    `tree.config_int`, a bool is not an int; a float field also takes an
    int; a tuple field takes a list whose entries fit its entry type."""
    if get_origin(hint) is Union:
        return any(_fits(h, value) for h in get_args(hint))
    if get_origin(hint) is tuple:
        return isinstance(value, list) and all(_fits(get_args(hint)[0], v) for v in value)
    if hint is float:
        return type(value) in (int, float)
    return type(value) is hint


def _type_name(hint) -> str:
    if get_origin(hint) is Union:
        return " | ".join(map(_type_name, get_args(hint)))
    if get_origin(hint) is tuple:
        return f"list of {_type_name(get_args(hint)[0])}"
    return _JSON_TYPE[hint]


def config_from_dict(cls, payload: dict):
    """Build a config dataclass from parsed JSON, rejecting unknown keys and
    values of the wrong type, and coercing lists to the tuples the frozen
    dataclasses expect."""
    if not isinstance(payload, dict):
        raise ConfigError(f"{cls.__name__} config must be a JSON object, got {type(payload).__name__}")
    names = {f.name for f in fields(cls)}
    unknown = sorted(set(payload) - names)
    if unknown:
        raise ConfigError(f"unknown {cls.__name__} keys: {unknown} (valid: {sorted(names)})")
    hints = get_type_hints(cls)
    kwargs = {}
    for name, v in payload.items():
        if not _fits(hints[name], v):
            raise ConfigError(f"{cls.__name__}.{name}: want {_type_name(hints[name])}, "
                              f"got {v!r}")
        kwargs[name] = tuple(v) if isinstance(v, list) else v
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"bad {cls.__name__}: {exc}") from None


def _check_sigma(name: str, sigma: float) -> None:
    # JSON's NaN and Infinity parse as floats
    if not (math.isfinite(sigma) and sigma >= 0):
        raise ConfigError(f"{name} must be finite and >= 0, got {sigma!r}")


def _check_criteria(methods: Sequence[str]) -> None:
    if not methods:
        raise ConfigError("method list must be nonempty")
    for m in methods:
        SplitCriterion(m)


# ---------------------------------------------------------------------------
# End-cut preference: smaller-child proportions of single root splits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EcpConfig:
    n: int = 500
    replicates: int = 1000
    noise_laws: Tuple[str, ...] = ("normal", "t3", "t1")
    methods: Tuple[str, ...] = ("variance", "minimax", "random_uniform", "random_observed")
    threshold: float = 0.05

    def __post_init__(self):
        if self.n < 2:
            raise ConfigError("ecp needs n >= 2")
        if self.replicates < 1:
            raise ConfigError("replicate count must be >= 1")
        if not self.noise_laws:
            raise ConfigError("noise_laws must be nonempty")
        if not 0.0 < self.threshold < 0.5:
            raise ConfigError("threshold must lie in (0, 0.5)")
        _check_criteria(self.methods)
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
    across methods so comparisons are paired."""
    outdir = _outdir(out)
    rows: List[tuple] = []
    summary_rows: List[tuple] = []
    summary: Dict[str, dict] = {}
    for law in cfg.noise_laws:
        spec = _noise_spec(law, cfg.n)
        for rep in range(cfg.replicates):
            rep_seed = derive_seed(seed, f"ecp/{law}/{rep}")
            data = gen_synthetic(spec, rep_seed)
            node = root_node(data)
            for m in cfg.methods:
                crit = SplitCriterion(m)
                rng = stream(rep_seed, f"split/{m}") if crit.is_random else None
                dec = best_split(node, crit, rng=rng)
                if dec is None:
                    raise DataError(f"replicate {rep} of law {law!r} admits no valid split")
                rows.append((law, m, rep, min(dec.left_count, dec.right_count) / data.n_samples))
        for m in cfg.methods:
            vals = np.array([r[3] for r in rows if r[0] == law and r[1] == m])
            below = float(np.mean(vals < cfg.threshold))
            med = float(np.median(vals))
            summary_rows.append((law, m, below, med))
            summary[f"{law}/{m}"] = {"frac_below": below, "median_fraction": med}
    files = [
        _write_csv(outdir, "ecp.csv",
                   ("noise_law", "method", "replicate", "smaller_fraction"), rows),
        _write_csv(outdir, "ecp_summary.csv",
                   ("noise_law", "method", "frac_below", "median_fraction"), summary_rows),
    ]
    return _finish(outdir, "ecp", cfg, seed, files, summary)


# ---------------------------------------------------------------------------
# Leaf-size profiles on the three-piece signal
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LeafSizeConfig:
    n: int = 1024
    replicates: int = 20
    max_depth: int = 10
    noise_sigmas: Tuple[float, ...] = (0.01, 0.1)
    methods: Tuple[str, ...] = ("variance", "minimax", "one_sided_min", "one_sided_max")
    n_min: int = 1

    def __post_init__(self):
        if self.n < 2:
            raise ConfigError("leafsize needs n >= 2")
        if self.replicates < 1:
            raise ConfigError("replicate count must be >= 1")
        if self.max_depth < 0:
            raise ConfigError("max_depth must be >= 0")
        if not self.noise_sigmas:
            raise ConfigError("noise_sigmas must be nonempty")
        for sigma in self.noise_sigmas:
            _check_sigma("noise_sigmas entry", sigma)
        _check_criteria(self.methods)


def run_leaf_size(cfg: LeafSizeConfig, seed: int = 0, out="runs/leafsize") -> RunResult:
    """Partition-size statistics per depth for each splitting rule. Each tree
    is grown once to max_depth; depth-k rows read the tree cut at level k,
    which coincides with the depth-k tree because growth is level-greedy."""
    outdir = _outdir(out)
    detail: List[tuple] = []
    for sigma in cfg.noise_sigmas:
        for rep in range(cfg.replicates):
            data = gen_synthetic(PiecewiseSpec(n=cfg.n, noise_sigma=sigma),
                                 derive_seed(seed, f"leafsize/{sigma!r}/{rep}"))
            for m in cfg.methods:
                tree = grow(data, GrowConfig(criterion=m, max_depth=cfg.max_depth,
                                             n_min=cfg.n_min))
                for k in range(cfg.max_depth + 1):
                    counts = tree.count[tree.partition_ids(k)]
                    detail.append((sigma, m, k, rep, int(counts.size),
                                   float(np.mean(counts)), float(np.std(counts))))

    aggregate: List[tuple] = []
    summary: Dict[str, float] = {}
    for sigma in cfg.noise_sigmas:
        for m in cfg.methods:
            for k in range(cfg.max_depth + 1):
                sel = [r for r in detail if r[0] == sigma and r[1] == m and r[2] == k]
                mean_size = float(np.mean([r[5] for r in sel]))
                mean_sd = float(np.mean([r[6] for r in sel]))
                mean_cells = float(np.mean([r[4] for r in sel]))
                aggregate.append((sigma, m, k, mean_size, mean_sd, mean_cells))
                if k == cfg.max_depth:
                    summary[f"sigma={sigma}/{m}"] = mean_size
    files = [
        _write_csv(outdir, "leafsize.csv",
                   ("noise_sigma", "method", "depth", "mean_leaf_size",
                    "sd_leaf_size", "mean_n_cells"), aggregate),
        _write_csv(outdir, "leafsize_replicates.csv",
                   ("noise_sigma", "method", "depth", "replicate", "n_cells",
                    "mean_leaf_size", "sd_leaf_size"), detail),
    ]
    return _finish(outdir, "leafsize", cfg, seed, files, summary)


# ---------------------------------------------------------------------------
# Sinusoid risk traces across frequencies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SineConfig:
    n: int = 2048
    p_values: Tuple[int, ...] = (1, 2, 3, 4)
    max_depth: int = 12
    methods: Tuple[str, ...] = ("variance", "minimax")
    noise_sigma: float = 0.0
    batches: int = 1
    eval_depths: Tuple[int, ...] = ()
    n_test: int = 4096

    def __post_init__(self):
        if self.n < 2 or self.n_test < 1:
            raise ConfigError("sine needs n >= 2 and n_test >= 1")
        if self.batches < 1:
            raise ConfigError("batches must be >= 1")
        if not self.p_values:
            raise ConfigError("p_values must be nonempty")
        # the angular frequency 2*pi*2^p of the signal overflows from p = 1022 on
        if max(self.p_values) > 1021:
            raise ConfigError(f"p_values: p = {max(self.p_values)} gives no finite "
                              f"frequency 2*pi*2^p")
        if any(k < 0 or k > self.max_depth for k in self.eval_depths):
            raise ConfigError("eval_depths must lie in [0, max_depth]")
        _check_sigma("noise_sigma", self.noise_sigma)
        _check_criteria(self.methods)


def run_sine(cfg: SineConfig, seed: int = 0, out="runs/sine") -> RunResult:
    """Training risk traces per frequency 2^p. When eval_depths is set, an
    average-MSE table against the noise-free signal on a fresh design is
    emitted across batches as well."""
    outdir = _outdir(out)
    trace_rows: List[tuple] = []
    mse_rows: List[tuple] = []
    summary: Dict[str, dict] = {}
    for p in cfg.p_values:
        for b in range(cfg.batches):
            if b > 0 and not cfg.eval_depths:
                break  # later batches only feed the eval table
            data = gen_synthetic(SineSpec(n=cfg.n, p=p, noise_sigma=cfg.noise_sigma),
                                 derive_seed(seed, f"sine/{p}/{b}"))
            if cfg.eval_depths:
                x_test = stream(derive_seed(seed, f"sine/{p}/eval/{b}"), "x").uniform(
                    0.0, 1.0, cfg.n_test)
                truth = np.sin(2.0 * math.pi * (2.0 ** p) * x_test)
            for m in cfg.methods:
                tree = grow(data, GrowConfig(criterion=m, max_depth=cfg.max_depth))
                if b == 0:
                    for k, risk in enumerate(tree.risk_trace):
                        trace_rows.append((p, m, k, risk))
                    summary[f"p={p}/{m}"] = {
                        "final_trace": tree.risk_trace[-1],
                        "first_ratio": (tree.risk_trace[1] / tree.risk_trace[0]
                                        if len(tree.risk_trace) > 1 and tree.risk_trace[0] > 0
                                        else None)}
                for k in cfg.eval_depths:
                    err = truth - tree.predict(x_test[:, None], max_depth=k)
                    mse_rows.append((p, m, k, b, float(np.mean(err * err))))

    files = [_write_csv(outdir, "sine_trace.csv", ("p", "method", "depth", "risk"), trace_rows)]
    if cfg.eval_depths:
        agg = []
        for p in cfg.p_values:
            for m in cfg.methods:
                for k in cfg.eval_depths:
                    vals = [r[4] for r in mse_rows
                            if r[0] == p and r[1] == m and r[2] == k]
                    agg.append((p, m, k, float(np.mean(vals)), float(np.std(vals))))
        files.append(_write_csv(outdir, "sine_mse.csv",
                                ("p", "method", "depth", "mean_mse", "sd_mse"), agg))
    return _finish(outdir, "sine", cfg, seed, files, summary)


# ---------------------------------------------------------------------------
# Symmetric-coordinate pathology: split dimensions and the 1/12 floor
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AsbpConfig:
    n: int = 4096
    d: int = 2
    max_depth: int = 12
    n_test: int = 4096
    methods: Tuple[str, ...] = ("minimax", "cyclic_minimax")

    def __post_init__(self):
        if self.n < 2 or self.n_test < 1:
            raise ConfigError("asbp needs n >= 2 and n_test >= 1")
        if self.d < 2:
            raise ConfigError("asbp needs d >= 2")
        if self.max_depth < 0:
            raise ConfigError("max_depth must be >= 0")
        _check_criteria(self.methods)


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

    dim_rows: List[tuple] = []
    mse_rows: List[tuple] = []
    summary: Dict[str, dict] = {}
    for m in cfg.methods:
        tree = grow(train, GrowConfig(criterion=m, max_depth=cfg.max_depth))
        by_level: Dict[int, set] = {}
        for i in range(tree.n_nodes):
            if tree.left[i] >= 0:
                by_level.setdefault(int(tree.split_level[i]), set()).add(int(tree.feature[i]))
        dim_rows.extend((m, k, ";".join(str(j) for j in sorted(feats)))
                        for k, feats in sorted(by_level.items()))
        for k in range(cfg.max_depth + 1):
            err = test.targets - tree.predict(x_test, max_depth=k)
            mse_rows.append((m, k, float(np.mean(err * err))))
        summary[m] = {"final_mse": mse_rows[-1][2],
                      "all_levels_split_first_coordinate":
                          bool(by_level) and all(feats == {0} for feats in by_level.values())}

    files = [
        _write_csv(outdir, "asbp_dims.csv", ("method", "level", "features"), dim_rows),
        _write_csv(outdir, "asbp_mse.csv", ("method", "depth", "heldout_mse"), mse_rows),
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
    image: Optional[str] = None  # PGM path; None uses the builtin phantom
    height: int = 64
    width: int = 64
    noise_sigma: float = 0.1
    n_trees: int = 50
    max_depth: int = 10
    n_min: int = 1
    methods: Tuple[str, ...] = ("forest:variance", "forest:minimax", "forest:minimax:m1",
                                "tree:variance", "tree:minimax")

    def __post_init__(self):
        _check_sigma("noise_sigma", self.noise_sigma)
        if self.height < 1 or self.width < 1:
            raise ConfigError(f"need height >= 1 and width >= 1, got {self.height}, {self.width}")
        if self.n_trees < 1 or self.max_depth < 0 or self.n_min < 1:
            raise ConfigError("need n_trees >= 1, max_depth >= 0, n_min >= 1")
        if not self.methods:
            raise ConfigError("method list must be nonempty")
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

    noisy_report = replace(regression_metrics(clean.pixels.ravel(), noisy),
                           ssim=ssim(clean.pixels, noisy.reshape(h, w)))
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
                      ssim=ssim(clean.pixels, img.pixels))
        metrics[m] = rep.as_dict()

    files.append(_write_json(outdir, "metrics.json", metrics))
    files.append(_write_csv(outdir, "denoise.csv",
                            ("method", "mse", "rmse", "mae", "r2", "ssim"),
                            [(m, d["mse"], d["rmse"], d["mae"], d["r2"], d["ssim"])
                             for m, d in metrics.items()]))
    return _finish(outdir, "denoise", cfg, seed, files, metrics)


# ---------------------------------------------------------------------------
# Singular-function sanity grid
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PowellConfig:
    n_values: Tuple[int, ...] = (1000, 10000)
    d_values: Tuple[int, ...] = (4,)
    max_depth: int = 3
    n_test: int = 10000
    methods: Tuple[str, ...] = ("variance", "minimax")
    noise_sigma: float = 0.0

    def __post_init__(self):
        if not self.n_values or min(self.n_values) < 2:
            raise ConfigError("n_values must be nonempty with entries >= 2")
        if not self.d_values:
            raise ConfigError("d_values must be nonempty")
        for d in self.d_values:
            if d % 4 != 0 or d <= 0:
                raise ConfigError(f"d must be a positive multiple of 4, got {d}")
        if self.n_test < 1 or self.max_depth < 0:
            raise ConfigError("need n_test >= 1 and max_depth >= 0")
        _check_sigma("noise_sigma", self.noise_sigma)
        _check_criteria(self.methods)


def run_powell(cfg: PowellConfig, seed: int = 0, out="runs/powell") -> RunResult:
    """Test MSE over an (n, d) grid; the test draw of 10^4 points is shared
    across n for a given d so columns are comparable."""
    outdir = _outdir(out)
    rows: List[tuple] = []
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
                rows.append((n, d, m, float(np.mean(err * err))))
    summary = {f"n={n}/d={d}/{m}": mse for n, d, m, mse in rows}
    files = [_write_csv(outdir, "powell.csv", ("n", "d", "method", "mse"), rows)]
    return _finish(outdir, "powell", cfg, seed, files, summary)


# ---------------------------------------------------------------------------
# Scalar time-series regression on (time, value) records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TimeseriesConfig:
    data: Optional[str] = None  # two-column CSV (time, value); None = synthetic sine
    n_synthetic: int = 2000
    holdout: float = 0.2
    depths: Tuple[int, ...] = (2, 4, 6, 8, 10)
    methods: Tuple[str, ...] = ("variance", "minimax")
    downsample: int = 1
    standardize: bool = True

    def __post_init__(self):
        if not 0.0 < self.holdout < 1.0:
            raise ConfigError("holdout fraction must lie in (0, 1)")
        if not self.depths or min(self.depths) < 0:
            raise ConfigError("depths must be nonempty and nonnegative")
        if self.downsample < 1:
            raise ConfigError("downsample must be a positive step")
        if self.n_synthetic < 4:
            raise ConfigError("n_synthetic must be >= 4")
        _check_criteria(self.methods)


def synthetic_series(n: int, seed: int) -> Tuple[np.ndarray, np.ndarray]:
    """Default series when no file is given: a 4-cycle sine on a regular grid
    with light Gaussian noise."""
    t = np.linspace(0.0, 1.0, n)
    v = np.sin(2.0 * math.pi * 4.0 * t) + 0.1 * stream(
        derive_seed(seed, "timeseries/synthetic"), "noise").standard_normal(n)
    return t, v


def _load_series(path) -> Tuple[np.ndarray, np.ndarray, List[str]]:
    path = Path(path)
    raw = read_records(path)
    body = raw
    try:  # drop a header row if the first record does not parse
        float(raw[0][0]), float(raw[0][1])
    except (ValueError, IndexError):
        body = raw[1:]
    if not body:
        raise DataError(f"{path}: no data rows")
    warnings: List[str] = []
    times = np.empty(len(body))
    values = np.empty(len(body))
    numeric_time = True
    for i, row in enumerate(body):
        if len(row) < 2:
            raise DataError(f"{path}: row {i + 1} has fewer than two columns")
        try:
            values[i] = float(row[1])
        except ValueError:
            raise DataError(f"{path}: non-numeric value {row[1]!r} at row {i + 1}") from None
        try:
            times[i] = float(row[0])
        except ValueError:
            numeric_time = False
    if not numeric_time:
        times = np.arange(len(body), dtype=np.float64)
        warnings.append("non-numeric time column; substituted the row index")
    if not (np.all(np.isfinite(times)) and np.all(np.isfinite(values))):
        raise DataError(f"{path}: non-finite series entry")
    return times, values, warnings


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

    metric_rows: List[tuple] = []
    pred_rows: List[tuple] = []
    summary: Dict[str, dict] = {}
    for meth in cfg.methods:
        tree = grow(train, GrowConfig(criterion=meth, max_depth=max(cfg.depths)))
        for k in sorted(set(cfg.depths)):
            pred = tree.predict(t_test[:, None], max_depth=k)
            rep = regression_metrics(v_test, pred)
            metric_rows.append((meth, k, rep.rmse, rep.mae, rep.r2))
            pred_rows.extend((meth, k, float(ti), float(vi), float(pi))
                             for ti, vi, pi in zip(t_test, v_test, pred))
        final = metric_rows[-1]
        summary[meth] = {"depth": final[1], "rmse": final[2], "r2": final[4]}
    summary["n_train"] = int(train_idx.size)
    summary["n_test"] = int(test_idx.size)

    files = [
        _write_csv(outdir, "timeseries.csv", ("method", "depth", "rmse", "mae", "r2"),
                   metric_rows),
        _write_csv(outdir, "predictions.csv",
                   ("method", "depth", "time", "value", "prediction"), pred_rows),
    ]
    return _finish(outdir, "timeseries", cfg, seed, files, summary, warnings)


# ---------------------------------------------------------------------------
# Martingale decay curves on univariate laws
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MartingaleRunConfig:
    density: str = "uniform"  # uniform | ramp | power10 | path to an atom CSV
    n_atoms: int = 65536
    max_depth: int = 12
    rules: Tuple[str, ...] = RULES

    def __post_init__(self):
        if self.n_atoms < 2:
            raise ConfigError("n_atoms must be >= 2")
        if self.max_depth < 0:
            raise ConfigError("max_depth must be >= 0")
        if not self.rules:
            raise ConfigError("rule list must be nonempty")
        for r in self.rules:
            if r not in RULES:
                raise ConfigError(f"unknown rule {r!r}; valid: {RULES}")
        if self.density not in ("uniform", "ramp", "power10") and not self.density.endswith(".csv"):
            raise ConfigError(
                f"unknown density tag {self.density!r} (want uniform | ramp | power10 | *.csv)")


def _law_from_atom_csv(path) -> DiscreteLaw:
    path = Path(path)
    raw = read_records(path)
    body = raw
    try:
        float(raw[0][0])
    except ValueError:
        body = raw[1:]
    if not body:
        raise DataError(f"{path}: no atoms")
    atoms, weights = [], []
    for i, row in enumerate(body):
        try:
            atoms.append(float(row[0]))
            weights.append(float(row[1]) if len(row) > 1 else 1.0)
        except ValueError:
            raise DataError(f"{path}: non-numeric atom row {i + 1}: {row!r}") from None
    order = np.argsort(atoms, kind="stable")
    a = np.asarray(atoms)[order]
    if np.any(np.diff(a) <= 0):
        raise DataError(f"{path}: duplicate atom positions")
    try:
        return DiscreteLaw(atoms=a, weights=np.asarray(weights)[order])
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
    decay_rows = [(k, *(curves[r][k] for r in cfg.rules)) for k in range(cfg.max_depth + 1)]
    ratio_rows = [
        (k, *((curves[r][k + 1] / curves[r][k]) if curves[r][k] > 0 else None
              for r in cfg.rules))
        for k in range(cfg.max_depth)
    ]
    summary = {r: {"initial": float(curves[r][0]), "final": float(curves[r][-1])}
               for r in cfg.rules}
    files = [
        _write_csv(outdir, "decay.csv", ("depth", *cfg.rules), decay_rows),
        _write_csv(outdir, "ratio.csv", ("depth", *cfg.rules), ratio_rows),
    ]
    return _finish(outdir, "martingale", cfg, seed, files, summary)


# ---------------------------------------------------------------------------
# Model fitting / scoring on user CSVs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    data: str = ""
    target: Union[str, int] = "y"
    task: str = REGRESSION
    model: str = "tree"  # tree | forest
    criterion: str = "minimax"
    max_depth: int = 6
    n_min: int = 1
    m_try: Optional[int] = None
    n_trees: int = 50
    bootstrap: bool = True
    fixed_features: Optional[Tuple[int, ...]] = None

    def __post_init__(self):
        if not self.data:
            raise ConfigError("train config needs a 'data' CSV path")
        if self.model not in ("tree", "forest"):
            raise ConfigError(f"model must be 'tree' or 'forest', got {self.model!r}")
        SplitCriterion(self.criterion)


def run_train(cfg: TrainConfig, seed: int = 0, out="runs/train") -> RunResult:
    outdir = _outdir(out)
    data = load_csv(cfg.data, cfg.target, cfg.task)
    if cfg.model == "tree":
        model: Union[TreeModel, ForestModel] = grow(
            data, GrowConfig(criterion=cfg.criterion, max_depth=cfg.max_depth,
                             n_min=cfg.n_min, fixed_features=cfg.fixed_features,
                             m_try=cfg.m_try, seed=seed))
    else:
        if cfg.fixed_features is not None:
            raise ConfigError("fixed_features applies to single trees only")
        model = train_forest(
            data, ForestConfig(criterion=cfg.criterion, n_trees=cfg.n_trees,
                               max_depth=cfg.max_depth, n_min=cfg.n_min,
                               m_try=cfg.m_try, bootstrap=cfg.bootstrap),
            seed=seed)
    (outdir / "model.json").write_text(model_to_json(model) + "\n", encoding="utf-8")
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
    model: str = ""
    data: str = ""
    target: Optional[Union[str, int]] = None

    def __post_init__(self):
        if not self.model or not self.data:
            raise ConfigError("predict config needs 'model' and 'data' paths")


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

    files: List[str] = []
    n = int(X.shape[0])
    summary: Dict[str, object] = {"n": n, "task": model.task}
    if model.task == REGRESSION:
        pred = np.asarray(model.predict(X), dtype=np.float64)
        files.append(_write_csv(outdir, "predictions.csv", ("row", "prediction"),
                                _array_rows(np.arange(n), pred)))
        scores = None if targets is None else regression_metrics(targets, pred).as_dict()
    else:
        labels = np.asarray(model.predict(X), dtype=np.float64)
        score = (model.predict_log_odds(X) if isinstance(model, TreeModel)
                 else model.predict_value(X))
        files.append(_write_csv(outdir, "predictions.csv", ("row", "label", "log_odds"),
                                _array_rows(np.arange(n), labels.astype(np.int64),
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
