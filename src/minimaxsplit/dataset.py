"""Data representation and ingestion.

Owns the immutable `Dataset` (column-major features + targets), the
`ImageGrid` used by the denoising pipeline, the synthetic data generators
used throughout the experiments, and the package's file boundary: the CSV
and PGM loaders, `read_text` and `read_records`, whose failures to read a
file all pass through one error ladder (`_unreadable`: missing, not UTF-8,
cannot read), and the one output writer (`write_file`).
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import ConfigError, DataError
from .rng import stream, student_t

REGRESSION = "regression"
CLASSIFICATION = "classification"
_TASKS = (REGRESSION, CLASSIFICATION)


# ---------------------------------------------------------------------------
# Core types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Dataset:
    """Immutable sample matrix.

    features is column-major: ``features[j, i]`` is feature j of sample i.
    Tree growth (`growth.presort`) sorts each tree's own sample by every
    feature; for a large group of trees it first ranks the dataset's
    features (`growth.dense_ranks`) and drops the ranks once the roots are
    sorted, so a dataset holds no sort order of its own.
    feature_names, when known (a CSV header), names feature j; models grown
    on the dataset record them so scoring files can be matched by name.
    """

    features: np.ndarray  # shape (d, n)
    targets: np.ndarray  # shape (n,)
    task: str
    feature_names: Optional[Tuple[str, ...]] = None

    def __post_init__(self):
        feats = np.ascontiguousarray(np.atleast_2d(np.asarray(self.features, dtype=np.float64)))
        targ = np.asarray(self.targets, dtype=np.float64).ravel()
        if self.task not in _TASKS:
            raise ConfigError(f"unknown task {self.task!r}")
        if feats.ndim != 2:
            raise DataError("features must be a 2-D (d, n) matrix")
        d, n = feats.shape
        if n < 1:
            raise DataError("dataset needs at least one sample")
        if d < 1:
            raise DataError("dataset needs at least one feature")
        if targ.shape[0] != n:
            raise DataError(f"targets length {targ.shape[0]} != n_samples {n}")
        if not np.all(np.isfinite(feats)) or not np.all(np.isfinite(targ)):
            raise DataError("features and targets must be finite")
        if self.task == CLASSIFICATION and not np.all(np.isin(targ, (-1.0, 1.0))):
            raise DataError("classification targets must be exactly -1 or +1")
        if self.feature_names is not None:
            object.__setattr__(self, "feature_names", check_feature_names(self.feature_names, d))
        # flags go on views, so a caller's own array stays writeable
        feats, targ = feats.view(), targ.view()
        feats.setflags(write=False)
        targ.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "targets", targ)

    @property
    def n_samples(self) -> int:
        return self.features.shape[1]

    @property
    def n_features(self) -> int:
        return self.features.shape[0]

    @classmethod
    def from_rows(cls, X, y, task: str = REGRESSION) -> "Dataset":
        """Build from a row-major (n, d) matrix, the usual estimator layout."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        return cls(features=X.T, targets=y, task=task)

    def subset(self, indices) -> "Dataset":
        """New Dataset from the given sample rows (duplicates allowed): a
        non-empty 1-D array of integers in [0, n_samples)."""
        idx = index_array(indices, self.n_samples, "subset indices")
        return Dataset(features=self.features[:, idx], targets=self.targets[idx], task=self.task,
                       feature_names=self.feature_names)


def index_array(indices, n: int, what: str) -> np.ndarray:
    """`indices` as an array; DataError unless it is a non-empty 1-D array
    of integers in [0, n). A float or bool would otherwise be cast to some
    other row, and a negative index would count from the end."""
    idx = np.asarray(indices)
    if not (idx.ndim == 1 and idx.size and idx.dtype.kind in "iu" and 0 <= idx.min()
            and idx.max() < n):
        raise DataError(f"{what} must be a non-empty 1-D index array in [0, {n})")
    return idx


def is_int(value) -> bool:
    """Whether `value` is a Python or numpy integer and not a bool. A float
    or a string would otherwise be truncated or parsed to some integer, and a
    bool would read as 0 or 1."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class ImageGrid:
    """H x W grayscale intensities in [0, 1]."""

    pixels: np.ndarray

    def __post_init__(self):
        px = np.atleast_2d(np.asarray(self.pixels, dtype=np.float64))
        if px.ndim != 2 or px.size < 1:
            raise DataError("image must be a non-empty 2-D grid")
        if not np.all(np.isfinite(px)) or px.min() < 0.0 or px.max() > 1.0:
            raise DataError("pixel intensities must lie in [0, 1]")
        px.setflags(write=False)
        object.__setattr__(self, "pixels", px)

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------


def check_feature_names(names, d: int) -> Tuple[str, ...]:
    """The names as a tuple; DataError unless they are d distinct non-empty
    strings."""
    if not isinstance(names, (list, tuple)):
        raise DataError(f"feature names must be a list, got {type(names).__name__}")
    names = tuple(names)
    if (len(names) != d or not all(isinstance(s, str) and s for s in names)
            or len(set(names)) != d):
        raise DataError(f"feature names must be {d} distinct non-empty strings, got {list(names)!r}")
    return names


def check_labels(path, targets: np.ndarray) -> None:
    """Reject classification targets other than -1 and +1."""
    bad = ~np.isin(targets, (-1.0, 1.0))
    if bad.any():
        raise DataError(f"{path}: classification target outside {{-1,+1}}: {targets[bad][0]}")


def check_scale(path, targets: np.ndarray, n: int) -> None:
    """DataError naming `path` unless all regression targets lie within
    sqrt(largest float) / 2n of zero, n the most rows one sum takes: then
    every sum of n squared targets or deviations, and the square of every
    sum of n targets, stays finite, so no node risk, risk trace entry or fit
    metric reads inf (or NaN as 0)."""
    limit = math.sqrt(np.finfo(np.float64).max) / (2 * n)
    largest = float(np.max(np.abs(targets)))
    if largest > limit:
        raise DataError(f"{path}: a target of magnitude {largest:g} is past {limit:.4g}, "
                        f"the largest whose squared sums over {n} rows stay finite")


def load_csv(path, target_column, task: str = REGRESSION) -> Dataset:
    """Load a headered CSV into a Dataset.

    target_column may be a header name or a 0-based column index. Every other
    column becomes a feature, in file order, named by its stripped header
    cell when those names are distinct and non-empty. Row order is preserved
    as sample order. The file follows the grammar of `_read_csv`.
    """
    names, table = _read_csv(path, target=target_column)
    targets = table[:, -1]
    if task == CLASSIFICATION:
        check_labels(path, targets)
    usable = all(names) and len(set(names)) == len(names)
    return Dataset(features=table[:, :-1].T, targets=targets, task=task,
                   feature_names=names if usable else None)


def load_feature_matrix(path, columns: Optional[Sequence] = None,
                        target=None) -> np.ndarray:
    """Load a headered CSV as a row-major (n, k) float matrix.

    columns names the columns to return, in order, each a header name or a
    0-based index; None takes every column but `target`, in file order. With
    `target` (a name or an index) set, its column is appended last, so the
    result has k + 1 columns; a target that is one of `columns` raises
    ConfigError naming it. Every cell of the file must be a finite number,
    selected or not. The file follows the grammar of `_read_csv`.
    """
    return _read_csv(path, columns, target)[1]


# characters read per block; each block's data rows are one `np.loadtxt` call
_CSV_CHARS = 1 << 20


def _read_csv(path, columns: Optional[Sequence] = None,
              target=None) -> Tuple[Tuple[str, ...], np.ndarray]:
    """The one CSV reader: returns the stripped names of the feature columns
    and the (n, k) matrix of them, with the target column last when a target
    is given (see `load_feature_matrix`).

    Lines end at '\\n', '\\r\\n' or '\\r', as `csv.reader` splits them.
    Empty lines are skipped, and so is a comment line: one whose first cell,
    left-stripped, starts with '#'. The first remaining line is the header,
    split by `csv`; every later line is a data row, with '"' quoting as in
    `csv`. A quoted cell must close on its own line. Cells are read as
    `float` reads them, except that digit separators ('1_000') and non-ASCII
    digits are not numbers.

    The file is read a block of lines (about `_CSV_CHARS` characters) at a
    time, and one `np.loadtxt` call parses each block's data rows, so memory
    stays near the size of the table. A block that holds no '#' and no empty
    line has no line to skip, so it is parsed without a test of each line.
    Errors name the 1-based line of the file; to find the bad cell, only
    the rows numpy's message points at are split again. A fault in the rows or the header is held until every line
    has been decoded and checked for a run-on quote, so those faults are
    reported first wherever they are, and non-finite values only after every
    row has parsed.
    """
    path = Path(path)
    names: Optional[List[str]] = None
    parts: List[np.ndarray] = []
    finite = True
    fault: Optional[DataError] = None
    first = 0  # 0-based index of the block's first line in the file
    for block in _blocks(path):
        lines = block.split("\n")
        ended = block.endswith("\n")
        if ended:
            lines.pop()
        if '"' in block:
            _check_quotes(path, lines, first, ended)
        if fault is None:
            try:
                if "#" in block or "" in lines:
                    body = [k for k, s in enumerate(lines) if s and s.lstrip()[:1] != "#"
                            and (s[0] != '"' or not _cells(path, s)[0].lstrip().startswith("#"))]
                else:  # no comment and no empty line: every line is kept
                    body = range(len(lines))
                if names is None and body:
                    names = [h.strip() for h in _cells(path, lines[body[0]])]
                    body = body[1:]
                    t = None if target is None else _column_index(path, names, target,
                                                                  "target column")
                    if columns is None:
                        cols = [c for c in range(len(names)) if c != t]
                    else:
                        cols = [_column_index(path, names, c, "column") for c in columns]
                    if t in cols:  # scoring a column against itself
                        raise ConfigError(f"{path}: the target column {names[t]!r} is one "
                                          f"of the feature columns {[names[c] for c in cols]}")
                    wanted = cols + ([] if t is None else [t])
                    # cells are checked in this order within a row: features, target, the rest
                    order = wanted + [c for c in range(len(names)) if c not in wanted]
                    select = slice(None) if wanted == list(range(len(names))) else wanted
                if body:
                    part = _parse_rows(path, lines, first, body, names, order,
                                       sum(map(len, parts)),
                                       any(c in block for c in _SEPARATORS))
                    finite = finite and bool(np.isfinite(part).all())
                    parts.append(part[:, select])
            except DataError as exc:
                fault, parts = exc, []
        first += len(lines)
    if fault is not None:
        raise fault
    if names is None:
        raise DataError(f"{path}: empty file")
    if not parts:
        raise DataError(f"{path}: no data rows")
    if not finite:
        raise DataError(f"{path}: non-finite value encountered")
    table = parts[0] if len(parts) == 1 else np.concatenate(parts)
    return tuple(names[c] for c in cols), table


def _parse_rows(path, lines: List[str], first: int, body: Sequence[int], names: List[str],
                order: List[int], before: int, separated: bool) -> np.ndarray:
    """The data rows lines[k], k in body, parsed by one `np.loadtxt` call;
    DataError for the first faulty one. `first` numbers the lines, and
    `before` counts the data rows of earlier blocks. A `range` body runs to
    the block's end and is taken as one slice of the lines."""
    # numpy strips U+001C..U+001F around a number, float() does not
    odd_rows = ([k for k, i in enumerate(body) if not _SEPARATORS.isdisjoint(lines[i])]
                if separated else [])
    try:
        rows = lines[body.start:] if isinstance(body, range) else [lines[i] for i in body]
        part = np.loadtxt(rows, dtype=np.float64, delimiter=",",
                          quotechar='"', comments=None, ndmin=2)
    except ValueError as exc:
        # numpy counts the row it names from 0 for a bad cell and from 1 for
        # a changed column count: both readings are tried, the earlier first
        named = re.search(r"\brow (\d+)", str(exc))
        guesses = [int(named.group(1)) - 1, int(named.group(1))] if named else []
        fault = _first_fault(path, lines, first, body, names, order,
                             sorted({0, *guesses, *odd_rows}))
        message = re.sub(r"\brow (\d+)", lambda m: f"row {int(m.group(1)) + before}", str(exc))
        raise fault or DataError(f"{path}: {message}") from None
    if part.shape[1] != len(names):
        raise DataError(f"{path}: row {first + body[0] + 1} has {part.shape[1]} cells, "
                        f"expected {len(names)}")
    fault = _first_fault(path, lines, first, body, names, order, odd_rows)
    if fault:
        raise fault
    return part


def _blocks(path: Path) -> Iterator[str]:
    """The file's text in blocks of whole lines of about `_CSV_CHARS`
    characters, every line break read as '\\n'; each block but the last ends
    with one. DataError (`_unreadable`) if the file cannot be read."""
    try:
        with path.open(encoding="utf-8") as fh:  # universal newlines
            head: List[str] = []
            while chunk := fh.read(_CSV_CHARS):
                cut = chunk.rfind("\n") + 1
                if cut:
                    yield "".join(head) + chunk[:cut]
                    head = []
                head.append(chunk[cut:])
            if any(head):
                yield "".join(head)
    except (OSError, ValueError) as exc:
        if isinstance(exc, UnicodeDecodeError):
            try:  # decoded whole, the error names its position in the file
                path.read_bytes().decode("utf-8")
            except UnicodeDecodeError as whole:
                exc = whole
        raise _unreadable(path, exc) from None


def _check_quotes(path, lines: List[str], first: int, ended: bool) -> None:
    """DataError for the first of the lines (the file's lines from index
    `first`) with a quoted cell that runs past its line break or a cell past
    csv.field_size_limit(). `ended` says the last line has a line break; if
    not, it is the file's last, and only a line starting with '"' is split,
    as the comment test of `_read_csv` splits it."""
    for k, s in enumerate(lines):
        if '"' not in s:
            continue
        if k < len(lines) - 1 or ended:
            if _quote_runs_on(path, s):
                raise DataError(f"{path}: line {first + k + 1}: "
                                f"a quoted cell runs past the end of the line")
        elif s[0] == '"':
            _cells(path, s)


def read_records(path, key: int) -> List[Tuple[int, List[str]]]:
    """The data records of a small CSV file as (line, cells) pairs: the
    1-based file line a record starts on, and its cells as `csv.reader`
    splits them. Empty and comment records (first cell, left-stripped,
    starting with '#') are skipped. The first record is a header, and is
    dropped, when it has a cell `key` that is not a number (`is_number`)."""
    path = Path(path)
    records: List[Tuple[int, List[str]]] = []
    line = 1
    with io.StringIO(read_text(path), newline="") as fh:
        reader = csv.reader(fh)
        try:
            for cells in reader:
                if cells and not cells[0].lstrip().startswith("#"):
                    records.append((line, cells))
                line = reader.line_num + 1
        except csv.Error as exc:  # e.g. a cell past csv.field_size_limit()
            raise DataError(f"{path}: line {line}: {exc}") from None
    if records and key < len(records[0][1]) and not is_number(records[0][1][key]):
        del records[0]
    if not records:
        raise DataError(f"{path}: no data rows")
    return records


def read_text(path) -> str:
    """The whole file as text, line breaks as written; DataError
    (`_unreadable`) if it cannot be read."""
    path = Path(path)
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, ValueError) as exc:
        raise _unreadable(path, exc) from None


def write_file(path, chunks: Iterable[Union[str, bytes]]) -> None:
    """Write the chunks (text as UTF-8) as a new file at `path`.

    A file or link at `path` is removed first and the file is created anew
    (exclusive mode), so a hard link or symlink at the path is replaced, not
    written through. Truncating or renaming over a file that was already
    rewritten can stall for tens of milliseconds on ext4; unlinking first
    does not. The chunks may be a generator: if taking or writing one
    raises, the partial file is removed and the exception propagates, an
    OSError as ConfigError naming the path."""
    path = Path(path)
    try:
        path.unlink(missing_ok=True)
        fh = path.open("xb")
    except OSError as exc:
        raise _unwritable(path, exc) from None
    try:
        with fh:
            for chunk in chunks:
                fh.write(chunk.encode("utf-8") if isinstance(chunk, str) else chunk)
    except BaseException as exc:
        path.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise _unwritable(path, exc) from None
        raise


def _unwritable(path, exc: OSError) -> ConfigError:
    return ConfigError(f"{path}: cannot write ({exc.strerror or exc})")


def _unreadable(path, exc: Union[OSError, ValueError]) -> DataError:
    """The one error for a user file that cannot be read: missing, not UTF-8
    text, or unreadable for another reason, such as a directory or a path
    with a NUL character (a ValueError)."""
    if isinstance(exc, FileNotFoundError):
        return DataError(f"no such file: {path}")
    if isinstance(exc, UnicodeDecodeError):
        return DataError(f"{path}: not UTF-8 text ({exc})")
    return DataError(f"{path}: cannot read ({getattr(exc, 'strerror', None) or exc})")


def _first_record(path, lines: List[str]) -> Tuple[List[str], int]:
    """The first record `csv.reader` splits from the lines, and how many of
    them it took; DataError for a cell past csv.field_size_limit()."""
    reader = csv.reader(lines)
    try:
        return next(reader), reader.line_num
    except csv.Error as exc:
        raise DataError(f"{path}: {exc}") from None


def _cells(path, line: str) -> List[str]:
    return _first_record(path, [line])[0]


def _quote_runs_on(path, line: str) -> bool:
    """Whether a quoted cell of the line is still open at its end, so that
    `csv.reader` would take the line break into the cell."""
    return _first_record(path, [line, ""])[1] > 1


def _column_index(path, names: List[str], spec, what: str) -> int:
    """A column given as a 0-based index or a header name."""
    if isinstance(spec, int):
        if not 0 <= spec < len(names):
            raise DataError(f"{path}: {what} index {spec} out of range")
        return spec
    hits = names.count(str(spec))
    if hits == 0:
        raise DataError(f"{path}: no column named {spec!r} in header {names}")
    if hits > 1:
        raise DataError(f"{path}: column name {spec!r} appears {hits} times in header {names}")
    return names.index(str(spec))


def _first_fault(path, lines: List[str], first: int, body: Sequence[int], names: List[str],
                 order: List[int], rows: List[int]) -> Optional[DataError]:
    """The error for the first of the given data rows lines[body[k]] (k
    ascending; the file's line index is `first` + body[k]) with the wrong
    number of cells or a cell that is not a number, or None."""
    for k in rows:
        if not 0 <= k < len(body):
            continue
        cells = _cells(path, lines[body[k]])
        line = first + body[k] + 1
        if len(cells) != len(names):
            return DataError(f"{path}: row {line} has {len(cells)} cells, expected {len(names)}")
        for c in order:
            if not is_number(cells[c]):
                return DataError(f"{path}: non-numeric cell at row {line}, "
                                 f"column {names[c]!r}: {cells[c]!r}")
    return None


_SEPARATORS = frozenset("\x1c\x1d\x1e\x1f")


def is_number(cell: str) -> bool:
    """Whether the cell is a number to both `float` and `np.loadtxt`: what
    `float` reads, less digit separators and non-ASCII characters inside
    the surrounding whitespace."""
    if not cell.strip().isascii() or "_" in cell:
        return False
    try:
        float(cell)
    except ValueError:
        return False
    return True


# ---------------------------------------------------------------------------
# PGM (portable graymap, P2 ascii / P5 binary)
# ---------------------------------------------------------------------------


# a header token, and the gap before it: whitespace and whole '#' comments,
# each comment running to the end of its line
_PGM_GAP = re.compile(rb"(?:[ \t\r\n]+|#[^\r\n]*)*")
_PGM_TOKEN = re.compile(rb"[^ \t\r\n#]+")


def load_pgm(path) -> ImageGrid:
    """Read an ASCII (P2) or binary (P5) portable graymap, maxval <= 65535.
    Each header number and P2 raster value is a run of ASCII digits (no
    sign, no '_'); '#' starts a comment that runs to the end of its line."""
    path = Path(path)
    try:
        data = path.read_bytes()
    except (OSError, ValueError) as exc:
        raise _unreadable(path, exc) from None
    tokens: List[bytes] = []
    header_end = 0
    while len(tokens) < 4 and (token := _PGM_TOKEN.match(
            data, _PGM_GAP.match(data, header_end).end())):
        tokens.append(token.group())
        header_end = token.end()
    if not tokens:
        raise DataError(f"{path}: empty file")
    magic = tokens[0].decode("ascii", "replace")
    if magic not in ("P2", "P5"):
        raise DataError(f"{path}: unsupported magic {magic!r} (want P2 or P5)")
    if len(tokens) < 4:
        raise DataError(f"{path}: malformed header")
    for tok in tokens[1:]:
        if not tok.isdigit():  # ASCII digits only: no sign, no '_'
            raise DataError(f"{path}: non-integer header token {tok!r}")
    try:
        width, height, maxval = map(int, tokens[1:])
    except ValueError:  # past Python's digit limit for int()
        raise DataError(f"{path}: malformed header") from None
    if width < 1 or height < 1:
        raise DataError(f"{path}: bad dimensions {width}x{height}")
    if maxval < 1 or maxval > 65535:
        raise DataError(f"{path}: maxval {maxval} outside [1, 65535]")

    count = width * height
    if magic == "P2":
        # comments and separators as in the header
        raster = re.sub(rb"#[^\r\n]*", b"", data[header_end:])
        if re.search(rb"[^0-9 \t\r\n]", raster):
            tok = next(t for t in re.findall(rb"[^ \t\r\n]+", raster) if not t.isdigit())
            raise DataError(f"{path}: non-integer raster token {tok!r}")
        vals = raster.split()
        if len(vals) < count:
            raise DataError(f"{path}: truncated raster ({len(vals)} of {count} values)")
        raw = np.array(vals[:count], dtype=np.float64)
    else:
        # single whitespace byte separates header from raster
        raster = data[header_end + 1 :]
        dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
        need = count * dtype.itemsize
        if len(raster) < need:
            raise DataError(f"{path}: truncated raster ({len(raster)} of {need} bytes)")
        raw = np.frombuffer(raster[:need], dtype=dtype).astype(np.float64)
    if raw.max() > maxval:
        raise DataError(f"{path}: raster value {raw.max():.0f} exceeds maxval {maxval}")
    return ImageGrid(pixels=(raw / maxval).reshape(height, width))


def write_pgm(img: ImageGrid, path, maxval: int = 255, binary: bool = False) -> None:
    """Write an ImageGrid as P2 (default) or P5. Intensities quantize to
    round(p * maxval); values are already guaranteed in [0, 1]."""
    if maxval < 1 or maxval > 65535:
        raise DataError(f"maxval {maxval} outside [1, 65535]")
    quant = np.rint(img.pixels * maxval).astype(np.int64)
    quant = np.clip(quant, 0, maxval)
    header = f"{'P5' if binary else 'P2'}\n{img.width} {img.height}\n{maxval}\n"
    if binary:
        dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
        write_file(path, [header, quant.astype(dtype).tobytes()])
    else:
        h, w = quant.shape
        raster = ((" ".join(["%d"] * w) + "\n") * h) % tuple(quant.ravel().tolist())
        write_file(path, [header, raster])


# ---------------------------------------------------------------------------
# Image <-> dataset
# ---------------------------------------------------------------------------


def image_to_dataset(img: ImageGrid) -> Dataset:
    """Pixels as samples: features are the pixel-center coordinates
    ((row+0.5)/H, (col+0.5)/W), target is the intensity. Row-major order."""
    h, w = img.height, img.width
    rows, cols = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    x1 = (rows.ravel() + 0.5) / h
    x2 = (cols.ravel() + 0.5) / w
    return Dataset(features=np.vstack([x1, x2]), targets=img.pixels.ravel(), task=REGRESSION)


def dataset_to_image(predictions, height: int, width: int) -> ImageGrid:
    """Inverse of image_to_dataset's ordering; values clamp to [0, 1]."""
    pred = np.asarray(predictions, dtype=np.float64).ravel()
    if pred.shape[0] != height * width:
        raise DataError(f"got {pred.shape[0]} values for a {height}x{width} grid")
    return ImageGrid(pixels=np.clip(pred, 0.0, 1.0).reshape(height, width))


def make_phantom(height: int = 64, width: int = 64) -> ImageGrid:
    """Deterministic photograph-like test image.

    Stands in for a natural grayscale photo in the denoising studies, so it
    avoids axis-aligned constant blocks (which a coordinate-split regressor
    can represent exactly) in favour of the tonal content a camera produces:
    a gentle illumination ramp, two smooth curved structures (a bump and a
    soft-edged disc), and mid-frequency texture everywhere.
    """
    r = (np.arange(height, dtype=np.float64)[:, None] + 0.5) / height
    c = (np.arange(width, dtype=np.float64)[None, :] + 0.5) / width
    px = 0.42 + 0.18 * c + 0.08 * r
    px = px + 0.22 * np.exp(-((r - 0.32) ** 2 + (c - 0.30) ** 2) / (2.0 * 0.16 ** 2))
    dist = np.sqrt((r - 0.68) ** 2 + (c - 0.64) ** 2)
    px = px - 0.24 / (1.0 + np.exp((dist - 0.18) / 0.03))
    px = px + 0.16 * np.sin(2.0 * np.pi * 3.0 * r) * np.cos(2.0 * np.pi * 4.0 * c)
    px = px + 0.10 * np.sin(2.0 * np.pi * 7.0 * (r + c))
    return ImageGrid(pixels=np.clip(px, 0.0, 1.0))


# ---------------------------------------------------------------------------
# Synthetic generators
# ---------------------------------------------------------------------------


def powell(X) -> np.ndarray:
    """Powell's singular function summed over blocks of four coordinates.

    For each block (a, b, c, e): (a+10b)^2 + 5(c-e)^2 + (b-2c)^4 + 10(a-e)^4.
    X is (n, d) with d a multiple of 4; returns shape (n,).
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    n, d = X.shape
    if d % 4 != 0 or d == 0:
        raise ConfigError(f"powell needs d to be a positive multiple of 4, got {d}")
    total = np.zeros(n)
    for b in range(d // 4):
        a, bb, c, e = (X[:, 4 * b + k] for k in range(4))
        total += (a + 10 * bb) ** 2 + 5 * (c - e) ** 2 + (bb - 2 * c) ** 4 + 10 * (a - e) ** 4
    return total


def piecewise_signal(x) -> np.ndarray:
    """The three-piece study signal: sin(x) on [0,1/3), -2x on [1/3,2/3), else 0."""
    x = np.asarray(x, dtype=np.float64)
    return np.where(x < 1.0 / 3.0, np.sin(x), np.where(x < 2.0 / 3.0, -2.0 * x, 0.0))


@dataclass(frozen=True)
class SineSpec:
    """Y = sin(2*pi*2^p * X) + N(0, noise_sigma^2), X ~ Unif(0,1)."""

    n: int
    p: int = 2
    noise_sigma: float = 0.0


@dataclass(frozen=True)
class PureNoiseSpec:
    """X ~ Unif(0,1); Y is pure noise: 'normal' or Student 't' with df degrees."""

    n: int
    law: str = "normal"
    df: float = 3.0


@dataclass(frozen=True)
class PiecewiseSpec:
    """X ~ Unif(0,1); Y = piecewise_signal(X) + N(0, sigma^2)."""

    n: int
    noise_sigma: float = 0.1


@dataclass(frozen=True)
class AsbpSpec:
    """X ~ Unif([-1,1]^d); Y = x_1 + ... + x_{d-1} + |x_d|."""

    n: int
    d: int = 2


@dataclass(frozen=True)
class PowellSpec:
    """X ~ Unif([0,1]^d), d a multiple of 4; Y = powell(X) + optional noise."""

    n: int
    d: int = 4
    noise_sigma: float = 0.0


@dataclass(frozen=True)
class AdditiveTVSpec:
    """Additive piecewise-linear target with known exact total variation.

    Per coordinate i, g_i linearly interpolates (knots[i], values[i]) on [0,1];
    Y = sum_i g_i(X_i) + N(0, noise_sigma^2). The total variation of each g_i
    is the sum of absolute value-differences between consecutive knots, so the
    recorded `tv` is exact, not estimated.
    """

    n: int
    knots: tuple  # per-coordinate tuples of knot positions, each starting 0.0 ending 1.0
    values: tuple  # matching tuples of knot values
    noise_sigma: float = 0.1

    @property
    def d(self) -> int:
        return len(self.knots)

    @property
    def tv(self) -> float:
        return float(
            sum(np.abs(np.diff(np.asarray(v, dtype=np.float64))).sum() for v in self.values)
        )

    def truth(self, X: np.ndarray) -> np.ndarray:
        """Noise-free regression function at rows of X (shape (n, d))."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        out = np.zeros(X.shape[0])
        for i in range(self.d):
            out += np.interp(X[:, i], self.knots[i], self.values[i])
        return out

    @classmethod
    def random(cls, d: int, seed: int, segments: int = 6, amplitude: float = 1.0,
               noise_sigma: float = 0.1) -> "AdditiveTVSpec":
        """Draw a random spec: `segments` linear pieces per coordinate with
        values in [-amplitude, amplitude]."""
        gen = stream(seed, "additive-tv-spec")
        knots, values = [], []
        for _ in range(d):
            interior = np.sort(gen.uniform(0.05, 0.95, size=segments - 1))
            k = np.concatenate(([0.0], interior, [1.0]))
            v = gen.uniform(-amplitude, amplitude, size=segments + 1)
            knots.append(tuple(float(x) for x in k))
            values.append(tuple(float(x) for x in v))
        return cls(n=0, knots=tuple(knots), values=tuple(values), noise_sigma=noise_sigma)


GeneratorSpec = (SineSpec, PureNoiseSpec, PiecewiseSpec, AsbpSpec, PowellSpec, AdditiveTVSpec)


def gen_synthetic(spec, seed: int) -> Dataset:
    """Draw a Dataset from a generator spec. Pure function of (spec, seed)."""
    if not isinstance(spec, GeneratorSpec):
        raise ConfigError(f"unknown generator spec {type(spec).__name__}")
    if spec.n < 1:
        raise ConfigError("generator needs n >= 1")
    gen = stream(seed, f"gen/{type(spec).__name__}")

    if isinstance(spec, SineSpec):
        x = gen.uniform(0.0, 1.0, spec.n)
        y = np.sin(2.0 * math.pi * (2.0 ** spec.p) * x)
        if spec.noise_sigma > 0:
            y = y + spec.noise_sigma * gen.standard_normal(spec.n)
        return Dataset.from_rows(x[:, None], y)

    if isinstance(spec, PureNoiseSpec):
        x = gen.uniform(0.0, 1.0, spec.n)
        if spec.law == "normal":
            y = gen.standard_normal(spec.n)
        elif spec.law == "t":
            y = student_t(gen, spec.df, spec.n)
        else:
            raise ConfigError(f"unknown noise law {spec.law!r} (want 'normal' or 't')")
        return Dataset.from_rows(x[:, None], y)

    if isinstance(spec, PiecewiseSpec):
        x = gen.uniform(0.0, 1.0, spec.n)
        y = piecewise_signal(x) + spec.noise_sigma * gen.standard_normal(spec.n)
        return Dataset.from_rows(x[:, None], y)

    if isinstance(spec, AsbpSpec):
        if spec.d < 2:
            raise ConfigError("asbp needs d >= 2")
        X = gen.uniform(-1.0, 1.0, (spec.n, spec.d))
        y = X[:, :-1].sum(axis=1) + np.abs(X[:, -1])
        return Dataset.from_rows(X, y)

    if isinstance(spec, PowellSpec):
        if spec.d % 4 != 0 or spec.d == 0:
            raise ConfigError(f"powell needs d to be a positive multiple of 4, got {spec.d}")
        X = gen.uniform(0.0, 1.0, (spec.n, spec.d))
        y = powell(X)
        if spec.noise_sigma > 0:
            y = y + spec.noise_sigma * gen.standard_normal(spec.n)
        return Dataset.from_rows(X, y)

    # AdditiveTVSpec
    if spec.d < 1:
        raise ConfigError("additive-tv needs d >= 1")
    X = gen.uniform(0.0, 1.0, (spec.n, spec.d))
    y = spec.truth(X)
    if spec.noise_sigma > 0:
        y = y + spec.noise_sigma * gen.standard_normal(spec.n)
    return Dataset.from_rows(X, y)
