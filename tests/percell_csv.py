"""The per-cell CSV reader and writer that `dataset._read_csv` and
`experiments._write_csv` replaced, kept verbatim as the oracle of
`test_csv_differential.py`.

The readers split every line with `csv.reader` and convert cell by cell with
`float()`; the writer formats every value through `_cell` and `csv.writer`.
Their error messages number rows among the kept (non-blank, non-comment)
records, counting the header as row 1.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Sequence

import numpy as np

from minimaxsplit.dataset import CLASSIFICATION, REGRESSION, Dataset
from minimaxsplit.errors import DataError


def load_csv(path, target_column, task: str = REGRESSION) -> Dataset:
    """Load a headered CSV into a Dataset.

    target_column may be a header name or a 0-based column index. Every other
    column becomes a feature, in file order. Lines starting with '#' are
    skipped. Row order is preserved as sample order.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such file: {path}")
    with path.open(newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].lstrip().startswith("#")]
    if not rows:
        raise DataError(f"{path}: empty file")
    header = [h.strip() for h in rows[0]]
    if isinstance(target_column, int):
        if not 0 <= target_column < len(header):
            raise DataError(f"{path}: target column index {target_column} out of range")
        t_idx = target_column
    else:
        try:
            t_idx = header.index(str(target_column))
        except ValueError:
            raise DataError(f"{path}: no column named {target_column!r} in header {header}") from None
    body = rows[1:]
    if not body:
        raise DataError(f"{path}: no data rows")

    n = len(body)
    d = len(header) - 1
    feats = np.empty((d, n), dtype=np.float64)
    targ = np.empty(n, dtype=np.float64)
    feat_cols = [c for c in range(len(header)) if c != t_idx]
    for i, row in enumerate(body):
        if len(row) != len(header):
            raise DataError(f"{path}: row {i + 2} has {len(row)} cells, expected {len(header)}")
        for out_j, c in enumerate(feat_cols):
            try:
                feats[out_j, i] = float(row[c])
            except ValueError:
                raise DataError(
                    f"{path}: non-numeric cell at row {i + 2}, column {header[c]!r}: {row[c]!r}"
                ) from None
        try:
            targ[i] = float(row[t_idx])
        except ValueError:
            raise DataError(
                f"{path}: non-numeric cell at row {i + 2}, column {header[t_idx]!r}: {row[t_idx]!r}"
            ) from None
    if not np.all(np.isfinite(feats)) or not np.all(np.isfinite(targ)):
        raise DataError(f"{path}: non-finite value encountered")
    if task == CLASSIFICATION and not np.all(np.isin(targ, (-1.0, 1.0))):
        bad = targ[~np.isin(targ, (-1.0, 1.0))][0]
        raise DataError(f"{path}: classification target outside {{-1,+1}}: {bad}")
    return Dataset(features=feats, targets=targ, task=task)


def load_feature_matrix(path) -> np.ndarray:
    """Load a headered CSV where *every* column is a feature; returns the
    row-major (n, d) matrix. Used for prediction inputs that carry no target."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such file: {path}")
    with path.open(newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].lstrip().startswith("#")]
    if len(rows) < 2:
        raise DataError(f"{path}: need a header row and at least one data row")
    header = rows[0]
    out = np.empty((len(rows) - 1, len(header)), dtype=np.float64)
    for i, row in enumerate(rows[1:]):
        if len(row) != len(header):
            raise DataError(f"{path}: row {i + 2} has {len(row)} cells, expected {len(header)}")
        for j, cell in enumerate(row):
            try:
                out[i, j] = float(cell)
            except ValueError:
                raise DataError(
                    f"{path}: non-numeric cell at row {i + 2}, column {header[j]!r}: {cell!r}"
                ) from None
    if not np.all(np.isfinite(out)):
        raise DataError(f"{path}: non-finite value encountered")
    return out


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


def _write_csv(outdir: Path, name: str, header: Sequence[str], rows) -> str:
    with (outdir / name).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])
    return name
