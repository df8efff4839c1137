"""Dataset container and LIBSVM-format ingestion.

The parser is strict: lines are "<label> <idx>:<val> ...", feature indices
1-based and strictly increasing within a line.  Blank lines and lines whose
first non-space character is '#' are skipped.  Features are stored 0-based,
sparse row-major.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

import numpy as np

from ..errors import ParseError


@dataclass
class Dataset:
    """Sparse row-major dataset: per-row (indices, values) pairs plus labels."""

    n_rows: int
    n_cols: int
    rows: List[Tuple[np.ndarray, np.ndarray]]
    labels: np.ndarray

    def to_dense(self) -> np.ndarray:
        X = np.zeros((self.n_rows, self.n_cols))
        for i, (idx, val) in enumerate(self.rows):
            X[i, idx] = val
        return X

    @staticmethod
    def from_dense(X, labels) -> "Dataset":
        X = np.asarray(X, dtype=float)
        labels = np.asarray(labels, dtype=float)
        rows = []
        for i in range(X.shape[0]):
            idx = np.nonzero(X[i])[0]
            rows.append((idx.astype(np.int64), X[i, idx].copy()))
        return Dataset(n_rows=X.shape[0], n_cols=X.shape[1], rows=rows,
                       labels=labels)


def _coerce_label(raw: float, line_no: int) -> float:
    if raw in (1.0, -1.0):
        return raw
    if raw == 0.0:
        return -1.0
    raise ParseError(f"label {raw} cannot be coerced to +-1", line=line_no)


def parse_libsvm(lines: Iterable[str], n_features: Optional[int] = None,
                 coerce_binary_labels: bool = False) -> Dataset:
    """Parse LIBSVM-format text into a Dataset.

    ``n_features`` overrides the inferred column count (the maximum feature
    index seen); an index beyond the override is an error.  With
    ``coerce_binary_labels`` labels in {0, 1, -1, +1} map onto {-1, +1}.
    Raises ParseError with the 1-based line number on any malformed token,
    and on a label or value that is not finite (nan, inf, or a literal past
    the float range such as 1e400).
    """
    if isinstance(lines, str):
        lines = lines.splitlines()
    rows: List[Tuple[np.ndarray, np.ndarray]] = []
    labels: List[float] = []
    max_index = 0
    isfinite = math.isfinite
    for line_no, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens = stripped.split()
        try:
            label = float(tokens[0])
        except ValueError:
            raise ParseError(f"non-numeric label {tokens[0]!r}", line=line_no)
        if not isfinite(label):
            raise ParseError(f"label {tokens[0]!r} is not finite", line=line_no)
        if coerce_binary_labels:
            label = _coerce_label(label, line_no)
        idxs: List[int] = []
        vals: List[float] = []
        prev = 0
        for tok in tokens[1:]:
            part = tok.split(":")
            if len(part) != 2:
                raise ParseError(f"malformed feature token {tok!r}", line=line_no)
            try:
                idx = int(part[0])
                val = float(part[1])
            except ValueError:
                raise ParseError(f"non-numeric feature token {tok!r}", line=line_no)
            if not isfinite(val):
                raise ParseError(f"feature value {tok!r} is not finite",
                                 line=line_no)
            if idx < 1:
                raise ParseError(f"feature index {idx} is not 1-based", line=line_no)
            if idx <= prev:
                raise ParseError(
                    f"duplicate or non-increasing feature index {idx}", line=line_no)
            if n_features is not None and idx > n_features:
                raise ParseError(
                    f"feature index {idx} exceeds declared width {n_features}",
                    line=line_no)
            prev = idx
            idxs.append(idx - 1)
            vals.append(val)
        max_index = max(max_index, prev)
        rows.append((np.asarray(idxs, dtype=np.int64),
                     np.asarray(vals, dtype=float)))
        labels.append(label)
    n_cols = n_features if n_features is not None else max_index
    return Dataset(n_rows=len(rows), n_cols=n_cols, rows=rows,
                   labels=np.asarray(labels, dtype=float))


def parse_libsvm_path(path, n_features: Optional[int] = None,
                      coerce_binary_labels: bool = False) -> Dataset:
    """``parse_libsvm`` on a file, which must hold at least one data row: a
    file that is empty, or only blank and comment lines, raises ParseError."""
    with open(path, "r", encoding="utf-8") as fh:
        data = parse_libsvm(fh, n_features=n_features,
                            coerce_binary_labels=coerce_binary_labels)
    if data.n_rows == 0:
        raise ParseError(f"{os.path.basename(path)} has no data rows")
    return data


def minmax_scale(data: Dataset) -> Dataset:
    """Map every feature column onto [0, 1]; constant columns map to 0."""
    if data.n_rows < 1:
        raise ValueError("minmax_scale needs at least one row")
    X = data.to_dense()
    lo = X.min(axis=0)
    hi = X.max(axis=0)
    span = hi - lo
    scaled = np.zeros_like(X)
    nz = span > 0
    scaled[:, nz] = (X[:, nz] - lo[nz]) / span[nz]
    return Dataset.from_dense(scaled, data.labels)


def augment_collinear(data: Dataset, copies: int,
                      add_intercept: bool = False) -> Dataset:
    """Append exact duplicates of the first ``copies`` columns and, when
    flagged, a trailing all-ones intercept column.  Duplicated columns leave
    the rank unchanged, so the Gram matrix becomes singular by construction."""
    if copies < 0 or copies > data.n_cols:
        raise ValueError("copies must lie in [0, n_cols]")
    X = data.to_dense()
    parts = [X]
    if copies > 0:
        parts.append(X[:, :copies])
    if add_intercept:
        parts.append(np.ones((data.n_rows, 1)))
    return Dataset.from_dense(np.hstack(parts), data.labels)
