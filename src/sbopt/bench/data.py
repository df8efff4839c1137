"""Dataset container and LIBSVM-format ingestion.

The parser is strict: lines are "<label> <idx>:<val> ...", feature indices
1-based and strictly increasing within a line.  Blank lines and lines whose
first non-space character is '#' are skipped.  Features are stored as a
dense float matrix, one row per data line, with 0-based columns.
"""

from __future__ import annotations

import math
import os
from array import array
from dataclasses import dataclass
from typing import Iterable, List, Optional

import numpy as np

from ..errors import ParseError


@dataclass
class Dataset:
    """Dense dataset: the feature matrix, one row per sample, and labels."""

    features: np.ndarray
    labels: np.ndarray

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_cols(self) -> int:
        return self.features.shape[1]

    def to_dense(self) -> np.ndarray:
        """A new copy of the feature matrix."""
        return self.features.copy()


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
    the float range such as 1e400).  The nonzeros are collected as flat
    (row, column, value) buffers and scattered into the matrix at once.
    """
    if isinstance(lines, str):
        lines = lines.splitlines()
    rows, cols, vals = array("q"), array("q"), array("d")
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
        row = len(labels)
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
            rows.append(row)
            cols.append(idx - 1)
            vals.append(val)
        max_index = max(max_index, prev)
        labels.append(label)
    n_cols = n_features if n_features is not None else max_index
    X = np.zeros((len(labels), n_cols))
    X[np.frombuffer(rows, dtype=np.int64),
      np.frombuffer(cols, dtype=np.int64)] = np.frombuffer(vals)
    return Dataset(X, np.asarray(labels, dtype=float))


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
    X = data.features
    lo = X.min(axis=0)
    hi = X.max(axis=0)
    span = hi - lo
    scaled = np.zeros_like(X)
    nz = span > 0
    scaled[:, nz] = (X[:, nz] - lo[nz]) / span[nz]
    return Dataset(scaled, data.labels)


def augment_collinear(data: Dataset, copies: int,
                      add_intercept: bool = False) -> Dataset:
    """Append exact duplicates of the first ``copies`` columns and, when
    flagged, a trailing all-ones intercept column.  Duplicated columns leave
    the rank unchanged, so the Gram matrix becomes singular by construction."""
    if copies < 0 or copies > data.n_cols:
        raise ValueError("copies must lie in [0, n_cols]")
    X = data.features
    parts = [X]
    if copies > 0:
        parts.append(X[:, :copies])
    if add_intercept:
        parts.append(np.ones((data.n_rows, 1)))
    return Dataset(np.hstack(parts), data.labels)
