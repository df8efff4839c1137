"""Dataset container and LIBSVM-format ingestion.

The parser is strict: lines are "<label> <idx>:<val> ...", feature indices
1-based and strictly increasing within a line.  Blank lines and lines whose
first non-space character is '#' are skipped.  Features are stored as a
dense float matrix, one row per data line, with 0-based columns.
"""

from __future__ import annotations

import io
import math
import os
import re
from array import array
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, List, NoReturn, Optional

import numpy as np

from ..errors import ParseError
from ..model import is_count


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


# Data lines converted per block.  A block's NumPy calls cost about as much
# as a few dozen token conversions, and its token strings live until the
# block is stored, so the constant trades call overhead against memory.
BLOCK_LINES = 128
INT64_MAX = int(np.iinfo(np.int64).max)
# every byte but ':' and ' ', which a block's separator check keeps
_NOT_SEPARATOR = bytes(sorted(set(range(256)) - set(b": ")))
# binary label coercion; -0.0 looks up as 0.0, and nan finds no key
_COERCED = {1.0: 1.0, -1.0: -1.0, 0.0: -1.0}
# the stand-ins that errors="surrogateescape" decodes bytes 0x80-0xff to
_STAND_IN = re.compile("[\udc80-\udcff]")


def _raise_first_error(block: List[str], first_line_no: int,
                       n_features: Optional[int],
                       coerce_binary_labels: bool) -> NoReturn:
    """Raise the ParseError of the first bad token of ``block``, checking
    each line for a byte stand-in, then each data line's label, then each
    feature token's shape, number, finiteness, base, order, width and int64
    range, in file order."""
    isfinite = math.isfinite
    for line_no, line in enumerate(block, start=first_line_no):
        stand_in = _STAND_IN.search(line)
        if stand_in:
            byte = ord(stand_in.group()) - 0xDC00
            raise ParseError(f"byte 0x{byte:02x} is not UTF-8 text",
                             line=line_no)
        tokens = line.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        try:
            label = float(tokens[0])
        except ValueError:
            raise ParseError(f"non-numeric label {tokens[0]!r}", line=line_no)
        if not isfinite(label):
            raise ParseError(f"label {tokens[0]!r} is not finite", line=line_no)
        if coerce_binary_labels and label not in _COERCED:
            raise ParseError(f"label {label} cannot be coerced to +-1",
                             line=line_no)
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
            if idx > INT64_MAX:
                raise ParseError(f"feature index {idx} is past the int64 range",
                                 line=line_no)
            prev = idx
    raise AssertionError("a block check failed on a block without errors")


def _convert_block(block: List[str], row0: int, n_features: Optional[int],
                   coerce_binary_labels: bool):
    """The labels (a list) and the (row, index, value) nonzeros (arrays) of
    one block's data lines, or None when some token fails a check or some
    line, a comment too, holds a byte stand-in; rows count from ``row0``."""
    text = "".join(block)
    if not text.isascii() and _STAND_IN.search(text):
        return None
    labels: List[str] = []
    starts: List[int] = []
    counts: List[int] = []
    feats: List[str] = []
    for line in block:
        tokens = line.split()
        if tokens and tokens[0][0] != "#":
            labels.append(tokens[0])
            starts.append(len(feats))
            counts.append(len(tokens) - 1)
            feats += tokens[1:]
    n = len(feats)
    # every token holds one ':' when the block's separators read ': : ... :';
    # no whitespace is left in a token, and no UTF-8 byte of another
    # character is a ':' or a space
    joined = " ".join(feats)
    seps = joined.encode("utf-8", "surrogatepass").translate(None, _NOT_SEPARATOR)
    if seps != (b": " * n)[:-1]:
        return None
    parts = joined.replace(":", " ").split(" ")
    try:
        y = list(map(float, labels))
        idx = np.fromiter(map(int, parts[0::2]), np.int64, n)
        val = np.fromiter(map(float, parts[1::2]), float, n)
    except (ValueError, OverflowError):
        return None
    if not all(map(math.isfinite, y)):
        return None
    if coerce_binary_labels:
        y = list(map(_COERCED.get, y))
        if None in y:
            return None
    # each index must exceed the one before it on its line, 0 for a line's
    # first token
    prev = np.zeros(n + 1, np.int64)
    prev[1:] = idx
    prev[starts] = 0
    if n and not ((idx > prev[:-1]).all() and np.isfinite(val).all()
                  and (n_features is None or idx.max() <= n_features)):
        return None
    return y, np.repeat(np.arange(row0, row0 + len(y)), counts), idx, val


def parse_libsvm(lines: Iterable[str], n_features: Optional[int] = None,
                 coerce_binary_labels: bool = False) -> Dataset:
    """Parse LIBSVM-format text into a Dataset.

    ``n_features`` overrides the inferred column count (the maximum feature
    index seen); it must be None or an integer >= 0, else ValueError, and an
    index beyond it is an error.  With ``coerce_binary_labels`` labels in
    {0, 1, -1, +1} map onto {-1, +1}.  Raises ParseError with the 1-based
    line number of the first malformed token in file order, and on a label or
    value that is not finite (nan, inf, or a literal past the float range
    such as 1e400), an index past the int64 range, or a width whose dense
    matrix cannot be allocated.  A character in U+DC80-U+DCFF, anywhere on
    a line, stands for the byte 0x80-0xff that ``errors="surrogateescape"``
    decoded it from: it raises ParseError naming that byte.  A string is
    split into lines as a file is read: only "\\n", "\\r" and "\\r\\n" end
    a line.

    Lines are read in blocks of ``BLOCK_LINES``.  Each line is split once;
    each block's tokens go through Python's own ``int`` and ``float``, so
    every spelling they accept is accepted, and each check runs once over
    the whole block.  A block that fails one is walked again token by token
    to name the first bad one.  The nonzeros are collected as flat
    (row, column, value) buffers, 24 bytes per nonzero, and scattered into
    the dense matrix at once; beyond those and the matrix, a parse holds one
    block's tokens at a time.
    """
    if n_features is not None and not is_count(n_features):
        raise ValueError("n_features must be None or an integer >= 0")
    if isinstance(lines, str):
        lines = io.StringIO(lines, newline=None)
    labels = array("d")
    rows, cols, vals = array("q"), array("q"), array("d")
    line_no = 1
    it = iter(lines)
    while block := list(islice(it, BLOCK_LINES)):
        got = _convert_block(block, len(labels), n_features,
                             coerce_binary_labels)
        if got is None:
            _raise_first_error(block, line_no, n_features,
                               coerce_binary_labels)
        y, r, idx, val = got
        idx -= 1
        labels.extend(y)
        rows.frombytes(r.view(np.uint8))
        cols.frombytes(idx.view(np.uint8))
        vals.frombytes(val.view(np.uint8))
        line_no += len(block)
    cols = np.frombuffer(cols, dtype=np.int64)
    n_cols = (n_features if n_features is not None
              else int(cols.max(initial=-1)) + 1)
    try:
        X = np.zeros((len(labels), n_cols))
    except (ValueError, MemoryError):  # a width no dense matrix can hold
        raise ParseError(f"a dense {len(labels)} x {n_cols} feature matrix "
                         "cannot be allocated") from None
    X[np.frombuffer(rows, dtype=np.int64), cols] = np.frombuffer(vals)
    return Dataset(X, np.frombuffer(labels).copy())


def parse_libsvm_path(path, n_features: Optional[int] = None,
                      coerce_binary_labels: bool = False) -> Dataset:
    """``parse_libsvm`` on a file, which must hold at least one data row: a
    file that is empty, or only blank and comment lines, raises ParseError.
    The file is read once, as UTF-8 with ``errors="surrogateescape"``: a
    byte that is not UTF-8 raises ParseError naming its line, unless an
    earlier line is malformed."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        data = parse_libsvm(fh, n_features=n_features,
                            coerce_binary_labels=coerce_binary_labels)
    if data.n_rows == 0:
        raise ParseError(f"{os.path.basename(path)} has no data rows")
    return data


def minmax_scale(data: Dataset) -> Dataset:
    """Map every feature column onto [0, 1] as a new float64 matrix, the only
    array of its size the scaling allocates; constant columns map to +0.0."""
    if data.n_rows < 1:
        raise ValueError("minmax_scale needs at least one row")
    X = data.features
    lo = X.min(axis=0)
    span = np.subtract(X.max(axis=0), lo, dtype=float)
    scaled = np.subtract(X, lo, dtype=float)
    nz = span > 0
    np.divide(scaled, span, out=scaled, where=nz)
    # a constant column of X - lo holds -0.0 where x is -0.0 and lo is +0.0
    scaled[:, ~nz] = 0.0
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
