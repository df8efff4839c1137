"""``parse_libsvm`` against a frozen copy of its token-by-token form: on text
mixing valid lines with every malformed class, both must give the same
``Dataset`` bytes, or the same ``ParseError`` line and message.  The one
intended difference: an index past the int64 range, where the frozen form
raised ``OverflowError`` from its buffer, is now a ``ParseError`` on the same
line.  Small block sizes put errors, row offsets and line numbers across
block boundaries."""

import math
from array import array
from typing import Iterable, List, Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbopt.bench import data as data_module
from sbopt.bench.data import Dataset, parse_libsvm
from sbopt.errors import ParseError

# ---------------------------------------------------------------------------
# frozen reference (do not edit: it pins the parser's output and messages)


def frozen_coerce_label(raw: float, line_no: int) -> float:
    if raw in (1.0, -1.0):
        return raw
    if raw == 0.0:
        return -1.0
    raise ParseError(f"label {raw} cannot be coerced to +-1", line=line_no)


def frozen_parse_libsvm(lines: Iterable[str], n_features: Optional[int] = None,
                        coerce_binary_labels: bool = False) -> Dataset:
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
            label = frozen_coerce_label(label, line_no)
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


# ---------------------------------------------------------------------------


def _outcome(parse, text, **kwargs):
    try:
        d = parse(text, **kwargs)
    except ParseError as exc:
        return ("error", exc.line, str(exc))
    return ("data", d.features.shape, d.features.tobytes(), d.labels.tobytes())


def _frozen_outcome(text, **kwargs):
    """The frozen outcome, with its OverflowError turned into the ParseError
    the parser now raises: the first prefix of lines that overflows names
    the line, and its one index past int64 the message."""
    try:
        return _outcome(frozen_parse_libsvm, text, **kwargs)
    except OverflowError:
        lines = text.splitlines() if isinstance(text, str) else text
        for n in range(1, len(lines) + 1):
            try:
                frozen_parse_libsvm(lines[:n], **kwargs)
            except OverflowError:
                big = [p.split(":")[0] for p in lines[n - 1].split()[1:]]
                idx = next(int(i) for i in big if int(i) > 2 ** 63)
                return ("error", n, f"line {n}: feature index {idx} is past "
                        "the int64 range")
        raise AssertionError("no prefix overflows")


DIGITS = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
# the first 8 labels are +-1 or 0, the first 10 values finite
LABELS = ["1", "+1", "-1", "0", "-0", "1.0", "0.0", "+1e0", "2", "0.5",
          "1_0", "١", "nan", "inf", "-inf", "1e400", "abc", "1:1", "+", "#"]
VALUES = ["1", "0.5", "-2e-3", "+1", "1_0", "01", "٣", "0", "-0", "1e-320",
          "nan", "NaN", "inf", "-inf", "1e400", "", "x", "1:2", "1.5.2"]
BAD_INDICES = ["0", "-2", "", "a", "1.5", "1e2", "99999999999999999999",
               "9223372036854775809", "18446744073709551621",
               "-99999999999999999999"]
FORMS = ["{i}", "{i}:{v}:{v}", ":{v}", "{i}:", "{i}::{v}", "::", "{i}{v}"]


FAULTS = ["label", "step", "index", "value", "form"]


@st.composite
def libsvm_line(draw, fault=None):
    """A valid line, or a data line with one ``fault`` at one token: a label
    or value drawn from every class, an index step of 0 or less, a malformed
    index, or a malformed token shape."""
    if fault is None:
        kind = draw(st.sampled_from(["data"] * 8 + ["blank", "comment"]))
        if kind == "blank":
            return draw(st.sampled_from(["", " ", "\t", "  \t "]))
        if kind == "comment":
            return draw(st.sampled_from(["#", "# a comment 1:1", "  #x", "\t#"]))
    n_tokens = draw(st.integers(0 if fault in (None, "label") else 1, 6))
    at = draw(st.integers(0, max(n_tokens - 1, 0)))
    tokens = [draw(st.sampled_from(LABELS if fault == "label" else LABELS[:8]))]
    idx = 0
    for k in range(n_tokens):
        here = fault if k == at else None
        idx += draw(st.sampled_from([0, -1, -2] if here == "step"
                                    else [1, 1, 1, 2, 3]))
        spelled = draw(st.sampled_from(["{}", "{}", "{}", "+{}", "0{}", "arabic"]))
        i = (str(idx).translate(DIGITS) if spelled == "arabic"
             else spelled.format(idx))
        if here == "index":
            i = draw(st.sampled_from(BAD_INDICES))
        v = draw(st.sampled_from(VALUES if here == "value" else VALUES[:10]))
        form = draw(st.sampled_from(FORMS)) if here == "form" else "{i}:{v}"
        tokens.append(form.format(i=i, v=v))
    sep = draw(st.sampled_from([" ", " ", "\t", "  "]))
    lead = draw(st.sampled_from(["", "", " ", "\t"]))
    trail = draw(st.sampled_from(["", "", " ", "\r"]))
    return lead + sep.join(tokens) + trail


@st.composite
def libsvm_input(draw):
    # valid lines with up to two faulty ones among them
    lines = draw(st.lists(libsvm_line(), max_size=12))
    for fault in draw(st.lists(st.sampled_from(FAULTS), max_size=2)):
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(libsvm_line(fault)))
    form = draw(st.sampled_from(["lf", "crlf", "list", "list-lf"]))
    if form == "lf":
        return "\n".join(lines)
    if form == "crlf":
        return "\r\n".join(lines) + "\r\n"
    if form == "list":
        return lines
    return [line + "\n" for line in lines]


@given(text=libsvm_input(),
       n_features=st.sampled_from([None, None, None, 40, 40, 12, 0]),
       coerce=st.booleans(),
       block=st.sampled_from([1, 2, 3, 5, data_module.BLOCK_LINES]))
@settings(max_examples=600, deadline=None)
def test_matches_the_frozen_parser(text, n_features, coerce, block):
    kwargs = dict(n_features=n_features, coerce_binary_labels=coerce)
    want = _frozen_outcome(text, **kwargs)
    shipped = data_module.BLOCK_LINES
    data_module.BLOCK_LINES = block
    try:
        got = _outcome(parse_libsvm, text, **kwargs)
    finally:
        data_module.BLOCK_LINES = shipped
    assert got == want


@pytest.mark.parametrize("text", [
    "", "+1", "+1\n-1 2:1", "# c\n\n", "+1 1:2:3", "+1 1:2:3 4", "+1 1 2:3:4",
    "+1 1:2 3:4:5", "+1 1:2\n-1 3:4:5", "+1 :1", "+1 1:", "+1 ::", "+1 1::2",
    "+1 a:1", "+1 1:nan", "nan 1:1", "+1 0:1", "+1 -3:1", "+1 2:1 2:1",
    "+1 3:1 2:1", "+1 -99999999999999999999:1", "+1 1_0:1 ١٢:+2",
    "+1 01:1e400", "2 1:1", "0 1:1\n-0 2:1", "+1\t1:1\r\n-1 2:1  \n",
    "  # x\n+1 1:1", "1:1 1:1", "+1 1:1 x\n2 1:1", "+1 1:1 2:1\n+1 1:1 1:1"])
@pytest.mark.parametrize("kwargs", [{}, {"coerce_binary_labels": True},
                                    {"n_features": 3}])
def test_fixed_cases_match_the_frozen_parser(text, kwargs):
    assert _outcome(parse_libsvm, text, **kwargs) == _frozen_outcome(text, **kwargs)


@pytest.mark.parametrize("block", [1, 7, 128])
def test_many_blocks_of_valid_rows(block, monkeypatch):
    rng = np.random.default_rng(5)
    lines = []
    for r in range(300):
        cols = np.flatnonzero(rng.random(40) < 0.2) + 1
        vals = rng.normal(size=cols.size)
        lines.append(" ".join([str(int(rng.integers(0, 2)))]
                              + [f"{c}:{float(v)!r}" for c, v in zip(cols, vals)]))
        if r % 17 == 0:
            lines.append("# comment")
    text = "\n".join(lines) + "\n"
    monkeypatch.setattr(data_module, "BLOCK_LINES", block)
    for kwargs in ({}, {"coerce_binary_labels": True}, {"n_features": 45}):
        assert (_outcome(parse_libsvm, text, **kwargs)
                == _frozen_outcome(text, **kwargs))
    bad = text + "1 3:1 2:1\n"
    got = _outcome(parse_libsvm, bad)
    assert got == _frozen_outcome(bad)
    assert got[1] == len(bad.splitlines())
