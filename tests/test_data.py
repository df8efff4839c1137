"""LIBSVM parsing, scaling, collinear augmentation, synthetic generators."""

import builtins
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import emit_libsvm
from sbopt.bench.data import (Dataset, augment_collinear, minmax_scale,
                              parse_libsvm, parse_libsvm_path)
from sbopt.bench.synth import synth_instance, synth_lrp, synth_lsrp
from sbopt.errors import ParseError


class TestParseLibsvm:
    def test_basic_line(self):
        d = parse_libsvm("+1 3:0.5 7:1.25")
        assert d.n_rows == 1 and d.n_cols == 7
        idx = np.flatnonzero(d.features[0])
        val = d.features[0, idx]
        np.testing.assert_array_equal(idx, [2, 6])
        np.testing.assert_array_equal(val, [0.5, 1.25])
        assert d.labels[0] == 1.0

    def test_empty_stream(self):
        d = parse_libsvm("")
        assert d.n_rows == 0 and d.n_cols == 0

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e400", "NaN"])
    def test_non_finite_value_rejected_with_line(self, token):
        with pytest.raises(ParseError) as err:
            parse_libsvm(f"+1 1:1\n-1 1:0.5 2:{token}\n")
        assert err.value.line == 2 and "not finite" in str(err.value)

    @pytest.mark.parametrize("token", ["nan", "inf", "1e400"])
    def test_non_finite_label_rejected_with_line(self, token):
        with pytest.raises(ParseError) as err:
            parse_libsvm(f"# c\n{token} 1:1\n")
        assert err.value.line == 2 and "not finite" in str(err.value)

    @pytest.mark.parametrize("text", ["", "# only a comment\n\n  \n"])
    def test_file_without_data_rows_rejected(self, tmp_path, text):
        path = tmp_path / "empty.libsvm"
        path.write_text(text)
        with pytest.raises(ParseError, match="no data rows"):
            parse_libsvm_path(str(path))

    def test_blank_lines_and_comments_skipped(self):
        d = parse_libsvm("# header\n\n+1 1:1\n   \n-1 2:2\n")
        assert d.n_rows == 2 and d.n_cols == 2

    def test_duplicate_index_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_libsvm("1 2:1 2:3")
        assert err.value.line == 1
        assert "duplicate or non-increasing" in str(err.value)

    def test_decreasing_index_rejected(self):
        with pytest.raises(ParseError):
            parse_libsvm("1 3:1 2:3")

    def test_malformed_tokens(self):
        with pytest.raises(ParseError) as err:
            parse_libsvm("+1 1:1\nfoo 1:1")
        assert err.value.line == 2
        with pytest.raises(ParseError):
            parse_libsvm("+1 1:abc")
        with pytest.raises(ParseError):
            parse_libsvm("+1 0:1")  # not 1-based
        with pytest.raises(ParseError):
            parse_libsvm("+1 1")  # missing colon

    def test_width_override(self):
        d = parse_libsvm("+1 2:1", n_features=5)
        assert d.n_cols == 5
        with pytest.raises(ParseError):
            parse_libsvm("+1 9:1", n_features=5)

    @pytest.mark.parametrize("width", [-1, 2.5, float("nan"), "3", 1e9, True])
    def test_width_must_be_none_or_a_non_negative_integer(self, width):
        # at the parent these raised NumPy's ValueError or a TypeError from
        # np.zeros, and NaN passed every width comparison
        with pytest.raises(ValueError, match="n_features"):
            parse_libsvm("", n_features=width)
        with pytest.raises(ValueError, match="n_features"):
            parse_libsvm("+1 1:1", n_features=width)

    def test_width_accepts_numpy_integers_and_zero(self):
        assert parse_libsvm("+1", n_features=np.int64(3)).n_cols == 3
        assert parse_libsvm("+1\n-1", n_features=0).features.shape == (2, 0)

    @pytest.mark.parametrize("index", ["99999999999999999999",
                                       str(2 ** 63), str(2 ** 63 + 1)])
    def test_index_past_int64_is_a_parse_error(self, index):
        # at the parent an OverflowError from the index buffer, or a
        # ValueError from np.zeros
        with pytest.raises(ParseError) as err:
            parse_libsvm(f"+1 1:1\n-1 2:1 {index}:1\n")
        assert err.value.line == 2
        assert f"feature index {index} is past the int64 range" in str(err.value)

    def test_width_no_dense_matrix_can_hold_is_a_parse_error(self):
        # the index fits int64, so np.zeros raised "array is too big", a
        # ValueError, at the parent
        with pytest.raises(ParseError, match="dense 1 x 9223372036854775807"):
            parse_libsvm(f"1 {2 ** 63 - 1}:1\n")

    def test_matrix_out_of_memory_is_a_parse_error(self, monkeypatch):
        zeros = np.zeros

        def no_memory(shape, *args, **kwargs):
            if isinstance(shape, tuple):  # the dense matrix, not a buffer
                raise MemoryError
            return zeros(shape, *args, **kwargs)

        monkeypatch.setattr(np, "zeros", no_memory)
        with pytest.raises(ParseError, match="dense 2 x 3 feature matrix"):
            parse_libsvm("+1 1:1\n-1 3:2\n")

    def test_index_past_int64_after_a_width_or_order_error(self):
        with pytest.raises(ParseError, match="exceeds declared width 5"):
            parse_libsvm(f"+1 {2 ** 64}:1", n_features=5)
        with pytest.raises(ParseError, match="not 1-based"):
            parse_libsvm(f"+1 {-2 ** 64}:1")

    @pytest.mark.parametrize("raw, line", [
        (b"+1 1:1\n-1 2:\xe9\n", 2), (b"\xff\n", 1),
        (b"+1 1:1\r-1 2:1\r+1 3:\x80\r", 3),
        (b"+1 1:1\n" * 9000 + b"\xe9", 9001)],
        ids=["value", "first-byte", "cr-lines", "past-the-first-chunk"])
    def test_undecodable_byte_names_its_line(self, tmp_path, raw, line):
        path = tmp_path / "bad.libsvm"
        path.write_bytes(raw)
        with pytest.raises(ParseError) as err:
            parse_libsvm_path(str(path))
        assert err.value.line == line and "is not UTF-8 text" in str(err.value)

    def test_file_that_is_not_utf8_is_opened_once(self, tmp_path,
                                                   monkeypatch):
        path = tmp_path / "bad.libsvm"
        path.write_bytes(b"+1 1:1\n" * 300 + b"-1 2:\xe9\n")
        opened = []
        real_open = builtins.open

        def counting_open(file, *args, **kwargs):
            opened.append(file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        with pytest.raises(ParseError) as err:
            parse_libsvm_path(str(path))
        monkeypatch.undo()
        assert opened.count(str(path)) == 1
        assert err.value.line == 301 and "byte 0xe9" in str(err.value)

    @pytest.mark.parametrize("char, stand_in", [
        ("\ud800", False), ("\udc00", False), ("\udc7f", False),
        ("\udd00", False), ("\udc80", True), ("\udce9", True),
        ("\udcff", True)])
    def test_lone_surrogates_in_a_string(self, char, stand_in):
        # U+DC80-U+DCFF stand for the bytes 0x80-0xff that surrogateescape
        # decodes them from, in a label, a feature token or a comment; any
        # other lone surrogate is a character no number holds, and a
        # comment may hold it
        byte = f"byte 0x{ord(char) - 0xDC00:02x} is not UTF-8"
        cases = {f"-1{char} 2:1": "non-numeric label",
                 f"-1 2:1{char}": "non-numeric feature token",
                 f"# {char}": None}
        for line, want in cases.items():
            text = f"+1 1:1\n{line}\n-1 3:1\n"
            if stand_in:
                want = byte
            if want is None:
                assert parse_libsvm(text).n_rows == 2
                continue
            with pytest.raises(ParseError) as err:
                parse_libsvm(text)
            assert err.value.line == 2 and want in str(err.value)

    def test_malformed_line_before_an_undecodable_byte_comes_first(self,
                                                                  tmp_path):
        path = tmp_path / "bad.libsvm"
        path.write_bytes(b"+1 1:1\n-1 1:1 1:2\n-1 2:\xe9\n")
        with pytest.raises(ParseError) as err:
            parse_libsvm_path(str(path))
        assert err.value.line == 2 and "duplicate" in str(err.value)

    @pytest.mark.parametrize("sep", ["\n", "\r", "\r\n", "\x0b", "\x0c",
                                     "\x1c", "\x1d", "\x1e", "\x85",
                                     "\u2028", "\u2029"])
    def test_string_and_file_split_lines_alike(self, tmp_path, sep):
        # only \n, \r and \r\n end a line, in a string as in a file; any
        # other separator joins the two rows into one malformed line 1
        text = f"+1 1:1{sep}-1 2:1\n"
        path = tmp_path / "sep.libsvm"
        path.write_bytes(text.encode("utf-8"))
        results = []
        for parse, source in ((parse_libsvm, text),
                              (parse_libsvm_path, str(path))):
            try:
                d = parse(source)
                results.append((d.features.tolist(), d.labels.tolist()))
            except ParseError as exc:
                results.append(exc.line)
        assert results[0] == results[1]
        want = (([[1.0, 0.0], [0.0, 1.0]], [1.0, -1.0])
                if sep in ("\n", "\r", "\r\n") else 1)
        assert results[0] == want

    def test_label_coercion(self):
        d = parse_libsvm("0 1:1\n1 1:1\n-1 1:1\n+1 1:1",
                         coerce_binary_labels=True)
        np.testing.assert_array_equal(d.labels, [-1.0, 1.0, -1.0, 1.0])
        with pytest.raises(ParseError):
            parse_libsvm("2 1:1", coerce_binary_labels=True)

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            m, n = int(rng.integers(1, 8)), int(rng.integers(1, 9))
            X = rng.normal(size=(m, n)) * (rng.random(size=(m, n)) < 0.5)
            labels = rng.choice([-1.0, 1.0], size=m)
            d = Dataset(X, labels)
            d2 = parse_libsvm(emit_libsvm(d), n_features=n)
            np.testing.assert_array_equal(d2.to_dense(), d.to_dense())
            np.testing.assert_array_equal(d2.labels, d.labels)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, data):
        m = data.draw(st.integers(1, 5))
        n = data.draw(st.integers(1, 6))
        dense = data.draw(st.lists(
            st.lists(st.one_of(st.just(0.0),
                               st.floats(-1e6, 1e6, allow_nan=False)),
                     min_size=n, max_size=n),
            min_size=m, max_size=m))
        labels = data.draw(st.lists(st.floats(-10, 10, allow_nan=False),
                                    min_size=m, max_size=m))
        d = Dataset(np.asarray(dense), np.asarray(labels))
        d2 = parse_libsvm(emit_libsvm(d), n_features=n)
        np.testing.assert_array_equal(d2.to_dense(), d.to_dense())
        np.testing.assert_array_equal(d2.labels, d.labels)


class TestMinmaxScale:
    def test_hand_columns(self):
        X = np.array([[1.0, 5.0, -1.0], [3.0, 5.0, 0.0], [2.0, 5.0, 1.0]])
        d = minmax_scale(Dataset(X, np.zeros(3)))
        S = d.to_dense()
        np.testing.assert_allclose(S[:, 0], [0.0, 1.0, 0.5])
        np.testing.assert_allclose(S[:, 1], [0.0, 0.0, 0.0])  # constant -> 0
        np.testing.assert_allclose(S[:, 2], [0.0, 0.5, 1.0])

    def test_range_is_unit(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(20, 6)) * 7 + 3
        S = minmax_scale(Dataset(X, np.zeros(20))).to_dense()
        assert S.min() >= 0.0 and S.max() <= 1.0
        np.testing.assert_allclose(S.min(axis=0), 0.0, atol=1e-15)
        np.testing.assert_allclose(S.max(axis=0), 1.0, atol=1e-15)

    def test_integer_features_scale_to_floats(self):
        X = np.array([[0, 5], [2, 10], [4, 0]])
        S = minmax_scale(Dataset(X, np.zeros(3))).features
        assert S.dtype == np.float64
        np.testing.assert_array_equal(S, [[0, 0.5], [0.5, 1], [1, 0]])

    def test_constant_signed_zero_columns_map_to_positive_zero(self):
        # either zero may be a column's minimum, and x - lo is -0.0 where x
        # is -0.0 and lo is +0.0
        X = np.array([[0.0, -0.0, 1.0], [-0.0, 0.0, 2.0], [0.0, -0.0, 3.0]])
        S = minmax_scale(Dataset(X, np.zeros(3))).features
        assert not np.signbit(S[:, :2]).any()
        np.testing.assert_array_equal(S[:, 2], [0.0, 0.5, 1.0])

    def test_no_rows_rejected(self):
        with pytest.raises(ValueError, match="at least one row"):
            minmax_scale(Dataset(np.zeros((0, 3)), np.zeros(0)))

    def test_allocates_one_matrix(self):
        rng = np.random.default_rng(3)
        # large enough that NumPy's fixed 64 KiB ufunc buffer stays small
        X = (rng.random((1000, 120)) < 0.1).astype(float)
        X[:, 7] = 1.0  # a constant column
        d = Dataset(X, np.zeros(1000))
        tracemalloc.start()
        try:
            S = minmax_scale(d).features
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * X.nbytes
        lo, span = X.min(axis=0), X.max(axis=0) - X.min(axis=0)
        nz = span > 0
        np.testing.assert_array_equal(S[:, nz], (X[:, nz] - lo[nz]) / span[nz])
        np.testing.assert_array_equal(S[:, ~nz], 0.0)


class TestAugmentCollinear:
    def test_intercept_only(self):
        X = np.arange(6.0).reshape(3, 2)
        d = augment_collinear(Dataset(X, np.zeros(3)), copies=0,
                              add_intercept=True)
        D = d.to_dense()
        assert D.shape == (3, 3)
        np.testing.assert_array_equal(D[:, -1], np.ones(3))

    def test_copies_duplicate_leading_columns(self):
        X = np.arange(12.0).reshape(4, 3)
        d = augment_collinear(Dataset(X, np.zeros(4)), copies=2)
        D = d.to_dense()
        assert D.shape == (4, 5)
        np.testing.assert_array_equal(D[:, 3], X[:, 0])
        np.testing.assert_array_equal(D[:, 4], X[:, 1])

    def test_rank_unchanged_and_gram_singular(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(10, 4))
        d = augment_collinear(Dataset(X, np.zeros(10)), copies=4)
        D = d.to_dense()
        assert np.linalg.matrix_rank(D) == np.linalg.matrix_rank(X)
        # a null vector by construction: e_0 - e_4
        z = np.zeros(8)
        z[0], z[4] = 1.0, -1.0
        assert np.linalg.norm(D @ z) <= 1e-12

    def test_copies_bounds(self):
        d = Dataset(np.eye(2), np.zeros(2))
        with pytest.raises(ValueError):
            augment_collinear(d, copies=3)


class TestSyntheticGenerators:
    def test_determinism(self):
        a = synth_instance("lrp", 50, 20, 7).g1.payload
        b = synth_instance("lrp", 50, 20, 7).g1.payload
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])
        c = synth_instance("lsrp", 30, 40, 1).g1.payload
        d = synth_instance("lsrp", 30, 40, 1).g1.payload
        np.testing.assert_array_equal(c[0], d[0])

    def test_lrp_constants(self):
        inst = synth_lrp(50, 20, 7)
        A, b = inst.g1.payload
        assert inst.f1.lipschitz_grad == 1.0
        assert inst.f1.strong_convexity == 1.0
        assert inst.g2.kind == "l1_ball" and inst.g2.radius == 10.0
        assert set(np.unique(b)) <= {-1.0, 1.0}

    def test_lsrp_overparameterized_rank(self):
        inst = synth_lsrp(40, 60, 1)
        A, b = inst.g1.payload
        assert np.linalg.matrix_rank(A) <= 40
        # non-singleton solution set: a null direction exists
        _, s, Vt = np.linalg.svd(A)
        null = Vt[-1]
        assert np.linalg.norm(A @ null) <= 1e-8 * np.linalg.norm(A)
        assert inst.f1.strong_convexity == pytest.approx(0.02)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            synth_instance("nope", 5, 5, 0)
