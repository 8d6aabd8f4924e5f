import hashlib
import json
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from scorelink import (
    DataError,
    LabeledSample,
    SplitPlan,
    draw_split,
    load_csv,
    split_by_account_status,
)
from scorelink import dataset as dataset_module
from scorelink.dataset import _format_number, file_sha256, load_subpopulations, write_csv
from scorelink.gaussian import (
    AffineLink,
    GaussianClassParams,
    random_homoscedastic_pair,
    sample_mixture,
)
from scorelink.links import TransitionParams
from scorelink.logistic import LogisticParams


def write_lines(tmp_path, name, lines):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


# each frozen class: its constructor on caller arrays, and the fields that hold them
FROZEN = {
    "LabeledSample": (lambda a, b: LabeledSample(a, b, ("x", "y")), ("features", "labels")),
    "AffineLink": (AffineLink, ("scale", "offset")),
    "GaussianClassParams": (GaussianClassParams, ("mean", "covariance")),
    "LogisticParams": (lambda a, _: LogisticParams(0.0, a), ("coefficients",)),
    "TransitionParams": (lambda a, _: TransitionParams(0.0, a), ("scale",)),
}


@pytest.mark.parametrize("name", list(FROZEN))
def test_frozen_arrays_leave_the_callers_writable(name):
    """A constructor makes its own arrays read-only, as views of the
    caller's, without freezing the caller's arrays or copying them."""
    construct, fields = FROZEN[name]
    arrays = {
        "LabeledSample": (np.zeros((3, 2)), np.array([0, 1, 0])),
        "AffineLink": (np.ones(2), np.zeros(2)),
        "GaussianClassParams": (np.zeros(2), np.eye(2)),
    }.get(name, (np.ones(2), None))
    made = construct(*arrays)
    for field, caller in zip(fields, arrays):
        own = getattr(made, field)
        assert np.shares_memory(own, caller)
        with pytest.raises(ValueError, match="read-only"):
            own[0] = 1
        caller[0] = 1  # no error: the caller's array stays writable


class TestLoadCsv:
    def test_german_credit_counts(self, german):
        """1000 applicants, 700 creditworthy, 300 not; 20 input variables."""
        assert german.n_records == 1000
        assert german.dimension == 20
        assert german.class_counts() == (300, 700)

    def test_header_only_file_is_empty_dataset(self, tmp_path):
        path = write_lines(tmp_path, "empty.csv", ["a,b,kredit"])
        with pytest.raises(DataError, match="empty dataset"):
            load_csv(path)

    def test_small_roundtrip(self, tmp_path):
        path = write_lines(
            tmp_path, "toy.csv", ["x1,x2,kredit", "1,2.5,1", "3,4,0", "5,6,1"]
        )
        sample = load_csv(path)
        np.testing.assert_array_equal(
            sample.features, [[1.0, 2.5], [3.0, 4.0], [5.0, 6.0]]
        )
        np.testing.assert_array_equal(sample.labels, [1, 0, 1])
        assert sample.feature_names == ("x1", "x2")

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="no such file"):
            load_csv(tmp_path / "nope.csv")

    def test_missing_target_column(self, tmp_path):
        path = write_lines(tmp_path, "toy.csv", ["a,b", "1,2"])
        with pytest.raises(DataError, match="target column"):
            load_csv(path)

    @pytest.mark.parametrize(
        "header, name",
        [("laufkont,kredit,kredit", "kredit"), ("laufkont,x,laufkont,kredit", "laufkont")],
        ids=["target-twice", "split-column-twice"],
    )
    def test_duplicate_header_name_rejected(self, tmp_path, header, name):
        """A second copy of the target would be a predictor equal to the
        label, and a second split column would survive the split."""
        width = header.count(",")
        rows = [",".join(["2"] * width + [label]) for label in "0110"]
        path = write_lines(tmp_path, "dup.csv", [header, *rows])
        with pytest.raises(DataError, match=f"column '{name}' appears more than once"):
            load_csv(path)

    def test_unparseable_cell_reports_row_and_column(self, tmp_path):
        path = write_lines(tmp_path, "bad.csv", ["a,b,kredit", "1,2,1", "1,oops,0"])
        with pytest.raises(DataError, match="row 3.*'b'"):
            load_csv(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_reports_row_and_column(self, tmp_path, cell):
        """The blank line is skipped but still counts towards the row number."""
        path = write_lines(tmp_path, "bad.csv", ["a,b,kredit", "1,2,1", "", f"1,{cell},0"])
        with pytest.raises(DataError, match=f"row 4, column 'b' is not finite: {cell}"):
            load_csv(path)

    def test_non_binary_label_rejected(self, tmp_path):
        path = write_lines(tmp_path, "bad.csv", ["a,kredit", "1,2"])
        with pytest.raises(DataError, match="label must be 0 or 1"):
            load_csv(path)

    def test_fractional_label_rejected_before_cast(self):
        with pytest.raises(DataError, match="0 or 1"):
            LabeledSample(np.zeros((2, 1)), [0.6, 1.0], ("a",))

    def test_duplicate_feature_name_rejected(self):
        """A sample built in code cannot name a column twice either: a
        second split column would survive the split as a predictor."""
        with pytest.raises(DataError, match="feature name 'laufkont' appears more than once"):
            LabeledSample(np.ones((2, 3)), [0, 1], ("laufkont", "laufkont", "x"))

    def test_write_read_roundtrip(self, tmp_path, target):
        path = tmp_path / "target.csv"
        write_csv(target, path)
        again = load_csv(path)
        np.testing.assert_array_equal(again.features, target.features)
        np.testing.assert_array_equal(again.labels, target.labels)
        assert again.feature_names == target.feature_names


def row_loop(directory: Path, text: str) -> LabeledSample:
    """The sample of the float() row loop alone, which reads a file named
    like a compressed one (numpy's path reader would decompress it)."""
    path = directory / "row-loop.gz"
    path.write_bytes(text.encode())
    return load_csv(path)


def record_loadtxt(monkeypatch) -> list:
    """Make dataset's np.loadtxt record the body of each call in the
    returned list."""
    loadtxt, bodies = np.loadtxt, []

    def recording(body, *args, **kwargs):
        bodies.append(body)
        return loadtxt(body, *args, **kwargs)

    monkeypatch.setattr(dataset_module.np, "loadtxt", recording)
    return bodies


def assert_bitwise(sample, expected):
    assert sample.features.shape == expected.features.shape
    np.testing.assert_array_equal(
        sample.features.view(np.int64), expected.features.view(np.int64)
    )
    np.testing.assert_array_equal(sample.labels, expected.labels)
    assert sample.labels.dtype == expected.labels.dtype
    assert sample.feature_names == expected.feature_names


class TestParsePaths:
    """numpy's C parser reads a CSV body; the float() row loop rereads any
    body the C parser rejects or whose table fails a check. Each case is
    pinned to what the row loop alone gives."""

    @pytest.mark.parametrize(
        "text, features",
        [
            ("a,b,kredit\n1,2,1\n\n3,4,0\n", [[1, 2], [3, 4]]),
            ("a,b,kredit\n1,2,1\n3,4,0\n\n\n", [[1, 2], [3, 4]]),
            ('a,b,kredit\n"1",2,"1"\n3,"4",0\n', [[1, 2], [3, 4]]),
            ("a,b,kredit\n 1 ,\t2\t,1\n3,4 ,0\n", [[1, 2], [3, 4]]),
            ("a,b,kredit\n+1,.5,1\n5.,4,0\n", [[1, 0.5], [5, 4]]),
            ("a,b,kredit\r\n1,2,1\r\n3,4,0\r\n", [[1, 2], [3, 4]]),
            ("a,b,kredit\r1,2,1\r3,4,0\r", [[1, 2], [3, 4]]),
            ("a,b,kredit\n1,2,1\n3,4,0", [[1, 2], [3, 4]]),
            ("a,b,kredit\n1_000,2,1\n3,4,0\n", [[1000, 2], [3, 4]]),
            ("a,b,kredit\n\uff11\uff12,2,1\n3,4,0\n", [[12, 2], [3, 4]]),
        ],
        ids=["blank-line", "blank-lines-at-end", "quoted", "space-and-tab", "signs-and-dots",
             "crlf", "cr-only", "no-final-newline", "underscore", "full-width-digits"],
    )
    def test_accepted(self, tmp_path, text, features):
        path = tmp_path / "ok.csv"
        path.write_bytes(text.encode())
        sample = load_csv(path)
        np.testing.assert_array_equal(sample.features, features)
        np.testing.assert_array_equal(sample.labels, [1, 0])
        assert_bitwise(sample, row_loop(tmp_path, text))

    @pytest.mark.parametrize(
        "body, message",
        [
            ("1,2,1\n   \n3,4,0\n", "row 3 has 1 cells, expected 3"),
            ("#1,2,1\n", "cell at row 2, column 'a' is not numeric: '#1'"),
            ("1 # c,2,1\n", "cell at row 2, column 'a' is not numeric: '1 # c'"),
            ("1d5,2,1\n", "cell at row 2, column 'a' is not numeric: '1d5'"),
            ("1,0x10,1\n", "cell at row 2, column 'b' is not numeric: '0x10'"),
            (",2,1\n", "cell at row 2, column 'a' is not numeric: ''"),
            ("1, ,1\n", "cell at row 2, column 'b' is not numeric: ' '"),
            ("1,2,1,\n", "row 2 has 4 cells, expected 3"),
            ('"1,5",2,1\n', "cell at row 2, column 'a' is not numeric: '1,5'"),
            ("1,2,1\n1,2\n", "row 3 has 2 cells, expected 3"),
            ("1,2,1\n\n1e400,2,0\n", "cell at row 4, column 'a' is not finite: inf"),
            ("1,Infinity,1\n", "cell at row 2, column 'b' is not finite: inf"),
            ("1,2,1\n1,2,2\n", "row 3: label must be 0 or 1, got 2.0"),
        ],
        ids=["whitespace-line", "hash", "inline-hash", "fortran-exponent", "hex", "empty-cell",
             "space-cell", "trailing-comma", "quoted-comma", "short-row", "overflow",
             "infinity", "label-2"],
    )
    def test_rejected_with_row_loop_message(self, tmp_path, body, message):
        path = tmp_path / "bad.csv"
        path.write_bytes(("a,b,kredit\n" + body).encode())
        with pytest.raises(DataError) as excinfo:
            load_csv(path)
        assert str(excinfo.value) == f"{path}: {message}"
        with pytest.raises(DataError) as excinfo:
            row_loop(tmp_path, "a,b,kredit\n" + body)
        assert str(excinfo.value) == f"{tmp_path / 'row-loop.gz'}: {message}"

    def test_header_only_file_warns_nothing(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_bytes(b"a,b,kredit\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(DataError, match="empty dataset \\(header only\\)"):
                load_csv(path)
        assert caught == []

    @pytest.mark.parametrize(
        "name, text",
        [
            ("plain.csv", "a,b,kredit\n1,2,1\n3,4,0\n"),
            ("crlf.csv", "a,b,kredit\r\n1,2,1\r\n3,4,0\r\n"),
            ("cr-only.csv", "a,b,kredit\r1,2,1\r3,4,0\r"),
            ("newline-header.csv", 'a,"b\nc",kredit\n1,2,1\n3,4,0\n'),
            ("crlf-newline-header.csv", 'a,"b\r\nc",kredit\r\n1,2,1\r\n3,4,0\r\n'),
            ("plain.gz", "a,b,kredit\n1,2,1\n3,4,0\n"),
        ],
        ids=["plain", "crlf", "cr-only", "newline-header", "crlf-newline-header",
             "compression-suffix"],
    )
    def test_file_is_read_by_path(self, tmp_path, monkeypatch, name, text):
        """A file goes to np.loadtxt as its path, past the header's
        physical lines, and its sample is bitwise the row loop's. A file
        named like a compressed one, which numpy's path reader would
        decompress, goes to the row loop alone."""
        path = tmp_path / name
        path.write_bytes(text.encode())
        expected = row_loop(tmp_path, text)
        bodies = record_loadtxt(monkeypatch)
        if path.suffix != ".gz":
            monkeypatch.setattr(dataset_module, "_parse_rows", None)
        assert_bitwise(load_csv(path), expected)
        assert bodies == ([] if path.suffix == ".gz" else [str(path)])

    @pytest.mark.parametrize(
        "text, bound",
        [
            ("a,b,kredit\n1,2,1\n3,4,0\n", 2),
            ("a,b,kredit\n1,2,1\n3,4,0", 2),
            ("a,b,kredit\n1,2,1\n\n3,4,0\n\n", 4),
            ('a,"b\nc",kredit\n1,2,1\n3,4,0\n', 2),
            ("a,b,kredit\r\n1,2,1\r\n3,4,0\r\n", None),
        ],
        ids=["plain", "no-final-newline", "blank-lines", "newline-header", "crlf"],
    )
    def test_rows_are_bounded_by_the_line_count(self, tmp_path, monkeypatch, text, bound):
        """np.loadtxt gets the lines past the header as its row bound, so
        that it allocates its table once; a file with a carriage return, a
        line end the count misses, is read without a bound."""
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode())
        expected = row_loop(tmp_path, text)
        loadtxt, bounds = np.loadtxt, []

        def recording(*args, **kwargs):
            bounds.append(kwargs["max_rows"])
            return loadtxt(*args, **kwargs)

        monkeypatch.setattr(dataset_module.np, "loadtxt", recording)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_bitwise(load_csv(path), expected)
        assert bounds == [bound]

    @pytest.mark.parametrize("suffix", [".csv", ".gz"])
    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
    def test_byte_order_mark_and_suffix(self, tmp_path, monkeypatch, bom, suffix):
        """A leading UTF-8 byte-order mark is encoding, not part of the
        first column name: with or without it, a file gives bitwise the
        row loop's sample of the plain text, and np.loadtxt reads it, by
        path, exactly when its name is not that of a compressed file."""
        text = "a,b,kredit\n1,2.5,1\n3,4,0\n"
        expected = row_loop(tmp_path, text)
        path = tmp_path / f"data{suffix}"
        path.write_bytes(bom + text.encode())
        bodies = record_loadtxt(monkeypatch)
        assert_bitwise(load_csv(path), expected)
        assert bodies == ([str(path)] if suffix == ".csv" else [])

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_pipe_is_read_by_the_row_loop(self, tmp_path, monkeypatch):
        """A file that cannot be read twice goes to the row loop alone."""
        text = "a,b,kredit\n1,2,1\n3,4,0\n"
        expected = row_loop(tmp_path, text)
        path = tmp_path / "pipe.csv"
        os.mkfifo(path)
        monkeypatch.setattr(dataset_module.np, "loadtxt", None)
        writer = threading.Thread(target=path.write_bytes, args=(text.encode(),), daemon=True)
        writer.start()
        try:
            sample = load_csv(path)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        assert_bitwise(sample, expected)

    def test_gaussian_table_is_read_by_path(self, tmp_path, monkeypatch):
        """A few thousand rows of a Gaussian mixture, written by write_csv,
        read through numpy by path, bitwise as the row loop reads them."""
        spec, _ = random_homoscedastic_pair(6, np.random.default_rng(4))
        path = tmp_path / "mixture.csv"
        write_csv(sample_mixture(spec, 3000, seed=4), path)
        expected = row_loop(tmp_path, path.read_text(encoding="utf-8"))
        monkeypatch.setattr(dataset_module, "_parse_rows", None)
        assert_bitwise(load_csv(path), expected)

    def test_german_is_read_by_the_c_parser(self, german, tmp_path, monkeypatch):
        """The packaged file needs no row loop, and the C parser's sample is
        bitwise the row loop's, read through load_german_credit or
        load_csv, and from a copy that starts with a byte-order mark."""
        path = Path(dataset_module.__file__).parent / "data" / "german.csv"
        expected = row_loop(tmp_path, path.read_text("utf-8"))
        bom_copy = tmp_path / "german-bom.csv"
        bom_copy.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        bodies = record_loadtxt(monkeypatch)
        monkeypatch.setattr(dataset_module, "_parse_rows", None)
        assert_bitwise(dataset_module.load_german_credit(), expected)
        assert_bitwise(load_csv(path), expected)
        assert_bitwise(load_csv(bom_copy), expected)
        assert bodies == [str(path), str(path), str(bom_copy)]
        assert_bitwise(german, expected)


class TestWriteCsv:
    @pytest.mark.parametrize(
        "value, text",
        [(2.0, "2"), (-3.0, "-3"), (0.0, "0"), (-0.0, "-0.0"), (0.5, "0.5"),
         (2.0**53 - 1, "9007199254740991"), (2.0**53, "9007199254740992.0"), (1e300, "1e+300")],
    )
    def test_format_number(self, value, text):
        assert _format_number(value) == text

    @settings(max_examples=60)
    @given(
        hnp.arrays(
            float,
            st.tuples(st.integers(1, 6), st.integers(1, 4)),
            elements=st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)
            | st.sampled_from([-0.0, 0.0, 5e-324, -2.0**53, 2.0**60, 1e300, -1.7976931348623157e308]),
        ),
        st.data(),
    )
    def test_write_load_roundtrip_is_bitwise(self, features, data):
        labels = data.draw(hnp.arrays(int, features.shape[0], elements=st.integers(0, 1)))
        names = tuple(f"x{j}" for j in range(features.shape[1]))
        sample = LabeledSample(features, labels, names)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "sample.csv"
            write_csv(sample, path)
            again = load_csv(path)
        assert_bitwise(again, sample)


class TestFileSha256:
    @pytest.mark.parametrize("size", [0, 1, 2 * dataset_module._HASH_CHUNK + 1])
    def test_digest_of_the_bytes(self, tmp_path, size):
        path = tmp_path / "data.bin"
        path.write_bytes(np.random.default_rng(size).bytes(size))
        assert file_sha256(path) == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_reads_in_chunks(self, tmp_path):
        """Hashing an 8 MB file never holds more than a chunk of it."""
        path = tmp_path / "data.bin"
        path.write_bytes(bytes(8 * 2**20))
        tracemalloc.start()
        try:
            file_sha256(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


def file_routes(path, split_column="laufkont", target_column="kredit"):
    """Both routes from a CSV file to its (source, target) pair: the
    sample's split, and the loader that splits the parsed table itself."""
    return [
        lambda: split_by_account_status(load_csv(path, target_column), split_column),
        lambda: load_subpopulations(path, target_column, split_column),
    ]


def sample_routes(sample, directory, split_column="laufkont"):
    """The split of ``sample`` in memory, then both file routes of it
    written to CSV."""
    path = directory / "sample.csv"
    write_csv(sample, path)
    return [lambda: split_by_account_status(sample, split_column),
            *file_routes(path, split_column)]


GERMAN_CSV = Path(dataset_module.__file__).parent / "data" / "german.csv"


class TestSplitByAccountStatus:
    """Each case holds for the split of a sample and for both routes from
    a file: ``split_by_account_status(load_csv(path))`` and
    ``load_subpopulations(path)``."""

    def test_german_subpopulation_sizes(self, source, target):
        """726 customers vs 274 non-customers."""
        for src, tgt in [(source, target), *(route() for route in file_routes(GERMAN_CSV))]:
            assert src.n_records == 726
            assert tgt.n_records == 274

    def test_split_column_removed_from_both(self, german, source, target):
        for src, tgt in [(source, target), *(route() for route in file_routes(GERMAN_CSV))]:
            assert "laufkont" not in src.feature_names
            assert "laufkont" not in tgt.feature_names
            assert src.dimension == german.dimension - 1

    def test_all_rows_on_one_side_is_error(self, tmp_path):
        for code, side in [(1.0, "source"), (2.0, "target")]:
            sample = LabeledSample(
                np.array([[code, 2.0], [code, 3.0]]), np.array([0, 1]), ("laufkont", "x")
            )
            for route in sample_routes(sample, tmp_path):
                with pytest.raises(DataError, match=f"empty subpopulation: no {side} records"):
                    route()

    def test_toy_rule_application(self, tmp_path):
        """Split values (1, 2, 1, 3): rows 2 and 4 are customers."""
        sample = LabeledSample(
            np.array([[1.0, 10.0], [2.0, 20.0], [1.0, 30.0], [3.0, 40.0]]),
            np.array([0, 1, 1, 0]),
            ("laufkont", "x"),
        )
        for route in sample_routes(sample, tmp_path):
            src, tgt = route()
            np.testing.assert_array_equal(src.features[:, 0], [20.0, 40.0])
            np.testing.assert_array_equal(tgt.features[:, 0], [10.0, 30.0])
            np.testing.assert_array_equal(src.labels, [1, 0])
            np.testing.assert_array_equal(tgt.labels, [0, 1])

    def test_value_below_one_rejected(self, tmp_path):
        sample = LabeledSample(
            np.array([[0.0, 1.0], [2.0, 2.0]]), np.array([0, 1]), ("laufkont", "x")
        )
        for route in sample_routes(sample, tmp_path):
            with pytest.raises(DataError, match="has value below 1 at record 0"):
                route()

    def test_non_integer_value_rejected(self, tmp_path):
        sample = LabeledSample(
            np.array([[1.0, 1.0], [1.5, 2.0], [2.0, 3.0]]), np.array([0, 1, 0]), ("laufkont", "x")
        )
        for route in sample_routes(sample, tmp_path):
            with pytest.raises(DataError, match="non-integer value 1.5 at record 1"):
                route()

    def test_unknown_column(self, german):
        with pytest.raises(DataError, match="not among features"):
            split_by_account_status(german, "no_such_column")
        for route in file_routes(GERMAN_CSV, "no_such_column"):
            with pytest.raises(DataError, match="split column 'no_such_column' not among features"):
                route()

    def test_target_column_is_not_a_split_column(self):
        """The label is not a feature, so it cannot split the sample."""
        for route in file_routes(GERMAN_CSV, "kredit"):
            with pytest.raises(DataError, match="split column 'kredit' not among features"):
                route()

    @pytest.mark.parametrize(
        "name, text",
        [
            ("rows.csv.gz", "laufkont,a,kredit\n1,2.5,1\n2,4,0\n3,-1,1\n1,0,0\n"),
            ("underscore.csv", "a,laufkont,kredit\n1_000,1,1\n2,2,0\n3,4,1\n-4,1,0\n"),
        ],
        ids=["compression-suffix", "underscore"],
    )
    def test_row_loop_routes_are_bitwise_equal(self, tmp_path, name, text):
        """A body only the float() row loop reads splits bitwise the same
        by both routes."""
        path = tmp_path / name
        path.write_bytes(text.encode())
        expected, got = (route() for route in file_routes(path))
        for sample, other in zip(got, expected):
            assert_bitwise(sample, other)
        assert got[0].n_records == 2 and got[1].n_records == 2

    def test_german_routes_are_bitwise_equal(self, source, target):
        for sample, other in zip(load_subpopulations(GERMAN_CSV), (source, target)):
            assert_bitwise(sample, other)

    def test_source_rows_are_the_parse_buffer(self):
        """The loader's source features are a read-only view of the front of
        the parsed table's own buffer, which holds every parsed cell; the
        target features are a copy of their own."""
        src, tgt = load_subpopulations(GERMAN_CSV)
        buffer = src.features
        while buffer.base is not None:
            buffer = buffer.base
        assert buffer.size == 1000 * 21
        assert np.shares_memory(src.features, buffer)
        assert src.features.ctypes.data == buffer.ctypes.data
        assert not src.features.flags.writeable
        assert not np.shares_memory(tgt.features, buffer)


class TestGatherInPlace:
    @settings(max_examples=300)
    @given(st.data())
    def test_equals_a_gathered_copy(self, data):
        """Ascending rows and columns of a table, gathered over its own
        buffer in row blocks, equal a fancy-indexed copy bitwise, for
        tables on both sides of a block boundary."""
        width = data.draw(st.integers(1, 6), label="width")
        cols = data.draw(st.lists(st.sampled_from(range(width)), unique=True), label="cols")
        cols.sort()
        budget = data.draw(st.integers(1, 20), label="budget")
        height = max(1, budget // max(1, len(cols)))
        n = data.draw(st.integers(0, 3 * height + 1), label="rows")
        kind = data.draw(st.sampled_from(["none", "all", "some"]), label="kind")
        chosen = {"none": [False] * n, "all": [True] * n}.get(kind) or data.draw(
            st.lists(st.booleans(), min_size=n, max_size=n), label="mask")
        mask = np.array(chosen, dtype=bool).reshape(n)
        rows = np.flatnonzero(mask)
        table = np.random.default_rng(n * 100 + width).normal(size=(n, width))
        expected = table.copy()[np.ix_(rows, cols)]
        with mock.patch.object(dataset_module, "_BLOCK_CELLS", budget):
            got = dataset_module._gather_in_place(table, mask, cols)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()
        assert got.flags.c_contiguous
        if got.size:
            assert got.ctypes.data == table.ctypes.data


class TestLoaderMemory:
    @pytest.mark.parametrize("load", ["load_csv", "load_subpopulations"])
    def test_peak_is_about_the_parsed_table(self, tmp_path, load):
        """Loading a 30,000 x 20 file, split and label columns included,
        allocates at its traced peak less than 1.3 times the parsed table:
        neither a copy of the table without its label column nor one of
        the source rows coexists with it. The target rows are a copy, so
        their share adds to the loader's peak; here it is gaussian-100k's,
        2,000 of 102,000 rows."""
        rng = np.random.default_rng(17)
        n, d = 30_000, 18
        split = np.where(rng.random(n) < 2 / 102, 1, rng.integers(2, 5, n))
        table = np.column_stack([split, rng.normal(size=(n, d)).round(4), rng.integers(0, 2, n)])
        path = tmp_path / "wide.csv"
        header = ",".join(["laufkont", *(f"x{j}" for j in range(d)), "kredit"])
        np.savetxt(path, table, fmt="%.10g", delimiter=",", header=header, comments="")
        tracemalloc.start()
        try:
            loaded = getattr(dataset_module, load)(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.3 * table.nbytes
        samples = loaded if isinstance(loaded, tuple) else (loaded,)
        assert sum(sample.n_records for sample in samples) == n


def plain_text(rows: int = 40, seed: int = 0) -> str:
    """A plain CSV: a header and ``rows`` generated rows, one a line, the
    split codes 1 to 4 and the labels 0 or 1."""
    rng = np.random.default_rng(seed)
    lines = ["a,b,laufkont,kredit"]
    for a, b in rng.normal(size=(rows, 2)):
        lines.append(f"{float(a)!r},{float(b)!r},{rng.integers(1, 5)},{rng.integers(0, 2)}")
    return "\n".join(lines) + "\n"


def force_two_parts(monkeypatch) -> list:
    """Make every plain body take the two-process route, as a large one
    on a 2-CPU machine does; the list records whether each such parse
    gave a table."""
    monkeypatch.setattr(dataset_module, "_FORK_BYTES", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    parse, outcomes = dataset_module._parse_in_two, []

    def recording(*args):
        table = parse(*args)
        outcomes.append(table is not None)
        return table

    monkeypatch.setattr(dataset_module, "_parse_in_two", recording)
    return outcomes


def assert_no_child():
    """No child is left, and SIGINT is not left blocked."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert signal.SIGINT not in signal.pthread_sigmask(signal.SIG_BLOCK, [])


@pytest.fixture
def two_parts(monkeypatch):
    """:func:`force_two_parts`; after the test this process has no child
    left."""
    yield force_two_parts(monkeypatch)
    assert_no_child()


def forbid_fork(monkeypatch):
    def fork():
        pytest.fail("os.fork was called")

    monkeypatch.setattr(os, "fork", fork)


class TestTwoProcessParse:
    """A large plain body is parsed by this process and a forked child,
    into one shared table; the tests force that route on small inputs."""

    def test_loaders_equal_the_single_process_route(self, tmp_path, monkeypatch):
        """load_csv and load_subpopulations give bitwise the tables of the
        single-process route on a few thousand generated rows."""
        path = tmp_path / "mixture.csv"
        path.write_text(plain_text(3000, seed=5), encoding="utf-8")
        single = load_csv(path), *load_subpopulations(path)
        outcomes = force_two_parts(monkeypatch)
        forked = load_csv(path), *load_subpopulations(path)
        assert outcomes == [True, True]
        for sample, expected in zip(forked, single):
            assert_bitwise(sample, expected)
        assert single[0].n_records == 3000
        assert_no_child()

    def test_processes_meet_once(self, tmp_path, monkeypatch):
        """With hundreds of parts of a few lines each, the two processes
        claim parts until they meet, pass after pass: every part is
        claimed, this process's from the first and the child's to the
        last, and the table is bitwise np.loadtxt's."""
        path = tmp_path / "mixture.csv"
        path.write_text(plain_text(3000, seed=6), encoding="utf-8")
        monkeypatch.setattr(dataset_module, "_PART_BYTES", 256)
        body = dataset_module._scan(path, 1)
        assert len(body.parts) > 300
        expected = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        for _ in range(20):
            table = dataset_module._parse_in_two(path, body, 4)
            owner = list(table.base.base[table.nbytes :])  # the mapping past the table
            parent, child = dataset_module._PARENT, dataset_module._CHILD
            assert owner == sorted(owner, key=[parent, child].index) and owner[-1] == child
            assert table.tobytes() == expected.tobytes()
        assert_no_child()

    @settings(max_examples=40, deadline=None)
    @given(
        hnp.arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 4)),
                   elements=st.floats(-1e6, 1e6, allow_subnormal=False)),
        st.booleans(),
        st.lists(st.integers(0, 6), max_size=3),
    )
    def test_every_partition_gives_the_same_table(self, table, final_newline, cuts):
        """Whatever lines the parts start at, the child's one part the whole
        body, an empty part, or any line between, the table is bitwise
        np.loadtxt's."""
        lines = [",".join(repr(float(v)) for v in row) for row in table]
        text = "\n".join([",".join(f"c{j}" for j in range(table.shape[1])), *lines])
        text += "\n" if final_newline else ""
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "small.csv"
            path.write_bytes(text.encode())
            body = dataset_module._scan(path, 1)
            assert body.plain and body.lines == len(table)
            starts = [body.start]
            for line in lines:
                starts.append(starts[-1] + len(line) + 1)
            expected = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
            partitions = [[split] for split in range(len(table) + 1)]
            partitions.append(sorted(min(cut, len(table)) for cut in cuts))
            for rows in partitions:
                parts = ((0, body.start), *((row, starts[row]) for row in rows),
                         (len(table), starts[-1]))
                got = dataset_module._parse_in_two(path, body._replace(parts=parts),
                                                   table.shape[1])
                assert got.tobytes() == expected.tobytes()
        assert_no_child()

    @pytest.mark.parametrize("part_bytes", [1, 7, 10, 25, 2**20])
    @pytest.mark.parametrize("final_newline", [True, False])
    def test_scan_cuts_at_line_starts(self, tmp_path, monkeypatch, part_bytes, final_newline):
        """Each cut is the first body line that starts at or past its share
        of the body's bytes, or the body's end where none does, also where
        the scan's reads end mid-line; the header's lines are not the
        body's."""
        lines = ["1,2,1"] * 3 + ["10,20,0"] + ["3,4,0"] * 4
        text = 'a,"b\nc",kredit\n' + "\n".join(lines) + ("\n" if final_newline else "")
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode())
        monkeypatch.setattr(dataset_module, "_PART_BYTES", part_bytes)
        monkeypatch.setattr(dataset_module, "_HASH_CHUNK", 5)
        body = dataset_module._scan(path, 2)
        start, size = text.index("1,2,1"), len(text) - text.index("1,2,1")
        starts = [start + sum(len(line) + 1 for line in lines[:i]) for i in range(len(lines))]
        count = max(2, size // part_bytes)
        cuts = []
        for k in range(1, count):
            target = start + size * k // count
            cuts.append(next(((row, at) for row, at in enumerate(starts) if at >= target),
                             (len(lines), len(text))))
        assert body == dataset_module._Body(start, size, len(lines), True,
                                            ((0, start), *cuts, (len(lines), len(text))))
        assert len(body.parts) == count + 1

    @pytest.mark.parametrize(
        "change, forks",
        [
            ("blank-front", False),
            ("blank-back", False),
            ("crlf", False),
            ("cr", False),
            ("quote", False),
            ("no-final-newline", True),
            ("cell-front", True),
            ("cell-back", True),
            ("width-front", True),
            ("width-back", True),
            ("label-front", True),
            ("label-back", True),
            ("nan-front", True),
            ("nan-back", True),
            ("one-cell", True),
        ],
    )
    def test_fallback_gives_the_row_loop_result(self, tmp_path, monkeypatch, two_parts,
                                                change, forks):
        """A body that is not plain is never forked; a part that fails, or
        a table that fails a check, sends the file through the single-process
        route. Either way the table, or the error with its file row, is the
        row loop's."""
        lines = plain_text(40, seed=3).splitlines()
        what, _, half = change.partition("-")
        row = {"front": 4, "back": 36}.get(half)
        edit = {
            "blank": lambda line: line + "\n",
            "cell": lambda line: "x" + line,
            "width": lambda line: line.rpartition(",")[0],
            "label": lambda line: line[:-1] + "2",
            "nan": lambda line: "nan" + line[line.index(","):],
        }
        if row is not None:
            lines[row] = edit[what](lines[row])
        if what == "quote":
            lines[20] = '"' + lines[20].replace(",", '",', 1)
        if what == "one":  # a block of one-cell lines would broadcast across its rows
            lines[1:], row = [line.rpartition(",")[2] for line in lines[1:]], 1
        end = {"crlf": "\r\n", "cr": "\r"}.get(change, "\n")
        text = end.join(lines) + ("" if change == "no-final-newline" else end)
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode())
        if forks:  # the front edits fall in this process's half, the back ones in the child's
            (_, (split, _), _) = dataset_module._scan(path, 1).parts
            assert 4 < split < 36
        else:
            forbid_fork(monkeypatch)
        try:
            expected = row_loop(tmp_path, text)
        except DataError as error:
            with pytest.raises(DataError) as excinfo:
                load_csv(path)
            rows_named = re.findall(r"row \d+", str(error))
            assert rows_named == [f"row {row + 1}"]
            assert str(excinfo.value) == str(error).replace(str(tmp_path / "row-loop.gz"),
                                                            str(path))
        else:
            assert_bitwise(load_csv(path), expected)
        # a table that parses but fails a check is parsed once, in two parts
        assert two_parts == ([what in ("no", "label", "nan")] if forks else [])

    @pytest.mark.parametrize(
        "case", ["small-body", "one-cpu", "no-fork", "spawn-default", "fork-fails"]
    )
    def test_no_fork(self, tmp_path, monkeypatch, case):
        """A body below the threshold, one usable CPU, no os.fork, or a
        platform whose default start method is not fork: the body is
        parsed in this process alone, as it is when os.fork fails."""
        path = tmp_path / "data.csv"
        path.write_text(plain_text(60), encoding="utf-8")
        expected = load_csv(path)
        monkeypatch.setattr(dataset_module, "_FORK_BYTES", 0)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        forbid_fork(monkeypatch)
        if case == "small-body":
            monkeypatch.setattr(dataset_module, "_FORK_BYTES", path.stat().st_size)
        elif case == "one-cpu":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        elif case == "no-fork":
            monkeypatch.delattr(os, "fork")
        elif case == "spawn-default":
            monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn", "fork"])
        else:
            def fork():
                raise BlockingIOError("no process to be had")

            monkeypatch.setattr(os, "fork", fork)
        assert_bitwise(load_csv(path), expected)
        assert_no_child()

    def test_no_fork_beside_another_thread(self, tmp_path, monkeypatch):
        """While a second Python thread runs, the body is parsed in this
        process alone: a child forked then could wait forever on a lock
        that thread held at the fork."""
        path = tmp_path / "data.csv"
        path.write_text(plain_text(60), encoding="utf-8")
        expected = load_csv(path)
        outcomes = force_two_parts(monkeypatch)
        forbid_fork(monkeypatch)
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            sample = load_csv(path)
        finally:
            release.set()
            other.join(timeout=10)
        assert not other.is_alive()
        assert_bitwise(sample, expected)
        assert outcomes == []
        assert_no_child()

    @pytest.mark.parametrize("error", [KeyboardInterrupt, RuntimeError])
    def test_interrupt_kills_and_reaps_the_child(self, tmp_path, monkeypatch, two_parts, error):
        """An exception in this process's part ends the child at once (it
        would sleep a minute) and reaps it before propagating."""
        path = tmp_path / "data.csv"
        path.write_text(plain_text(), encoding="utf-8")
        parse = dataset_module._parse_lines

        def parse_lines(*args):
            if os.getpid() == parent:
                raise error("in the parent's part")
            time.sleep(60)
            return parse(*args)

        parent = os.getpid()
        monkeypatch.setattr(dataset_module, "_parse_lines", parse_lines)
        start = time.monotonic()
        with pytest.raises(error, match="in the parent's part"):
            load_csv(path)
        assert time.monotonic() - start < 30
        assert two_parts == []

    @pytest.mark.parametrize("failure", ["warning", "exception", "interrupt", "short-front"])
    def test_failed_child_part_is_silent(self, tmp_path, monkeypatch, capfd, two_parts,
                                         failure):
        """A warning or an exception in the child fails its part without a
        word on stdout or stderr, and the file is read again in this
        process; so does a part of the wrong length in this process."""
        path = tmp_path / "data.csv"
        path.write_text(plain_text(), encoding="utf-8")
        expected = row_loop(tmp_path, plain_text())
        parse, parent = dataset_module._parse_lines, os.getpid()

        def parse_lines(*args):
            if os.getpid() == parent:
                return failure != "short-front" and parse(*args)
            if failure == "warning":
                warnings.warn("from the child")
            elif failure == "exception":
                raise RuntimeError("from the child")
            elif failure == "interrupt":
                raise KeyboardInterrupt
            return parse(*args)

        monkeypatch.setattr(dataset_module, "_parse_lines", parse_lines)
        capfd.readouterr()
        assert_bitwise(load_csv(path), expected)
        assert capfd.readouterr() == ("", "")
        assert two_parts == [False]

    def test_experiment_bytes_across_jobs(self, tmp_path, monkeypatch):
        """`scorelink experiment` writes the same bytes from a table parsed
        in one process, and from one parsed in two at --jobs 1 and at
        --jobs 2, whose pool workers inherit the shared mapping."""
        from scorelink import cli

        data = tmp_path / "german.csv"
        data.write_bytes(GERMAN_CSV.read_bytes())

        def run(name, jobs):
            out = tmp_path / name
            argv = ["experiment", "--data", str(data), "--out", str(out), "--sizes", "50,100",
                    "--repetitions", "2", "--jobs", jobs]
            assert cli.main(argv) == 0
            return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

        single = run("single", "1")
        outcomes = force_two_parts(monkeypatch)
        assert run("forked-1", "1") == single
        assert run("forked-2", "2") == single
        assert outcomes == [True, True]
        assert_no_child()

    @pytest.mark.parametrize("child", ["parses", "warns"])
    def test_cli_prints_one_line(self, tmp_path, child):
        """A two-process `scorelink experiment`, run as its own process,
        prints its one stdout line and nothing on stderr, also when the
        child's part fails."""
        data = tmp_path / "german.csv"
        data.write_bytes(GERMAN_CSV.read_bytes())
        script = f"""
import os, sys, warnings
from scorelink import cli, dataset
dataset._FORK_BYTES = 0
os.sched_getaffinity = lambda pid: {{0, 1}}
parse, parent, ran = dataset._parse_in_two, os.getpid(), []
def parse_in_two(*args):
    table = parse(*args)
    ran.append(table is not None)
    return table
dataset._parse_in_two = parse_in_two
if {child == "warns"!r}:
    lines = dataset._parse_lines
    def parse_lines(*args):
        if os.getpid() != parent:
            warnings.warn("from the child")
        return lines(*args)
    dataset._parse_lines = parse_lines
code = cli.main(["experiment", "--data", {str(data)!r}, "--out", {str(tmp_path / "out")!r},
                 "--sizes", "50", "--repetitions", "2"])
sys.exit(code or (0 if ran == [{child == "parses"!r}] else 7))
"""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(dataset_module.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        (line,) = proc.stdout.splitlines()
        assert json.loads(line) == {"out": str(tmp_path / "out"), "failures": 0}


class TestDrawSplit:
    def test_sizes_and_disjointness(self, target):
        learning, test = draw_split(target, SplitPlan(200, 50, seed=7), 0)
        assert learning.n_records == 200
        assert test.n_records == 74
        joined = np.vstack([learning.features, test.features])
        assert joined.shape[0] == target.n_records
        # every target row appears exactly once across the two parts
        order = np.lexsort(joined.T)
        base = np.lexsort(target.features.T)
        np.testing.assert_array_equal(joined[order], target.features[base])

    def test_label_preservation(self, target):
        learning, test = draw_split(target, SplitPlan(100, 10, seed=3), 4)
        z = learning.class_counts()[0] + test.class_counts()[0]
        o = learning.class_counts()[1] + test.class_counts()[1]
        assert (z, o) == target.class_counts()

    def test_determinism(self, target):
        plan = SplitPlan(150, 50, seed=11)
        a = draw_split(target, plan, 9)
        b = draw_split(target, plan, 9)
        np.testing.assert_array_equal(a[0].features, b[0].features)
        np.testing.assert_array_equal(a[1].features, b[1].features)

    def test_frozen_partition_regression(self):
        """First learning indices under the documented Philox keying.

        Frozen from a reference run; guards the generator contract across
        platforms and library versions.
        """
        sample = LabeledSample(
            np.arange(20, dtype=float).reshape(20, 1), np.tile([0, 1], 10), ("x",)
        )
        learning, _ = draw_split(sample, SplitPlan(5, 2, seed=1), 0)
        frozen_seed1 = sorted(learning.features[:, 0].astype(int).tolist())
        learning2, _ = draw_split(sample, SplitPlan(5, 2, seed=2), 0)
        frozen_seed2 = sorted(learning2.features[:, 0].astype(int).tolist())
        assert frozen_seed1 != frozen_seed2
        assert frozen_seed1 == FROZEN_PARTITION_SEED1
        assert frozen_seed2 == FROZEN_PARTITION_SEED2

    def test_learning_size_too_large(self, target):
        with pytest.raises(DataError, match="must be smaller"):
            draw_split(target, SplitPlan(274, 1, seed=0), 0)

    def test_repetition_out_of_range(self, target):
        with pytest.raises(DataError, match="repetition_index"):
            draw_split(target, SplitPlan(50, 10, seed=0), 10)


# computed once from the implementation and frozen (regression anchors)
FROZEN_PARTITION_SEED1 = [6, 10, 11, 15, 17]
FROZEN_PARTITION_SEED2 = [2, 4, 6, 10, 11]
