import io
import tempfile
import warnings
from pathlib import Path

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
from scorelink.dataset import _format_number, _parse_csv, write_csv


def write_lines(tmp_path, name, lines):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


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


class _Unseekable(io.StringIO):
    """A stream that cannot be rewound, which _parse_csv reads row by row."""

    def seekable(self):
        return False


def row_loop(text: str) -> LabeledSample:
    """The sample of the float() row loop alone."""
    return _parse_csv(_Unseekable(text, newline=""), "kredit", "text")


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
        assert_bitwise(sample, row_loop(text))

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
            row_loop("a,b,kredit\n" + body)
        assert str(excinfo.value) == f"text: {message}"

    def test_header_only_file_warns_nothing(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_bytes(b"a,b,kredit\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(DataError, match="empty dataset \\(header only\\)"):
                load_csv(path)
        assert caught == []

    def test_german_is_read_by_the_c_parser(self, german, monkeypatch):
        """The packaged file needs no row loop, and the C parser's sample is
        bitwise the row loop's."""
        text = (Path(dataset_module.__file__).parent / "data" / "german.csv").read_text("utf-8")
        expected = row_loop(text)
        monkeypatch.setattr(dataset_module, "_parse_rows", None)
        assert_bitwise(dataset_module.load_german_credit(), expected)
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


class TestSplitByAccountStatus:
    def test_german_subpopulation_sizes(self, source, target):
        """726 customers vs 274 non-customers."""
        assert source.n_records == 726
        assert target.n_records == 274

    def test_split_column_removed_from_both(self, german, source, target):
        assert "laufkont" not in source.feature_names
        assert "laufkont" not in target.feature_names
        assert source.dimension == german.dimension - 1

    def test_all_rows_on_one_side_is_error(self):
        sample = LabeledSample(
            np.array([[1.0, 2.0], [1.0, 3.0]]), np.array([0, 1]), ("laufkont", "x")
        )
        with pytest.raises(DataError, match="empty subpopulation"):
            split_by_account_status(sample)

    def test_toy_rule_application(self):
        """Split values (1, 2, 1, 3): rows 2 and 4 are customers."""
        sample = LabeledSample(
            np.array([[1.0, 10.0], [2.0, 20.0], [1.0, 30.0], [3.0, 40.0]]),
            np.array([0, 1, 1, 0]),
            ("laufkont", "x"),
        )
        src, tgt = split_by_account_status(sample)
        np.testing.assert_array_equal(src.features[:, 0], [20.0, 40.0])
        np.testing.assert_array_equal(tgt.features[:, 0], [10.0, 30.0])

    def test_value_below_one_rejected(self):
        sample = LabeledSample(
            np.array([[0.0, 1.0], [2.0, 2.0]]), np.array([0, 1]), ("laufkont", "x")
        )
        with pytest.raises(DataError, match="below 1"):
            split_by_account_status(sample)

    def test_non_integer_value_rejected(self):
        sample = LabeledSample(
            np.array([[1.0, 1.0], [1.5, 2.0], [2.0, 3.0]]), np.array([0, 1, 0]), ("laufkont", "x")
        )
        with pytest.raises(DataError, match="non-integer value 1.5 at record 1"):
            split_by_account_status(sample)

    def test_unknown_column(self, german):
        with pytest.raises(DataError, match="not among features"):
            split_by_account_status(german, "no_such_column")


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
