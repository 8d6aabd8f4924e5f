import numpy as np
import pytest

from scorelink import (
    DataError,
    LabeledSample,
    SplitPlan,
    draw_split,
    load_csv,
    split_by_account_status,
)
from scorelink.dataset import write_csv


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

    def test_write_read_roundtrip(self, tmp_path, target):
        path = tmp_path / "target.csv"
        write_csv(target, path)
        again = load_csv(path)
        np.testing.assert_array_equal(again.features, target.features)
        np.testing.assert_array_equal(again.labels, target.labels)
        assert again.feature_names == target.feature_names


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
