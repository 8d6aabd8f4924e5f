import csv
import dataclasses
import hashlib
import json
import tracemalloc
from importlib import resources
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scorelink.experiment as experiment_module
import scorelink.links as links_module
from scorelink import (
    FitConfig,
    LabeledSample,
    LinkModelKind,
    LogisticParams,
    NumericalError,
    SplitPlan,
    cli,
    confusion,
    draw_split,
    error_report,
    estimate_transition,
    fit_m7,
    fit_mle,
    score,
)
from scorelink.evaluation import _rates
from scorelink.experiment import (
    ExperimentConfig,
    _block_counts,
    _blocks,
    _run_unit,
    emit_roc_suite,
    run_experiment,
    write_experiment_outputs,
)


@pytest.fixture(scope="module")
def small_config():
    return ExperimentConfig(learning_sizes=(50, 100), repetitions=4, seed=202)


@pytest.fixture(scope="module")
def small_result(source, target, small_config):
    return run_experiment(source, target, small_config)


def run_unit(source, source_params, target, config, size, repetitions):
    """The records of _run_unit with the run's source side at
    ``source_params``, as run_experiment builds it at the source fit."""
    terms = links_module._source_terms(source, source_params)
    return _run_unit(terms, target, config, size, repetitions)


def read_dir(path: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


class TestRunExperiment:
    def test_record_count_and_order(self, small_result, small_config):
        records = small_result.records
        assert len(records) == 2 * 4 * 7
        keys = [(r.learning_size, r.repetition, r.model) for r in records]
        assert keys == sorted(
            keys, key=lambda k: (k[0], k[1], [m.value for m in small_config.models].index(k[2]))
        )

    def test_m1_constant_across_repetitions(self, small_result):
        """M1 ignores the learning sample; its fitted likelihood varies only
        through the sample it is evaluated on, never its parameters. The
        test error varies only through the test split."""
        m1 = [r for r in small_result.records if r.model == "M1"]
        assert len({r.learning_size for r in m1}) == 2
        # classification counts at a fixed test size differ only by split
        for n in (50, 100):
            rows = [r for r in m1 if r.learning_size == n]
            totals = {
                r.true_positive + r.false_positive + r.true_negative + r.false_negative
                for r in rows
            }
            assert totals == {274 - n}

    def test_shared_splits_across_models(self, small_result):
        """All seven models see the identical partition: test-sample class
        totals agree within each (n, repetition)."""
        by_unit = {}
        for r in small_result.records:
            key = (r.learning_size, r.repetition)
            marg = (
                r.true_positive + r.false_negative,  # test positives
                r.false_positive + r.true_negative,  # test negatives
            )
            by_unit.setdefault(key, set()).add(marg)
        assert all(len(margs) == 1 for margs in by_unit.values())

    def test_aggregation_matches_records(self, small_result):
        table = small_result.tables["test_error"]
        for model in table.models:
            for n in table.learning_sizes:
                values = [
                    r.test_error
                    for r in small_result.records
                    if r.model == model and r.learning_size == n and not r.failed
                ]
                np.testing.assert_allclose(table.mean(model, n), np.mean(values), rtol=0, atol=0)
                np.testing.assert_allclose(table.std(model, n), np.std(values), rtol=0, atol=0)

    def test_parallel_equals_serial(self, source, target, small_config, small_result):
        parallel = run_experiment(source, target, small_config, jobs=2)
        assert parallel.records == small_result.records

    def test_learning_size_bound(self, source, target):
        with pytest.raises(ValueError, match="below the target size"):
            run_experiment(source, target, ExperimentConfig(learning_sizes=(274,)))

    def test_pool_capped_at_unit_count(
        self, source, target, small_config, small_result, monkeypatch
    ):
        """No more workers than work units; the fake pool starts no process."""
        sizes = []

        class SerialPool:
            def __init__(self, processes, initializer, initargs):
                sizes.append(processes)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, function, items):
                return list(map(function, items))

        monkeypatch.setattr(experiment_module.multiprocessing, "Pool", SerialPool)
        monkeypatch.setattr(experiment_module, "_WORKER_STATE", {})
        result = run_experiment(source, target, small_config, jobs=64)
        assert sizes == [len(_blocks(small_config, target.dimension))]
        assert result.records == small_result.records

    @pytest.mark.parametrize(
        "settings, message",
        [
            ({"learning_sizes": (50.7,)}, "learning size must be an integer, got 50.7"),
            ({"learning_sizes": (50, True)}, "learning size must be an integer, got True"),
            ({"repetitions": 2.9}, "repetitions must be an integer, got 2.9"),
            ({"repetitions": False}, "repetitions must be an integer, got False"),
            ({"models": ("M1",)}, "model must be a LinkModelKind, got 'M1'"),
        ],
        ids=["fractional-size", "bool-size", "fractional-repetitions", "bool-repetitions",
             "model-name"],
    )
    def test_config_rejects_what_it_would_rewrite(self, settings, message):
        """Settings the sweep would truncate, or fail on only mid-run, are
        refused when the configuration is built."""
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(**settings)

    def test_config_stores_numpy_integers_as_ints(self):
        """A size or repetition count given as a numpy integer is stored as
        an int, so that metadata.json can hold it."""
        config = ExperimentConfig(learning_sizes=(np.int64(50),), repetitions=np.int64(2))
        assert [type(n) for n in (*config.learning_sizes, config.repetitions)] == [int, int]

    def test_model_subset(self, source, target):
        config = ExperimentConfig(
            learning_sizes=(50,), repetitions=2, seed=1, models=(LinkModelKind.M1, LinkModelKind.M3)
        )
        result = run_experiment(source, target, config)
        assert {r.model for r in result.records} == {"M1", "M3"}

    def test_soft_error_trend_for_recalibrated_models(self, source, target):
        """Mean test error of M3/M4 does not get worse with n (0.02 slack)."""
        config = ExperimentConfig(learning_sizes=(50, 200), repetitions=30, seed=9)
        result = run_experiment(source, target, config)
        for model in ("M3", "M4"):
            t = result.tables["test_error"]
            assert t.mean(model, 200) <= t.mean(model, 50) + 0.02


class TestOutputs:
    def test_file_set(self, small_result, source, target, small_config, tmp_path):
        out = tmp_path / "results"
        write_experiment_outputs(small_result, out, dataset_sha256="abc123")
        emit_roc_suite(source, target, small_config, out_dir=out)
        names = {p.name for p in out.iterdir()}
        expected = {
            "tables_test_error.csv",
            "tables_type_i.csv",
            "tables_type_ii.csv",
            "raw_records.csv",
            "metadata.json",
            "roc_all.svg",
        } | {f"roc_M{k}.csv" for k in range(1, 8)}
        assert names == expected

    def test_tables_recomputable_from_raw(self, small_result, tmp_path):
        out = tmp_path / "results"
        write_experiment_outputs(small_result, out)
        with open(out / "raw_records.csv", newline="") as f:
            raw = list(csv.DictReader(f))
        with open(out / "tables_test_error.csv", newline="") as f:
            table = list(csv.DictReader(f))
        for row in table:
            values = [
                float(r["test_error"])
                for r in raw
                if r["model"] == row["model"]
                and r["learning_size"] == row["learning_size"]
                and r["failed"] == "0"
            ]
            assert f"{np.mean(values):.3f}" == row["mean"]
            assert len(values) == int(row["repetitions_used"])

    def test_metadata_contents(self, small_result, tmp_path):
        out = tmp_path / "results"
        write_experiment_outputs(small_result, out, dataset_sha256="deadbeef")
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["seed"] == 202
        assert meta["learning_sizes"] == [50, 100]
        assert meta["repetitions"] == 4
        assert meta["dataset_sha256"] == "deadbeef"
        assert meta["threshold"] == 0.5
        assert "Philox" in meta["rng"]
        assert meta["splits_shared_across_sizes"] is False

    def test_identical_bytes_across_job_counts(self, source, target, small_config, tmp_path):
        outs = []
        for jobs, name in ((1, "serial"), (3, "parallel")):
            out = tmp_path / name
            result = run_experiment(source, target, small_config, jobs=jobs)
            write_experiment_outputs(result, out, dataset_sha256="x")
            emit_roc_suite(source, target, small_config, out_dir=out)
            outs.append(read_dir(out))
        assert outs[0] == outs[1]

    def test_numpy_scalars_write_python_bytes(self, small_result, tmp_path):
        """Records holding numpy scalars write the bytes of Python ones."""
        as_numpy = {bool: np.bool_, int: np.int64, float: np.float64}
        records = tuple(
            dataclasses.replace(
                r,
                **{
                    f.name: as_numpy[type(getattr(r, f.name))](getattr(r, f.name))
                    for f in dataclasses.fields(r)
                    if type(getattr(r, f.name)) in as_numpy
                },
            )
            for r in small_result.records
        )
        assert isinstance(records[0].log_likelihood, np.float64)
        assert isinstance(records[0].failed, np.bool_)
        write_experiment_outputs(small_result, tmp_path / "python")
        write_experiment_outputs(
            dataclasses.replace(small_result, records=records), tmp_path / "numpy"
        )
        raw = [(tmp_path / side / "raw_records.csv").read_bytes() for side in ("python", "numpy")]
        assert raw[0] == raw[1]


# sha256 of the `scorelink experiment --sizes 50,200 --repetitions 5` outputs
# on the packaged german.csv (seed 0). Frozen; the raw-records digest was
# re-pinned four times: when M7 began at the source fit and a Newton step
# took one linear solve, when the kernel took one exp per Newton point and
# summed the gradient and a symmetric information over row blocks, when
# every M7 refit began one shared Newton step from the source fit, and when
# the engine took the intercept column implicit and M7's source rows once,
# as rows its members share.
GOLDEN_SHA256 = {
    "raw_records.csv": "c48a83818a07da32a21193afa030db434599e65af6048ff0335b5b9c4920268c",
    "tables_test_error.csv": "2564b04dbbec654bf193c6b60c15e47bb0f8b82dcd6a5fd39eeef7d28f7fcdf7",
    "tables_type_i.csv": "ab79c732a0929d7bd23ff5dab0afdc062f6cbcd57183f3b28a69f47b116dc787",
    "tables_type_ii.csv": "9f2aea02a3d8e60da8d0456b21f186b1ed6cdb30af5a1ba84addc7a973703df7",
}


class TestGoldenBytes:
    def test_german_outputs_match_frozen_digests(self, tmp_path, capsys):
        """Pins the bytes of the raw records and the three tables, so that
        any drift in a fit, a count or a rate fails here. Only a deliberate
        numerical re-baseline updates these digests, in the same change that
        moves the fits, and says so."""
        data = resources.files("scorelink").joinpath("data/german.csv")
        with resources.as_file(data) as path:
            argv = ["experiment", "--data", str(path), "--out", str(tmp_path),
                    "--sizes", "50,200", "--repetitions", "5"]
            assert cli.main(argv) == 0
        capsys.readouterr()
        digests = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in GOLDEN_SHA256
        }
        assert digests == GOLDEN_SHA256


class TestRocSuite:
    def test_one_curve_per_model(self, source, target, small_config):
        curves = emit_roc_suite(source, target, small_config, learning_size=100)
        assert set(curves) == {f"M{k}" for k in range(1, 8)}

    def test_default_size_prefers_200(self, source, target):
        assert ExperimentConfig().roc_learning_size == 200
        assert ExperimentConfig(learning_sizes=(50, 100)).roc_learning_size == 100

    def test_m1_curve_fixed_for_fixed_split(self, source, target, small_config):
        a = emit_roc_suite(source, target, small_config, learning_size=100)
        b = emit_roc_suite(source, target, small_config, learning_size=100)
        np.testing.assert_array_equal(a["M1"].miss_rate, b["M1"].miss_rate)
        assert a["M1"].auc == b["M1"].auc

    def test_experiment_files_equal_standalone_suite(
        self, source, target, small_config, tmp_path, capsys
    ):
        """The curves experiment draws from its sweep's fits are the bytes
        of the suite run alone, which sweeps one size and one repetition."""
        data = resources.files("scorelink").joinpath("data/german.csv")
        with resources.as_file(data) as path:
            argv = ["experiment", "--data", str(path), "--out", str(tmp_path / "experiment"),
                    "--sizes", "50,100", "--repetitions", "4", "--seed", "202"]
            assert cli.main(argv) == 0
        capsys.readouterr()
        emit_roc_suite(source, target, small_config, out_dir=tmp_path / "alone")
        files = [*(f"roc_M{k}.csv" for k in range(1, 8)), "roc_all.svg"]
        for name in files:
            expected = (tmp_path / "alone" / name).read_bytes()
            assert (tmp_path / "experiment" / name).read_bytes() == expected

    def test_unswept_size_rejected(self, source, target, small_config, small_result):
        with pytest.raises(ValueError, match="learning size 200 was not swept"):
            emit_roc_suite(source, target, small_config, learning_size=200, result=small_result)

    def test_unconverged_fit_rejected(self, source, target, small_config):
        config = dataclasses.replace(small_config, fit=FitConfig(max_iterations=1))
        with pytest.raises(NumericalError):
            emit_roc_suite(source, target, config)


def same_records(a, b) -> bool:
    # repr, because failed records hold NaN, which equals nothing
    return [repr(dataclasses.astuple(r)) for r in a] == [repr(dataclasses.astuple(r)) for r in b]


def per_repetition(source, source_params, target, config, size):
    """The records of each repetition run as a block of its own."""
    return [
        rec
        for r in range(config.repetitions)
        for rec in run_unit(source, source_params, target, config, size, range(r, r + 1))
    ]


class TestBlocks:
    def test_blocks_partition_the_repetitions_within_budget(self):
        config = ExperimentConfig()
        units = _blocks(config, 19)
        for n in config.learning_sizes:
            blocks = [block for size, block in units if size == n]
            assert [r for block in blocks for r in block] == list(range(config.repetitions))
            assert max(len(b) for b in blocks) - min(len(b) for b in blocks) <= 1
            assert all(len(b) * n * 20 <= links_module._BLOCK_CELLS for b in blocks)
        assert len(units) < len(config.learning_sizes) * config.repetitions

    def test_one_newton_call_per_size_model_and_block(self, source, target, monkeypatch):
        calls = {"batch": [], "fit_m7": 0, "fit_mle": 0}
        batch = links_module.maximize_logistic_batch

        def counting_batch(design, *args, shared=None, **kwargs):
            # members, and the rows of each, the source rows M7 shares included
            rows = design.shape[1] + (0 if shared is None else shared.shape[1])
            calls["batch"].append((design.shape[0], rows))
            return batch(design, *args, shared=shared, **kwargs)

        def counting(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(links_module, "maximize_logistic_batch", counting_batch)
        monkeypatch.setattr(links_module, "fit_m7", counting("fit_m7", links_module.fit_m7))
        fit_mle = counting("fit_mle", experiment_module.fit_mle)
        monkeypatch.setattr(experiment_module, "fit_mle", fit_mle)
        config = ExperimentConfig(learning_sizes=(50, 100), repetitions=8, seed=202)
        run_experiment(source, target, config)
        # each block holds all 8 repetitions: M2-M6 once per (size, block), M1
        # never, and M7 once per chunk of the block within the cell budget, a
        # member counted at half its (726 + n) x 20 pooled cells: one chunk of
        # 8 at n = 50, two of 4 at 100
        source_rows = source.n_records
        assert calls["batch"] == (
            [(8, 50)] * 5 + [(8, source_rows + 50)] + [(8, 100)] * 5 + [(4, source_rows + 100)] * 2
        )
        for n, size in ((50, 8), (100, 7)):
            member = (source_rows + n) * 20 // 2
            assert size * member <= links_module._BLOCK_CELLS < (size + 1) * member
        # no fit per repetition; fit_mle only for the source
        assert (calls["fit_m7"], calls["fit_mle"]) == (0, 1)


class TestMemory:
    def test_run_holds_the_source_rows_once(self):
        """A run on a 30,000 x 20 source allocates less, at its traced peak,
        than the source features themselves take: neither the source fit,
        nor the source terms, nor a unit's pooled M7 refits copy the source
        rows."""
        rng = np.random.default_rng(11)
        d = 20
        names = tuple(f"x{j}" for j in range(d))
        coefficients = rng.normal(scale=0.3, size=d)

        def draw(n, shift):
            features = rng.normal(size=(n, d)) + shift
            labels = (rng.random(n) < 1 / (1 + np.exp(-features @ coefficients))).astype(int)
            return LabeledSample(features, labels, names)

        source, target = draw(30_000, 0.0), draw(600, 0.5)
        config = ExperimentConfig(learning_sizes=(100, 200), repetitions=2, seed=4)
        tracemalloc.start()
        try:
            result = run_experiment(source, target, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.failures == 0
        assert peak < source.features.nbytes


class TestBlockFailures:
    """A member that fails records its own failure and nothing else changes."""

    def test_single_class_member(self):
        rng = np.random.default_rng(8)
        names = ("a", "b")
        features = rng.normal(size=(300, 2))
        labels = (rng.random(300) < 1 / (1 + np.exp(-features @ [1.0, -1.0]))).astype(int)
        source = LabeledSample(features, labels, names)
        target_labels = np.zeros(40, dtype=int)
        target_labels[:3] = 1
        target = LabeledSample(rng.normal(size=(40, 2)), target_labels, names)
        config = ExperimentConfig(learning_sizes=(6,), repetitions=8, seed=3, fit=FitConfig(ridge=0.0))
        params = fit_mle(source, config.fit).params

        block = run_unit(source, params, target, config, 6, range(8))
        assert same_records(block, per_repetition(source, params, target, config, 6))
        failed = {(r.repetition, r.model) for r in block if r.failed}
        single_class = {r for r, _ in failed}
        assert 0 < len(single_class) < 8
        assert failed == {(r, f"M{k}") for r in single_class for k in range(2, 7)}

    def test_non_finite_member(self, source, source_fit, target, monkeypatch):
        config = ExperimentConfig(learning_sizes=(50,), repetitions=4, seed=9)
        reference = per_repetition(source, source_fit.params, target, config, 50)
        batch = links_module.maximize_logistic_batch

        def corrupting(*args, **kwargs):
            result = batch(*args, **kwargs)
            result.x[1] = np.inf
            return result

        monkeypatch.setattr(links_module, "maximize_logistic_batch", corrupting)
        block = run_unit(source, source_fit.params, target, config, 50, range(4))
        failed = {(r.repetition, r.model) for r in block if r.failed}
        assert failed == {(1, f"M{k}") for k in range(2, 8)}
        kept = [r for r in block if (r.repetition, r.model) not in failed]
        assert same_records(kept, [r for r in reference if (r.repetition, r.model) not in failed])

    def test_non_finite_m7_member(self, source, source_fit, target, monkeypatch):
        """An infinite pooled fit fails only its own M7 record, also when
        the run goes through run_experiment."""
        config = ExperimentConfig(learning_sizes=(50,), repetitions=2, seed=9)
        reference = run_experiment(source, target, config).records
        batch = links_module.maximize_logistic_batch

        def corrupting(design, *args, shared=None, **kwargs):
            result = batch(design, *args, shared=shared, **kwargs)
            if shared is not None:  # M7: every member shares the source rows
                result.x[1] = np.inf
            return result

        monkeypatch.setattr(links_module, "maximize_logistic_batch", corrupting)
        result = run_experiment(source, target, config)
        assert {(r.repetition, r.model) for r in result.records if r.failed} == {(1, "M7")}
        assert result.failures == 1
        assert result.tables["test_error"].repetitions_used.tolist()[-1] == [1]
        kept = [r for r in result.records if (r.repetition, r.model) != (1, "M7")]
        assert same_records(kept, [r for r in reference if (r.repetition, r.model) != (1, "M7")])


class TestUndefinedRates:
    """A rate whose conditioning class is empty in a test split is NaN in
    its record and stays out of that metric's aggregates."""

    @pytest.fixture(scope="class")
    def result(self):
        rng = np.random.default_rng(5)
        names = ("a", "b")
        features = rng.normal(size=(300, 2))
        labels = (rng.random(300) < 1 / (1 + np.exp(-features @ [1.0, -1.0]))).astype(int)
        source = LabeledSample(features, labels, names)
        # 4 negatives among 40 rows: a test split of 4 often holds none
        target_labels = np.ones(40, dtype=int)
        target_labels[:4] = 0
        target = LabeledSample(rng.normal(size=(40, 2)), target_labels, names)
        config = ExperimentConfig(learning_sizes=(36,), repetitions=12, seed=1)
        return run_experiment(source, target, config)

    def test_records_and_tables(self, result):
        records = [r for r in result.records if not r.failed]
        no_negatives = [r for r in records if r.false_positive + r.true_negative == 0]
        assert 0 < len(no_negatives) < len(records)
        assert all(np.isnan(r.type_i) for r in no_negatives)
        assert not any(np.isnan(r.type_i) for r in records if r not in no_negatives)
        assert not any(np.isnan(r.test_error) or np.isnan(r.type_ii) for r in records)
        for metric in ("test_error", "type_i", "type_ii"):
            table = result.tables[metric]
            for i, model in enumerate(table.models):
                values = [getattr(r, metric) for r in records if r.model == model]
                values = [v for v in values if not np.isnan(v)]
                assert table.repetitions_used[i, 0] == len(values)
                assert table.mean(model, 36) == np.mean(values)
                assert table.std(model, 36) == np.std(values)

    def test_blank_cells(self, result, tmp_path):
        write_experiment_outputs(result, tmp_path)
        with open(tmp_path / "raw_records.csv", newline="") as f:
            raw = list(csv.DictReader(f))
        blank = [r for r in raw if r["type_i"] == ""]
        assert blank and all(r["failed"] == "0" and r["test_error"] != "" for r in blank)
        with open(tmp_path / "tables_type_i.csv", newline="") as f:
            used = {row["model"]: int(row["repetitions_used"]) for row in csv.DictReader(f)}
        for model, count in used.items():
            rows = [r for r in raw if r["model"] == model]
            assert count == sum(r["type_i"] != "" for r in rows) < len(rows)


@st.composite
def scored_blocks(draw):
    """A target sample, equal-size test splits of it, and the parameters
    of K fits per split, with ties at the cut-off and single-class splits.

    Features and parameters are often small integers and halves, so that
    many linear predictors sit exactly on the cut-off; some members are
    all zero, the stand-in of a failed fit. The labels lean to one class,
    so that some test splits lack the other.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, d = draw(st.integers(2, 40)), draw(st.integers(1, 4))
    repetitions, models = draw(st.integers(1, 6)), draw(st.integers(1, 7))
    grid = draw(st.booleans())
    features = rng.integers(-3, 4, size=(n, d)) if grid else rng.normal(size=(n, d))
    labels = (rng.random(n) < draw(st.sampled_from([0.05, 0.5, 0.95]))).astype(int)
    target = LabeledSample(features, labels, tuple(f"x{j}" for j in range(d)))
    size = draw(st.integers(1, n))
    test_rows = np.sort(
        np.stack([rng.permutation(n)[:size] for _ in range(repetitions)]), axis=1
    )
    params = rng.integers(-4, 5, size=(models, repetitions, d + 1)) / 2.0
    if not grid:
        params = params + rng.normal(size=params.shape)
    params[rng.random((models, repetitions)) < 0.2] = 0.0
    threshold = draw(st.sampled_from([0.5, 0.25]) | st.floats(0.01, 0.99))
    return target, test_rows, params[..., 0], params[..., 1:], threshold


class TestBlockScoring:
    @settings(max_examples=60)
    @given(scored_blocks(), st.integers(1, 400))
    def test_counts_and_rates_equal_confusion_per_member(self, block, budget):
        """Every member's counts are those of confusion on its own test
        split, and its rates those of error_report, NaN exactly where a
        rate is undefined. A small cell budget splits the block into
        chunks."""
        target, test_rows, intercepts, coefficients, threshold = block
        with mock.patch.object(links_module, "_BLOCK_CELLS", budget):
            counts = _block_counts(target, test_rows, intercepts, coefficients, threshold)
        rates = _rates(*counts)
        for i, rows in enumerate(test_rows):
            test = target.subset(rows)
            for k in range(intercepts.shape[0]):
                params = LogisticParams(intercepts[k, i], coefficients[k, i])
                expected = confusion(score(params, test.features), test.labels, threshold)
                assert tuple(counts[:, k, i]) == dataclasses.astuple(expected)
                report = error_report(expected, threshold)
                for metric, rate in zip(("test_error", "type_i", "type_ii"), rates):
                    value = float("nan") if metric in report.undefined else getattr(report, metric)
                    assert repr(float(rate[k, i])) == repr(value)


@st.composite
def small_sweeps(draw):
    """A synthetic source and a small, unbalanced target at ridge 0: some
    learning splits hold one class, so M2-M6 fail on them, and some test
    splits lack a class."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    names = ("a", "b")
    features = rng.normal(size=(120, 2))
    labels = (rng.random(120) < 1 / (1 + np.exp(-features @ [1.0, -1.0]))).astype(int)
    source = LabeledSample(features, labels, names)
    n_target = draw(st.integers(10, 24))
    target_labels = (rng.random(n_target) < draw(st.sampled_from([0.15, 0.5, 0.85]))).astype(int)
    target_labels[:2] = (0, 1)
    target = LabeledSample(rng.normal(size=(n_target, 2)), target_labels, names)
    config = ExperimentConfig(
        learning_sizes=(draw(st.integers(3, 8)),),
        repetitions=draw(st.integers(1, 5)),
        seed=draw(st.integers(0, 1000)),
        threshold=draw(st.floats(0.05, 0.95)),
        fit=FitConfig(ridge=0.0),
    )
    return source, target, config


class TestBlockRecords:
    @settings(max_examples=25)
    @given(small_sweeps())
    def test_records_equal_per_repetition_oracle(self, sweep):
        """Each record of a block is the per-repetition path: the fit of
        its learning split alone, then confusion and error_report on its
        test split. A fit that fails leaves a failed record."""
        source, target, config = sweep
        n = config.learning_sizes[0]
        params = fit_mle(source, config.fit).params
        records = run_unit(source, params, target, config, n, range(config.repetitions))
        plan = SplitPlan(n, config.repetitions, config.seed)
        for record in records:
            learning, test = draw_split(target, plan, record.repetition)
            kind = LinkModelKind(record.model)
            try:
                if kind is LinkModelKind.M7:
                    fit = fit_m7(source, learning, config.fit)
                else:
                    fit = estimate_transition(kind, params, learning, config.fit)
            except NumericalError:
                assert record.failed and not record.converged and record.target_params is None
                assert dataclasses.astuple(record)[5:9] == (0, 0, 0, 0)
                assert all(np.isnan(getattr(record, m)) for m in ("test_error", "type_i", "type_ii"))
                continue
            counts = confusion(score(fit.target_params, test.features), test.labels, config.threshold)
            report = error_report(counts, config.threshold)
            rates = {m: getattr(report, m) for m in ("test_error", "type_i", "type_ii")}
            rates.update(dict.fromkeys(report.undefined, float("nan")))
            target_params = (fit.target_params.intercept, *fit.target_params.coefficients.tolist())
            expected = experiment_module.RepetitionRecord(
                n, record.repetition, record.model, fit.converged, fit.log_likelihood,
                *dataclasses.astuple(counts), **rates, target_params=target_params,
            )
            assert repr(record) == repr(expected)
