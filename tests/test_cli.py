import hashlib
import json
import os
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import scorelink.experiment as experiment_module
import scorelink.links as links_module
from scorelink import LabeledSample, LogisticParams, SplitPlan, __version__, cli
from scorelink.dataset import load_csv, split_rows, write_csv
from scorelink.gaussian import apply_link, random_homoscedastic_pair, sample_mixture

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(*args, module="scorelink.cli", **environment):
    env = dict(os.environ, **environment)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    return subprocess.run(
        [sys.executable, "-m", module, *args],
        capture_output=True,
        text=True,
        env=env,
    )


def main_fails(capsys, *argv):
    """Run ``cli.main`` in this process, expecting it to fail; the one JSON
    line it prints on stderr, after checking that it carries the exit code."""
    with pytest.raises(SystemExit) as exit_info:
        cli.main([str(arg) for arg in argv])
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.strip().splitlines()
    error = json.loads(line)
    assert error["code"] == exit_info.value.code
    return error


@pytest.fixture(scope="module")
def german_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "german.csv"
    text = resources.files("scorelink").joinpath("data/german.csv").read_text()
    path.write_text(text)
    return path


@pytest.fixture(scope="module")
def split_dir(tmp_path_factory, german_csv):
    out = tmp_path_factory.mktemp("split")
    proc = run_cli("split", "--data", str(german_csv), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    return out


@pytest.fixture(scope="module")
def source_params_file(tmp_path_factory, split_dir):
    path = tmp_path_factory.mktemp("params") / "params.json"
    proc = run_cli(
        "fit", "--data", str(split_dir / "source.csv"), "--out", str(path)
    )
    assert proc.returncode == 0, proc.stderr
    return path


class TestSplit:
    def test_writes_both_subpopulations(self, split_dir):
        source = (split_dir / "source.csv").read_text().strip().splitlines()
        target = (split_dir / "target.csv").read_text().strip().splitlines()
        assert len(source) == 727  # header + 726
        assert len(target) == 275
        assert "laufkont" not in source[0]

    def test_summary_line(self, german_csv, tmp_path):
        proc = run_cli("split", "--data", str(german_csv), "--out", str(tmp_path / "o"))
        assert proc.returncode == 0
        summary = json.loads(proc.stdout)
        assert summary == {"source_records": 726, "target_records": 274}


class TestFit:
    def test_params_json(self, source_params_file):
        data = json.loads(source_params_file.read_text())
        assert data["converged"] is True
        assert len(data["coefficients"]) == 19
        assert isinstance(data["intercept"], float)


class TestTransfer:
    def test_m3_output_fields(self, source_params_file, split_dir):
        proc = run_cli(
            "transfer",
            "--model", "M3",
            "--source-params", str(source_params_file),
            "--learning", str(split_dir / "target.csv"),
        )
        assert proc.returncode == 0, proc.stderr
        data = json.loads(proc.stdout)
        assert data["model"] == "M3"
        assert isinstance(data["c"], float)
        assert data["lambda"] == [1.0] * 19
        assert data["converged"] is True

    def test_m1_identity(self, source_params_file, split_dir):
        proc = run_cli(
            "transfer",
            "--model", "M1",
            "--source-params", str(source_params_file),
            "--learning", str(split_dir / "target.csv"),
        )
        data = json.loads(proc.stdout)
        assert data["c"] == 0.0
        assert data["lambda"] == [1.0] * 19

    def test_m7_requires_source_data(self, source_params_file, split_dir):
        proc = run_cli(
            "transfer",
            "--model", "M7",
            "--source-params", str(source_params_file),
            "--learning", str(split_dir / "target.csv"),
        )
        assert proc.returncode == 2
        assert "source-data" in json.loads(proc.stderr.strip())["error"]

    def test_m7_pooled(self, split_dir):
        proc = run_cli(
            "transfer",
            "--model", "M7",
            "--source-data", str(split_dir / "source.csv"),
            "--learning", str(split_dir / "target.csv"),
        )
        assert proc.returncode == 0, proc.stderr
        data = json.loads(proc.stdout)
        assert data["model"] == "M7"
        assert "c" not in data

    def test_m7_source_columns_must_match(self, split_dir, tmp_path, capsys):
        """Source rows are pooled column by column, so a source file whose
        first two columns are swapped, names and values together, is a data
        error that names the first column that differs."""
        source = load_csv(split_dir / "source.csv")
        order = [1, 0, *range(2, source.dimension)]
        names = tuple(source.feature_names[j] for j in order)
        swapped = tmp_path / "swapped.csv"
        write_csv(LabeledSample(source.features[:, order], source.labels, names), swapped)
        error = main_fails(capsys, "transfer", "--model", "M7", "--source-data", swapped,
                           "--learning", split_dir / "target.csv")
        assert error == {
            "error": "feature column 1 is 'laufzeit' in the learning sample "
                     "but 'moral' in the source sample",
            "code": 3,
        }


class TestEvaluate:
    def test_error_report(self, source_params_file, split_dir):
        proc = run_cli(
            "evaluate",
            "--params", str(source_params_file),
            "--data", str(split_dir / "target.csv"),
        )
        assert proc.returncode == 0, proc.stderr
        data = json.loads(proc.stdout)
        for key in ("test_error", "type_i", "type_ii", "threshold"):
            assert key in data
        total = sum(
            data[k] for k in ("true_positive", "false_positive", "true_negative", "false_negative")
        )
        assert total == 274


class TestGaussianCheck:
    def test_residual_small(self):
        proc = run_cli("gaussian-check", "--dim", "5", "--seed", "7")
        assert proc.returncode == 0, proc.stderr
        data = json.loads(proc.stdout)
        assert data["dim"] == 5
        assert data["max_residual"] < 1e-8

    def test_multiple_instances(self):
        proc = run_cli("gaussian-check", "--dim", "3", "--seed", "1", "--instances", "5")
        data = json.loads(proc.stdout)
        assert len(data["instances"]) == 5
        assert data["max_residual"] < 1e-8


class TestExperimentCommand:
    def test_writes_output_files(self, german_csv, tmp_path):
        out = tmp_path / "results"
        proc = run_cli(
            "experiment",
            "--data", str(german_csv),
            "--out", str(out),
            "--seed", "42",
            "--sizes", "50",
            "--repetitions", "2",
        )
        assert proc.returncode == 0, proc.stderr
        names = {p.name for p in out.iterdir()}
        assert {
            "tables_test_error.csv", "tables_type_i.csv", "tables_type_ii.csv",
            "raw_records.csv", "metadata.json", "roc_all.svg",
        } <= names
        assert {f"roc_M{k}.csv" for k in range(1, 8)} <= names
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["seed"] == 42
        assert meta["dataset_sha256"] == hashlib.sha256(german_csv.read_bytes()).hexdigest()

    def test_idempotent_and_jobs_invariant(self, german_csv, tmp_path):
        outputs = []
        for name, jobs in (("a", "1"), ("b", "2")):
            out = tmp_path / name
            proc = run_cli(
                "experiment",
                "--data", str(german_csv),
                "--out", str(out),
                "--seed", "7",
                "--sizes", "50,100",
                "--repetitions", "2",
                "--jobs", jobs,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert outputs[0] == outputs[1]

    def test_byte_order_mark_changes_no_output(self, german_csv, tmp_path):
        """A copy of the data that starts with a UTF-8 byte-order mark, as
        Excel writes it, names the split column as the plain file does,
        and every output but the metadata (which holds the file's digest)
        is byte-identical to the plain file's."""
        bom_copy = tmp_path / "german-bom.csv"
        bom_copy.write_bytes(b"\xef\xbb\xbf" + german_csv.read_bytes())
        outputs = []
        for data in (german_csv, bom_copy):
            out = tmp_path / data.stem
            proc = run_cli("experiment", "--data", str(data), "--out", str(out),
                           "--sizes", "50", "--repetitions", "2")
            assert proc.returncode == 0, proc.stderr
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())
                            if p.name != "metadata.json"})
        assert {"tables_test_error.csv", "raw_records.csv"} <= set(outputs[0])
        assert outputs[0] == outputs[1]

    def test_outputs_independent_of_blas_threads(self, tmp_path):
        """Every output file is byte-identical at one and at two BLAS
        threads, on a Gaussian input whose 8,000-row source fit and pooled
        M7 designs are large enough for OpenBLAS to split a product over
        the rows between its threads, had the kernel not summed them in
        fixed row blocks."""
        rng = np.random.default_rng(0)
        spec, link = random_homoscedastic_pair(20, rng)
        source = sample_mixture(spec, 8000, 1)
        target = sample_mixture(apply_link(spec, link), 600, 2)
        accounts = np.concatenate([np.full(8000, 2.0), np.ones(600)])
        data = tmp_path / "gaussian.csv"
        write_csv(LabeledSample(
            np.column_stack([np.vstack([source.features, target.features]), accounts]),
            np.concatenate([source.labels, target.labels]),
            source.feature_names + ("laufkont",),
        ), data)
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads-{threads}"
            proc = run_cli(
                "experiment", "--data", str(data), "--out", str(out),
                "--sizes", "100,200", "--repetitions", "2",
                OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert "raw_records.csv" in outputs[0]
        assert outputs[0] == outputs[1]

    def test_tables_independent_of_emulated_cpu(self, german_csv, tmp_path):
        """The German sweep's tables and metadata.json are byte-identical
        when numpy dispatches no AVX-512 kernel and OpenBLAS runs its
        Haswell kernel, as on an AVX2-only CPU, at one and at two jobs.
        Both switches act on the child process only. raw_records.csv and
        roc_M*.csv are not compared: the last bits of their
        log-likelihoods and thresholds follow the CPU's exp and log and
        the BLAS kernel's summation order."""
        avx2 = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR",
                "OPENBLAS_CORETYPE": "Haswell"}
        outputs = []
        for name, jobs, environment in (("default", "1", {}), ("avx2-jobs-1", "1", avx2),
                                        ("avx2-jobs-2", "2", avx2)):
            out = tmp_path / name
            proc = run_cli("experiment", "--data", str(german_csv), "--out", str(out),
                           "--jobs", jobs, **environment)
            assert proc.returncode == 0, proc.stderr
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())
                            if p.name.startswith("tables_") or p.name == "metadata.json"})
        assert len(outputs[0]) == 4
        assert outputs[0] == outputs[1] == outputs[2]

    def test_config_file_merging(self, german_csv, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": 3, "sizes": [50], "repetitions": 2}))
        out = tmp_path / "results"
        proc = run_cli(
            "experiment",
            "--data", str(german_csv),
            "--out", str(out),
            "--config", str(config),
            "--repetitions", "3",  # explicit flag wins over config
        )
        assert proc.returncode == 0, proc.stderr
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["seed"] == 3
        assert meta["repetitions"] == 3
        assert meta["learning_sizes"] == [50]

    def test_unknown_config_key_rejected(self, german_csv, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"bogus": 1}))
        proc = run_cli(
            "experiment", "--data", str(german_csv),
            "--out", str(tmp_path / "x"), "--config", str(config),
        )
        assert proc.returncode == 2

    def test_roc_only_key_rejected(self, german_csv, tmp_path):
        """``n`` sizes the roc subcommand's split; experiment does not read it."""
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n": 100}))
        proc = run_cli(
            "experiment", "--data", str(german_csv),
            "--out", str(tmp_path / "x"), "--config", str(config),
        )
        assert proc.returncode == 2
        assert "'n'" in json.loads(proc.stderr)["error"]

    def test_source_fitted_once(self, german_csv, tmp_path, monkeypatch, capsys):
        """The ROC suite reads the sweep's fits: the source is fitted once,
        and no model is fitted one split at a time."""
        fitted = []

        def counting(name, function):
            def wrapper(sample, *args, **kwargs):
                fitted.append((name, sample.n_records))
                return function(sample, *args, **kwargs)
            return wrapper

        monkeypatch.setattr(
            experiment_module, "fit_mle", counting("fit_mle", experiment_module.fit_mle)
        )
        for name in ("estimate_transition", "fit_m7"):
            function = getattr(links_module, name)
            for module in (links_module, experiment_module, cli):
                if vars(module).get(name) is function:
                    monkeypatch.setattr(module, name, counting(name, function))
        code = cli.main([
            "experiment", "--data", str(german_csv), "--out", str(tmp_path / "out"),
            "--sizes", "50", "--repetitions", "1",
        ])
        assert code == 0
        assert fitted == [("fit_mle", 726)]  # the 726 customers
        assert json.loads(capsys.readouterr().out)["failures"] == 0

    def test_failed_roc_fit_is_numerical_error(self, tmp_path, capsys):
        """A fit that failed on the ROC split exits 4 naming the model,
        after the tables are written. The target's two positives are both
        test rows, so at ridge 0 M2-M6 have no finite fit on its learning
        rows."""
        rng = np.random.default_rng(3)
        _, test_rows = split_rows(
            LabeledSample(np.zeros((12, 1)), np.zeros(12), ("x",)), SplitPlan(4), 0
        )
        source_labels = (rng.random(60) < 0.5).astype(int)
        target_labels = np.zeros(12, dtype=int)
        target_labels[test_rows[:2]] = 1
        lines = ["x1,x2,laufkont,kredit"]
        for accounts, labels in ((2, source_labels), (1, target_labels)):
            for label, (x1, x2) in zip(labels, rng.normal(size=(len(labels), 2)).tolist()):
                lines.append(f"{x1!r},{x2!r},{accounts},{label}")
        data = tmp_path / "few_positives.csv"
        data.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        error = main_fails(capsys, "experiment", "--data", data, "--out", out,
                           "--sizes", "4", "--repetitions", "1", "--ridge", "0")
        assert error == {
            "error": "M2 fit failed on repetition 0 at learning size 4",
            "code": 4,
        }
        assert json.loads((out / "metadata.json").read_text())["failures"] == 5
        assert all((out / f"tables_{metric}.csv").exists()
                   for metric in ("test_error", "type_i", "type_ii"))


class TestRocCommand:
    def test_emits_curves(self, german_csv, tmp_path):
        out = tmp_path / "roc"
        proc = run_cli(
            "roc", "--data", str(german_csv), "--out", str(out), "--n", "100", "--seed", "5"
        )
        assert proc.returncode == 0, proc.stderr
        aucs = json.loads(proc.stdout)
        assert set(aucs) == {f"M{k}" for k in range(1, 8)}
        assert (out / "roc_all.svg").exists()

    def test_sweep_keys_rejected(self, german_csv, tmp_path):
        """roc draws one split and fits every model; it reads none of these."""
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"models": "M1", "jobs": 4, "sizes": "50"}))
        out = tmp_path / "roc"
        proc = run_cli(
            "roc", "--data", str(german_csv), "--out", str(out), "--config", str(config)
        )
        assert proc.returncode == 2
        assert "'jobs', 'models', 'sizes'" in json.loads(proc.stderr)["error"]
        assert not out.exists()


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, german_csv):
        proc = run_cli("fit", "--data", str(german_csv), "--frobnicate")
        assert proc.returncode == 2

    def test_unknown_subcommand(self):
        proc = run_cli("frobnicate")
        assert proc.returncode == 2

    def test_missing_file_is_data_error(self, tmp_path):
        proc = run_cli("fit", "--data", str(tmp_path / "nope.csv"))
        assert proc.returncode == 3
        err = json.loads(proc.stderr.strip())
        assert err["code"] == 3

    def test_degenerate_labels_is_numerical_error(self, tmp_path):
        path = tmp_path / "one_class.csv"
        path.write_text("x,kredit\n1,1\n2,1\n3,1\n")
        proc = run_cli("fit", "--data", str(path), "--ridge", "0")
        assert proc.returncode == 4
        err = json.loads(proc.stderr.strip())
        assert err["code"] == 4

    def test_duplicate_header_name_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "dup.csv"
        path.write_text("laufkont,kredit,kredit\n1,0,0\n2,1,1\n3,1,1\n1,0,0\n")
        error = main_fails(capsys, "fit", "--data", path)
        assert error == {
            "error": f"{path}: column 'kredit' appears more than once in the header",
            "code": 3,
        }

    def test_non_finite_cell_is_data_error(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("x1,x2,kredit\n1,2,1\n3,nan,0\n4,5,1\n6,7,0\n")
        proc = run_cli("fit", "--data", str(path))
        assert proc.returncode == 3
        assert proc.stdout == ""
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["code"] == 3
        assert "row 3, column 'x2'" in err["error"]

    @pytest.mark.parametrize(
        "option, value, message",
        [
            ("--models", "M1,M1,M3", "duplicate model M1"),
            ("--sizes", "50,50", "duplicate learning size 50"),
            ("--models", ",", "models must be non-empty"),
            ("--sizes", "0", "learning size 0 must be at least 1 and below the target size 274"),
            ("--sizes", "274", "learning size 274 must be at least 1 and below the target size 274"),
            ("--jobs", "0", "jobs must be >= 1, got 0"),
            ("--jobs", "-3", "jobs must be >= 1, got -3"),
        ],
        ids=["duplicate-model", "duplicate-size", "no-model", "size-0", "size-274",
             "jobs-0", "jobs-negative"],
    )
    def test_sweep_list_is_usage_error(self, german_csv, tmp_path, capsys, option, value, message):
        out = tmp_path / "out"
        options = {"--sizes": "50", "--repetitions": "3", option: value}
        argv = ["experiment", "--data", german_csv, "--out", out]
        error = main_fails(capsys, *argv, *(item for pair in options.items() for item in pair))
        assert error == {"error": message, "code": 2}
        assert not out.exists()

    @pytest.mark.parametrize("size", ["0", "274"])
    def test_roc_learning_size_is_usage_error(self, german_csv, tmp_path, capsys, size):
        """The same range check, message and exit code as experiment's sizes."""
        out = tmp_path / "out"
        error = main_fails(capsys, "roc", "--data", german_csv, "--out", out, "--n", size)
        message = f"learning size {size} must be at least 1 and below the target size 274"
        assert error == {"error": message, "code": 2}
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, config, message",
        [
            (["fit", "--tolerance", "inf"], None, "gradient_tolerance must be finite and > 0"),
            (["fit", "--ridge", "nan"], None, "ridge must be finite and non-negative"),
            (["experiment", "--ridge", "inf"], None, "ridge must be finite and non-negative"),
            (["fit"], '{"ridge": 1e400}', "ridge must be finite and non-negative"),
        ],
        ids=["fit-tolerance-inf", "fit-ridge-nan", "experiment-ridge-inf", "config-ridge-1e400"],
    )
    def test_non_finite_fit_setting_is_usage_error(self, german_csv, tmp_path, capsys,
                                                   argv, config, message):
        """A NaN or infinite ridge or tolerance, from a flag or from a config
        number that JSON reads as infinite, is rejected before any fit."""
        out = tmp_path / "out"
        argv = [*argv, "--data", german_csv]
        if argv[0] == "experiment":
            argv += ["--out", out]
        if config is not None:
            (tmp_path / "config.json").write_text(config)
            argv += ["--config", tmp_path / "config.json"]
        error = main_fails(capsys, *argv)
        assert error == {"error": message, "code": 2}
        assert not out.exists()

    @pytest.mark.parametrize(
        "code, argv",
        [
            (2, ["experiment", "--data", "{german}", "--out", "{file}",
                 "--sizes", "50", "--repetitions", "1", "--models", "M1"]),
            (2, ["split", "--data", "{german}", "--out", "{file}"]),
            (2, ["fit", "--data", "{german}", "--out", "{missing}/params.json"]),
            (3, ["fit", "--data", "{directory}"]),
            (3, ["fit", "--data", "{latin1}"]),
            (3, ["fit", "--data", "{german}", "--config", "{directory}"]),
            (3, ["fit", "--data", "{german}", "--config", "{latin1}"]),
            (3, ["evaluate", "--params", "{directory}", "--data", "{german}"]),
        ],
        ids=["experiment-out-is-file", "split-out-is-file", "fit-out-in-missing-dir",
             "data-is-directory", "data-not-utf8", "config-is-directory", "config-not-utf8",
             "params-is-directory"],
    )
    def test_file_error_is_one_json_line(self, german_csv, tmp_path, capsys, code, argv):
        """An input that cannot be read is a data error, an output that
        cannot be written a usage error; neither prints a traceback."""
        paths = {
            "german": german_csv,
            "file": tmp_path / "file",
            "missing": tmp_path / "missing",
            "directory": tmp_path / "directory",
            "latin1": tmp_path / "latin1.csv",
        }
        paths["file"].write_text("kept\n")
        paths["directory"].mkdir()
        paths["latin1"].write_bytes("x,kredit\n\xe9,1\n".encode("latin-1"))
        error = main_fails(capsys, *(arg.format(**paths) for arg in argv))
        assert error["code"] == code
        assert paths["file"].read_text() == "kept\n"
        assert not paths["missing"].exists()

    @pytest.mark.parametrize("command", ["experiment", "roc"])
    @pytest.mark.parametrize("out", ["{file}", "{file}/results"])
    def test_out_checked_before_sweep(self, german_csv, tmp_path, monkeypatch, capsys,
                                      command, out):
        """An --out that cannot be a directory is a usage error before any
        data is read or fitted, here at the default sweep; nothing is created."""

        def never(*args, **kwargs):
            raise AssertionError("called before --out was checked")

        for module, name in ((cli, "load_csv"), (cli, "run_experiment"),
                             (experiment_module, "run_experiment")):
            monkeypatch.setattr(module, name, never)
        file = tmp_path / "file"
        file.write_text("kept\n")
        out = out.format(file=file)
        error = main_fails(capsys, command, "--data", german_csv, "--out", out)
        assert error == {"error": f"--out {out}: {file} is not a directory", "code": 2}
        assert file.read_text() == "kept\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["evaluate", "--params", "{narrow}", "--data", "{target}"],
             "{target} has 19 features, but --params has 18"),
            (["transfer", "--model", "M4", "--source-params", "{narrow}",
              "--learning", "{target}"],
             "{target} has 19 features, but --source-params has 18"),
            (["transfer", "--model", "M7", "--source-data", "{wide}", "--learning", "{target}"],
             "{target} has 19 features, but --source-data has 20"),
        ],
        ids=["evaluate-params", "transfer-source-params", "transfer-source-data"],
    )
    def test_width_mismatch_is_data_error(self, split_dir, tmp_path, capsys, argv, message):
        """Parameters or source data of another width than the data they
        are used with are a data error, found before any fit."""
        paths = {
            "target": split_dir / "target.csv",
            "narrow": tmp_path / "narrow.json",
            "wide": tmp_path / "wide.csv",
        }
        paths["narrow"].write_text(json.dumps(LogisticParams(0.0, np.zeros(18)).to_dict()))
        rng = np.random.default_rng(0)
        names = tuple(f"x{j}" for j in range(20))
        write_csv(LabeledSample(rng.normal(size=(30, 20)), np.arange(30) % 2, names),
                  paths["wide"])
        error = main_fails(capsys, *(arg.format(**paths) for arg in argv))
        assert error == {"error": message.format(**paths), "code": 3}

    @pytest.mark.parametrize("command", ["split", "experiment", "roc"])
    @pytest.mark.parametrize(
        "body, option, message",
        [
            (None, ["--split-column", "nope"], "split column 'nope' not among features"),
            (None, ["--split-column", "kredit"], "split column 'kredit' not among features"),
            ("0,1,0\n2,2,1\n", [], "split column 'laufkont' has value below 1 at record 0"),
            ("1,1,0\n1.5,2,1\n2,3,0\n", [],
             "split column 'laufkont' has non-integer value 1.5 at record 1"),
            ("1,2,0\n1,3,1\n", [], "empty subpopulation: no source records"),
        ],
        ids=["missing-column", "target-column", "below-one", "fractional", "empty-side"],
    )
    def test_bad_split_is_data_error(self, german_csv, tmp_path, capsys, command, body, option,
                                     message):
        """Each command that splits the data reports a bad split column, or
        split, as a data error before it writes anything."""
        data = german_csv
        if body is not None:
            data = tmp_path / "data.csv"
            data.write_text("laufkont,x,kredit\n" + body)
        out = tmp_path / "out"
        error = main_fails(capsys, command, "--data", data, "--out", out, *option)
        assert error == {"error": message, "code": 3}
        assert not out.exists()

    def test_huge_finite_cells_print_no_warning(self, german_csv, tmp_path):
        """Cells near the largest double are accepted, and the fit's products
        overflow on them; no warning of it reaches stderr. ``fit`` leaves
        stderr empty, and ``experiment``, whose source fit then does not
        converge, writes one JSON line with code 4."""
        header, *rows = german_csv.read_text().splitlines()
        column = header.split(",").index("laufzeit")
        path = tmp_path / "huge.csv"
        with path.open("w") as f:
            print(header, file=f)
            for row in rows:
                cells = row.split(",")
                cells[column] = repr(float(cells[column]) * 1e200)
                print(",".join(cells), file=f)
        fit = run_cli("fit", "--data", str(path))
        assert (fit.returncode, fit.stderr) == (0, "")
        assert json.loads(fit.stdout)["converged"] is False
        proc = run_cli("experiment", "--data", str(path), "--out", str(tmp_path / "out"),
                       "--sizes", "50", "--repetitions", "2")
        assert (proc.returncode, proc.stdout) == (4, "")
        (line,) = proc.stderr.splitlines()
        assert json.loads(line) == {"error": "source fit did not converge", "code": 4}

    def test_error_output_is_single_json_line(self, tmp_path):
        proc = run_cli("fit", "--data", str(tmp_path / "nope.csv"))
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1
        json.loads(lines[0])


class TestConfigValues:
    """A --config value is parsed as its flag's text would be."""

    @pytest.mark.parametrize(
        "config",
        [
            {"sizes": [50.7]},
            {"repetitions": 2.9},
            {"seed": True},
            {"jobs": "two"},
            {"target_column": 5},
        ],
        ids=["fractional-size", "fractional-repetitions", "bool-seed", "text-jobs",
             "numeric-column"],
    )
    def test_mistyped_value_is_usage_error(self, german_csv, tmp_path, capsys, config):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        error = main_fails(
            capsys, "experiment", "--data", german_csv, "--out", out, "--config", path
        )
        assert error["code"] == 2
        (key,) = config
        assert f"config key {key!r}" in error["error"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "config, flags",
        [
            ({"sizes": "50,100", "ridge": 1, "models": "M1,M3"},
             ["--sizes", "50,100", "--ridge", "1", "--models", "M1,M3"]),
            ({"sizes": [50, 100], "ridge": 1, "models": ["M1", "M3"]},
             ["--sizes", "50,100", "--ridge", "1", "--models", "M1,M3"]),
            ({"sizes": 50, "ridge": 1, "models": "M3"},
             ["--sizes", "50", "--ridge", "1", "--models", "M3"]),
        ],
        ids=["text", "lists", "single-values"],
    )
    def test_accepted_forms_match_flags(self, german_csv, tmp_path, capsys, config, flags):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv = ["experiment", "--data", str(german_csv), "--repetitions", "1"]
        assert cli.main([*argv, "--out", str(tmp_path / "config"), "--config", str(path)]) == 0
        assert cli.main([*argv, "--out", str(tmp_path / "flags"), *flags]) == 0
        capsys.readouterr()
        metadata = [(tmp_path / name / "metadata.json").read_bytes() for name in ("config", "flags")]
        assert metadata[0] == metadata[1]


# Each subcommand's long flags, required flags and config keys, as the
# command line has had them since the config keys were introduced.
CONTRACT = {
    "split": (
        {"--data", "--out", "--target-column", "--split-column", "--config"},
        {"--data", "--out"},
        {"target_column", "split_column"},
    ),
    "fit": (
        {"--data", "--out", "--target-column", "--ridge", "--max-iterations", "--tolerance",
         "--config"},
        {"--data"},
        {"target_column", "ridge", "max_iterations", "tolerance"},
    ),
    "transfer": (
        {"--model", "--source-params", "--source-data", "--learning", "--out",
         "--target-column", "--ridge", "--max-iterations", "--tolerance", "--config"},
        {"--model", "--learning"},
        {"target_column", "ridge", "max_iterations", "tolerance"},
    ),
    "evaluate": (
        {"--params", "--data", "--target-column", "--threshold", "--config"},
        {"--params", "--data"},
        {"target_column", "threshold"},
    ),
    "experiment": (
        {"--data", "--out", "--seed", "--sizes", "--repetitions", "--models", "--threshold",
         "--ridge", "--jobs", "--target-column", "--split-column", "--config"},
        {"--data", "--out"},
        {"target_column", "split_column", "seed", "sizes", "repetitions", "models",
         "threshold", "ridge", "jobs"},
    ),
    "roc": (
        {"--data", "--out", "--n", "--seed", "--threshold", "--ridge", "--target-column",
         "--split-column", "--config"},
        {"--data", "--out"},
        {"target_column", "split_column", "n", "seed", "threshold", "ridge"},
    ),
    "gaussian-check": (
        {"--dim", "--seed", "--instances", "--config"},
        set(),
        {"dim", "seed", "instances"},
    ),
}


class TestContract:
    def test_python_m_scorelink_runs_the_cli(self, tmp_path):
        proc = run_cli("--version", module="scorelink")
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"scorelink {__version__}\n", "")
        proc = run_cli("fit", "--data", str(tmp_path / "missing.csv"), module="scorelink")
        assert proc.returncode == 3
        assert json.loads(proc.stderr)["error"].startswith("no such file")

    def test_flags_and_config_keys(self, tmp_path, capsys):
        parsers = cli._build_parser()._subparsers._group_actions[0].choices
        assert set(parsers) == set(CONTRACT)
        every_key = set().union(*(keys for _, _, keys in CONTRACT.values()))
        config = tmp_path / "config.json"
        config.write_text(json.dumps(dict.fromkeys(every_key, 1)))
        for command, (flags, required, keys) in CONTRACT.items():
            actions = [a for a in parsers[command]._actions if "--help" not in a.option_strings]
            assert {flag for a in actions for flag in a.option_strings} == flags
            assert {flag for a in actions if a.required for flag in a.option_strings} == required
            # the config is read before any input: the unknown keys are the rest
            dummies = {"--model": "M1"}
            argv = [item for flag in sorted(required) for item in (flag, dummies.get(flag, "x"))]
            error = main_fails(capsys, command, *argv, "--config", config)
            assert error == {"error": f"unknown config keys: {sorted(every_key - keys)}",
                             "code": 2}

    def test_readme_table_matches_cli(self):
        """README's "subcommand | config keys" table lists each command's options."""
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        table = readme.split("| subcommand | config keys |", 1)[1].split("\n\n", 1)[0]
        documented = {}
        for row in table.splitlines()[2:]:
            commands, keys = row.strip("|").split("|")
            for command in re.findall(r"`([^`]+)`", commands):
                documented[command] = re.findall(r"`([^`]+)`", keys)
        assert documented == {
            command: list(options) for command, (*_, options) in cli._COMMANDS.items()
        }
