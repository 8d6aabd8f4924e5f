"""Measuring process of the scorelink benchmark.

Runs ``scorelink.cli.main(["experiment", ...])`` in this process in a
closed loop (the next pass starts when the previous one has returned and
its outputs are checked) for the given number of seconds, and prints one
JSON object with the samples, the checks and the environment as its last
line. With tracing on, passes alternate between untraced and traced with
the stage wrappers of ``stages.TRACED`` installed.

    python3 perfbench/measure.py <spec.json>

``run.py`` writes the spec and starts this process with the BLAS thread
count set, so that BLAS threads times pool workers stay within nproc.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import stages
import workloads
from tracer import Tracer


class Checks:
    """Correctness checks of the passes; a failed check is a failed operation."""

    def __init__(self, workload: workloads.Workload, references: Path | None):
        self.workload = workload
        self.references = references
        self.attempted = 0
        self.failures: list[str] = []
        self.fits = 0
        self.failed_fits = 0
        self._first_digest = None

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def check_pass(self, out_dir: Path, stdout: str) -> int:
        """Check one pass's output files; returns its completed fits."""
        from scorelink.experiment import METADATA_FILE, RAW_FILE

        with open(out_dir / RAW_FILE, newline="", encoding="utf-8") as f:
            rows = list(csv.DictReader(f))
        failed = sum(row["failed"] == "1" for row in rows)
        self.fits += len(rows)
        self.failed_fits += failed
        self.expect(len(rows) == self.workload.fits_per_pass(),
                    f"{RAW_FILE} has {len(rows)} records")
        metadata = json.loads((out_dir / METADATA_FILE).read_text(encoding="utf-8"))
        self.expect(metadata.get("failures") == 0, f"{METADATA_FILE} reports failures")
        lines = stdout.splitlines()
        self.expect(bool(lines) and json.loads(lines[-1]).get("failures") == 0,
                    "the command did not report failures: 0")
        if self.references is not None:
            for reference in sorted(self.references.glob("tables_*.csv")):
                produced = out_dir / reference.name
                self.expect(produced.is_file() and produced.read_bytes() == reference.read_bytes(),
                            f"{reference.name} differs from its reference")
        digest = workloads.digest(out_dir)
        if self._first_digest is None:
            self._first_digest = digest
        else:
            self.expect(digest == self._first_digest, "outputs differ from the first pass")
        return len(rows) - failed


def run_pass(cli, argv: list[str], out_dir: Path, checks: Checks, tracer: Tracer | None):
    """One timed `experiment` command; None if it raised."""
    shutil.rmtree(out_dir, ignore_errors=True)
    gc.collect()
    captured = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured):
            if tracer is None:
                cli.main(argv)
            else:
                span = tracer.enter(stages.CLI)
                try:
                    cli.main(argv)
                finally:
                    tracer.exit(span)
    except SystemExit as exc:  # cli.main reports errors by exiting
        checks.expect(False, f"the experiment command exited with {exc.code}")
        return None
    except Exception:
        traceback.print_exc()
        checks.expect(False, "the experiment command raised")
        return None
    elapsed = time.perf_counter() - start
    return elapsed, checks.check_pass(out_dir, captured.getvalue())


def closed_loop(seconds: float, one_pass, minimum: int) -> list[tuple[float, int]]:
    """Passes back to back until ``seconds`` have gone and ``minimum`` ran."""
    samples = []
    start = time.perf_counter()
    while len(samples) < minimum or time.perf_counter() - start < seconds:
        result = one_pass(len(samples))
        if result is None:
            break
        samples.append(result)
    return samples


def newton_fit(features, labels):
    """Unpenalised logistic MLE by plain Newton steps, intercept first.

    Written here, apart from scorelink's fitter, so that the fits the
    program reports can be checked against it.
    """
    import numpy as np

    design = np.column_stack([np.ones(len(labels)), features])
    w = np.zeros(design.shape[1])
    for _ in range(100):
        p = 1.0 / (1.0 + np.exp(-(design @ w)))
        step = np.linalg.solve((design * (p * (1.0 - p))[:, None]).T @ design,
                               design.T @ (labels - p))
        w += step
        if np.max(np.abs(step)) < 1e-12:
            break
    return w


def bernoulli_log_likelihood(w, features, labels) -> float:
    import numpy as np

    eta = w[0] + features @ w[1:]
    return float(np.sum(labels * eta - np.logaddexp(0.0, eta)))


def gaussian_checks(workload: workloads.Workload, data: Path, truth: dict, out_dir: Path,
                    checks: Checks) -> float:
    """Check a gaussian pass's outputs; return ``oracle_max_abs_err``.

    - Every M6 and M7 record of ``raw_records.csv`` carries the
      log-likelihood on its learning sample of an independent Newton fit:
      of the learning rows for M6 (its link has a free scale per nonzero
      source coefficient and a free shift, so its optimum is the
      unconstrained fit), of the source rows pooled with the learning rows
      for M7.
    - M6's mean test error at the largest learning size is within
      ``workloads.BAYES_MARGIN`` of the target mixture's Bayes error.
    - The oracle errors: the largest absolute gaps between the source fit
      and the source mixture's exact logistic parameters, and between M6
      transferred to the repetition-0 learning sample at the largest size
      and the linked mixture's exact parameters, within the workload's
      tolerances. These gaps are sampling error of the fits; the two checks
      above are the sharp ones.
    """
    import numpy as np
    from scorelink.dataset import SplitPlan, draw_split, load_csv, split_by_account_status
    from scorelink.experiment import RAW_FILE
    from scorelink.links import LinkModelKind, estimate_transition
    from scorelink.logistic import fit_mle

    source, target = split_by_account_status(load_csv(data))
    with open(out_dir / RAW_FILE, newline="", encoding="utf-8") as f:
        records = [r for r in csv.DictReader(f) if r["model"] in ("M6", "M7")]
    for record in records:
        size, repetition = int(record["learning_size"]), int(record["repetition"])
        plan = SplitPlan(size, workload.repetitions, workloads.PARTITION_SEED)
        learning, _ = draw_split(target, plan, repetition)
        if record["model"] == "M6":
            w = newton_fit(learning.features, learning.labels)
        else:
            w = newton_fit(np.vstack([source.features, learning.features]),
                           np.concatenate([source.labels, learning.labels]))
        expected = bernoulli_log_likelihood(w, learning.features, learning.labels)
        reported = float(record["log_likelihood"] or "nan")
        checks.expect(abs(reported - expected) <= workloads.LL_TOLERANCE * abs(expected),
                      f"{record['model']} log-likelihood {reported!r} at size {size}, "
                      f"repetition {repetition}, is not the optimum's {expected!r}")

    largest = max(workload.sizes)
    m6_error = np.mean([float(r["test_error"]) for r in records
                        if r["model"] == "M6" and int(r["learning_size"]) == largest])
    checks.expect(abs(m6_error - truth["bayes_error"]) <= workloads.BAYES_MARGIN,
                  f"M6 test error {m6_error:.4f} at size {largest} is far from the "
                  f"Bayes error {truth['bayes_error']:.4f}")

    source_fit = fit_mle(source).params
    plan = SplitPlan(largest, workload.repetitions, workloads.PARTITION_SEED)
    learning, _ = draw_split(target, plan, 0)
    transferred = estimate_transition(LinkModelKind.M6, source_fit, learning).target_params

    def gap(params, exact):
        return max(abs(params.intercept - exact["intercept"]),
                   float(np.max(np.abs(params.coefficients - exact["coefficients"]))))

    errors = gap(source_fit, truth["source"]), gap(transferred, truth["target"])
    for pair, error, tolerance in zip(("source fit", "M6 transfer"), errors,
                                      workload.oracle_tolerance):
        checks.expect(error <= tolerance, f"{pair} oracle error {error:.4g} above {tolerance}")
    return max(errors)


def rss_kib() -> int:
    """Resident set size of this process now, in KiB."""
    with open("/proc/self/statm", encoding="ascii") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") // 1024


def environment(workload: workloads.Workload) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "workers": workload.jobs,
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    workload = workloads.ALL[spec["workload"]]
    work = Path(spec["work_dir"])
    data = Path(spec["inputs"]) / workloads.DATA_FILE
    references = Path(spec["references"]) if spec["references"] else None
    seconds = float(spec["seconds"])

    scorelink = workloads.import_scorelink()
    from importlib import resources

    from scorelink import cli, dataset, evaluation, experiment, links, logistic

    checks = Checks(workload, references)
    argv = workload.argv(data, work / "out")

    # warm-up: imports and code paths of a small sweep, untimed and unchecked
    german = resources.files(scorelink).joinpath("data/german.csv")
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["experiment", "--data", str(german), "--out", str(work / "warmup"),
                  "--sizes", "50", "--repetitions", "2", "--jobs", str(workload.jobs)])

    # forked pool workers start with the pages of this process resident;
    # only what a worker adds beyond them is its own memory
    parent_rss = rss_kib()
    tracer = Tracer(work / "spool")
    modules = {"cli": cli, "dataset": dataset, "evaluation": evaluation,
               "experiment": experiment, "links": links, "logistic": logistic}

    def one_pass(i):
        # traced runs alternate untraced and traced passes, so that both see
        # the same stretch of machine time and their difference is the overhead
        if not spec["trace"] or i % 2 == 0:
            return run_pass(cli, argv, work / "out", checks, None)
        tracer.run = i
        tracer.install(modules, stages.TRACED)
        try:
            return run_pass(cli, argv, work / "out", checks, tracer)
        finally:
            tracer.uninstall()
            tracer.collect(stages.RUN)

    passes = closed_loop(seconds, one_pass, 2 if spec["trace"] else 1)
    untraced = passes[0::2] if spec["trace"] else passes
    traced = passes[1::2] if spec["trace"] else []
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    pool = 0
    if workload.jobs > 1:
        pool = max(0, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss - parent_rss)
    result = {
        "samples": [elapsed for elapsed, _ in untraced],
        "completed_fits": [fits for _, fits in untraced],
        "peak_rss_mb": (own + workload.jobs * pool) / 1024,
        "layers": None,
        "oracle_max_abs_err": None,
    }

    if traced:
        (work / "trace.json").write_text(json.dumps(tracer.spans), encoding="utf-8")
        layers = stages.median_metrics(
            [stages.pass_metrics(tracer.pass_spans(run)) for run in range(1, len(passes), 2)]
        )
        traced_s = statistics.median(elapsed for elapsed, _ in traced)
        layers["trace.protocol_s"] = traced_s
        layers["trace.overhead_s"] = traced_s - statistics.median(result["samples"])
        result["layers"] = layers

    if workload.data == "gaussian" and untraced:
        # every pass's outputs equal the first's, so the last pass's stand for all
        truth = json.loads((data.parent / workloads.ORACLE_FILE).read_text(encoding="utf-8"))
        try:
            result["oracle_max_abs_err"] = gaussian_checks(workload, data, truth,
                                                           work / "out", checks)
        except (OSError, KeyError, ValueError) as exc:
            checks.expect(False, f"the gaussian checks could not read the outputs: {exc}")

    result.update(
        attempted=checks.fits + checks.attempted,
        failed=checks.failed_fits + len(checks.failures),
        failures=checks.failures,
        environment=environment(workload),
    )
    print(json.dumps(result))
    return 0 if untraced and (result["layers"] or not spec["trace"]) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
