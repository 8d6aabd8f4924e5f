"""The scorelink benchmark: one command that runs the user path of
``scorelink experiment`` on a workload, checks its outputs and prints
every metric by name with its unit.

    python3 perfbench/run.py --workload german-serial --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --compare PARENT_RESULTS CHANGE_RESULTS
    python3 perfbench/run.py --self-check

A run imports scorelink once untimed, so that the file cache holds it,
then sets the workload up ``Workload.setup_repeats`` times in fresh
processes (``setup_s`` is the median), then measures in one more process
(``measure.py``). The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``. Every run also appends a record with its
environment and raw samples to ``.perfbench/results.jsonl``.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import compare
import stages
import workloads

ROOT = workloads.ROOT
BENCH_DIR = workloads.BENCH_DIR
WORK = ROOT / ".perfbench"
RESULTS = WORK / "results.jsonl"
# one run must end within 180 s; this leaves room for reporting
RUN_LIMIT_S = 170


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def child_env(threads: int) -> dict:
    threads = str(threads)
    return dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                MKL_NUM_THREADS=threads, PYTHONHASHSEED="0")


def _run(argv: list, env: dict, deadline: float) -> str:
    """Run a child in its own process group; return its standard output."""
    child = subprocess.Popen([str(a) for a in argv], env=env, cwd=ROOT,
                             stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = child.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise RuntimeError(f"{Path(argv[1]).name} overran the time limit") from None
    if child.returncode != 0:
        raise RuntimeError(f"{Path(argv[1]).name} exited with code {child.returncode}")
    return out


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=10)
    return done.stdout.strip() or None


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 references: Path | None = None) -> dict:
    """Set the workload up, measure it and return the run's record.

    ``references`` overrides the workload's reference tables.
    """
    deadline = time.monotonic() + RUN_LIMIT_S
    workload = workloads.ALL[name]
    work = WORK / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    # Set-ups run with one BLAS thread: starting a BLAS thread pool at import
    # made the import's duration vary far more from run to run. The
    # measurement keeps BLAS threads times pool workers within the CPUs.
    env = child_env(1)
    _run([sys.executable, BENCH_DIR / "workloads.py", "--import"], env, deadline)
    setup_times, digests = [], []
    for k in range(workload.setup_repeats):
        inputs = work / f"inputs{k}"
        out = _run([sys.executable, BENCH_DIR / "workloads.py", name, seed, inputs], env, deadline)
        setup_times.append(float(out.splitlines()[-1]))
        digests.append(workloads.digest(inputs))
        if k:
            shutil.rmtree(work / f"inputs{k - 1}")

    if references is None and workload.references:
        references = BENCH_DIR / "references" / workload.references
    spec = {
        "workload": name,
        "inputs": str(inputs),
        "work_dir": str(work),
        "references": str(references) if references else None,
        "seconds": seconds,
        "trace": trace,
    }
    (work / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    env = child_env(max(1, len(os.sched_getaffinity(0)) // workload.jobs))
    out = _run([sys.executable, BENCH_DIR / "measure.py", work / "spec.json"], env, deadline)
    measured = json.loads(out.splitlines()[-1])
    shutil.rmtree(inputs)

    failures = measured["failures"]
    if len(set(digests)) != 1:
        failures.append("set-ups with one seed wrote different inputs")
    attempted = measured["attempted"] + 1
    failed = measured["failed"] + (len(set(digests)) != 1)
    samples = measured["samples"]
    end_to_end = {
        "protocol_s": statistics.median(samples),
        "fits_per_s": statistics.median(
            fits / elapsed for elapsed, fits in zip(samples, measured["completed_fits"])
        ),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": measured["peak_rss_mb"],
    }
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "finished": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "commit": commit(),
        "source_sha256": source_digest(),
        "environment": measured["environment"],
        "config": workload.describe(),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_fraction": failed / attempted,
        "failures": failures,
        "oracle_max_abs_err": measured["oracle_max_abs_err"],
        "end_to_end": end_to_end,
        "per_layer": measured["layers"],
        "samples": {"protocol_s": samples, "setup_s": setup_times},
    }


def report(record: dict, benchmark: dict) -> dict:
    """Print the run's metrics, one per line, and return the result object."""
    specs = benchmark["per_layer"] if record["trace"] else benchmark["end_to_end"]
    values = record["per_layer"] if record["trace"] else record["end_to_end"]
    env = record["environment"]
    print(f"workload {record['workload']} seed {record['seed']}: "
          f"{len(record['samples']['protocol_s'])} untraced passes, "
          f"{env['workers']} workers x {env['blas_threads']} BLAS threads on {env['nproc']} CPUs")
    print(f"protocol_s median {record['end_to_end']['protocol_s']:.4f} s, "
          f"tail {compare.tail(record['samples']['protocol_s'])}")
    metrics = {}
    for spec in specs:
        value = values[spec["name"]]
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"  {spec['name']:<28} {value:>16.6g} {spec['unit']}")
    if record["trace"]:
        links = sum(values[f"{name}_s"] for name in stages.LINK_MODELS)
        heavy = values["dataset.load_csv_s"] + values["links.M7_s"]
        print(f"  links.M1-M7 busy time is {links / values['experiment.run_s']:.0%} of "
              f"experiment.run_s; dataset.load_csv + links.M7 are "
              f"{heavy / values['trace.protocol_s']:.0%} of trace.protocol_s")
    print(f"  {'failed_fraction':<28} {record['failed_fraction']:>16.6g} ratio "
          f"({record['failed']} of {record['attempted']} fits and checks)")
    if record["oracle_max_abs_err"] is not None:
        print(f"  {'oracle_max_abs_err':<28} {record['oracle_max_abs_err']:>16.6g} abs")
    for failure in record["failures"]:
        print(f"  check failed: {failure}")
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def self_check(benchmark: dict) -> list[str]:
    """Run the smoke configurations; return what is wrong."""
    problems = []
    if [w["name"] for w in benchmark["workloads"]] != list(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")

    for name in workloads.SMOKE:
        for trace in (0, 1):
            argv = [sys.executable, BENCH_DIR / "run.py", "--workload", name,
                    "--seed", "1", "--seconds", "1", "--trace", str(trace)]
            lines = _run(argv, dict(os.environ), time.monotonic() + RUN_LIMIT_S).splitlines()
            result = json.loads(lines[-1])
            specs = benchmark["per_layer"] if trace else benchmark["end_to_end"]
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{name} trace {trace}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{name} trace {trace}: checks failed")
            expected = {m["name"]: m["unit"] for m in specs}
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            if printed != expected:
                problems.append(f"{name} trace {trace}: metrics {printed} not {expected}")
            for metric in expected:
                if not any(line.split()[:1] == [metric] for line in lines[:-1]):
                    problems.append(f"{name} trace {trace}: {metric} not printed on its own line")

    smoke = workloads.SMOKE["german-smoke"]
    corrupt = WORK / "corrupt-references"
    shutil.rmtree(corrupt, ignore_errors=True)
    shutil.copytree(BENCH_DIR / "references" / smoke.references, corrupt)
    table = corrupt / "tables_type_i.csv"
    with open(table, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    rows[1][2] = f"{float(rows[1][2]) + 0.001:.3f}"  # one mean, off in the last decimal
    with open(table, "w", newline="", encoding="utf-8") as f:
        csv.writer(f).writerows(rows)
    record = run_workload("german-smoke", 1, 1.0, False, references=corrupt)
    if record["correct"] or not any("tables_type_i.csv" in f for f in record["failures"]):
        problems.append("a corrupted reference table did not trip the correctness check")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(workloads.ALL))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                        help="compare two results files")
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)

    benchmark = load_benchmark()
    if args.compare:
        compare.main(*args.compare, benchmark)
        return 0
    if not (workloads.SRC / "scorelink" / "__init__.py").is_file():
        print(f"perfbench: no scorelink sources under {workloads.SRC}", file=sys.stderr)
        return 2
    if args.self_check:
        problems = self_check(benchmark)
        for problem in problems:
            print(f"self-check: {problem}")
        print("self-check: " + ("FAILED" if problems else "passed"))
        return 1 if problems else 0
    if args.workload is None:
        parser.error("--workload is required")

    seconds = args.seconds if args.seconds is not None else benchmark["run_seconds"]
    try:
        record = run_workload(args.workload, args.seed, seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    WORK.mkdir(exist_ok=True)
    with open(RESULTS, "a", encoding="utf-8") as f:
        f.write(json.dumps(record) + "\n")
    print(json.dumps(report(record, benchmark)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
