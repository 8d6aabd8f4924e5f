"""Walkthrough: the full repeated-split protocol -- 50 random
learning/test partitions per learning size in {50, 100, 150, 200},
all seven models on shared splits, three aggregated error tables.

Writes the CSV tables, raw records, metadata, and ROC files into
demos/output/experiment/.

Run:  python demos/run_experiment.py [--quick]
"""

import sys
import time
from pathlib import Path

from scorelink import load_german_credit, split_by_account_status
from scorelink.experiment import (
    ExperimentConfig,
    emit_roc_suite,
    run_experiment,
    write_experiment_outputs,
)

quick = "--quick" in sys.argv
config = ExperimentConfig(seed=42, repetitions=5 if quick else 50)
out_dir = Path(__file__).parent / "output" / "experiment"

source, target = split_by_account_status(load_german_credit())
started = time.monotonic()
result = run_experiment(source, target, config, jobs=1)
elapsed = time.monotonic() - started
print(f"{len(result.records)} model evaluations in {elapsed:.1f}s "
      f"({result.failures} failures)\n")

for metric in ("test_error", "type_ii", "type_i"):
    table = result.tables[metric]
    print(f"mean {metric.replace('_', ' ')} by learning size")
    print("  n    " + "".join(f"{m:>8s}" for m in table.models))
    for n in table.learning_sizes:
        row = "".join(f"{table.mean(m, n):8.3f}" for m in table.models)
        print(f"{n:5d}{row}")
    print()

write_experiment_outputs(result, out_dir)
emit_roc_suite(source, target, config, out_dir=out_dir, result=result)
print(f"outputs written to {out_dir}/")
