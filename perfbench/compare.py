"""Compare mode: diff two results files, one row per (workload, metric).

Each side is a ``results.jsonl`` written by ``run.py``, usually one from
the parent commit and one from the change, each holding ten or more runs
per workload. The k-th run of a seed on one side is paired with the k-th
run of that seed on the other (runs are paired by order when no seed is
shared); unpaired runs are reported. A workload whose two sides ran for
different ``seconds`` or with a different configuration is not compared.
A row reads:

- improved: the change wins at least 9 of 10 pairs (ties count for
  neither side) and the medians differ by more than the parent's
  interquartile spread, with no more failed operations than the parent;
- worse: the change's median is worse than the parent's by more than the
  metric's bound (per-layer metrics have none: the paired rule, reversed);
- unresolved: the runs spread wider than the bound and the change does
  not read better than the parent on every run;
- unchanged: otherwise.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

PAIR_SHARE = 0.9
MIN_PAIRS = 10


def load(path: str) -> list[dict]:
    return [json.loads(line) for line in Path(path).read_text(encoding="utf-8").splitlines()
            if line.strip()]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def _keyed(runs: list[dict]) -> dict[tuple[int, int], dict]:
    """Runs keyed by (seed, how many earlier runs had that seed)."""
    seen: dict[int, int] = {}
    keyed = {}
    for run in runs:
        k = seen.get(run["seed"], 0)
        seen[run["seed"]] = k + 1
        keyed[(run["seed"], k)] = run
    return keyed


def pairs(parent: list[dict], change: list[dict]) -> list[tuple[dict, dict]]:
    p_keyed, c_keyed = _keyed(parent), _keyed(change)
    shared = [(p_keyed[key], c_keyed[key]) for key in p_keyed if key in c_keyed]
    return shared or list(zip(parent, change))


def mismatch(parent: list[dict], change: list[dict]) -> str | None:
    """Why two sets of runs of one workload cannot be compared, if they cannot."""
    for field in ("seconds", "config"):
        values = {json.dumps(r[field], sort_keys=True) for r in parent + change}
        if len(values) > 1:
            return f"the runs differ in {field}: {' vs '.join(sorted(values))}"
    return None


def judge(parent: list[float], change: list[float], paired: list[tuple[float, float]],
          better: str, bound: float | None, more_failures: bool) -> str:
    sign = 1.0 if better == "lower" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    gain = sign * (p_med - c_med)
    spread = p_q3 - p_q1
    wins = sum(sign * (p - c) > 0 for p, c in paired)
    losses = sum(sign * (p - c) < 0 for p, c in paired)
    enough = len(paired) >= MIN_PAIRS
    if enough and wins >= PAIR_SHARE * len(paired) and gain > spread and not more_failures:
        return "improved"
    if bound is None:
        if enough and losses >= PAIR_SHARE * len(paired) and -gain > spread:
            return "worse"
        return "unchanged" if abs(gain) <= spread else "unresolved"
    if -gain > bound * abs(p_med):
        return "worse"
    all_better = min(sign * p for p in parent) > max(sign * c for c in change)
    if max(spread, c_q3 - c_q1) > bound * abs(p_med) and not all_better:
        return "unresolved"
    return "unchanged"


def tail(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, when
    that is above the median, and the sample count."""
    n = len(samples)
    if n < 20:
        return f"n={n}"
    return f"p{100 * (n - 10) // n}={sorted(samples)[n - 11]:.4g} (n={n})"


def main(parent_path: str, change_path: str, benchmark: dict) -> None:
    parent, change = load(parent_path), load(change_path)
    print(f"{'workload':<15} {'metric':<28} {'parent median [q1, q3]':>32} "
          f"{'change median [q1, q3]':>32} {'wins':>6}  verdict")
    for workload in sorted({r["workload"] for r in parent} & {r["workload"] for r in change}):
        for trace, section, specs in ((0, "end_to_end", benchmark["end_to_end"]),
                                      (1, "per_layer", benchmark["per_layer"])):
            p_runs = [r for r in parent if r["workload"] == workload and r["trace"] == trace]
            c_runs = [r for r in change if r["workload"] == workload and r["trace"] == trace]
            if not p_runs or not c_runs:
                continue
            reason = mismatch(p_runs, c_runs)
            if reason:
                print(f"{workload:<15} trace {trace} not compared: {reason}")
                continue
            paired = pairs(p_runs, c_runs)
            if len(paired) < max(len(p_runs), len(c_runs)):
                print(f"{workload:<15} trace {trace}: {len(paired)} pairs from "
                      f"{len(p_runs)} parent and {len(c_runs)} change runs; the rest are unpaired")
            more_failures = sum(r["failed"] for _, r in paired) > sum(r["failed"] for r, _ in paired)
            for spec in specs:
                name = spec["name"]
                p_values = [r[section][name] for r in p_runs]
                c_values = [r[section][name] for r in c_runs]
                values = [(p[section][name], c[section][name]) for p, c in paired]
                verdict = judge(p_values, c_values, values, spec["better"],
                                spec.get("bound"), more_failures)
                sign = 1.0 if spec["better"] == "lower" else -1.0
                wins = sum(sign * (p - c) > 0 for p, c in values)
                p_q1, p_med, p_q3 = quartiles(p_values)
                c_q1, c_med, c_q3 = quartiles(c_values)
                print(f"{workload:<15} {name:<28} "
                      f"{f'{p_med:.4g} [{p_q1:.4g}, {p_q3:.4g}]':>32} "
                      f"{f'{c_med:.4g} [{c_q1:.4g}, {c_q3:.4g}]':>32} "
                      f"{f'{wins}/{len(values)}':>6}  {verdict}")
            if trace == 0:
                pooled = [[s for r in runs for s in r["samples"]["protocol_s"]]
                          for runs in (p_runs, c_runs)]
                print(f"{workload:<15} {'protocol_s pooled tail':<28} "
                      f"{tail(pooled[0]):>32} {tail(pooled[1]):>32}")
            if more_failures:
                print(f"{workload:<15} the change failed more operations than the parent")
