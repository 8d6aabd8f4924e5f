"""Workload definitions and input generation for the scorelink benchmark.

Run as a script, this module is one set-up of one workload: it imports
scorelink, generates the workload's input files from the seed and prints
the seconds that took as its last line. The benchmark runs it in fresh
processes, so every set-up pays the import of scorelink.

    python3 perfbench/workloads.py <workload> <seed> <out-dir>
    python3 perfbench/workloads.py --import     # only import scorelink
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCES = BENCH_DIR / "references"

DATA_FILE = "data.csv"
# the experiment's partition seed: the published default, whatever the
# workload seed, so that the German tables can be checked against references
PARTITION_SEED = 0
ORACLE_FILE = "oracle.json"

# Mahalanobis distance between the two classes of the synthetic mixture.
# random_homoscedastic_pair at d = 20 draws classes about 4.5 apart, which
# makes a 1,500-row learning sample nearly separable and its fits
# meaningless; 2.0 gives a Bayes error of 16%, the regime of credit data.
SEPARATION = 2.0
# Largest relative gap between a log-likelihood the program reports and
# the one of the benchmark's own Newton fit.
LL_TOLERANCE = 1e-7
# Largest gap between M6's mean test error at the largest learning size
# and the Bayes error. Sampling error of the test sets and of the fit
# stayed within 0.045 over 44 draws of the smoke mixture and 0.031 over 5
# of gaussian-100k; a flipped or random score errs by 0.3 or more. The
# log-likelihood check is the sharp one.
BAYES_MARGIN = 0.08


@dataclass(frozen=True)
class Workload:
    """One input set and the `scorelink experiment` sweep run on it.

    ``data`` is "german" (the packaged file, the same for every seed) or
    "gaussian" (a mixture drawn from the seed). ``references`` names the
    directory under ``references/`` holding the expected tables.
    ``oracle_tolerance`` bounds the oracle errors of a gaussian workload:
    of the source fit, then of the M6 transfer. Each is about three times
    the largest error seen over 120 or more seeds. ``setup_repeats`` is
    the number of timed set-ups of a run.
    """

    data: str
    sizes: tuple[int, ...]
    repetitions: int
    jobs: int = 1
    source_rows: int = 0
    target_rows: int = 0
    dimension: int = 0
    references: str | None = None
    oracle_tolerance: tuple[float, float] = (0.0, 0.0)
    setup_repeats: int = 9

    def argv(self, data_path: Path, out_dir: Path) -> list[str]:
        """The `scorelink` command line of one protocol pass."""
        return [
            "experiment",
            "--data", str(data_path),
            "--out", str(out_dir),
            "--seed", str(PARTITION_SEED),
            "--sizes", ",".join(str(n) for n in self.sizes),
            "--repetitions", str(self.repetitions),
            "--jobs", str(self.jobs),
        ]

    def fits_per_pass(self) -> int:
        """Sweep fits of one pass: every size, repetition and the seven models."""
        return len(self.sizes) * self.repetitions * 7

    def describe(self) -> dict:
        out = {
            "data": self.data,
            "learning_sizes": list(self.sizes),
            "repetitions": self.repetitions,
            "jobs": self.jobs,
            "fits_per_pass": self.fits_per_pass(),
            "setup_repeats": self.setup_repeats,
        }
        if self.data == "gaussian":
            out.update(source_rows=self.source_rows, target_rows=self.target_rows,
                       dimension=self.dimension, separation=SEPARATION)
        return out


GERMAN_SWEEP = dict(sizes=(50, 100, 150, 200), repetitions=50, references="german")

# The workloads BENCHMARK.json names; why each exists is stated there.
WORKLOADS = {
    "german-serial": Workload("german", jobs=1, **GERMAN_SWEEP),
    "german-jobs2": Workload("german", jobs=2, **GERMAN_SWEEP),
    "gaussian-100k": Workload(
        "gaussian", sizes=(500, 1000, 1500), repetitions=3,
        source_rows=100_000, target_rows=2_000, dimension=20, oracle_tolerance=(0.25, 2.0),
        setup_repeats=5,
    ),
}

# Tiny configurations for the benchmark's self-check.
SMOKE = {
    "german-smoke": Workload("german", sizes=(50, 100), repetitions=2, references="german-smoke"),
    "gaussian-smoke": Workload(
        "gaussian", sizes=(100, 200), repetitions=1,
        source_rows=5_000, target_rows=600, dimension=5, oracle_tolerance=(0.5, 4.0),
    ),
}


ALL = {**WORKLOADS, **SMOKE}


def import_scorelink():
    """Import scorelink from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "scorelink" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no scorelink sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import scorelink

    if Path(scorelink.__file__).resolve().parent != (SRC / "scorelink").resolve():
        raise SystemExit(f"perfbench: imported scorelink from {scorelink.__file__}")
    return scorelink


def generate(workload: Workload, seed: int, out_dir: Path) -> None:
    """Write the workload's input files for ``seed`` into ``out_dir``."""
    scorelink = import_scorelink()
    import numpy as np

    out_dir.mkdir(parents=True, exist_ok=True)
    if workload.data == "german":
        from importlib import resources

        packaged = resources.files(scorelink).joinpath("data/german.csv")
        (out_dir / DATA_FILE).write_bytes(packaged.read_bytes())
    else:
        table, names, truth = gaussian_inputs(workload, seed)
        fmt = ["%.17g"] * workload.dimension + ["%d", "%d"]
        np.savetxt(out_dir / DATA_FILE, table, fmt=fmt, delimiter=",",
                   header=",".join(names), comments="")
        (out_dir / ORACLE_FILE).write_text(json.dumps(truth, indent=1) + "\n", encoding="utf-8")


def gaussian_inputs(workload: Workload, seed: int):
    """The data table, its column names and the exact logistic parameters.

    The truth maps "source" and "target" to the closed-form logistic
    parameters of the two mixtures the rows are drawn from.
    """
    import numpy as np
    from scorelink.gaussian import (
        GaussianClassParams,
        MixtureSpec,
        apply_link,
        gaussian_to_logistic,
        random_homoscedastic_pair,
        sample_mixture,
    )

    rng = np.random.default_rng(seed)
    spec, link = random_homoscedastic_pair(workload.dimension, rng)
    one, two = spec.class_one, spec.class_two
    gap = one.mean - two.mean
    distance = float(np.sqrt(gap @ np.linalg.solve(one.covariance, gap)))
    middle = (one.mean + two.mean) / 2
    shrink = SEPARATION / distance
    spec = MixtureSpec(
        GaussianClassParams(middle + shrink * (one.mean - middle), one.covariance),
        GaussianClassParams(middle + shrink * (two.mean - middle), two.covariance),
        spec.proportions,
    )
    target_spec = apply_link(spec, link)
    source = sample_mixture(spec, workload.source_rows, int(rng.integers(2**63)))
    target = sample_mixture(target_spec, workload.target_rows, int(rng.integers(2**63)))

    # laufkont-style split column: 2..4 marks source rows, 1 target rows
    account = np.concatenate([
        rng.integers(2, 5, workload.source_rows), np.ones(workload.target_rows, dtype=int)
    ])
    table = np.column_stack([
        np.vstack([source.features, target.features]),
        account,
        np.concatenate([source.labels, target.labels]),
    ])[rng.permutation(workload.source_rows + workload.target_rows)]
    names = [f"x{j + 1}" for j in range(workload.dimension)] + ["laufkont", "kredit"]
    truth = {
        side: {"intercept": params.intercept, "coefficients": params.coefficients.tolist()}
        for side, params in (("source", gaussian_to_logistic(spec)),
                             ("target", gaussian_to_logistic(target_spec)))
    }
    truth["bayes_error"] = bayes_error(target_spec)
    return table, names, truth


def bayes_error(spec) -> float:
    """Error of the exact posterior at threshold 1/2 on a homoscedastic mixture.

    With Mahalanobis distance D between the classes and L = log(pi_1 / pi_2),
    class one errs with probability Phi(-D/2 - L/D) and class two with
    Phi(-D/2 + L/D).
    """
    import numpy as np

    gap = spec.class_one.mean - spec.class_two.mean
    distance = math.sqrt(float(gap @ np.linalg.solve(spec.class_one.covariance, gap)))
    p1, p2 = spec.proportions
    log_ratio = math.log(p1 / p2)

    def phi(z):
        return 0.5 * math.erfc(-z / math.sqrt(2.0))

    return (p1 * phi(-distance / 2 - log_ratio / distance)
            + p2 * phi(-distance / 2 + log_ratio / distance))


def digest(directory: Path) -> str:
    """sha256 over the names and bytes of the files in ``directory``."""
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def main(argv: list[str]) -> int:
    if argv == ["--import"]:
        import_scorelink()
        import numpy  # noqa: F401
        return 0
    name, seed, out_dir = argv
    start = time.perf_counter()
    generate(ALL[name], int(seed), Path(out_dir))
    print(f"{time.perf_counter() - start:.9f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
