"""The walkthrough scripts in demos/ run to completion.

Each runs as its own process from a copy of demos/ under a temporary
directory, so that the files it writes to ``output/`` stay out of the
source tree.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# a file each demo that writes output leaves in its copy's directory
WRITES = {
    "roc_curves.py": "output/roc_all.svg",
    "run_experiment.py": "output/experiment/roc_all.svg",
}


def test_every_demo_is_collected():
    assert [path.name for path in DEMOS] == [
        "fit_and_transfer.py", "gaussian_link_check.py", "roc_curves.py", "run_experiment.py",
    ]


@pytest.mark.parametrize("demo", DEMOS, ids=[path.stem for path in DEMOS])
def test_demo_runs(demo, tmp_path):
    copy = tmp_path / "demos" / demo.name
    copy.parent.mkdir()
    shutil.copy(demo, copy)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    args = ["--quick"] if demo.name == "run_experiment.py" else []
    proc = subprocess.run(
        [sys.executable, str(copy), *args],
        capture_output=True, text=True, cwd=tmp_path, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    if demo.name in WRITES:
        assert (copy.parent / WRITES[demo.name]).is_file()
