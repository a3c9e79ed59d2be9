"""The regeneration scripts and the scale probe start as their docstrings
say, from a bare ``python``: they find the package and the pipelines
themselves."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

# runs a script's top level without its main(), which would write the files
IMPORT = """
import runpy, sys
names = runpy.run_path(sys.argv[1], run_name="imported")
import xlconsist
print(xlconsist.__file__)
print(callable(names[sys.argv[2]]))
"""


def _golden_state():
    return {p: p.read_bytes() for p in sorted(GOLDEN.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("script, pipeline", [
    ("make_fingerprints.py", "compute_fingerprints"),
    ("make_goldens.py", "run_benchmark_pipeline"),
])
def test_script_imports_its_pipeline_without_pythonpath(tmp_path, script, pipeline):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    before = _golden_state()
    done = subprocess.run([sys.executable, "-c", IMPORT, str(ROOT / "scripts" / script), pipeline],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    package, found = done.stdout.splitlines()
    assert Path(package).resolve().parent == ROOT / "src" / "xlconsist"
    assert found == "True"
    assert _golden_state() == before
    assert list(tmp_path.iterdir()) == []


def test_scale_probe_prints_a_stable_hash(tmp_path):
    # two processes, started as the docstring says, hash the same outputs
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    runs = []
    for _ in range(2):
        done = subprocess.run([sys.executable, str(ROOT / "scripts" / "scale_probe.py"),
                               "--langs", "2", "4"], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        runs.append([json.loads(line) for line in done.stdout.splitlines()])
    first, second = runs
    assert [r["langs"] for r in first] == [2, 4]
    assert [r["sha256"] for r in first] == [r["sha256"] for r in second]
    for r in first:
        assert all(r[f"{stage}_s"] > 0 for stage in ("optimum", "evaluate", "run_checks",
                                                        "minimality", "fit_dco"))
    assert list(tmp_path.iterdir()) == []
