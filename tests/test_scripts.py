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


# the scale probe's hashes at its default size, 4 prompts per language
PROBE_HASHES = {
    2: "95b406369913ba09a8409fa5c6368bba0c8e7f4aa69cf09a04aed4f6a6de6411",
    4: "77d1dcf64566abbf4acd73b73902c2925f4ca4d0bc257e7e67397687836c30a3",
    26: "30ac909aecd405100eff21940d237d464bb2ce17354224d86cdae858b3e2d52f",
}
STAGES = ("generate", "to_dict", "from_dict", "optimum", "evaluate", "run_checks",
          "minimality", "fit_dco")


def _probe(cwd, *args):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "scale_probe.py"), *args],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return [json.loads(line) for line in done.stdout.splitlines()]


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
    first, second = (_probe(tmp_path, "--langs", "2", "4") for _ in range(2))
    assert [(r["langs"], r["prompts"]) for r in first] == [(2, 4), (4, 4)]
    assert [r["sha256"] for r in first] == [r["sha256"] for r in second]
    assert [r["sha256"] for r in first] == [PROBE_HASHES[2], PROBE_HASHES[4]]
    for r in first:
        assert all(r[f"{stage}_s"] > 0 for stage in STAGES)
    assert list(tmp_path.iterdir()) == []


def test_scale_probe_hash_at_the_paper_language_count(tmp_path):
    # the 26-language world, generated through the loader, keeps every output bit
    (row,) = _probe(tmp_path, "--langs", "26")
    assert (row["langs"], row["prompts"]) == (26, 4)
    assert row["sha256"] == PROBE_HASHES[26]


def test_scale_probe_takes_the_prompt_count(tmp_path):
    (default,) = _probe(tmp_path, "--langs", "2", "--prompts", "4")
    (wide,) = _probe(tmp_path, "--langs", "2", "--prompts", "8")
    assert default["sha256"] == PROBE_HASHES[2]
    assert (wide["langs"], wide["prompts"]) == (2, 8)
    assert wide["sha256"] != default["sha256"]
    assert all(wide[f"{stage}_s"] > 0 for stage in STAGES)
    assert list(tmp_path.iterdir()) == []
