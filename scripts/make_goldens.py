#!/usr/bin/env python3
"""Regenerate the committed golden outputs for the benchmark pipeline.

Run from the repository root after any intentional change to generation,
fitting, or metric serialization, then commit the results:

    python scripts/make_goldens.py
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from golden_pipeline import GOLDEN_FILES, run_benchmark_pipeline  # noqa: E402


def main():
    out = ROOT / "tests" / "golden" / "benchmark"
    run_benchmark_pipeline(out)
    # manifests carry timestamps and are not part of the golden set
    for manifest in out.glob("*.manifest.json"):
        manifest.unlink()
    trace = out / "policy.json.trace.csv"
    if trace.exists():
        trace.unlink()
    for name in GOLDEN_FILES:
        print(f"wrote {out / name}")


if __name__ == "__main__":
    main()
