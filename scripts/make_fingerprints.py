#!/usr/bin/env python3
"""Regenerate the committed bitwise fingerprints of the numerical paths.

Run from the repository root only after a change that is meant to alter
output bits, then commit the result and show its diff:

    python scripts/make_fingerprints.py
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from fingerprint_pipeline import compute_fingerprints, environment  # noqa: E402


def main():
    out = ROOT / "tests" / "golden" / "fingerprints.json"
    doc = {"environment": environment(), **compute_fingerprints()}
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
