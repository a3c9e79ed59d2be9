"""Every output bit of the numerical paths against committed fingerprints.

A tolerance test passes when the last bits of a result move; this one does
not.  See ``fingerprint_pipeline`` for the family of worlds and the
quantities covered.  After a change meant to alter output bits, regenerate
with ``scripts/make_fingerprints.py`` and show the diff.
"""

import json
from pathlib import Path

from fingerprint_pipeline import compute_fingerprints

GOLDEN = Path(__file__).parent / "golden" / "fingerprints.json"


def test_fingerprints_bit_identical():
    committed = json.loads(GOLDEN.read_text())
    produced = compute_fingerprints()
    assert list(produced) == list(committed), "the family of worlds changed"
    for world, quantities in committed.items():
        assert list(produced[world]) == list(quantities), f"{world}: quantity set changed"
        for name, digest in quantities.items():
            assert produced[world][name] == digest, \
                f"{world}: {name} differs from the committed fingerprint"
