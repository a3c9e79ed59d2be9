"""Every output bit of the numerical paths against committed fingerprints.

A tolerance test passes when the last bits of a result move; this one does
not.  See ``fingerprint_pipeline`` for the family of worlds and the
quantities covered.  After a change meant to alter output bits, regenerate
with ``scripts/make_fingerprints.py`` and show the diff.  The file records
the Python and numpy versions it was made under; a mismatch under other
versions names that difference before the quantity.
"""

import json
from pathlib import Path

from fingerprint_pipeline import compute_fingerprints, environment

GOLDEN = Path(__file__).parent / "golden" / "fingerprints.json"


def test_fingerprints_bit_identical():
    committed = json.loads(GOLDEN.read_text())
    made_under, here = committed.pop("environment"), environment()
    versions = "" if made_under == here else \
        f"made under {made_under}, running under {here}; "
    produced = compute_fingerprints()
    assert list(produced) == list(committed), versions + "the family of worlds changed"
    for world, quantities in committed.items():
        assert list(produced[world]) == list(quantities), \
            f"{versions}{world}: quantity set changed"
        for name, digest in quantities.items():
            assert produced[world][name] == digest, \
                f"{versions}{world}: {name} differs from the committed fingerprint"
