"""The committed golden digests (``tests/golden``) still match.

Every entry digests one command's output or one scenario record; a change
that moves an output bit fails here.  Regenerate with
``PYTHONPATH=src python tests/golden/regenerate.py`` only when the move is
intended, and list each moved entry in the change's notes.
"""

import json

from golden.regenerate import DIGESTS, entries, versions


def test_golden_digests_are_unchanged():
    recorded = json.loads(DIGESTS.read_text(encoding="ascii"))
    here = versions()
    for name in ("python", "numpy"):
        assert recorded[name] == here[name], (
            f"digests were recorded under {name} {recorded[name]}, this is {name} {here[name]}"
        )
    found = entries()
    assert found.keys() == recorded["digests"].keys()
    moved = sorted(key for key, digest in found.items() if recorded["digests"][key] != digest)
    assert not moved, f"outputs moved: {moved}"
