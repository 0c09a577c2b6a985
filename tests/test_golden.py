"""The committed golden digests (``tests/golden``) still match.

Every entry digests one command's output or one scenario record; a change
that moves an output bit fails here.  Regenerate with
``PYTHONPATH=src python tests/golden/regenerate.py`` only when the move is
intended, and list each moved entry in the change's notes.

When the draw itself changes, ``golden/cross_stream.py`` compares the old
and new trees in distribution; its comparator is tested here on synthetic
summaries.
"""

import json
import math
from statistics import NormalDist

from golden.cross_stream import ALPHA, compare
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
    assert found["run/pr_k100/json"] == found["run/pr_k100/w1"], "a JSON mirror must give its INI config's outputs"
    moved = sorted(key for key, digest in found.items() if recorded["digests"][key] != digest)
    assert not moved, f"outputs moved: {moved}"


def _summaries(n: int = 50) -> dict[str, tuple[float, float]]:
    """n synthetic quantities: (mean, stderr) with stderr 1/sqrt 2 each, so
    two sides' combined stderr is 1."""
    return {f"q{i}": (0.1 * i - 2.0, math.sqrt(0.5)) for i in range(n)}


def _shifted(summaries, **z_by_name):
    """``summaries`` with each named mean moved by its z combined stderrs."""
    out = dict(summaries)
    for name, z in z_by_name.items():
        mean, stderr = out[name]
        out[name] = (mean + z, stderr)
    return out


def _z_of(p: float) -> float:
    """The z-score whose two-sided p-value is ``p``."""
    return -NormalDist().inv_cdf(p / 2.0)


def _flagged(a, b) -> set[str]:
    return {row.name for row in compare(a, b) if row.flagged}


def test_cross_stream_comparator_passes_identical_sides():
    a = _summaries()
    assert _flagged(a, dict(a)) == set()


def test_cross_stream_comparator_flags_a_six_stderr_shift():
    a = _summaries()
    assert _flagged(a, _shifted(a, q7=6.0)) == {"q7"}
    # A lone 4.5 is inside the Holm bound over 50 quantities.
    assert _flagged(a, _shifted(a, q7=4.5)) == set()


def test_cross_stream_comparator_steps_down_in_holm_order():
    a, m = _summaries(), 50
    # Rank 1's p-value clears its own bound, ALPHA / 49, but not rank 0's,
    # ALPHA / 50: it is flagged only when rank 0 is.
    second = _z_of(0.999 * ALPHA / (m - 1))
    assert _flagged(a, _shifted(a, q3=_z_of(0.5 * ALPHA / m), q9=second)) == {"q3", "q9"}
    assert _flagged(a, _shifted(a, q3=_z_of(1.005 * ALPHA / m), q9=second)) == set()
    assert _flagged(a, _shifted(a, q9=second)) == set()


def test_cross_stream_comparator_wants_constants_to_match_exactly():
    a = _summaries()
    a["constant"] = (0.3, 0.0)
    b = dict(a, constant=(math.nextafter(0.3, 1.0), 0.0))
    assert _flagged(a, dict(a)) == set()
    assert _flagged(a, b) == {"constant"}
