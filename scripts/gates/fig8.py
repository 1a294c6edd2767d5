"""Gate for the fig8 smoke: the telemetry path end to end -- the bench
ran the section under a timed span and wrote a well-formed document --
and the placements stayed within their allocation budget."""

import os
import sys

sys.path.insert(0, os.path.dirname(__file__))
import common

#: Minor words per placement call, over the ``place.CM`` and
#: ``place.OVOC`` spans together, measured with
#: ``scripts/ci-bench-smoke.sh fig8 --fast --arrivals 200``:
#: 120,381,881 words over 4,000 calls.  Each span counts the words of
#: the domain that ran it, so the sum covers every domain and reads the
#: same at any ``--jobs`` (within 16 words), unlike ``section.fig8``,
#: which counts the calling domain only.  The budget leaves 50%
#: headroom.
MEASURED_WORDS_PER_PLACE = 30095
BUDGET_WORDS_PER_PLACE = 1.5 * MEASURED_WORDS_PER_PLACE


def check(doc):
    spans = doc["spans"]
    assert "section.fig8" in spans, sorted(spans)
    place = [spans[k] for k in ("place.CM", "place.OVOC")]
    calls = sum(s["count"] for s in place)
    assert calls > 0, "no placement spans"
    per_place = sum(s["gc"]["minor_words"] for s in place) / calls
    assert per_place <= BUDGET_WORDS_PER_PLACE, (
        "fig8 placements allocate %.0f minor words per call, over the "
        "budget of %.0f" % (per_place, BUDGET_WORDS_PER_PLACE)
    )


common.main(check)
