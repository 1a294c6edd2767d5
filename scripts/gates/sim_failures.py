"""Gate for the placement-side failure campaign: the recovery counters
and survivability invariants of the metrics document.

Invariants, not wall-clock:
  - the schedule injected events and they hit live tenants;
  - every (event, tenant) incident closes exactly once
    (recovered + stranded == affected);
  - restores take simulated time (mean TTR > 0 when anything restored);
  - realized survival never undershoots the Eq. 7 prediction at the
    injection level (wcs_slack_min >= 0);
  - exhaustive injection reproduces predicted WCS exactly
    (oracle_gap == 0) -- the paper's test oracle, kept live in CI;
  - the section stays within its allocation budget.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(__file__))
import common

#: Minor words in the ``section.sim-failures`` span measured with
#: ``scripts/ci-bench-smoke.sh sim-failures --fast --arrivals 400 --jobs 1``
#: (one domain, so the count repeats to the word): 22,839,160.  The
#: budget leaves 50% headroom.
MEASURED_WORDS = 22839160
BUDGET_WORDS = 1.5 * MEASURED_WORDS


def check(doc):
    g = doc["gauges"]
    c = doc["counters"]
    for k in (
        "failures.events",
        "failures.affected",
        "failures.recovered",
        "failures.stranded",
        "failures.mean_ttr",
        "failures.wcs_slack_min",
        "failures.oracle_gap",
        "failures.oracle_domains",
    ):
        assert k in g, k
    assert g["failures.events"] > 0, g["failures.events"]
    assert g["failures.affected"] > 0, g["failures.affected"]
    assert (
        g["failures.recovered"] + g["failures.stranded"]
        == g["failures.affected"]
    ), (g["failures.recovered"], g["failures.stranded"], g["failures.affected"])
    if g["failures.recovered"] > 0:
        assert g["failures.mean_ttr"] > 0, g["failures.mean_ttr"]
    assert g["failures.wcs_slack_min"] >= 0, g["failures.wcs_slack_min"]
    assert g["failures.oracle_gap"] == 0, g["failures.oracle_gap"]
    assert g["failures.oracle_domains"] > 0
    assert c.get("failure.injected", 0) > 0, c
    assert c.get("recovery.replaced", 0) > 0, c
    assert "section.sim-failures" in doc["spans"]
    words = doc["spans"]["section.sim-failures"]["gc"]["minor_words"]
    assert words <= BUDGET_WORDS, (
        "section.sim-failures allocates %d minor words, over the budget of "
        "%.0f" % (words, BUDGET_WORDS)
    )


common.main(check)
