"""Gate for the enforcement-side failure replay: guarantee-downtime is
measured on live flows, faster recovery must not increase it, and the
section stays within its allocation budget."""

import os
import sys

sys.path.insert(0, os.path.dirname(__file__))
import common

#: Minor words in the ``section.enforce-failures`` span measured with
#: ``scripts/ci-bench-smoke.sh enforce-failures --jobs 1`` (one domain,
#: so the count repeats to the word): 1,113,510.  The budget leaves 50%
#: headroom.
MEASURED_WORDS = 1113510
BUDGET_WORDS = 1.5 * MEASURED_WORDS


def check(doc):
    g = doc["gauges"]
    for k in (
        "failures.enforce.downtime_lag1",
        "failures.enforce.downtime_none",
    ):
        assert k in g, k
    lag1 = g["failures.enforce.downtime_lag1"]
    none = g["failures.enforce.downtime_none"]
    assert 0.0 <= lag1 <= 1.0, lag1
    assert 0.0 <= none <= 1.0, none
    assert lag1 <= none + 1e-9, (lag1, none)
    assert "section.enforce-failures" in doc["spans"]
    words = doc["spans"]["section.enforce-failures"]["gc"]["minor_words"]
    assert words <= BUDGET_WORDS, (
        "section.enforce-failures allocates %d minor words, over the budget "
        "of %.0f" % (words, BUDGET_WORDS)
    )


common.main(check)
