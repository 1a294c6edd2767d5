"""Gate for the enforcement control-loop benchmark: the 10k-flow
epoch-compiled loop.  Gates on the metrics schema and on the section's
allocation; wall-clock gates are left to the committed BENCH_pr4.json
baseline."""

import os
import sys

sys.path.insert(0, os.path.dirname(__file__))
import common

#: Minor words in the ``section.enforce`` span measured with
#: ``scripts/ci-bench-smoke.sh enforce --jobs 1`` (one domain, so the
#: count repeats to the word): 3,398,025.  The budget leaves 50%
#: headroom.
MEASURED_WORDS = 3398025
BUDGET_WORDS = 1.5 * MEASURED_WORDS


def check(doc):
    g = doc["gauges"]
    for k in (
        "bench.enforce.flows",
        "bench.enforce.links",
        "bench.enforce.period_us_new",
    ):
        assert k in g and g[k] > 0, k
    assert g["bench.enforce.flows"] >= 10000, g["bench.enforce.flows"]
    assert "section.enforce" in doc["spans"]
    words = doc["spans"]["section.enforce"]["gc"]["minor_words"]
    assert words <= BUDGET_WORDS, (
        "section.enforce allocates %d minor words, over the budget of %.0f"
        % (words, BUDGET_WORDS)
    )


common.main(check)
