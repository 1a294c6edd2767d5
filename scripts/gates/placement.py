"""Gate for the placement hot-path microbenchmark: the expected gauges
exist and are positive, and the section stays within its allocation
budget.  Wall-clock regressions are bisected offline against the
committed BENCH_pr3.json baseline, never on CI wall-clock; minor words
are deterministic for a given seed and arrival count, so they are
gated."""

import os
import sys

sys.path.insert(0, os.path.dirname(__file__))
import common

#: The ``placement`` section (lib/experiments/scale.ml) runs the
#: simulated point this many times inside the ``section.placement`` span
#: and keeps the fastest.
RUNS = 3

#: Minor words per arrival measured with
#: ``scripts/ci-bench-smoke.sh placement --jobs 1`` once the
#: placement hot path priced Eq. 1 over the flat edge view (the parent
#: of that change measured 7,079).  The budget leaves 50% headroom.
MEASURED_WORDS_PER_ARRIVAL = 5160
BUDGET_WORDS_PER_ARRIVAL = 1.5 * MEASURED_WORDS_PER_ARRIVAL


def check(doc):
    g = doc["gauges"]
    for k in (
        "bench.placement.tenants_per_sec",
        "bench.placement.ops_per_sec",
        "bench.placement.fig8_point_wall_s",
        "bench.placement.arrivals",
    ):
        assert k in g and g[k] > 0, k
    assert "section.placement" in doc["spans"]
    words = doc["spans"]["section.placement"]["gc"]["minor_words"]
    per_arrival = words / (RUNS * g["bench.placement.arrivals"])
    assert per_arrival <= BUDGET_WORDS_PER_ARRIVAL, (
        "section.placement allocates %.0f minor words per arrival, over "
        "the budget of %.0f" % (per_arrival, BUDGET_WORDS_PER_ARRIVAL)
    )


common.main(check)
