"""Gate for the region-scale placement sweep (bench placement-scale):
the availability index matched a from-scratch rebuild after every run,
batched placement was jobs-invariant, throughput did not collapse
with size, and the indexed placements stayed within their allocation
budget.  Only identities, orderings and relative factors are
asserted -- never absolute wall-clock, which CI machines cannot hold
steady.  Absolute numbers are bisected offline against the committed
BENCH_pr8.json baseline."""

import os
import sys

sys.path.insert(0, os.path.dirname(__file__))
import common

#: Minor words per ``place.CM`` call, measured with
#: ``scripts/ci-bench-smoke.sh placement-scale --fast --arrivals 200
#: --jobs 2`` (3,218,640 words over 800 calls, the same in three runs).
#: These are the indexed runs' placements, made on the calling domain,
#: so the count is exact at any ``--jobs``; ``shard.place_batch`` and
#: ``section.placement_scale`` also count whichever batch slices the
#: caller ran, and move by ~2% from run to run.  The budget leaves 50%
#: headroom.
MEASURED_WORDS_PER_PLACE = 4023
BUDGET_WORDS_PER_PLACE = 1.5 * MEASURED_WORDS_PER_PLACE


def check(doc):
    g = doc["gauges"]

    # Hard invariants the bench itself also enforces (it fails the run
    # on violation); re-checked here so a silently truncated document
    # cannot pass.
    assert g.get("bench.placement_scale.index_verified") == 1.0, (
        "availability index diverged from a from-scratch rebuild"
    )
    assert g.get("bench.placement_scale.jobs_invariant") == 1.0, (
        "batched placement depends on the domain count"
    )

    servers_max = int(g.get("bench.placement_scale.servers_max", 0))
    assert servers_max > 0, "sweep recorded no sizes"

    sizes = sorted(
        int(k.rsplit(".", 1)[1])
        for k in g
        if k.startswith("bench.placement_scale.indexed_dps.")
    )
    assert sizes and sizes[-1] == servers_max, (sizes, servers_max)

    for size in sizes:
        for fmt in ("indexed_dps", "batched_dps"):
            k = f"bench.placement_scale.{fmt}.{size}"
            assert k in g and g[k] > 0, k

    # Relative collapse guard: indexed decisions/sec at the largest
    # size must stay within a constant factor of the best size, i.e.
    # throughput is allowed to taper with scale but not fall off a
    # cliff.  This is a ratio between two numbers measured in the same
    # process seconds apart, so it is machine-speed independent.
    best = max(g[f"bench.placement_scale.indexed_dps.{s}"] for s in sizes)
    assert g[f"bench.placement_scale.indexed_dps.{servers_max}"] >= 0.15 * best

    c = doc["counters"]
    assert c.get("shard.batch.epochs", 0) > 0, "no batched epochs ran"
    assert c.get("shard.batch.requests", 0) > 0
    assert c.get("cm.index.queries", 0) > 0, "indexed engine never queried"

    assert "section.placement_scale" in doc["spans"]
    assert "shard.place_batch" in doc["spans"]

    place = doc["spans"]["place.CM"]
    per_place = place["gc"]["minor_words"] / place["count"]
    assert per_place <= BUDGET_WORDS_PER_PLACE, (
        "place.CM allocates %.0f minor words per call, over the budget "
        "of %.0f" % (per_place, BUDGET_WORDS_PER_PLACE)
    )


common.main(check)
