"""Gate for the region-scale placement sweep (bench placement-scale):
the availability index matched a from-scratch rebuild after every run,
batched placement was jobs-invariant, and throughput did not collapse
with size.  Only identities, orderings and relative factors are
asserted -- never absolute wall-clock, which CI machines cannot hold
steady.  Absolute numbers are bisected offline against the committed
BENCH_pr8.json baseline."""

import os
import sys

sys.path.insert(0, os.path.dirname(__file__))
import common


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


common.main(check)
