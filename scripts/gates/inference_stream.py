"""Gate for the streaming TAG inference bench (bench inference-stream):
the incremental engine's state stayed on parity with the from-scratch
pipeline on every steady epoch (bitwise mean / projection / guarantee
peaks, AMI parity on labels), the streamed state was bitwise
jobs-invariant, a run with Stream.verify after every push passed, drift
events carried a well-formed schema, the incremental push actually
beat a from-scratch re-inference per epoch, and the pushes stayed
within their allocation budget.  Only identities, relative factors and
minor-word counts (deterministic for a seed) are asserted -- never
absolute wall-clock, which CI machines cannot hold steady.  Absolute
numbers are bisected offline against the committed BENCH_pr10.json
baseline (where the full run shows >= 5x at 16,384 VMs; smokes run
smaller sizes, so the gate asserts only the ordering)."""

import os
import sys

sys.path.insert(0, os.path.dirname(__file__))
import common

#: Minor words per ``infer.stream.push`` span measured with
#: ``scripts/ci-bench-smoke.sh inference-stream --jobs 2`` on the
#: engine before the row-part cache, which adds about 2% (2,026,708 to
#: 2,026,981 on three runs).  The span covers warm-up (full-pipeline)
#: pushes too, and counts the calling domain only, so the count moves
#: by a few hundred words from run to run with the slices the calling
#: domain happens to run: 1,984,219 to 1,984,976 at ``--jobs 2``.
#: ``--jobs 1`` counts every slice and repeats to the word (2,018,432
#: before the cache, 2,068,234 with it).  The budget leaves 50%
#: headroom over the ``--jobs 2`` value.
MEASURED_WORDS_PER_PUSH = 1984976
BUDGET_WORDS_PER_PUSH = 1.5 * MEASURED_WORDS_PER_PUSH


def check(doc):
    g = doc["gauges"]

    # Hard invariants the bench itself also enforces in-process
    # (failing the run on violation); re-checked here so a silently
    # truncated document cannot pass.
    assert g.get("bench.inference_stream.parity") == 1.0, (
        "incremental state diverged from the from-scratch pipeline"
    )
    assert g.get("bench.inference_stream.jobs_invariant") == 1.0, (
        "streamed labelling/peaks depend on the domain count"
    )
    assert g.get("bench.inference_stream.checked_ok") == 1.0, (
        "Stream.verify reported a divergence from the batch pipeline on "
        "the run that verifies every push"
    )

    # AMI parity floor on the ticks where incremental and cold may
    # legitimately differ (seeded refinement vs full re-cluster).
    ami_min = g.get("bench.inference_stream.ami_min")
    assert ami_min is not None and 0.8 <= ami_min <= 1.0, ami_min

    n_max = int(g.get("bench.inference_stream.n_vms_max", 0))
    assert n_max > 0, "sweep recorded no sizes"

    sizes = sorted(
        int(k.rsplit(".", 1)[1])
        for k in g
        if k.startswith("bench.inference_stream.speedup.")
    )
    assert sizes and sizes[-1] == n_max, (sizes, n_max)

    for size in sizes:
        for fmt in ("cold_ms", "inc_ms", "speedup"):
            k = f"bench.inference_stream.{fmt}.{size}"
            assert k in g and g[k] > 0, k
        # Steady-state streams must leave most rows untouched; an
        # incremental engine re-deriving everything reads ~1.0 here.
        frac = g[f"bench.inference_stream.dirty_frac.{size}"]
        assert 0.0 < frac < 1.0, (size, frac)
        # The workload injects role drift, so the detector must have
        # fired at least once -- and the count is per steady epoch, so
        # it is bounded by the epoch count (schema sanity).
        events = g[f"bench.inference_stream.drift_events.{size}"]
        assert 0 < events <= 64, (size, events)
        # Incremental must beat the from-scratch re-inference at every
        # size.  Both sides are measured in the same process seconds
        # apart, so the ratio is machine-speed independent.
        assert g[f"bench.inference_stream.speedup.{size}"] > 1.0, size

    # The advantage must grow (or at least not collapse) with scale:
    # the dirty fraction shrinks as the population grows, so the
    # largest size must show the best speedup of the sweep within a
    # generous noise factor.
    best = max(g[f"bench.inference_stream.speedup.{s}"] for s in sizes)
    assert g[f"bench.inference_stream.speedup.{n_max}"] >= 0.5 * best, (
        n_max,
        g[f"bench.inference_stream.speedup.{n_max}"],
        best,
    )

    assert "section.inference_stream" in doc["spans"]

    push = doc["spans"]["infer.stream.push"]
    per_push = push["gc"]["minor_words"] / push["count"]
    assert per_push <= BUDGET_WORDS_PER_PUSH, (
        "infer.stream.push allocates %.0f minor words per push, over the "
        "budget of %.0f" % (per_push, BUDGET_WORDS_PER_PUSH)
    )


common.main(check)
