"""Gate for the inference hot-path benchmark (bench inference): the
production entry point Infer.infer at 128, 512 and 1,024 VMs.  The
labels themselves are held bit for bit to the dense oracle by the test
suite; this gates on the document's shape, on the clustering quality
(AMI against the generator's truth at 1,024 VMs) and on the clustering
and mean steps' allocation, never on wall-clock time."""

import os
import sys

sys.path.insert(0, os.path.dirname(__file__))
import common

#: Minor words per ``infer.cluster`` span, measured on the Louvain
#: before it had one graph form (CSR local moving plus a flat n_comm^2
#: aggregation buffer), over the nine ``Infer.infer`` calls of
#: ``scripts/ci-bench-smoke.sh inference --jobs 1`` (three per size):
#: 16,161,645 words in all.  Infer.infer runs on the calling domain
#: only, so the count repeats to the word.  The budget leaves 50%
#: headroom over that value; the one-graph-form Louvain measures 921,767
#: words per call.
MEASURED_WORDS_PER_CLUSTER = 1795738
BUDGET_WORDS_PER_CLUSTER = 1.5 * MEASURED_WORDS_PER_CLUSTER

#: Minor words per ``infer.mean`` span (``Traffic_matrix.mean_csr``)
#: over the same nine calls: 2,946 words in all, 327 per call, once the
#: mean went straight into CSR arrays (3,352,633 per call when it built
#: an ``(int * float) list`` per row).  Its arrays are larger than a
#: minor-heap block at these sizes, so they are allocated in the major
#: heap and what is counted here is the per-call fixed cost; a return
#: to per-cell boxing shows up as millions of words.  The budget leaves
#: 50% headroom.
MEASURED_WORDS_PER_MEAN = 327
BUDGET_WORDS_PER_MEAN = 1.5 * MEASURED_WORDS_PER_MEAN

#: Adjusted mutual information of the inferred labels against the
#: generator's tiers at 1,024 VMs (seed 42, seven components found):
#: 0.9158.
AMI_FLOOR = 0.9


def check(doc):
    g = doc["gauges"]
    for k in (
        "bench.inference.n_vms",
        "bench.inference.traffic_nnz",
        "bench.inference.csr_ms",
    ):
        assert k in g and g[k] > 0, k
    assert g["bench.inference.n_vms"] >= 1024, g["bench.inference.n_vms"]
    ami = g.get("bench.inference.ami.1024")
    assert ami is not None and ami >= AMI_FLOOR, (
        "AMI at 1,024 VMs is %s, below the floor of %.2f" % (ami, AMI_FLOOR)
    )
    assert "section.inference" in doc["spans"]

    cluster = doc["spans"]["infer.cluster"]
    per_call = cluster["gc"]["minor_words"] / cluster["count"]
    assert per_call <= BUDGET_WORDS_PER_CLUSTER, (
        "infer.cluster allocates %.0f minor words per call, over the "
        "budget of %.0f" % (per_call, BUDGET_WORDS_PER_CLUSTER)
    )

    mean = doc["spans"]["infer.mean"]
    per_call = mean["gc"]["minor_words"] / mean["count"]
    assert per_call <= BUDGET_WORDS_PER_MEAN, (
        "infer.mean allocates %.0f minor words per call, over the budget "
        "of %.0f" % (per_call, BUDGET_WORDS_PER_MEAN)
    )


common.main(check)
