"""Gate for the enforcement control-loop benchmark: the 10k-flow
epoch-compiled loop.  Gates on the metrics schema only; wall-clock
gates are left to the committed BENCH_pr4.json baseline."""

import os
import sys

sys.path.insert(0, os.path.dirname(__file__))
import common


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


common.main(check)
