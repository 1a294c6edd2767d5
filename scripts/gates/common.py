"""Shared helpers for the CI bench-smoke gates.

A gate receives the path of a metrics document written by
``cloudmirror experiment --metrics-out`` and asserts schema and content
invariants.  Gates never assert wall-clock durations -- CI machines are
too noisy -- only presence, counts, and order relations.
"""

import json
import sys


#: Schemas a gate accepts.  /2 is a strict superset of /1 (adds the
#: per-epoch "series" map and per-span "gc" objects), so gates written
#: against /1 fields keep passing unchanged.
SCHEMAS = ("cloudmirror.metrics/1", "cloudmirror.metrics/2")


def load(path):
    with open(path) as f:
        doc = json.load(f)
    assert doc.get("schema") in SCHEMAS, doc.get("schema")
    return doc


def main(check):
    path = sys.argv[1]
    check(load(path))
    print(path + ": OK")
