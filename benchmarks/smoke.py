"""Smoke test of the benchmark: every workload at tiny sizes, in process.

    python3 benchmarks/smoke.py

For each workload, untraced and traced, it checks that every metric
BENCHMARK.json names is emitted with its unit, that no operation failed,
and that the spans nest and cover at least 90% of the traced time; and
that matching-complexes opens no span in the group layers.  Exits 1 and
names each problem otherwise.
"""

from __future__ import annotations

import json
import os
import sys

import run
import tracer

GROUP_LAYERS = ("braids", "forests", "labeled", "diagrams")


def problems_of(spec, workload, trace):
    result, record, spans = run.run(workload, seed=7, seconds=0.5, trace=trace, size="tiny")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    problems = []
    if got != wanted:
        problems.append("metrics %r, BENCHMARK.json names %r" % (got, wanted))
    if result["failed"] or not result["correct"] or record["error_rate"] != 0:
        problems.append("%d of %d operations failed: %s"
                        % (result["failed"], result["attempted"], record["failures"]))
    if trace:
        try:
            tracer.check_nesting(spans)
        except ValueError as exc:
            problems.append(str(exc))
        coverage = result["metrics"]["trace.coverage"]["value"]
        if coverage < 0.9:
            problems.append("trace.coverage %.3f < 0.9" % coverage)
        if workload == "matching-complexes":
            touched = sorted({s[0] for s in spans if s[0].split(".", 1)[0] in GROUP_LAYERS})
            if touched:
                problems.append("spans in the group layers: %s" % touched)
    return problems


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    failed = False
    for workload in sorted(run.WORKLOADS):
        for trace in (False, True):
            problems = problems_of(spec, workload, trace)
            print("%-20s trace=%d %s" % (workload, trace, "ok" if not problems else "FAILED"))
            for p in problems:
                print("    " + p)
            failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
