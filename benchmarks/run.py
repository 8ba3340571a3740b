"""Benchmark of braidedthompson: one workload per run, answers checked.

    python3 benchmarks/run.py --workload thompson-powers --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  Rounds of seeded operations run in a closed loop, one operation
at a time in this process, until ``--seconds`` have passed.  The seed
gives each workload's VARIANTS distinct input sets; rounds cycle through
them, so each set runs several times, spread over the run.  Every round
sets up afresh, timed as set-up: it drops and re-imports the library (so
nothing a module keeps survives into the next round), draws the inputs of
its variant from the seed as fresh objects, and writes session files.
Every answer is checked after its operation, outside the timed region.

With ``--trace 0`` the end-to-end metrics are reported.  With
``--trace 1`` every round runs twice on identical inputs, once plainly and
once with spans recorded around each call into the library (see
tracer.py), and the per-layer metrics are reported.

Standard output ends with a run record line and, last, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import types
from time import perf_counter

import braided_session
import matching_complexes
import thompson_powers
import tracer as tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".bench_work")
WORKLOADS = {w.NAME: w for w in (thompson_powers, braided_session, matching_complexes)}
# The machine is shared: its speed drifts by up to a half in phases of
# 10 s to several minutes, and contention only ever adds time.  Each operation
# therefore runs on identical inputs once per cycle of the workload's
# VARIANTS rounds, and its time is the fastest of its repeats in the run;
# those times repeat from run to run far better than any statistic of
# whole rounds does.

END_TO_END = {
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}

# Per-layer metrics, all per traced round.  "<layer>.self_s" is the
# layer's self time; "<span>.calls" / "<span>.self_s" are read from the
# spans of that name.
LAYER_SELF = ("forests", "braids", "labeled", "diagrams", "complexes", "dsl", "cli")
SPAN_CALLS = ("forests.attach_caret", "braids.normal_form", "braids.braid_equal",
              "braids.cable", "braids.permutation_of", "labeled.realize",
              "diagrams.multiply", "diagrams.expand", "diagrams.try_reduce_at",
              "complexes.link", "cli.main")
SPAN_SELF = ("forests.attach_caret", "forests.join", "forests.elementary_caret_spans",
             "forests.remove_elementary_caret", "braids.normal_form", "braids.cable",
             "braids.delete_strands", "labeled.realize", "labeled.lb_multiply",
             "diagrams.expand", "diagrams.reduce", "complexes.smith_invariants",
             "complexes.reduced_homology", "complexes.build", "complexes.link",
             "dsl.parse_session")
PER_LAYER = dict(
    [("%s.self_s" % layer, "s") for layer in LAYER_SELF]
    + [("%s.calls" % name, "count") for name in SPAN_CALLS]
    + [("%s.self_s" % name, "s") for name in SPAN_SELF]
    + [("braids.normal_form.letters", "letters"),
       ("labeled.realize.letters", "letters"),
       ("diagrams.try_reduce_at.hit_ratio", "ratio"),
       ("diagrams.result_braid_letters", "letters"),
       ("complexes.smith_invariants.entries", "entries"),
       ("complexes.homology.calls", "count"),
       ("dsl.parse_session.chars", "chars"),
       ("trace.coverage", "ratio"),
       ("trace.overhead", "ratio")])


class SetupError(Exception):
    pass


def load_library():
    """Import the package afresh (dropping any earlier import) and return
    its modules; the workloads reach the library only through these."""
    init = os.path.join(SRC, tracing.PACKAGE, "__init__.py")
    if not os.path.isfile(init):
        raise SetupError("no library at %s: run from the root of a source checkout" % init)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    for name in [m for m in sys.modules
                 if m == tracing.PACKAGE or m.startswith(tracing.PACKAGE + ".")]:
        del sys.modules[name]
    lib = types.SimpleNamespace(package=importlib.import_module(tracing.PACKAGE))
    for layer in tracing.LAYERS:
        setattr(lib, layer, importlib.import_module("%s.%s" % (tracing.PACKAGE, layer)))
    return lib


def execute(ops, fingerprint, tracer=None, checked=None):
    """Run one round's operations in order.  Only the call into the
    library is timed (and traced); its check runs afterwards, unless
    `checked` (the fingerprints of answers that passed their checks on the
    same inputs) holds an answer identical to this one."""
    latencies, answers, failures = [], [], []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.active = True
        t0 = perf_counter()
        try:
            answer = op.run()
            error = None
        except Exception as exc:  # any exception, RecursionError included, fails the op
            answer, error = None, "%s: %s" % (type(exc).__name__, exc)
        t1 = perf_counter()
        if tracer is not None:
            tracer.active = False
        latencies.append(t1 - t0)
        if error is None:
            mark = fingerprint(answer)
            if checked is None or checked[i] is None or checked[i] != mark:
                try:
                    error = op.check(answer)
                except Exception as exc:
                    error = "check raised %s: %s" % (type(exc).__name__, exc)
        if error is None:
            answers.append(mark)
        else:
            answers.append(None)
            failures.append("%s: %s" % (op.kind, error))
    return types.SimpleNamespace(wall=sum(latencies), latencies=latencies,
                                 answers=answers, failures=failures,
                                 kinds=[op.kind for op in ops])


def git_commit():
    """The checked-out commit, read from .git without running git; None
    outside a git working tree."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def percentile(values, q):
    """q-th percentile (0 < q < 100) with linear interpolation."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Accumulator:
    """Per-layer totals over the traced rounds of one run."""

    def __init__(self):
        self.rounds = 0
        self.calls = {}
        self.self_s = {}
        self.layer_self = {}
        self.before = {}
        self.after = {}
        self.root_s = 0.0
        self.traced_wall = 0.0
        self.ratios = []
        self.spans = 0

    def add(self, spans, before, after, traced_wall, plain_wall):
        summary = tracing.summarize(spans)
        self.rounds += 1
        self.spans += len(spans)
        for target, source in ((self.calls, summary["calls"]), (self.self_s, summary["self_s"]),
                               (self.layer_self, summary["layer_self_s"]),
                               (self.before, before), (self.after, after)):
            for key, val in source.items():
                target[key] = target.get(key, 0) + val
        self.root_s += summary["root_s"]
        self.traced_wall += traced_wall
        self.ratios.append(traced_wall / plain_wall if plain_wall > 0 else 1.0)

    def metrics(self):
        r = self.rounds
        out = {}
        for layer in LAYER_SELF:
            out["%s.self_s" % layer] = self.layer_self.get(layer, 0.0) / r
        for name in SPAN_CALLS:
            out["%s.calls" % name] = self.calls.get(name, 0) / r
        for name in SPAN_SELF:
            out["%s.self_s" % name] = self.self_s.get(name, 0.0) / r
        attempts = self.calls.get("diagrams.try_reduce_at", 0)
        out.update({
            "braids.normal_form.letters": self.before.get("braids.normal_form", 0) / r,
            "labeled.realize.letters": self.before.get("labeled.realize", 0) / r,
            "diagrams.try_reduce_at.hit_ratio":
                self.after.get("diagrams.try_reduce_at", 0) / attempts if attempts else 0.0,
            "diagrams.result_braid_letters": self.after.get("diagrams.multiply", 0) / r,
            "complexes.smith_invariants.entries":
                self.before.get("complexes.smith_invariants", 0) / r,
            "complexes.homology.calls": (self.calls.get("complexes.reduced_homology", 0)
                                         + self.calls.get("complexes.relative_homology", 0)) / r,
            "dsl.parse_session.chars": self.before.get("dsl.parse_session", 0) / r,
            "trace.coverage": self.root_s / self.traced_wall if self.traced_wall else 0.0,
            "trace.overhead": statistics.median(self.ratios) - 1.0,
        })
        return out


def run(workload, seed, seconds, trace, size="full"):
    """One benchmark run.  Returns (result, record, first traced round's spans)."""
    wl = WORKLOADS[workload]
    params = wl.SIZES[size]
    variants = wl.VARIANTS
    os.makedirs(WORKDIR, exist_ok=True)

    setup_samples = []
    acc = Accumulator()
    plain_rounds, failures, attempted, mismatched = [], [], 0, 0
    kept_spans = None

    checked = {}

    def run_pass(variant, traced):
        """Set up afresh (import, inputs, session files; timed as set-up),
        then run the round of `variant` once."""
        gc.collect()
        t0 = perf_counter()
        lib = load_library()
        ops = wl.generate(lib, seed, variant, params, WORKDIR)
        setup_samples.append(perf_counter() - t0)
        gc.collect()
        if not traced:
            res = execute(ops, wl.fingerprint, checked=checked.get(variant))
            checked.setdefault(variant, res.answers)
            return res
        tracer = tracing.Tracer(lib)
        tracer.install()
        try:
            res = execute(ops, wl.fingerprint, tracer, checked.get(variant))
        finally:
            tracer.uninstall()
        res.spans, res.before, res.after = tracer.spans, tracer.before, tracer.after
        try:
            tracing.check_nesting(res.spans)
        except ValueError as exc:
            res.failures.append("trace: %s" % exc)
        return res

    start = perf_counter()
    index = 0
    while True:
        # A traced run makes a plain and a traced pass on identical fresh
        # inputs, alternating which goes first.
        variant, cycle = index % variants, index // variants
        order = ((False, True) if cycle % 2 == 0 else (True, False)) if trace else (False,)
        passes = {traced: run_pass(variant, traced) for traced in order}
        for res in passes.values():
            attempted += len(res.latencies)
            failures.extend(res.failures)
        plain = passes[False]
        plain_rounds.append(plain)
        if trace:
            traced_pass = passes[True]
            if (traced_pass.answers != plain.answers
                    or len(traced_pass.failures) != len(plain.failures)):
                mismatched += 1
                failures.append("trace: round %d answers differ between the traced and "
                                "the plain pass" % index)
            acc.add(traced_pass.spans, traced_pass.before, traced_pass.after,
                    traced_pass.wall, plain.wall)
            if kept_spans is None:
                kept_spans = traced_pass.spans
        index += 1
        # Stop at the end of a cycle, at the one that ends nearest to
        # `seconds`, so every variant repeats equally often.
        elapsed = perf_counter() - start
        if index % variants == 0 and elapsed + 0.5 * elapsed / (index // variants) >= seconds:
            break

    # Each operation's fastest time over the repeats of its variant.
    repeats = {}
    for i, p in enumerate(plain_rounds):
        repeats.setdefault(i % variants, []).append(p.latencies)
    fastest = []
    for reps in repeats.values():
        if len({len(r) for r in reps}) != 1:
            raise SetupError("the repeats of one variant differ in their operations")
        fastest.append([min(times) for times in zip(*reps)])
    fastest_ms = [t * 1000.0 for times in fastest for t in times]
    per_round = [(p.wall, percentile([t * 1000.0 for t in p.latencies], 50),
                  percentile([t * 1000.0 for t in p.latencies], 90)) for p in plain_rounds]
    failed = len(failures)
    if trace:
        values = acc.metrics()
        units = PER_LAYER
    else:
        values = {
            "wall_s": statistics.mean(sum(times) for times in fastest),
            "op_p50_ms": percentile(fastest_ms, 50),
            "op_p90_ms": percentile(fastest_ms, 90),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "success_rate": 1.0 - failed / attempted,
        }
        units = END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    by_kind = {}
    for p in plain_rounds:
        for kind, t in zip(p.kinds, p.latencies):
            by_kind.setdefault(kind, []).append(t * 1000.0)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "size": size, "parameters": params,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "load": "closed loop: one process, one caller, one operation at a time",
        "samples": {"rounds": len(plain_rounds), "variants": len(fastest),
                    "repeats_per_variant": len(plain_rounds) // len(fastest),
                    "ops_per_round": [len(times) for times in fastest],
                    "op_percentiles": len(fastest_ms),
                    "setup_s": len(setup_samples), "traced_rounds": acc.rounds},
        "error_rate": failed / attempted,
        "trace_mismatched_rounds": mismatched,
        "ops_by_kind": {k: {"n": len(v), "median_ms": statistics.median(v),
                            "total_ms": sum(v) / len(plain_rounds)}
                        for k, v in sorted(by_kind.items())},
        "failures": failures[:20],
        "rounds_wall_p50_p90": per_round,
        "variants_wall_s": [sum(times) for times in fastest],
    }
    if trace:
        record["spans_per_round"] = acc.spans / acc.rounds
        record["layer_self_share"] = {
            layer: values["%s.self_s" % layer] * acc.rounds / acc.traced_wall
            for layer in LAYER_SELF}
    return result, record, kept_spans


def write_spans(path, spans):
    """Write one round's spans as tab-separated (index, name, start, end,
    parent), times in seconds from the first span."""
    t0 = spans[0][1] if spans else 0.0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index\tname\tstart_s\tend_s\tparent\n")
        for i, (name, start, end, parent) in enumerate(spans):
            fh.write("%d\t%s\t%.9f\t%.9f\t%d\n" % (i, name, start - t0, end - t0, parent))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result, record, spans = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print("benchmark: %s" % exc, file=sys.stderr)
        return 2
    if spans is not None:
        path = os.path.join(WORKDIR, "spans-%s-%d.tsv" % (args.workload, args.seed))
        write_spans(path, spans)
        record["spans_file"] = os.path.relpath(path, ROOT)
    for name, metric in result["metrics"].items():
        print("%-40s %14.6g %s" % (name, metric["value"], metric["unit"]), file=sys.stderr)
    for line in record["failures"]:
        print("FAILED %s" % line, file=sys.stderr)
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
