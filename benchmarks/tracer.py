"""Spans around calls into the library, recorded from outside it.

The layers are the package's modules.  `Tracer.install` replaces every
public module-level function of each layer, at every module attribute of
the package bound to the same object (``diagrams`` imports ``cable`` by
name, ``cli`` imports ``parse_session`` by name, and so on), plus a fixed
list of methods on their classes.  Each wrapper records
``[name, start, end, parent]`` in memory while the tracer is active;
`uninstall` puts the original objects back.

Work counts (letters, entries, chars) are read from a call's arguments
before the clock starts; hit counts are read from its result after the
clock stops, so neither lands inside the span they describe.
"""

from __future__ import annotations

import functools
import inspect
from collections import defaultdict
from time import perf_counter

PACKAGE = "braidedthompson"
LAYERS = ("braids", "forests", "labeled", "diagrams", "complexes", "dsl", "cli")

# Methods wrapped on their class: (layer, class, attributes).  Module-level
# public functions are found by inspection; methods are listed because
# wrapping the small ones called in inner loops (Permutation.__call__,
# SimplicialComplex.has_face, Forest.__init__ inside attach_caret) would
# cost more than the work it measures; their time stays with the caller.
METHODS = (
    ("braids", "BraidWord", ("normal_form", "inverse", "__mul__")),
    ("braids", "Permutation", ("inverse", "__mul__")),
    ("forests", "Forest", ("leaves", "carets", "is_trivial", "is_elementary")),
    ("labeled", "Label", ("realize",)),
    ("labeled", "LabeledBraid", ("__init__",)),
    ("diagrams", "GroupContext", ("identity", "lambda_spraige", "mu_spraige", "iota_label",
                                  "iota_prime", "expand", "try_reduce_at",
                                  "reduce", "multiply", "invert", "is_identity", "equal",
                                  "in_bF", "in_bT", "project_to_v", "r_label",
                                  "dangling_equal", "cable_on_feet", "arc_support")),
    ("complexes", "SimplicialComplex", ("__init__", "full_subcomplex", "vertex_set", "dim")),
)

# Functions whose spans share one name: the complex constructors.
ALIASES = {
    "complexes.d_matching_linear": "complexes.build",
    "complexes.d_matching_cyclic": "complexes.build",
    "complexes.restrict_initial": "complexes.build",
    "complexes.SimplicialComplex.__init__": "complexes.build",
    "complexes.full_subcomplex": "complexes.build",
}


def _letters(word, *args, **kwargs):
    return len(word)


def _label_letters(label, *args, **kwargs):
    return len(label.word)


def _entries(rows, *args, **kwargs):
    if not hasattr(rows, "__len__"):
        return 0  # never consume an iterator the library is about to read
    return len(rows) * (len(rows[0]) if rows else 0)


def _chars(text, *args, **kwargs):
    return len(text)


# Work read from the arguments, before the span starts.
BEFORE = {
    "braids.normal_form": _letters,
    "labeled.realize": _label_letters,
    "complexes.smith_invariants": _entries,
    "dsl.parse_session": _chars,
}

# Outcomes read from the result, after the span ends.
AFTER = {
    "diagrams.try_reduce_at": lambda result: result is not None,
    "diagrams.multiply": lambda result: len(result.lb.braid),
}


def span_name(layer, attr, cls=None):
    if cls is not None and attr.startswith("_"):
        name = "%s.%s.%s" % (layer, cls, attr)
    else:
        name = "%s.%s" % (layer, attr)
    return ALIASES.get(name, name)


class Tracer:
    """Records spans of library calls made while `active` is set."""

    def __init__(self, lib):
        self.lib = lib
        self.active = False
        self.spans = []
        self.stack = [-1]
        self.before = defaultdict(int)
        self.after = defaultdict(int)
        self._undo = []

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self
        before = BEFORE.get(name)
        after = AFTER.get(name)
        spans = self.spans
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if before is not None:
                tracer.before[name] += before(*args, **kwargs)
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1]]
            spans.append(rec)
            stack.append(idx)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if after is not None:
                tracer.after[name] += after(result)
            return result

        return wrapper

    def _modules(self):
        yield self.lib.package
        for layer in LAYERS:
            yield getattr(self.lib, layer)

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = list(self._modules())
        for layer in LAYERS:
            mod = getattr(self.lib, layer)
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                wrapper = self._wrap(span_name(layer, attr), obj)
                for target in modules:
                    for key, val in list(vars(target).items()):
                        if val is obj:
                            self._undo.append((target, key, val))
                            setattr(target, key, wrapper)
        for layer, cls_name, attrs in METHODS:
            cls = getattr(getattr(self.lib, layer), cls_name)
            for attr in attrs:
                raw = cls.__dict__[attr]
                name = span_name(layer, attr, cls_name)
                if isinstance(raw, property):
                    new = property(self._wrap(name, raw.fget), raw.fset, raw.fdel, raw.__doc__)
                else:
                    new = self._wrap(name, raw)
                self._undo.append((cls, attr, raw))
                setattr(cls, attr, new)

    def uninstall(self):
        while self._undo:
            target, key, val = self._undo.pop()
            setattr(target, key, val)


def check_nesting(spans):
    """Raise ValueError unless every span is closed and lies inside its parent."""
    for i, (name, start, end, parent) in enumerate(spans):
        if not end >= start > 0:
            raise ValueError("span %d (%s) is not closed" % (i, name))
        if parent >= 0:
            if parent >= i:
                raise ValueError("span %d (%s) opened before its parent" % (i, name))
            p = spans[parent]
            if not (p[1] <= start and end <= p[2]):
                raise ValueError("span %d (%s) leaks out of its parent %s" % (i, name, p[0]))


def summarize(spans):
    """Per-name calls and self time, per-layer self time, and the time
    covered by root spans (those opened directly by the benchmark)."""
    child = [0.0] * len(spans)
    root = 0.0
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
        else:
            root += end - start
    calls = defaultdict(int)
    self_s = defaultdict(float)
    layer_self = defaultdict(float)
    for i, (name, start, end, parent) in enumerate(spans):
        own = (end - start) - child[i]
        calls[name] += 1
        self_s[name] += own
        layer_self[name.split(".", 1)[0]] += own
    return {"calls": calls, "self_s": self_s, "layer_self_s": layer_self, "root_s": root}
