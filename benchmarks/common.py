"""Pieces shared by the workloads: the operation record and the summaries
that answer checks compare."""

from __future__ import annotations

from collections import namedtuple

# kind: label for the run record; run: the timed call into the library,
# returning its answer; check: untimed, returns None or a failure message.
Op = namedtuple("Op", "kind run check")


def spraige_fingerprint(s):
    """The representative exactly as returned, for comparing two runs of
    the same code (traced against untraced)."""
    return (str(s.minus), str(s.plus), tuple(s.lb.braid.letters),
            tuple(str(x) for x in s.lb.labels))


def invariant_summary(lib, s):
    """What survives a change of braid spelling on a reduced element: its
    forests, its permutation and the exponent sum of its braid."""
    braid = s.lb.braid
    return (str(s.minus), str(s.plus),
            lib.braids.permutation_of(braid).image, braid.exponent_sum())
