"""Connectivity tooling: complete joins, weak Cohen-Macaulayness, and
the descending-link Morse argument on a filtered complex.

Run:  python3 demos/05_joins_and_morse.py
"""

from braidedthompson import (HeightFunction, complete_join_check,
                             d_matching_linear, duplicated_cover,
                             is_homology_wcm, morse_descending_link,
                             morse_sweep, mutual_link, wcm_violation)

k = d_matching_linear(2, 6)
print("complex:", k)

# Weak Cohen-Macaulay (homology version): connectivity of the complex
# and of all links, through dimension-dependent degrees.
for n in range(0, 3):
    v = wcm_violation(k, n)
    print("wCM of dimension %d: %s%s" % (n, v is None, "" if v is None else "  (%s)" % v))

# The duplicated-vertex cover is a stock complete join over any complex;
# wCM transfers along complete joins.
cover, vmap = duplicated_cover(k)
print("\nduplicated cover: %d vertices, complete join: %s"
      % (cover.vertices, complete_join_check(cover, k, vmap)))
print("wCM(1) passes to the cover:", is_homology_wcm(k, 1) and is_homology_wcm(cover, 1))

# The mutual link of two vertices whose arcs overlap: everything both
# can see, used to push one arc off the other.
print("\nmutual link of the first two arcs:", mutual_link(k, 0, 1))

# Filter by initial position and run the Morse implication level by
# level: if all descending links at a level are homologically
# (kk-1)-connected then the sublevel pair is kk-acyclic.  The sweep takes
# at each level the largest kk whose hypothesis holds.
h = HeightFunction({v: v + 1 for v in range(k.vertices)})
print("\nMorse filtration by initial position:")
for t, kk, holds in morse_sweep(k, h, h.levels(k)):
    links = [morse_descending_link(k, h, v) for v in k.vertex_set() if h(v) == t]
    print("  level %d: %d descending link(s), implication holds for k=%d: %s"
          % (t, len(links), kk, holds))
