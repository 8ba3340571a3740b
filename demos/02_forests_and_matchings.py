"""Rooted d-ary forests: carets, the expansion order, joins, and the
correspondence between elementary forests and interval matchings.

Run:  python3 demos/02_forests_and_matchings.py
"""

from braidedthompson import (attach_caret, elementary_forest, forest_join,
                             forest_to_matching, is_prefix,
                             matching_to_forest)
from braidedthompson.forests import decode

# Forests encode as dot/parenthesis trees joined by "|".
f = decode("(..)|.", 2)
print("forest:", str(f), "roots:", f.roots, "leaves:", f.leaves)

# Attaching a caret at a leaf refines the forest.
g = attach_caret(f, 2)
print("caret at leaf 2:", str(g))

# The elementary forest on five ternary roots with carets at roots 2, 5:
e = elementary_forest(5, {2, 5}, 3)
print("\nelementary ternary forest, carets at roots 2 and 5:", str(e))
print("leaves:", e.leaves)

# join computes the least common refinement and returns witness paths.
a = decode("((..).)", 2)
b = decode("(.(..))", 2)
j, pa, pb = forest_join(a, b)
print("\njoin of %s and %s = %s" % (str(a), str(b), str(j)))
print("expansion path from the first:", pa, " second:", pb)
print("both are prefixes of the join:", is_prefix(a, j), is_prefix(b, j))

# Elementary forests with m leaves are the same thing as disjoint
# interval systems [i, i+d-1] in [1, m].
m = forest_to_matching(e)
print("\nmatching of the elementary forest:", sorted(m))
print("round trip:", str(matching_to_forest(m, e.leaves, 3)) == str(e))
