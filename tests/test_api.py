"""The public API, spelled out.  A change to what the package exports, or
to the public attributes of `Forest`, has to edit these lists, and gets a
note in CHANGES.md."""

import types

import braidedthompson
from braidedthompson import Forest

EXPORTS = {
    "BraidWord", "DslError", "Forest", "GroupContext", "HeightFunction", "HomologyReport",
    "Label", "LabelGroupSpec", "LabeledBraid", "PairedForestDiagram", "Permutation",
    "SimplicialComplex", "Spraige", "apply_path", "attach_caret", "braid_equal", "cable",
    "complete_join_check", "d_matching_cyclic", "d_matching_linear", "delete_strands",
    "duplicated_cover", "elementary_forest", "expansion_path", "forest_join",
    "forest_to_matching", "format_element", "format_header", "format_session", "half_twist",
    "is_cyclic", "is_homology_wcm", "is_prefix", "is_pure", "is_trivial", "join", "lb_equal",
    "lb_invert", "lb_multiply", "leaf_counts", "link", "matching_to_forest", "morse_check",
    "morse_descending_link", "morse_sweep", "mutual_link", "parse_element_text",
    "parse_session", "permutation_of", "reduced_homology", "relative_homology",
    "restrict_initial", "ribbon_spec", "shifted", "simplex_counts", "smith_invariants",
    "star", "sublevel", "v_equal", "v_expand", "v_multiply", "v_reduce", "wcm_violation",
    "word_from_permutation",
}

# A forest enters and leaves as text: no public attribute holds its trees.
FOREST_ATTRIBUTES = {"carets", "degree", "is_elementary", "is_trivial", "leaves", "roots",
                     "trivial"}


def test_package_exports_are_exactly_the_listed_names():
    exported = {name for name, value in vars(braidedthompson).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == EXPORTS


def test_forest_public_attributes_are_exactly_the_listed_names():
    assert {name for name in dir(Forest) if not name.startswith("_")} == FOREST_ATTRIBUTES
