"""Diagram calculus for labeled braided Higman-Thompson groups, with a
finite simplicial complex lab for the combinatorics that supports them."""

from .braids import (BraidWord, Permutation, braid_equal, cable,
                     delete_strands, half_twist, is_cyclic, is_pure, is_trivial,
                     permutation_of, shifted, word_from_permutation)
from .complexes import (HeightFunction, HomologyReport, SimplicialComplex,
                        complete_join_check, d_matching_cyclic,
                        d_matching_linear, duplicated_cover, is_homology_wcm,
                        join, link, morse_check, morse_descending_link,
                        morse_sweep, mutual_link, reduced_homology,
                        relative_homology, restrict_initial, simplex_counts,
                        smith_invariants, star, sublevel, wcm_violation)
from .diagrams import (GroupContext, PairedForestDiagram, Spraige, v_equal,
                       v_expand, v_multiply, v_reduce)
from .forests import (Forest, attach_caret, elementary_forest,
                      expansion_path, apply_path, forest_to_matching,
                      is_prefix, leaf_counts, matching_to_forest)
from .forests import join as forest_join
from .labeled import (Label, LabelGroupSpec, LabeledBraid, lb_equal,
                      lb_invert, lb_multiply, ribbon_spec)
from .dsl import (DslError, format_element, format_header, format_session,
                  parse_element_text, parse_session)

__version__ = "0.1.0"
