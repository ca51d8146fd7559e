"""Enriched Stallings automata for subgroups of F_n x A.

Represents finitely generated subgroups of direct products of free and
finitely generated abelian groups as automata with abelian arc labels,
and computes canonical forms, bases, membership, intersections (with the
finite-generation decision and recursive bases in the infinite-rank case),
indices, transversals, and finite-index factor completions.
"""

from .abelian import (
    INFINITY,
    AbelianSpec,
    AbelianSubgroup,
    SnfDecomposition,
    coset_intersection_witness,
    hnf,
    preimage_under_matrix,
    snf,
)
from .enriched import (
    Ambient,
    EnrichedAutomaton,
    GroupElement,
    SubgroupBasis,
    basis,
    completion,
    enriched_flower,
    finite_index_factor_extension,
    index_report,
    member,
    normalize,
    reduce,
    stallings,
    transversal_stream,
)
from .intersection import (
    VERDICT_FG,
    VERDICT_NOT_FG,
    IntersectionReport,
    cayley_multidigraph,
    decide_finitely_generated,
    doubly_enriched_product,
    equalize,
    intersect_fg,
    intersect_stages,
    intersection_matrices,
    vertex_expand,
)
from .syntax import ProblemFile, format_element, parse_element, parse_problem
from .words import Automaton, Word, core, flower, fold, product, spanning_tree_by_order

__version__ = "0.1.0"
