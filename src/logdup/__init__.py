"""Detection of duplicated and similar predicate definitions in definite
logic programs.

``__all__`` is the library API: parsing and rendering, normalization,
SCCs, the fingerprint prefilter, exact closeness with its witness and
common core, and the goal measures.  The other names imported here stay
importable from ``logdup`` and are documented in their modules; those of
``oracle`` are the reference implementations that the tests and the
benchmark compare against."""

from .depgraph import SCC, ClauseSegments, build_sccs, scc_of, segment_clause
from .fingerprint import (
    ClausePrint, GoalPrint, PredicatePrint, SCCPrint, candidate_pairs,
    fp_closeness, goalprint, predicate_print, print_glb, scc_print, scc_print_glb,
)
from .metrics import (
    GoalAlignment, Limits, commonality, goal_similarity,
    maximal_similar_subgoals, predicate_multiset, strict_commonality,
)
from .normalize import is_normal_atom, normalize_clause, normalize_program
from .oracle import (
    MsgResult, brute_force_commonality, check_glb_conjecture,
    enumerate_renamings, msg, mutate_duplicate, shared_var_count,
)
from .structure import (
    ArgPermutation, SimilarityResult, StructureWitness, closeness,
    common_core, scc_similarity, self_similarity, validate_witness,
)
from .syntax import (
    Atom, Clause, Goal, Num, PredSymbol, Program, PrologSyntaxError, Struct,
    Var, parse_clause, parse_goal, parse_program, parse_term, render_atom,
    render_clause, render_term,
)

__all__ = [
    "Atom", "Clause", "Goal", "Num", "PredSymbol", "Program", "PrologSyntaxError",
    "Struct", "Var", "parse_clause", "parse_goal", "parse_program", "parse_term",
    "render_clause", "render_term",
    "normalize_clause", "normalize_program",
    "SCC", "build_sccs", "scc_of",
    "candidate_pairs", "fp_closeness", "scc_print",
    "ArgPermutation", "Limits", "SimilarityResult", "StructureWitness",
    "closeness", "common_core", "scc_similarity", "self_similarity", "validate_witness",
    "GoalAlignment", "commonality", "goal_similarity", "strict_commonality",
]
