"""Detection of duplicated and similar predicate definitions in definite
logic programs."""

from .depgraph import SCC, ClauseSegments, build_sccs, scc_of, segment_clause
from .fingerprint import (
    ClausePrint, GoalPrint, PredicatePrint, SCCPrint, candidate_pairs,
    clauseprint, fp_closeness, goalprint, predicate_print, print_glb,
    scc_print, scc_print_glb,
)
from .metrics import (
    GoalAlignment, Limits, commonality, goal_similarity,
    maximal_similar_subgoals, nodes, predicate_multiset,
    strict_commonality, total_nodes, var_occurrences,
)
from .normalize import is_normal_atom, normalize_clause, normalize_program
from .oracle import (
    MsgResult, brute_force_commonality, check_glb_conjecture,
    enumerate_renamings, msg, mutate_duplicate, shared_var_count,
)
from .structure import (
    ArgPermutation, ClauseMapping, SimilarityResult, StructureWitness,
    closeness, common_core, scc_similarity, self_similarity, validate_witness,
)
from .syntax import (
    Atom, Clause, Goal, Num, PredSymbol, Program, PrologSyntaxError, Struct,
    Var, parse_clause, parse_goal, parse_program, parse_term, render_atom,
    render_clause, render_term,
)

__all__ = [
    "SCC", "ClauseSegments", "build_sccs", "scc_of", "segment_clause",
    "ClausePrint", "GoalPrint", "PredicatePrint", "SCCPrint",
    "candidate_pairs", "check_glb_conjecture", "clauseprint", "fp_closeness",
    "goalprint", "predicate_print", "print_glb", "scc_print", "scc_print_glb",
    "GoalAlignment", "Limits", "MsgResult", "commonality", "goal_similarity",
    "maximal_similar_subgoals", "msg", "nodes", "predicate_multiset",
    "shared_var_count", "strict_commonality", "total_nodes",
    "var_occurrences", "is_normal_atom", "normalize_clause",
    "normalize_program", "brute_force_commonality", "enumerate_renamings",
    "mutate_duplicate",
    "ArgPermutation", "ClauseMapping", "SimilarityResult", "StructureWitness",
    "closeness", "common_core", "scc_similarity", "self_similarity",
    "validate_witness", "Atom", "Clause", "Goal", "Num",
    "PredSymbol", "Program", "PrologSyntaxError", "Struct", "Var",
    "parse_clause", "parse_goal", "parse_program", "parse_term",
    "render_atom", "render_clause", "render_term",
]
