import itertools
import random
import tracemalloc
from fractions import Fraction
from typing import Optional
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from logdup import (
    SCC, ArgPermutation, Atom, Clause, ClauseSegments, Goal, Limits,
    PredSymbol, SimilarityResult, StructureWitness, Var, closeness, common_core,
    goal_similarity, normalize_program, parse_program,
    render_clause, scc_similarity, self_similarity, strict_commonality,
    validate_witness,
)
from logdup import mutate_duplicate, structure
from logdup.depgraph import build_sccs, scc_of
from logdup.metrics import anti_unify
from logdup.oracle import find_structure_witnesses
from logdup.syntax import Num, Struct, align, node_counts, parse_goal, rename_vars, shape
from tests.conftest import ADD1_AND_SQR, APPEND, CONCAT, CORPUS, REV_ALL, scc_named
from tests.test_acceptance import FIXTURE, FIXTURE_PREDS, _scale_corpus


def test_arg_permutation_apply():
    perm = ArgPermutation((2, 3, 1))
    assert perm.apply(("a", "b", "c")) == ("c", "a", "b")


def test_append_concat_witness(append_scc, concat_scc):
    witnesses = list(find_structure_witnesses(append_scc, concat_scc))
    assert witnesses
    target = [w for w in witnesses
              if dict(w.arg_permutations)[PredSymbol("append", 3)].mapping == (2, 3, 1)]
    assert target
    rho = dict(target[0].renamings[1])
    assert rho["X"] == "E" and rho["Xs"] == "Es"


def test_no_witness_between_different_shapes(append_scc, rev_all_scc):
    assert list(find_structure_witnesses(append_scc, rev_all_scc)) == []


def test_witness_validation(append_scc, concat_scc):
    for witness in find_structure_witnesses(append_scc, concat_scc):
        assert validate_witness(append_scc, concat_scc, witness)


def test_scc_similarity_append_concat(append_scc, concat_scc):
    result = closeness(append_scc, concat_scc)
    assert result.sigma == 18
    assert scc_similarity(append_scc, concat_scc, result.witness) == 18


def test_scc_similarity_rev_all_add1(rev_all_scc, add1_scc):
    witnesses = [w for w in find_structure_witnesses(rev_all_scc, add1_scc)
                 if all(src == dst for rho in w.renamings for src, dst in rho)]
    assert witnesses
    assert scc_similarity(rev_all_scc, add1_scc, witnesses[0]) == 15


def test_self_similarity_values(append_scc, rev_all_scc, add1_scc):
    assert self_similarity(append_scc) == 18
    assert self_similarity(rev_all_scc) == 18
    assert self_similarity(add1_scc) == 26


def test_closeness_duplicates(append_scc, concat_scc):
    result = closeness(append_scc, concat_scc)
    assert result.closeness == (Fraction(1), Fraction(1))
    assert not result.approximate


def test_closeness_similar_pair(rev_all_scc, add1_scc):
    result = closeness(rev_all_scc, add1_scc)
    assert result.closeness == (Fraction(15, 18), Fraction(15, 26))


def test_closeness_self_is_one(append_scc, add1_scc):
    for scc in (append_scc, add1_scc):
        assert closeness(scc, scc).closeness == (Fraction(1), Fraction(1))


def test_closeness_none_without_witness(append_scc, rev_all_scc):
    assert closeness(append_scc, rev_all_scc) is None


def test_closeness_symmetry(rev_all_scc, add1_scc):
    fwd = closeness(rev_all_scc, add1_scc)
    bwd = closeness(add1_scc, rev_all_scc)
    assert fwd.sigma == bwd.sigma
    assert fwd.closeness == tuple(reversed(bwd.closeness))


def test_order_insensitivity_within_segment():
    base = scc_named("p([],[]).\np([X|Xs],[Y|Ys]) :- a(X), b(Y), p(Xs,Ys).", "p", 2)
    flipped = scc_named("q([],[]).\nq([X|Xs],[Y|Ys]) :- b(Y), a(X), q(Xs,Ys).", "q", 1 + 1)
    result = closeness(base, flipped)
    assert result.closeness == (Fraction(1), Fraction(1))


def test_moving_atom_across_recursive_call_lowers_sigma():
    normal_append = """
    append(X,Y,Z) :- X = [], Z = Y.
    append(X,Y,Z) :- X = [Xe|Xs], Z = [Xe|Zs], append(Xs,Y,Zs).
    """
    moved_append = """
    append(X,Y,Z) :- X = [], Z = Y.
    append(X,Y,Z) :- X = [Xe|Xs], append(Xs,Y,Zs), Z = [Xe|Zs].
    """
    normal_concat = """
    concat(A,B,C) :- B = [], A = C.
    concat(A,B,C) :- A = [Be|As], B = [Be|Bs], concat(As,Bs,C).
    """
    con = scc_named(normal_concat, "concat", 3)
    full = closeness(scc_named(normal_append, "append", 3), con)
    moved_scc = scc_named(moved_append, "append", 3)
    assert list(find_structure_witnesses(moved_scc, con))
    moved = closeness(moved_scc, con)
    assert full.closeness == (Fraction(1), Fraction(1))
    assert moved.sigma < full.sigma


def test_witness_renaming_must_be_injective():
    source = "p(X,Y).\nq(Z,Z).\n"
    s1, s2 = scc_named(source, "p", 2), scc_named(source, "q", 2)
    p, q = PredSymbol("p", 2), PredSymbol("q", 2)
    witness = StructureWitness(((0, 0),), ((p, q),), ((p, ArgPermutation((1, 2))),),
                               ((("X", "Z"), ("Y", "Z")),))
    assert not validate_witness(s1, s2, witness)
    with pytest.raises(ValueError):
        scc_similarity(s1, s2, witness)
    assert closeness(s1, s2) is None


def test_validate_witness_rejects_unmapped_predicates(append_scc, concat_scc):
    witness = next(find_structure_witnesses(append_scc, concat_scc))
    assert not validate_witness(append_scc, concat_scc, StructureWitness(
        witness.pairs, (), witness.arg_permutations, witness.renamings))
    assert not validate_witness(append_scc, concat_scc, StructureWitness(
        witness.pairs, witness.pred_map, (), witness.renamings))


def test_common_core_of_normalized_pair_matches_map_skeleton():
    source = """
    rev_all([],[]).
    rev_all([X|Xs],[Y|Ys]) :- reverse(X,Y), rev_all(Xs,Ys).
    add1_and_sqr([],[]).
    add1_and_sqr([X|Xs],[Y|Ys]) :- N is X + 1, Y is N*N, add1_and_sqr(Xs,Ys).
    """
    program = normalize_program(parse_program(source))
    sccs = build_sccs(program)
    ra = scc_of(sccs, PredSymbol("rev_all", 2))
    aas = scc_of(sccs, PredSymbol("add1_and_sqr", 2))
    result = closeness(ra, aas)
    core = common_core(ra, aas, result)
    rendered = [render_clause(c) for c in core]
    name = core[0].head.pred.name
    assert rendered == [
        f"{name}(A,B) :- A = [], B = [].",
        f"{name}(A,B) :- A = [X|Xs], B = [Y|Ys], {name}(Xs,Ys).",
    ]


DOUBLE = """
double([],[]).
double([X|Xs],[Y|Ys]) :- Y is X * 2, double(Xs,Ys).
"""


# The segment search runs from the side with fewer variables, here the
# right one; a left variable it leaves out must not be equated with a
# right variable of the same name (C in the first pair, Y in the second).
@pytest.mark.parametrize("source, left, right, expected", [
    ("p(X) :- r(B,B,D,D,C,F,F,C).\nq(X) :- r(A,A,C,C,E,E,E,C).\n", ("p", 1), ("q", 1),
     ["core_p_q(B) :- r(A,A,C,C,G1,E,E,G2)."]),
    (ADD1_AND_SQR + DOUBLE, ("add1_and_sqr", 2), ("double", 2),
     ["core_add1_and_sqr_double(A,B) :- A = [], B = [].",
      "core_add1_and_sqr_double(A,B) :- A = [X|Xs], B = [G1|Ys], Y is G2, "
      "core_add1_and_sqr_double(Xs,Ys)."]),
])
def test_common_core_keeps_unrenamed_left_variables_apart(source, left, right, expected):
    sccs = build_sccs(normalize_program(parse_program(source)))
    s1, s2 = scc_of(sccs, PredSymbol(*left)), scc_of(sccs, PredSymbol(*right))
    core = common_core(s1, s2, closeness(s1, s2))
    assert [render_clause(c) for c in core] == expected


def test_common_core_of_duplicates_is_a_copy(append_scc, concat_scc):
    result = closeness(append_scc, concat_scc)
    core = common_core(append_scc, concat_scc, result)
    assert len(core) == 2
    # duplicates generalize without losing any body atom
    assert sum(len(c.body.atoms) for c in core) == \
        sum(len(c.body.atoms) for c in concat_scc.clauses)


def test_mutual_recursion_pair():
    left = """
    even(0).
    even(s(N)) :- odd(N).
    odd(s(N)) :- even(N).
    """
    right = """
    pair(0).
    pair(s(M)) :- impair(M).
    impair(s(M)) :- pair(M).
    """
    l = scc_named(left, "even", 1)
    r = scc_named(right, "pair", 1)
    result = closeness(l, r)
    assert result.closeness == (Fraction(1), Fraction(1))


def _assert_closeness_is_best_witness(s1, s2):
    witnesses = list(find_structure_witnesses(s1, s2))
    result = closeness(s1, s2)
    if not witnesses:
        assert result is None
    else:
        assert result.sigma == max(scc_similarity(s1, s2, w) for w in witnesses)
        assert result.denominators == (self_similarity(s1), self_similarity(s2))
        assert scc_similarity(s1, s2, result.witness) == result.sigma


def test_closeness_maximizes_over_enumerated_witnesses():
    fixtures = [scc_named(APPEND, "append", 3), scc_named(CONCAT, "concat", 3),
                scc_named(REV_ALL, "rev_all", 2),
                scc_named(ADD1_AND_SQR, "add1_and_sqr", 2)]
    for s1 in fixtures:
        for s2 in fixtures:
            _assert_closeness_is_best_witness(s1, s2)


def test_closeness_maximizes_over_witnesses_of_mutated_copies():
    sccs = build_sccs(normalize_program(parse_program(FIXTURE)))
    originals = [scc_of(sccs, PredSymbol(name, arity)) for name, arity in FIXTURE_PREDS]
    copies = [mutate_duplicate(scc, seed)[0]
              for seed, scc in enumerate(originals)]
    for s1 in originals:
        for s2 in originals + copies:
            _assert_closeness_is_best_witness(s1, s2)


WIDE_LEFT = """
w6(A,B,C,D,E,F) :- A = [], B = C, D = E, F = 0.
w6(A,B,C,D,E,F) :- A = [X|Xs], B = f(X), g(C,D), w6(Xs,C,B,E,D,F).
"""

WIDE_RIGHT = """
v6(P,Q,R,S,T,U) :- P = [], Q = R, S = T, U = 0.
v6(P,Q,R,S,T,U) :- P = [Y|Ys], Q = f(Y), g(R,S), v6(Ys,R,Q,T,S,U).
"""


def _counting(monkeypatch, name):
    """Record the arguments of every call ``structure`` makes through its
    module attribute ``name``."""
    calls = []
    function = getattr(structure, name)

    def counted(*args):
        calls.append(args)
        return function(*args)

    monkeypatch.setattr(structure, name, counted)
    return calls


def test_closeness_scores_each_segment_pair_once(monkeypatch):
    # 720 argument permutations per side; the segment similarity of a
    # clause pair does not depend on them
    s1 = scc_named(WIDE_LEFT, "w6", 6)
    s2 = scc_named(WIDE_RIGHT, "v6", 6)
    calls = _counting(monkeypatch, "goal_similarity")
    searches = _counting(monkeypatch, "scc_similarity")
    result = closeness(s1, s2)
    assert result.closeness == (Fraction(1), Fraction(1))
    # the two compatible clause pairs have 1 and 2 segments; the
    # self-similarity denominators count nodes and search nothing
    assert len(calls) <= 1 + 2
    assert searches == []


# One 40-atom segment of one predicate: beyond the exact limits, so its
# commonality with itself is searched greedily.
CHAIN = "chain(X0,X40) :- " + ", ".join(f"link(X{i},X{i + 1})" for i in range(40)) + "."


def test_self_similarity_equals_sigma_of_each_scc_with_itself():
    # N counts every node of an SCC; its closeness with itself, exact or
    # greedy, reaches that count whatever the limits
    for source in (CORPUS, FIXTURE, _scale_corpus(), CHAIN):
        program = parse_program(source)
        for prog in (program, normalize_program(program)):
            for s in build_sccs(prog):
                n = self_similarity(s)
                for limits in (Limits(), Limits(exact_vars=1, exact_group=1)):
                    result = closeness(s, s, limits)
                    assert result.sigma == n, (s.name(), limits)
                    assert result.closeness == (Fraction(1), Fraction(1))


# References for the witness invariant.  They transform and rename the
# left head and recursive calls under the witness and then compare them
# with the right ones (strict commonality) or anti-unify them.  Under a
# witness the two sides are identical, so the call part is the right
# ones' node total and the common core keeps the right ones unchanged.

def _reference_segment_score(lseg: ClauseSegments, rseg: ClauseSegments, limits: Limits):
    """The clause-neck node plus the goal similarity of each segment
    pair, with the alignments that realize it and whether any of them is
    approximate."""
    score = 1  # the clause-neck node
    alignments = []
    approximate = False
    for lq, rq in zip(lseg.segments, rseg.segments):
        align = goal_similarity(lq, rq, limits)
        score += align.value
        alignments.append(align)
        approximate = approximate or align.approximate
    return score, tuple(alignments), approximate


def _reference_call_score(lseg: ClauseSegments, rseg: ClauseSegments,
                          pred_map: dict, perms: dict, rho: dict) -> int:
    """Strict commonality of the heads and of the recursive calls, the
    left ones under pi and rho."""
    rho_vars = {k: Var(v) for k, v in rho.items()}
    lefts = (lseg.head,) + lseg.recursive_calls
    rights = (rseg.head,) + rseg.recursive_calls
    return sum(strict_commonality(rename_vars(_transform_atom(la, pred_map, perms), rho_vars), ra)
               for la, ra in zip(lefts, rights))


def _reference_common_core(s1: SCC, s2: SCC, result: SimilarityResult) -> tuple:
    """Generalize every mapped clause pair into a fresh common-core
    predicate definition: heads and recursive calls are kept (renamed to
    fresh predicates), and only the sigma-aligned atoms of each segment
    survive, anti-unified pairwise."""
    if result.approximate:
        raise ValueError("refusing to extract a common core from an approximate result")
    w = result.witness
    pred_map = dict(w.pred_map)
    perms = dict(w.arg_permutations)
    fresh = {pred_map[q]: PredSymbol(f"core_{q.name}_{pred_map[q].name}", q.arity)
             for q in s1.members}

    clauses = []
    for idx, ((i, j), rho_items) in enumerate(zip(w.pairs, w.renamings)):
        right = s2.clauses[j]
        lseg, rseg = s1.segmented[i], s2.segmented[j]
        aligns = result.segment_alignments[idx]
        generalized: dict = {}

        def anti_atom(a: Atom, b: Atom) -> Atom:
            return Atom(b.pred, tuple(anti_unify(x, y, "G", generalized)
                                      for x, y in zip(a.args, b.args)))

        rho_vars = {k: Var(v) for k, v in rho_items}
        body_atoms = []
        for si, (lq, rq, seg_align) in enumerate(zip(lseg.segments, rseg.segments, aligns)):
            kept = [(ri, anti_atom(la, ra)) for (_, ri), (la, ra)
                    in zip(seg_align.atom_pairing, seg_align.renamed_pairs(lq, rq))]
            body_atoms.extend(atom for _, atom in sorted(kept, key=lambda kv: kv[0]))
            if si < len(rseg.recursive_calls):
                lcall = rename_vars(
                    _transform_atom(lseg.recursive_calls[si], pred_map, perms), rho_vars)
                rcall = rseg.recursive_calls[si]
                gen = anti_atom(lcall, rcall)
                body_atoms.append(Atom(fresh[rcall.pred], gen.args))
        lhead = rename_vars(_transform_atom(lseg.head, pred_map, perms), rho_vars)
        gen_head = anti_atom(lhead, rseg.head)
        head = Atom(fresh[rseg.head.pred], gen_head.args)
        clauses.append(Clause(head, Goal(tuple(body_atoms)), right.origin))
    return tuple(clauses)


def _assert_witnesses_make_calls_identical(s1, s2):
    """Check every witness of (s1, s2) against the references; returns how
    many witnesses there were."""
    count = 0
    for w in find_structure_witnesses(s1, s2):
        count += 1
        pred_map, perms = dict(w.pred_map), dict(w.arg_permutations)
        sigma = 0
        alignments = []
        for (i, j), rho in zip(w.pairs, w.renamings):
            lseg, rseg = s1.segmented[i], s2.segmented[j]
            calls = _reference_call_score(lseg, rseg, pred_map, perms, dict(rho))
            assert calls == sum(sum(node_counts(a)) for a in (rseg.head,) + rseg.recursive_calls)
            assert calls == sum(sum(node_counts(a)) for a in (lseg.head,) + lseg.recursive_calls)
            segments, aligns, _ = _reference_segment_score(lseg, rseg, Limits())
            sigma += segments + calls
            alignments.append(aligns)
        assert scc_similarity(s1, s2, w) == sigma
        # every fixture has arity at most Limits().arity, so no witness skips
        # an argument permutation and none is approximate
        result = SimilarityResult(sigma, (Fraction(0), Fraction(0)), (0, 0), w,
                                  tuple(alignments))
        assert common_core(s1, s2, result) == _reference_common_core(s1, s2, result)
    return count


@pytest.mark.parametrize("normalize", [False, True], ids=["raw", "normalized"])
def test_witness_invariant_on_fixture_pairs(normalize):
    fixtures = [scc_named(APPEND, "append", 3, normalize), scc_named(CONCAT, "concat", 3, normalize),
                scc_named(REV_ALL, "rev_all", 2, normalize),
                scc_named(ADD1_AND_SQR, "add1_and_sqr", 2, normalize)]
    assert sum(_assert_witnesses_make_calls_identical(s1, s2)
               for s1 in fixtures for s2 in fixtures) > 0


def test_witness_invariant_on_mutated_copies():
    sccs = build_sccs(normalize_program(parse_program(FIXTURE)))
    originals = [scc_of(sccs, PredSymbol(name, arity)) for name, arity in FIXTURE_PREDS]
    copies = [mutate_duplicate(scc, seed)[0]
              for seed, scc in enumerate(originals)]
    for s1, copy in zip(originals, copies):
        assert _assert_witnesses_make_calls_identical(s1, copy) > 0
        for s2 in originals + copies:
            _assert_witnesses_make_calls_identical(s1, s2)


def test_witness_invariant_on_wide_pair():
    s1 = scc_named(WIDE_LEFT, "w6", 6)
    s2 = scc_named(WIDE_RIGHT, "v6", 6)
    assert _assert_witnesses_make_calls_identical(s1, s2) > 0


# The previous witness search, kept as the reference for the two-stage
# one: it transforms and re-aligns the heads and recursive calls of every
# clause pair for every (predicate bijection, argument permutations)
# combination, and yields every combination with all its compatible
# clause pairs.

def _transform_atom(atom: Atom, pred_map: dict, perms: dict) -> Atom:
    """The A''_i construction: rename the predicate and permute the
    arguments (variables untouched; the renaming is matched afterwards)."""
    new_pred = pred_map[atom.pred]
    perm = perms[atom.pred]
    return Atom(new_pred, perm.apply(atom.args))


def _atom_term(atom: Atom) -> Struct:
    return Struct(atom.pred.name, atom.args)


def _match_renaming(pairs) -> Optional[dict]:
    """Simultaneous first-order matching of (source, target) atom pairs.

    Succeeds iff the atoms are structurally identical up to a consistent,
    injective variable correspondence."""
    rho: dict = {}
    for src, dst in pairs:
        _, var_pairs, exact = align(_atom_term(src), _atom_term(dst))
        if not exact:
            return None
        for x, y in var_pairs:
            if rho.setdefault(x, y) != y:
                return None
    if len(set(rho.values())) != len(rho):
        return None
    return rho


def _clause_rho(lseg: ClauseSegments, rseg: ClauseSegments,
                pred_map: dict, perms: dict) -> Optional[dict]:
    """Renaming for one clause pair under fixed pi, or None."""
    if len(lseg.recursive_calls) != len(rseg.recursive_calls):
        return None
    pairs = [(_transform_atom(lseg.head, pred_map, perms), rseg.head)]
    for la, ra in zip(lseg.recursive_calls, rseg.recursive_calls):
        if pred_map.get(la.pred) != ra.pred:
            return None
        pairs.append((_transform_atom(la, pred_map, perms), ra))
    return _match_renaming(pairs)


def _pred_bijections(s1: SCC, s2: SCC):
    """Arity/clause-count-respecting bijections between member predicates,
    in deterministic order."""
    if len(s1.members) != len(s2.members):
        return
    key = lambda scc, p: (p.arity, len(scc.clauses_of(p)))
    groups1: dict = {}
    groups2: dict = {}
    for p in s1.members:
        groups1.setdefault(key(s1, p), []).append(p)
    for p in s2.members:
        groups2.setdefault(key(s2, p), []).append(p)
    if sorted(groups1) != sorted(groups2):
        return
    if any(len(groups1[k]) != len(groups2[k]) for k in groups1):
        return
    keys = sorted(groups1)
    per_group = []
    for k in keys:
        left = groups1[k]
        per_group.append([tuple(zip(left, perm))
                          for perm in itertools.permutations(groups2[k])])
    for combo in itertools.product(*per_group):
        mapping = {}
        for group in combo:
            mapping.update(dict(group))
        yield mapping


def _perm_combos(members, arity_limit: int):
    """All per-predicate argument permutation combinations; beyond the
    arity limit only the identity is tried and the combo is approximate."""
    spaces = []
    approximate = False
    for q in members:
        n = q.arity
        if n <= 1:
            spaces.append([ArgPermutation(tuple(range(1, n + 1)))])
        elif n <= arity_limit:
            spaces.append([ArgPermutation(p)
                           for p in itertools.permutations(range(1, n + 1))])
        else:
            spaces.append([ArgPermutation(tuple(range(1, n + 1)))])
            approximate = True
    for combo in itertools.product(*spaces):
        yield dict(zip(members, combo)), approximate


def _reference_witness_combos(s1: SCC, s2: SCC, arity_limit: int):
    """Every (predicate bijection, argument permutations) combination of
    two SCCs, in deterministic order, as ``(pred_map, perms, approximate,
    groups, rhos)``.  ``groups`` holds, per member of s1, its clause
    indices and those of its image in s2; ``rhos`` maps each compatible
    clause pair (i, j) to its variable renaming.  ``approximate`` is set
    when argument permutations were skipped beyond the arity limit."""
    lefts = [tuple(i for i, c in enumerate(s1.clauses) if c.head.pred == q) for q in s1.members]
    for pred_map in _pred_bijections(s1, s2):
        groups = [(left, tuple(j for j, c in enumerate(s2.clauses) if c.head.pred == pred_map[q]))
                  for q, left in zip(s1.members, lefts)]
        for perms, approximate in _perm_combos(s1.members, arity_limit):
            rhos = {}
            for left, right in groups:
                for i in left:
                    for j in right:
                        rho = _clause_rho(s1.segmented[i], s2.segmented[j],
                                          pred_map, perms)
                        if rho is not None:
                            rhos[i, j] = rho
            yield pred_map, perms, approximate, groups, rhos


TWO_MEMBERS = """
tw_a([], Z) :- Z = a.
tw_a([X|Xs], Z) :- tw_b(Xs, f(X, Z)).
tw_b([], Z) :- Z = b.
tw_b([X|Xs], Z) :- tw_a(Xs, g(Z, X)).
"""

THREE_MEMBERS = """
th_a(0, Y) :- Y = z.
th_a(s(N), Y) :- th_b(N, Y).
th_b(s(N), Y) :- th_c(Y, N).
th_c(X, Y) :- th_a(Y, X).
"""

# in_p's head needs the renaming X -> Z, Y -> Z, which is not injective
NOT_INJECTIVE = """
in_p(X, Y) :- q(X).
in_q(Z, Z) :- q(Z).
"""

# under pa -> qa, pb -> qb the first clauses' arguments match, but pa's
# clause calls pb where qa's calls qa
OTHER_CALL = """
pa(s(N)) :- pb(N).
pa(0) :- pa(z).
pb(s(N)) :- pa(N).
pb(0) :- pb(z).
qa(s(N)) :- qa(N).
qa(0) :- qb(z).
qb(s(N)) :- qa(N).
qb(0) :- qb(z).
"""


def _assert_combos_match_reference(s1, s2, arity_limit):
    """Check the combinations of (s1, s2) against the reference: every one
    under the default witness cap, and the first cap + 1, all that
    closeness reads, under smaller caps; returns the number of
    combinations and of dead ones."""
    reference = list(_reference_witness_combos(s1, s2, arity_limit))
    for cap in (1, 2, 5, Limits().witness_cap):
        limits = Limits(arity=arity_limit, witness_cap=cap)
        combos = list(itertools.islice(structure._witness_combos(s1, s2, limits), cap + 1))
        assert len(combos) == min(len(reference), cap + 1)
        dead = 0
        for (*head, rhos), (pred_map, perms, _, groups, ref_rhos) in zip(combos, reference):
            assert head == [pred_map, perms, groups]
            if all(any((i, j) in ref_rhos for j in right) for left, right in groups for i in left):
                assert rhos == ref_rhos
            else:
                assert rhos is None
                dead += 1
    # every segment of the fixtures is searched exactly, so closeness is
    # approximate only where the reference skips argument permutations
    result = closeness(s1, s2, Limits(arity=arity_limit))
    assert result is None or [result.approximate] * len(reference) == [
        approximate for _, _, approximate, _, _ in reference]
    return len(combos), dead


def _combo_fixtures():
    fixtures = [scc_named(source, name, arity, normalize)
                for normalize in (False, True)
                for source, name, arity in ((APPEND, "append", 3), (CONCAT, "concat", 3),
                                            (REV_ALL, "rev_all", 2),
                                            (ADD1_AND_SQR, "add1_and_sqr", 2))]
    pairs = [(s1, s2) for s1 in fixtures for s2 in fixtures]
    pairs.append((scc_named(WIDE_LEFT, "w6", 6), scc_named(WIDE_RIGHT, "v6", 6)))
    for source, left, right, arity in ((NOT_INJECTIVE, "in_p", "in_q", 2),
                                       (OTHER_CALL, "pa", "qa", 1)):
        s1, s2 = scc_named(source, left, arity), scc_named(source, right, arity)
        pairs += [(s1, s2), (s2, s1)]
    for source, name in ((TWO_MEMBERS, "tw_a"), (THREE_MEMBERS, "th_a")):
        for normalize in (False, True):
            original = scc_named(source, name, 2, normalize)
            copies = [mutate_duplicate(original, seed)[0] for seed in range(3)]
            pairs += [(original, original)] + [(original, c) for c in copies] + \
                [(c, original) for c in copies] + [(copies[0], copies[1])]
    return pairs


@pytest.mark.parametrize("arity_limit", [2, 6])
def test_witness_combos_equal_reference(arity_limit):
    pairs = _combo_fixtures()
    assert len(pairs[-1][0].members) == 3
    counts = [_assert_combos_match_reference(s1, s2, arity_limit) for s1, s2 in pairs]
    total = sum(n for n, _ in counts)
    dead = sum(d for _, d in counts)
    # the fixtures exercise both live and dead combinations
    assert 0 < dead < total


# Under the identity permutation each clause of sw matches the other
# clause of ws; only the last permutation, (3,2,1), maps each clause onto
# its copy, and the four in between are dead.
SWAP_LEFT = """
sw(a, 0, Y) :- q(Y), q(Y).
sw(Y, 0, a) :- r(Y).
"""

SWAP_RIGHT = """
ws(Y, 0, a) :- q(Y), q(Y).
ws(a, 0, Y) :- r(Y).
"""


@pytest.mark.parametrize("cap_offset", [-1, 0, 1])
def test_witness_cap_counts_dead_combinations(cap_offset):
    s1 = scc_named(SWAP_LEFT, "sw", 3)
    s2 = scc_named(SWAP_RIGHT, "ws", 3)
    combos = list(structure._witness_combos(s1, s2, Limits()))
    assert [rhos is not None for *_, rhos in combos] == [True, False, False, False, False, True]
    limits = Limits(witness_cap=len(combos) + cap_offset)
    result = closeness(s1, s2, limits)
    truncated = cap_offset < 0
    assert result.approximate == truncated
    assert result.sigma == (10 if truncated else 17)
    # the oracle examines the same combinations under the same limits
    assert result.sigma == max(scc_similarity(s1, s2, w)
                               for w in find_structure_witnesses(s1, s2, limits))
    assert result.closeness == ((Fraction(10, 17),) * 2 if truncated else (Fraction(1),) * 2)
    assert result.witness.arg_permutations == (
        (PredSymbol("sw", 3), ArgPermutation((1, 2, 3) if truncated else (3, 2, 1))),)
    assert result.witness.pairs == (((0, 1), (1, 0)) if truncated else ((0, 0), (1, 1)))
    assert result.witness.renamings == (((("Y", "Y"),),) * 2)


@pytest.mark.parametrize("field", ["exact_vars", "exact_group", "arity", "witness_cap"])
def test_a_limit_below_one_is_refused(field):
    # a zero witness cap read no combination, so duplicates had no witness
    for value in (0, -1):
        with pytest.raises(ValueError, match=f"{field} must be at least 1, got {value}"):
            Limits(**{field: value})
    s1 = scc_named(APPEND, "append", 3)
    s2 = scc_named(APPEND.replace("append", "app"), "app", 3)
    result = closeness(s1, s2, Limits(**{field: 1}))
    assert result is not None and result.closeness == (Fraction(1), Fraction(1))


def _ring(prefix: str, n: int) -> str:
    """One SCC of n members, each calling the next."""
    return "".join(f"{prefix}{k}(X) :- {prefix}{(k + 1) % n}(X).\n" for k in range(n))


def test_witness_search_builds_only_the_combinations_it_reads():
    # two 9-member rings have 9! predicate bijections, of which the default
    # cap reads 10,001; listing all of them takes over 200 MiB
    s1 = scc_named(_ring("a", 9), "a0", 1)
    s2 = scc_named(_ring("b", 9), "b0", 1)
    tracemalloc.start()
    try:
        result = closeness(s1, s2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (result.sigma, result.approximate) == (45, True)
    assert peak < 16 * 2**20


# The segment memo of closeness.  A pair key keeps the shapes of both
# segments verbatim and numbers their constants jointly, so two segment
# pairs share a key exactly when one is the other under a bijective
# renaming of functors (per arity) and numerals.

def _pair_key_of(left: str, right: str) -> tuple:
    return structure._pair_key(shape(parse_goal(left)), shape(parse_goal(right)))


@pytest.mark.parametrize("pair, other", [
    # equal if compounds lost their arity
    (("p(f(a,b))", "p(f(a,b))"), ("p(f(g(b)))", "p(f(g(b)))")),
    # equal if numerals lost their type
    (("p(1)", "p(1.0)"), ("p(1)", "p(1)")),
    # equal if predicates were numbered like constants
    (("p(X), q(Y)", "q(X), p(Y)"), ("q(X), p(Y)", "p(X), q(Y)")),
])
def test_pair_keys_tell_apart(pair, other):
    assert _pair_key_of(*pair) != _pair_key_of(*other)


def test_pair_key_ignores_constant_names_only():
    assert _pair_key_of("p(a,X), p(b,1)", "p(b,Y), p(a,2)") \
        == _pair_key_of("p(c,X), p(d,2.5)", "p(d,Y), p(c,3)")
    assert _pair_key_of("p(a,X), p(b,1)", "p(b,Y), p(a,2)") \
        != _pair_key_of("p(a,X), p(b,1)", "p(a,Y), p(b,2)")
    # a functor's name goes with its arity
    assert _pair_key_of("p(f(a),f)", "p(f(a),f)")[2] == (0, 1, 2, 0, 1, 2)


def test_goal_shape_walks_deep_terms():
    goal = parse_goal("Y is X" + "+1" * 3000)
    names, constants = shape(goal)
    assert len(names) == 3 + 2 * 3000  # is/2, Y, X and 3,000 times + and 1
    assert constants.count(("+", 2)) == constants.count((int, 1)) == 3000


def _renamed_constants(term, functors: dict, numerals: dict):
    if isinstance(term, Num):
        return numerals[type(term.value), term.value]
    if isinstance(term, Struct):
        return Struct(functors[term.functor, len(term.args)],
                      tuple(_renamed_constants(a, functors, numerals) for a in term.args))
    return term


_key_terms = st.recursive(
    st.one_of(st.sampled_from(["X", "Y", "Z"]).map(Var),
              st.sampled_from(["a", "b", "f"]).map(Struct),
              st.sampled_from([0, 1, 1.0, 2]).map(Num)),
    lambda inner: st.builds(Struct, st.sampled_from(["f", "g"]),
                            st.lists(inner, min_size=1, max_size=2).map(tuple)),
    max_leaves=4)
_key_goals = st.lists(
    st.tuples(st.sampled_from([PredSymbol("p", 2), PredSymbol("q", 1)]),
              st.lists(_key_terms, min_size=2, max_size=2)),
    min_size=1, max_size=4,
).map(lambda atoms: Goal(tuple(Atom(pred, tuple(args[:pred.arity])) for pred, args in atoms)))


def _constants(goal: Goal) -> set:
    return set(shape(goal)[1])


@given(_key_goals, _key_goals, st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_goal_similarity_ignores_a_joint_renaming_of_constants(q1, q2, rng):
    constants = sorted(_constants(q1) | _constants(q2), key=repr)
    functors, numerals = {}, {}
    for arity in {arity for key, arity in constants if isinstance(key, str)}:
        names = [key for key, n in constants if isinstance(key, str) and n == arity]
        for name, new in zip(names, rng.sample(["a", "b", "c", "f", "g", "h"], len(names))):
            functors[name, arity] = new
    numbers = [key for key in constants if not isinstance(key[0], str)]
    for key, new in zip(numbers, rng.sample([0, 1, 2, 3, 0.5, 1.0, 2.0], len(numbers))):
        numerals[key] = Num(new)

    def renamed(goal):
        return Goal(tuple(Atom(a.pred, tuple(_renamed_constants(t, functors, numerals)
                                             for t in a.args)) for a in goal.atoms))

    r1, r2 = renamed(q1), renamed(q2)
    assert structure._pair_key(shape(q1), shape(q2)) \
        == structure._pair_key(shape(r1), shape(r2))
    for limits in (Limits(), Limits(exact_vars=1, exact_group=1)):
        assert goal_similarity(r1, r2, limits) == goal_similarity(q1, q2, limits)


def _reference_clause_pair_score(lseg: ClauseSegments, rseg: ClauseSegments,
                                 limits: Limits, memo: dict):
    """``_clause_pair_score`` without the memo: every segment pair is
    searched."""
    score = 1 + sum(sum(node_counts(a)) for a in (rseg.head,) + rseg.recursive_calls)
    alignments = []
    approximate = False
    for lq, rq in zip(lseg.segments, rseg.segments):
        align = goal_similarity(lq, rq, limits)
        score += align.value
        alignments.append(align)
        approximate = approximate or align.approximate
    return score, tuple(alignments), approximate


def _one_shape_program(rng: random.Random, clauses: int) -> str:
    """Two predicates whose clauses repeat one body shape with varied
    constants; some clauses call their own predicate."""
    text = []
    for name in ("p", "q"):
        for _ in range(clauses):
            c = [rng.choice(["a", "b", "c", "0", "1", "1.0"]) for _ in range(5)]
            call = f"{name}(Y,X), " if rng.random() < 0.5 else ""
            text.append(f"{name}(X,Y) :- r(X,{c[0]}), r(Y,{c[1]}), s({c[2]},X), {call}"
                        f"r(Z,{c[3]}), r(X,Z), s(Y,{c[4]}).")
    return "\n".join(text)


@given(st.integers(1, 3), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_closeness_with_the_memo_equals_searching_every_segment_pair(clauses, rng):
    source = _one_shape_program(rng, clauses)
    for program in (parse_program(source), normalize_program(parse_program(source))):
        s1 = scc_of(build_sccs(program), PredSymbol("p", 2))
        s2 = scc_of(build_sccs(program), PredSymbol("q", 2))
        for limits in (Limits(), Limits(exact_vars=1, exact_group=1)):
            result = closeness(s1, s2, limits)
            with mock.patch.object(structure, "_clause_pair_score", _reference_clause_pair_score):
                assert result == closeness(s1, s2, limits), source


def test_closeness_searches_each_segment_pair_shape_once(monkeypatch):
    # three clauses a side with one segment each: nine segment pairs and
    # six keys, as numerals and atoms take different places in a shape
    source = """
        p(X) :- r(X,a), r(Y,b), s(Y).
        p(X) :- r(X,b), r(Y,a), s(Y).
        p(X) :- r(X,c), r(Y,c), s(Y).
        q(X) :- r(X,d), r(Y,e), s(Y).
        q(X) :- r(X,e), r(Y,e), s(Y).
        q(X) :- r(X,1), r(Y,2), s(Y).
    """
    s1 = scc_named(source, "p", 1)
    s2 = scc_named(source, "q", 1)
    calls = _counting(monkeypatch, "goal_similarity")
    result = closeness(s1, s2)
    keys = {structure._pair_key(lseg.shapes[0], rseg.shapes[0])
            for lseg in s1.segmented for rseg in s2.segmented}
    assert len(keys) == len(calls) == 6
    with mock.patch.object(structure, "_clause_pair_score", _reference_clause_pair_score):
        assert result == closeness(s1, s2)
