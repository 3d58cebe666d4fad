from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from logdup import (
    ClausePrint, GoalPrint, PredicatePrint, PredSymbol, SCCPrint, candidate_pairs,
    check_glb_conjecture, clauseprint, fp_closeness, goalprint, mutate_duplicate,
    normalize_program, parse_goal, parse_program, predicate_print, print_glb,
    scc_print, scc_print_glb,
)
from logdup.depgraph import build_sccs, scc_of
from logdup.fingerprint import _shape_signature, _shared_symbols
from tests.conftest import ADD1_AND_SQR, APPEND, CONCAT, CORPUS, REV_ALL, scc_named
from tests.test_acceptance import FIXTURE, _scale_corpus


def _print_of(source, name, arity):
    return scc_print(scc_named(source, name, arity, normalize=True))


def test_goalprint_worked_example():
    print_ = goalprint(parse_goal("X=[A|As], Bs2=[B|Bs], p(A,B,C)"))
    assert print_.count((".", 2)) == 2
    assert print_.count(("=", 2)) == 2
    assert print_.count(("p", 3)) == 1
    assert print_.total == 5


def test_goalprint_empty_goal():
    assert goalprint(parse_goal("")) == GoalPrint(()) if False else True
    from logdup import Goal
    assert goalprint(Goal(())) == GoalPrint(())


def test_goalprint_var_var_unification_counts_only_eq():
    print_ = goalprint(parse_goal("X = Y"))
    assert print_.items == ((("=", 2), 1),)


def test_goalprint_skips_numerals():
    print_ = goalprint(parse_goal("X = 1"))
    assert print_.items == ((("=", 2), 1),)


def test_goalprint_arith_builtin_counts_operators():
    print_ = goalprint(parse_goal("N is X + 1, Y is N*N"))
    assert print_.count(("is", 2)) == 2
    assert print_.count(("+", 2)) == 1
    assert print_.count(("*", 2)) == 1


def test_goalprint_rejects_non_normal_atom():
    with pytest.raises(ValueError):
        goalprint(parse_goal("p(f(X))"))


def test_goalprint_order():
    small = goalprint(parse_goal("X = f(Y)"))
    big = goalprint(parse_goal("X = f(Y), Z = f(W), p(X)"))
    assert small.leq(big)
    assert not big.leq(small)
    other = goalprint(parse_goal("X = g(Y)"))
    assert not small.leq(other) and not other.leq(small)


def test_goalprint_glb_pointwise_minimum():
    a = goalprint(parse_goal("X = f(Y), Z = f(W)"))
    b = goalprint(parse_goal("X = f(Y), p(X)"))
    g = a.glb(b)
    assert g.count(("f", 1)) == 1
    assert g.count(("=", 2)) == 1
    assert g.count(("p", 1)) == 0
    assert a.glb(a) == a
    assert a.glb(GoalPrint(())) == GoalPrint(())


def test_clauseprint_of_normalized_append():
    scc = scc_named(APPEND, "append", 3, normalize=True)
    first = clauseprint(scc.clauses[0], scc)
    assert len(first.prints) == 1
    assert first.prints[0].items == ((("=", 2), 2), (("[]", 0), 1))
    second = clauseprint(scc.clauses[1], scc)
    assert len(second.prints) == 2
    assert second.prints[1] == GoalPrint(())


def test_predicate_print_keeps_multiplicity():
    source = "p(a) :- q(X).\np(a) :- q(Y).\nq(c)."
    scc = scc_named(source, "p", 1, normalize=True)
    print_ = predicate_print(PredSymbol("p", 1), scc)
    assert len(print_.prints) == 2
    assert print_.prints[0] == print_.prints[1]


def test_append_and_concat_prints_equal():
    assert _print_of(APPEND, "append", 3) == _print_of(CONCAT, "concat", 3)


def test_print_glb_matches_common_skeleton():
    ra = _print_of(REV_ALL, "rev_all", 2)
    aas = _print_of(ADD1_AND_SQR, "add1_and_sqr", 2)
    mp = _print_of("mp([],[]).\nmp([X|Xs],[Y|Ys]) :- mp(Xs,Ys).", "mp", 2)
    glb_ra = print_glb(ra.prints[0], aas.prints[0])
    assert glb_ra == mp.prints[0]
    # the empty segment after the recursive call is preserved in the glb
    assert any(cp.prints[-1] == GoalPrint(()) and len(cp.prints) == 2
               for cp in glb_ra.prints)


def test_print_glb_absent_for_mismatched_clause_counts():
    two = _print_of("p(a).\np(b).", "p", 1)
    three = _print_of("q(a).\nq(b).\nq(c).", "q", 1)
    assert print_glb(two.prints[0], three.prints[0]) is None


def test_fp_closeness_values():
    ra = _print_of(REV_ALL, "rev_all", 2)
    aas = _print_of(ADD1_AND_SQR, "add1_and_sqr", 2)
    assert fp_closeness(ra, aas) == (Fraction(8, 9), Fraction(8, 12))
    app = _print_of(APPEND, "append", 3)
    con = _print_of(CONCAT, "concat", 3)
    assert fp_closeness(app, con) == (Fraction(1), Fraction(1))


def test_fp_closeness_absent_for_incompatible_shapes():
    app = _print_of(APPEND, "append", 3)
    facts = _print_of("p(a).\np(b).\np(c).", "p", 1)
    assert fp_closeness(app, facts) is None


def test_fp_closeness_of_empty_prints_is_one():
    a = _print_of("p(X,Y).", "p", 2)
    b = _print_of("q(A,B).", "q", 2)
    assert fp_closeness(a, b) == (Fraction(1), Fraction(1))


def test_candidate_pairs_ranking():
    program = normalize_program(parse_program(
        CORPUS + "reverse([],[]).\nreverse([X|Xs],R) :- reverse(Xs,T), app(T,[X],R)."))
    pairs = candidate_pairs(program, Fraction(1, 2))
    names = [(l.name(), r.name()) for l, r, _ in pairs]
    assert names[0] == ("[append/3]", "[concat/3]")
    assert ("[add1_and_sqr/2]", "[rev_all/2]") in names


def test_candidate_pairs_threshold_filters():
    program = normalize_program(parse_program(REV_ALL + ADD1_AND_SQR))
    assert candidate_pairs(program, Fraction(1)) == ()
    pairs = candidate_pairs(program, Fraction(1, 2))
    assert len(pairs) == 1
    assert pairs[0][2] == (Fraction(2, 3), Fraction(8, 9))


def test_prints_invariant_under_duplicate_mutation():
    program = normalize_program(parse_program(CORPUS))
    sccs = build_sccs(program)
    scc = scc_of(sccs, PredSymbol("append", 3))
    mutated, _ = mutate_duplicate(scc, 42)
    assert scc_print(scc) == scc_print(mutated)


def test_glb_conjecture_holds_on_aligned_pair():
    q1 = parse_goal("A = [], B = C")
    q2 = parse_goal("X = [], Z = Y")
    assert check_glb_conjecture(q1, q2) is None


def test_glb_conjecture_counterexample_shape():
    # symbols outside the maximal similarly structured pair can survive in
    # the glb but not in the generalization
    q1 = parse_goal("p(X), X = a")
    q2 = parse_goal("p(Y)")
    violation = check_glb_conjecture(q1, q2)
    if violation is not None:
        glb_print, gen_print = violation
        assert glb_print != gen_print


_symbols = st.sampled_from([("=", 2), (".", 2), ("p", 1), ("q", 2), ("+", 2)])
_goalprints = st.dictionaries(_symbols, st.integers(1, 3), max_size=4).map(
    lambda counts: GoalPrint(tuple(sorted(counts.items()))))


def _scc_print_of_shape(data, shape):
    """An SCC print with one predicate per entry of ``shape``, one clause
    per segment count in that entry."""
    return SCCPrint(tuple(
        PredicatePrint(tuple(
            ClausePrint(tuple(data.draw(_goalprints) for _ in range(segments)))
            for segments in clauses))
        for clauses in shape))


@given(st.lists(st.lists(st.integers(0, 2), min_size=1, max_size=3),
                min_size=1, max_size=2), st.data())
@settings(max_examples=200, deadline=None)
def test_symbol_bound_is_at_least_the_estimate(shape, data):
    a = _scc_print_of_shape(data, shape)
    b = _scc_print_of_shape(data, shape)
    glb = scc_print_glb(a, b)
    if glb is not None:
        assert _shared_symbols(a, b) >= glb.total


@given(st.lists(st.lists(st.integers(1, 3), min_size=1, max_size=3),
                min_size=1, max_size=3), st.data())
@settings(max_examples=300, deadline=None)
def test_same_bucket_prints_have_an_estimate(shape, data):
    # two SCCs of one candidate_pairs bucket: the same segment counts per
    # predicate, predicates and clauses in any order, any symbols
    other = [data.draw(st.permutations(clauses)) for clauses in data.draw(st.permutations(shape))]
    a, b = _scc_print_of_shape(data, shape), _scc_print_of_shape(data, other)
    assert fp_closeness(a, b) is not None


def _ungated_candidate_pairs(program, thresholds):
    """Every same-bucket pair whose estimate reaches each threshold, in
    the order ``candidate_pairs`` reports them, by SCC names."""
    sccs = build_sccs(program)
    buckets: dict = {}
    for scc in sccs:
        buckets.setdefault(_shape_signature(scc), []).append(scc)
    estimates = []
    for group in buckets.values():
        group = sorted(group, key=lambda scc: scc.name())
        for a in range(len(group)):
            for b in range(a + 1, len(group)):
                est = fp_closeness(scc_print(group[a]), scc_print(group[b]))
                if est is not None:
                    estimates.append((group[a].name(), group[b].name(), est))
    estimates.sort(key=lambda t: (-min(t[2]), t[0], t[1]))
    return {t: [e for e in estimates if min(e[2]) >= t] for t in thresholds}


@pytest.mark.parametrize("source", [CORPUS, FIXTURE, _scale_corpus()],
                         ids=["corpus", "acceptance-fixture", "scale-corpus"])
def test_gated_candidate_pairs_equal_ungated(source):
    program = normalize_program(parse_program(source))
    thresholds = [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(3, 4), Fraction(1)]
    expected = _ungated_candidate_pairs(program, thresholds)
    for threshold in thresholds:
        gated = [(l.name(), r.name(), est)
                 for l, r, est in candidate_pairs(program, threshold)]
        assert gated == expected[threshold]
