from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from logdup import (
    ClausePrint, GoalPrint, PredicatePrint, PredSymbol, PrologSyntaxError, SCCPrint,
    candidate_pairs, check_glb_conjecture, fp_closeness, goalprint, mutate_duplicate,
    normalize_program, parse_goal, parse_program, predicate_print, print_glb,
    scc_print, scc_print_glb,
)
from logdup import fingerprint
from logdup.depgraph import build_sccs, scc_of
from logdup.fingerprint import _shared_symbols, _signature_and_symbols
from tests.conftest import ADD1_AND_SQR, APPEND, CONCAT, CORPUS, REV_ALL, scc_named
from tests.test_acceptance import FIXTURE, _scale_corpus


def _print_of(source, name, arity):
    return scc_print(scc_named(source, name, arity, normalize=True))


def test_goalprint_worked_example():
    print_ = goalprint(parse_goal("X=[A|As], Bs2=[B|Bs], p(A,B,C)"))
    counts = dict(print_.items)
    assert counts[".", 2] == counts["=", 2] == 2
    assert counts["p", 3] == 1
    assert print_.total == 5


def test_goalprint_empty_goal():
    with pytest.raises(PrologSyntaxError, match="unexpected end of input"):
        parse_goal("")
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
    counts = dict(print_.items)
    assert counts["is", 2] == 2
    assert counts["+", 2] == counts["*", 2] == 1


def test_goalprint_rejects_non_normal_atom():
    with pytest.raises(ValueError):
        goalprint(parse_goal("p(f(X))"))


def test_goalprint_order():
    small = goalprint(parse_goal("X = f(Y)"))
    big = goalprint(parse_goal("X = f(Y), Z = f(W), p(X)"))
    # the multiset order: a <= b exactly when glb(a, b) is a
    assert small.glb(big) == small
    assert big.glb(small) != big
    other = goalprint(parse_goal("X = g(Y)"))
    assert small.glb(other) != small and other.glb(small) != other


def test_goalprint_glb_pointwise_minimum():
    a = goalprint(parse_goal("X = f(Y), Z = f(W)"))
    b = goalprint(parse_goal("X = f(Y), p(X)"))
    counts = dict(a.glb(b).items)
    assert counts["f", 1] == counts["=", 2] == 1
    assert ("p", 1) not in counts
    assert a.glb(a) == a
    assert a.glb(GoalPrint(())) == GoalPrint(())


def test_clauseprint_of_normalized_append():
    scc = scc_named(APPEND, "append", 3, normalize=True)
    # the canonical order puts the one-segment clause first
    first, second = predicate_print(PredSymbol("append", 3), scc).prints
    assert len(first.prints) == 1
    assert first.prints[0].items == ((("=", 2), 2), (("[]", 0), 1))
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
        assert _shared_symbols(a.symbols, b.symbols) >= glb.total


@given(st.lists(st.lists(st.integers(1, 3), min_size=1, max_size=3),
                min_size=1, max_size=3), st.data())
@settings(max_examples=300, deadline=None)
def test_same_bucket_prints_have_an_estimate(shape, data):
    # two SCCs of one candidate_pairs bucket: the same segment counts per
    # predicate, predicates and clauses in any order, any symbols
    other = [data.draw(st.permutations(clauses)) for clauses in data.draw(st.permutations(shape))]
    a, b = _scc_print_of_shape(data, shape), _scc_print_of_shape(data, other)
    assert fp_closeness(a, b) is not None


def _segmented_signature(scc):
    """The bucket signature read off ``SCC.segmented``: each predicate's
    arity and sorted clause segment counts."""
    return tuple(sorted(
        (pred.arity, tuple(sorted(len(scc.segmented[i].segments)
                                  for i in scc.clause_indices[pred])))
        for pred in scc.members))


_args = st.recursive(
    st.sampled_from(["X", "Y", "Z", "a", "[]", "1"]),
    lambda inner: st.one_of(st.builds("f({},{})".format, inner, inner),
                            st.builds("[{}|{}]".format, inner, inner)),
    max_leaves=4)
_calls = st.one_of(
    st.builds("{}({})".format, st.sampled_from(["p", "q", "r", "s"]),
              st.lists(_args, min_size=1, max_size=2).map(",".join)),
    st.builds("{} = {}".format, _args, _args),
    st.builds("{} is {} + 1".format, st.sampled_from(["X", "Y"]), _args))
_clauses = st.builds(
    "{}{}.".format,
    st.builds("{}({})".format, st.sampled_from(["p", "q", "r"]),
              st.lists(_args, min_size=1, max_size=2).map(",".join)),
    st.lists(_calls, max_size=4).map(lambda body: " :- " + ", ".join(body) if body else ""))
# p, q and r at arity 1 and 2 calling each other: self-loops, mutual
# recursion, calls to the undefined s and builtins
_program_texts = st.lists(_clauses, min_size=1, max_size=6).map("\n".join)


@given(_program_texts, st.booleans())
@settings(max_examples=200, deadline=None)
def test_one_walk_equals_the_print_derived_values(text, normalize):
    program = parse_program(text)
    if normalize:
        program = normalize_program(program)
    for scc in build_sccs(program):
        signature, symbols = _signature_and_symbols(scc)
        assert signature == _segmented_signature(scc)
        assert symbols == scc_print(scc).symbols


def _ungated_candidate_pairs(program, thresholds):
    """Every same-bucket pair whose estimate reaches each threshold, in
    the order ``candidate_pairs`` reports them, by SCC names: the
    reference that builds every SCC's print and skips no pair."""
    sccs = build_sccs(program)
    buckets: dict = {}
    for scc in sccs:
        buckets.setdefault(_segmented_signature(scc), []).append(scc)
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


# totals 2 and 4, all of the smaller shared: the estimate (1, 1/2) sits on
# the edge of the window that candidate_pairs cuts each bucket to at 1/2
EDGE = "e1(X) :- X = f(Y).\ne2(X) :- X = f(Y), Y = f(Z).\n"


_SOURCES = {"corpus": CORPUS, "acceptance-fixture": FIXTURE, "scale-corpus": _scale_corpus(),
            "edge": EDGE}


@pytest.mark.parametrize("source, normalize", [
    *((source, True) for source in _SOURCES.values()),
    *((source, False) for source in _SOURCES.values())],
    ids=[*_SOURCES, *(f"{name}-raw" for name in _SOURCES)])
def test_gated_candidate_pairs_equal_ungated(source, normalize):
    program = parse_program(source)
    if normalize:
        program = normalize_program(program)
    thresholds = [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(3, 4), Fraction(1)]
    expected = _ungated_candidate_pairs(program, thresholds)
    for threshold in thresholds:
        gated = [(l.name(), r.name(), est)
                 for l, r, est in candidate_pairs(program, threshold)]
        assert gated == expected[threshold]


@pytest.mark.parametrize("normalize", [True, False], ids=["normalized", "raw"])
def test_a_pair_on_the_window_edge_is_reported(normalize):
    program = parse_program(EDGE)
    if normalize:
        program = normalize_program(program)
    pairs = [(l.name(), r.name(), est) for l, r, est in candidate_pairs(program, Fraction(1, 2))]
    assert pairs == [("[e1/1]", "[e2/1]", (Fraction(1), Fraction(1, 2)))]


def test_prints_are_built_only_for_pairs_past_the_gate(monkeypatch):
    program = normalize_program(parse_program(CORPUS))
    sccs = build_sccs(program)
    walks = {scc.name(): _signature_and_symbols(scc) for scc in sccs}
    # at threshold 1 a pair passes when it shares every symbol of both sides
    passed = {name for a, (sig_a, sums_a) in walks.items() for b, (sig_b, sums_b) in walks.items()
              if a != b and sig_a == sig_b
              and _shared_symbols(sums_a, sums_b) == sum(sums_a.values()) == sum(sums_b.values())
              for name in (a, b)}
    built = []

    def counting(scc):
        built.append(scc.name())
        return scc_print(scc)

    monkeypatch.setattr(fingerprint, "scc_print", counting)
    assert [(l.name(), r.name()) for l, r, _ in candidate_pairs(program, Fraction(1))] == [
        ("[append/3]", "[concat/3]")]
    assert sorted(built) == sorted(passed) == ["[append/3]", "[concat/3]"]
    assert len(sccs) > len(built)
