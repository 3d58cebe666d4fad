import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from logdup import (
    Atom, Goal, Num, PredSymbol, Struct, Var, commonality, goal_similarity,
    maximal_similar_subgoals, msg, nodes, parse_clause, parse_goal,
    predicate_multiset, shared_var_count, strict_commonality, total_nodes,
)
from logdup.metrics import enumerate_renamings, max_weight_matching

Q1 = "p(f(X),g(Y,h(Z,a))), q(Z,X)"
Q2 = "p(f(T),g(T,h(Z,b))), q(Z,T)"


def test_nodes_of_variable_is_zero():
    assert nodes(Var("X")) == 0


def test_nodes_of_constant_application():
    assert nodes(Struct("f", (Struct("a", ()),))) == 2


def test_nodes_counts_conjunction_and_neck():
    clause = parse_clause("p(a) :- q(b), r(c).")
    # p,a,q,b,r,c + one conjunction + one neck
    assert nodes(clause) == 8


def test_total_nodes_worked_examples():
    def scc_total(source, name, arity):
        from tests.conftest import scc_named
        return total_nodes(scc_named(source, name, arity))

    from tests.conftest import ADD1_AND_SQR, APPEND, REV_ALL
    assert scc_total(APPEND, "append", 3) == 18
    assert scc_total(REV_ALL, "rev_all", 2) == 19
    # 27 under the uniform counting rule (numerals and all functors count 1)
    assert scc_total(ADD1_AND_SQR, "add1_and_sqr", 2) == 27


def test_strict_commonality_worked_example():
    assert strict_commonality(parse_goal(Q1), parse_goal(Q2)) == 8


def test_strict_commonality_identity():
    goal = parse_goal("q(Z,X)")
    assert strict_commonality(goal, goal) == 3


def test_strict_commonality_predicate_mismatch():
    assert strict_commonality(parse_goal("p(a)"), parse_goal("q(a)")) == 0


def test_strict_commonality_length_mismatch_rejected():
    with pytest.raises(ValueError):
        strict_commonality(parse_goal("p(a)"), parse_goal("p(a), q(b)"))


def test_msg_worked_example():
    result = msg(parse_goal(Q1), parse_goal(Q2))
    assert nodes(result.generalization) == 6
    # the shared variable Z survives generalization
    rendered = str(result.generalization)
    assert "h(Z," in rendered and "q(Z," in rendered


def test_msg_identity():
    goal = parse_goal("p(f(X), a)")
    result = msg(goal, goal)
    assert result.generalization == goal
    assert result.subst1 == {} and result.subst2 == {}


def test_msg_reuses_variable_for_repeated_pairs():
    result = msg(parse_goal("p(X, X)"), parse_goal("p(Y, Z)"))
    left, right = result.generalization.atoms[0].args
    assert left != right


def test_shared_var_count_worked_example():
    assert shared_var_count(parse_goal(Q1), parse_goal(Q2)) == 2


def test_predicate_multiset():
    goal = parse_goal("p(a,f(A)), s(A), q(A,B)")
    counts = predicate_multiset(goal)
    assert counts[PredSymbol("p", 2)] == 1
    assert counts[PredSymbol("s", 1)] == 1
    assert counts[PredSymbol("q", 2)] == 1


def test_maximal_similar_subgoals_worked_example():
    g1 = parse_goal("p(a,f(A)), s(A), q(A,B)")
    g2 = parse_goal("q(Y,Z), p(f(X),Y)")
    left, right = maximal_similar_subgoals(g1, g2)
    assert left == parse_goal("p(a,f(A)), q(A,B)")
    assert right == parse_goal("q(Y,Z), p(f(X),Y)")


def test_maximal_similar_subgoals_disjoint():
    left, right = maximal_similar_subgoals(parse_goal("p(a)"), parse_goal("q(a)"))
    assert left.atoms == () and right.atoms == ()


def test_enumerate_renamings_count():
    g1 = parse_goal("p(a,f(A)), q(A,B)")
    g2 = parse_goal("q(Y,Z), p(f(X),Y)")
    renamings = list(enumerate_renamings(g1, g2))
    assert len(renamings) == 6
    assert all(len(set(m.values())) == len(m) for m in renamings)


def test_commonality_worked_example():
    g1 = parse_goal("p(a,f(A)), q(A,B)")
    g2 = parse_goal("q(Y,Z), p(f(X),Y)")
    value, align = commonality(g1, g2)
    assert value == 5
    assert align.renaming_dict == {"A": "Y", "B": "Z"}
    assert not align.approximate


def test_commonality_self_reaches_total_nodes():
    goal = parse_goal("p(X)")
    value, _ = commonality(goal, goal)
    assert value == total_nodes(goal) == 2


def test_goal_similarity_worked_examples():
    g1 = parse_goal("p(a,f(A)), s(A), q(A,B)")
    g2 = parse_goal("q(Y,Z), p(f(X),Y)")
    assert goal_similarity(g1, g2)[0] == 5
    assert goal_similarity(parse_goal("reverse(X,Y)"),
                           parse_goal("N is X+1, Y is N*N"))[0] == 0


def test_goal_similarity_empty_pair():
    value, align = goal_similarity(parse_goal("p(a)"), parse_goal("q(b)"))
    assert value == 0
    assert align.atom_pairing == ()


_vars = st.sampled_from(["X", "Y", "Z", "W"])
_funcs = st.sampled_from(["f", "g", "a", "b"])


def _terms(depth=2):
    leaf = st.one_of(_vars.map(Var),
                     _funcs.map(lambda n: Struct(n, ())),
                     st.integers(0, 3).map(Num))
    if depth == 0:
        return leaf
    return st.one_of(
        leaf,
        st.tuples(_funcs, st.lists(_terms(depth - 1), min_size=1, max_size=2))
        .map(lambda t: Struct(t[0], tuple(t[1]))),
    )


_shapes = st.lists(st.sampled_from([("p", 2), ("q", 1), ("r", 2)]),
                   min_size=1, max_size=3)


def _goal_for(shape, args):
    atoms = []
    it = iter(args)
    for name, arity in shape:
        atoms.append(Atom(PredSymbol(name, arity), tuple(next(it) for _ in range(arity))))
    return Goal(tuple(atoms))


@given(_shapes, st.data())
@settings(max_examples=150, deadline=None)
def test_lemma_decomposition_on_random_aligned_goals(shape, data):
    n_args = sum(arity for _, arity in shape)
    args1 = data.draw(st.lists(_terms(), min_size=n_args, max_size=n_args))
    args2 = data.draw(st.lists(_terms(), min_size=n_args, max_size=n_args))
    g1, g2 = _goal_for(shape, args1), _goal_for(shape, args2)
    gen = msg(g1, g2).generalization
    assert strict_commonality(g1, g2) == nodes(gen) + shared_var_count(g1, g2)


@given(_shapes, st.data())
@settings(max_examples=60, deadline=None)
def test_goal_similarity_symmetry_and_bound(shape, data):
    n_args = sum(arity for _, arity in shape)
    args1 = data.draw(st.lists(_terms(1), min_size=n_args, max_size=n_args))
    args2 = data.draw(st.lists(_terms(1), min_size=n_args, max_size=n_args))
    g1, g2 = _goal_for(shape, args1), _goal_for(shape, args2)
    v12, a12 = goal_similarity(g1, g2)
    v21, a21 = goal_similarity(g2, g1)
    if not (a12.approximate or a21.approximate):
        assert v12 == v21
    left, right = maximal_similar_subgoals(g1, g2)
    assert v12 <= min(total_nodes(left), total_nodes(right))


def _weight_tables(seed, count, max_n):
    """Square integer tables with many ties and forbidden (-1) cells."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, max_n)
        high = rng.choice((1, 2, 3, 20, 1000))
        forbidden = rng.choice((0, 0.1, 0.3, 0.6))
        yield [[-1 if rng.random() < forbidden else rng.randint(0, high)
                for _ in range(n)] for _ in range(n)]


def test_max_weight_matching_of_empty_table():
    assert max_weight_matching([]) == []


def test_max_weight_matching_is_optimal():
    for weights in _weight_tables(5, 2000, 6):
        n = len(weights)
        totals = {perm: sum(weights[r][c] for r, c in enumerate(perm))
                  for perm in itertools.permutations(range(n))}
        best = max(totals.values())
        optimal = [perm for perm, total in totals.items() if total == best]
        allowed = [perm for perm in optimal
                   if all(weights[r][c] >= 0 for r, c in enumerate(perm))]
        result = max_weight_matching(weights)
        if result is None:
            assert len(allowed) < len(optimal)
        else:
            assert [r for r, _ in result] == list(range(n))
            assert tuple(c for _, c in result) in allowed
        if not allowed:
            assert result is None
        if len(allowed) == len(optimal):
            assert result is not None


def test_max_weight_matching_breaks_ties_as_scipy_does():
    np = pytest.importorskip("numpy")
    scipy_optimize = pytest.importorskip("scipy.optimize")
    for weights in _weight_tables(11, 5000, 10):
        rows, cols = scipy_optimize.linear_sum_assignment(np.array(weights), maximize=True)
        expected = [(int(r), int(c)) for r, c in zip(rows, cols)]
        if any(weights[r][c] < 0 for r, c in expected):
            expected = None
        assert max_weight_matching(weights) == expected
