import itertools
import random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from logdup import (
    Atom, Clause, Goal, GoalAlignment, Limits, Num, PredSymbol, Struct, Var,
    brute_force_commonality, commonality, enumerate_renamings, goal_similarity,
    maximal_similar_subgoals, msg, parse_clause, parse_goal, parse_term,
    predicate_multiset, render_term, shared_var_count, strict_commonality,
)
from logdup import build_sccs, closeness, metrics, normalize_program, parse_program
from logdup.metrics import _similar_groups, _WeightRows, max_weight_matching
from logdup.syntax import align, node_counts, rename_vars, shape, var_names

Q1 = "p(f(X),g(Y,h(Z,a))), q(Z,X)"
Q2 = "p(f(T),g(T,h(Z,b))), q(Z,T)"


def test_nodes_of_variable_is_zero():
    assert node_counts(Var("X"))[0] == 0


def test_nodes_of_constant_application():
    assert node_counts(Struct("f", (Struct("a", ()),)))[0] == 2


def test_nodes_counts_conjunction_and_neck():
    clause = parse_clause("p(a) :- q(b), r(c).")
    # p,a,q,b,r,c + one conjunction + one neck
    assert node_counts(clause)[0] == 8


def test_total_nodes_worked_examples():
    def scc_total(source, name, arity):
        from tests.conftest import scc_named
        scc = scc_named(source, name, arity)
        return sum(sum(node_counts(c)) for c in scc.clauses)

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
    assert node_counts(result.generalization)[0] == 6
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


def test_msg_rejects_goals_whose_predicates_differ():
    with pytest.raises(ValueError):
        msg(parse_goal("p(a), q(b)"), parse_goal("p(a), r(b)"))


def test_anti_unify_walks_deep_terms():
    left, right = (parse_term(v + "+1" * 3000) for v in ("X", "Y"))
    pairs: dict = {}
    # compared as text: term equality on a 3,000-deep term recurses
    assert render_term(metrics.anti_unify(left, right, "G", pairs)) == "G1" + "+1" * 3000
    assert pairs == {(shape(Var("X")), shape(Var("Y"))): (Var("G1"), Var("X"), Var("Y"))}


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
    align = commonality(g1, g2)
    assert align.value == 5
    assert dict(align.renaming) == {"A": "Y", "B": "Z"}
    assert not align.approximate


def test_commonality_self_reaches_total_nodes():
    goal = parse_goal("p(X)")
    assert commonality(goal, goal).value == sum(node_counts(goal)) == 2


def test_goal_similarity_worked_examples():
    g1 = parse_goal("p(a,f(A)), s(A), q(A,B)")
    g2 = parse_goal("q(Y,Z), p(f(X),Y)")
    assert goal_similarity(g1, g2).value == 5
    assert goal_similarity(parse_goal("reverse(X,Y)"),
                           parse_goal("N is X+1, Y is N*N")).value == 0


def test_goal_similarity_empty_pair():
    align = goal_similarity(parse_goal("p(a)"), parse_goal("q(b)"))
    assert align.value == 0
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
    assert strict_commonality(g1, g2) == node_counts(gen)[0] + shared_var_count(g1, g2)


# The measures take atoms, goals and clauses as they are.  The reference
# encodes them as the one term Definition 1 counts: an atom as the compound
# of its predicate, a goal as a right-folded conjunction and a clause under
# a neck node, then walks that term recursively.

def _encoded(entity):
    if isinstance(entity, Atom):
        return Struct(entity.pred.name, entity.args)
    if isinstance(entity, Goal):
        term = None  # the empty goal
        for atom in reversed(entity.atoms):
            term = _encoded(atom) if term is None else Struct("','", (_encoded(atom), term))
        return term
    if isinstance(entity, Clause):
        head, body = _encoded(entity.head), _encoded(entity.body)
        return Struct("':-'", (head,) if body is None else (head, body))
    return entity


def _reference_counts(term) -> tuple:
    """(nodes, variable occurrences) of an encoded term."""
    if term is None or isinstance(term, Var):
        return 0, int(term is not None)
    if isinstance(term, Num):
        return 1, 0
    counts = [_reference_counts(a) for a in term.args]
    return 1 + sum(n for n, _ in counts), sum(v for _, v in counts)


def _reference_align(a, b, out) -> list:
    """[matched, variable pairs, exact] of two encoded terms, in pre-order."""
    if isinstance(a, Var) and isinstance(b, Var):
        out[1].append((a.name, b.name))
    elif isinstance(a, Num) and isinstance(b, Num) and a.value == b.value:
        out[0] += 1
    elif (isinstance(a, Struct) and isinstance(b, Struct)
          and a.functor == b.functor and len(a.args) == len(b.args)):
        out[0] += 1
        for x, y in zip(a.args, b.args):
            _reference_align(x, y, out)
    else:
        out[2] = False
    return out


_preds = st.sampled_from([("p", 2), ("q", 1), ("r", 0), ("f", 2)])
_atoms = _preds.flatmap(lambda pred: st.lists(_terms(), min_size=pred[1], max_size=pred[1])
                        .map(lambda args: Atom(PredSymbol(*pred), tuple(args))))


def _goals(n):
    return st.lists(_atoms, min_size=n, max_size=n).map(lambda atoms: Goal(tuple(atoms)))


def _same_shape_goals(shape):
    n_args = sum(arity for _, arity in shape)
    args = st.lists(_terms(), min_size=n_args, max_size=n_args)
    return st.tuples(args, args).map(lambda ab: (_goal_for(shape, ab[0]), _goal_for(shape, ab[1])))


_clauses = st.builds(Clause, _atoms, st.integers(0, 3).flatmap(_goals))


@given(st.one_of(_terms(), _atoms, st.integers(0, 3).flatmap(_goals), _clauses))
@settings(max_examples=300, deadline=None)
def test_node_counts_equal_the_encoded_term(entity):
    n, v = _reference_counts(_encoded(entity))
    assert node_counts(entity) == (n, v)


@given(st.one_of(st.tuples(_terms(), _terms()), st.tuples(_atoms, _atoms),
                 st.integers(1, 3).flatmap(lambda n: st.tuples(_goals(n), _goals(n))),
                 _shapes.flatmap(_same_shape_goals)))
@settings(max_examples=300, deadline=None)
def test_pair_measures_equal_the_encoded_terms(pair):
    a, b = pair
    matched, pairs, exact = _reference_align(_encoded(a), _encoded(b), [0, [], True])
    assert align(a, b) == (matched, pairs, exact)
    shared = sum(x == y for x, y in pairs)
    assert strict_commonality(a, b) == matched + shared
    assert shared_var_count(a, b) == shared


@given(_shapes, st.data())
@settings(max_examples=60, deadline=None)
def test_goal_similarity_symmetry_and_bound(shape, data):
    n_args = sum(arity for _, arity in shape)
    args1 = data.draw(st.lists(_terms(1), min_size=n_args, max_size=n_args))
    args2 = data.draw(st.lists(_terms(1), min_size=n_args, max_size=n_args))
    g1, g2 = _goal_for(shape, args1), _goal_for(shape, args2)
    a12 = goal_similarity(g1, g2)
    a21 = goal_similarity(g2, g1)
    if not (a12.approximate or a21.approximate):
        assert a12.value == a21.value
    left, right = maximal_similar_subgoals(g1, g2)
    assert a12.value <= min(sum(node_counts(left)), sum(node_counts(right)))


@given(st.integers(1, 4).flatmap(_goals), st.integers(1, 4).flatmap(_goals))
@example(parse_goal("r(B,B,D,D,C,F,F,C)"), parse_goal("r(A,A,C,C,E,E,E,C)"))
@settings(max_examples=300, deadline=None)
def test_goal_similarity_witness_replays(q1, q2):
    """The value is what the witness gives back: the conjunction nodes of
    the paired atoms plus their strict commonality, the left atoms renamed
    onto the right goal's variables."""
    for limits in (Limits(), Limits(exact_vars=1, exact_group=1)):
        align = goal_similarity(q1, q2, limits)
        replayed = sum(strict_commonality(la, ra) for la, ra in align.renamed_pairs(q1, q2))
        assert align.value == max(len(align.atom_pairing) - 1, 0) + replayed, limits


def test_goal_similarity_walks_each_side_for_variables_once(monkeypatch):
    calls = []
    walk = metrics.var_names

    def counted(entity):
        calls.append(entity)
        return walk(entity)

    monkeypatch.setattr(metrics, "var_names", counted)
    g1 = parse_goal("p(a,f(A)), s(A), q(A,B)")
    g2 = parse_goal("q(Y,Z), p(f(Y),a)")
    # exact, then greedy in both directions on equal variable counts
    for limits in (Limits(), Limits(exact_vars=1)):
        calls.clear()
        assert goal_similarity(g1, g2, limits).value == 5
        assert len(calls) <= 2


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


# ---------------------------------------------------------------------------
# Commonality search: one direction, incremental weight rows
# ---------------------------------------------------------------------------

def _alignment_table(q1: Goal, q2: Goal, groups: list) -> list:
    """Each (indices in q1, indices in q2) group of ``_similar_groups`` as
    (left, right, cells): cell [a][b] holds the coinciding node count and
    the aligned variable pairs of the a-th left and b-th right atoms."""
    return [(left, right, [[align(q1.atoms[i], q2.atoms[j])[:2] for j in right] for i in left])
            for left, right in groups]


def _best_pairing(table: list, rho: dict):
    """Optimal same-predicate atom pairing under a (partial) renaming rho
    of q1's variables: a variable pair (x, y) counts when rho sends x to y
    or leaves x unbound, which scores unbound variables optimistically
    (an admissible upper bound)."""
    total = 0
    pairing = []
    for left, right, cells in table:
        weights = [[matched + sum(rho.get(x, y) == y for x, y in pairs)
                    for matched, pairs in row] for row in cells]
        if len(left) == 1:
            total += weights[0][0]
            pairing.append((left[0], right[0]))
            continue
        for r, c in max_weight_matching(weights):
            total += weights[r][c]
            pairing.append((left[r], right[c]))
    pairing.sort()
    return total, tuple(pairing)


def _reference_directed_commonality(q1, q2, limits):
    """The branch-and-bound as it was before the incremental weight rows:
    a full ``_best_pairing`` at every node.  Kept as the reference the
    witnesses must agree with."""
    n = len(q1.atoms)
    if n == 0:
        return GoalAlignment(value=0)
    base = n - 1
    table = _alignment_table(q1, q2, _similar_groups(q1, q2))
    v1 = sorted(var_names(q1))
    v2 = sorted(var_names(q2))
    exact = (len(v1) <= limits.exact_vars
             and max((len(g[0]) for g in table), default=0) <= limits.exact_group)

    if not exact:
        rho: dict = {}
        used: set = set()
        for x in v1:
            best_y, best_s = None, -1
            for y in v2:
                if y in used:
                    continue
                rho[x] = y
                s, _ = _best_pairing(table, rho)
                if s > best_s:
                    best_s, best_y = s, y
            rho[x] = best_y
            used.add(best_y)
        value, pairing = _best_pairing(table, rho)
        # exact when it reaches the root bound
        return GoalAlignment(tuple(sorted(rho.items())), pairing, base + value,
                             approximate=value < _best_pairing(table, {})[0])

    best = {"value": -1, "rho": None, "pairing": None}
    rho: dict = {}
    used: set = set()

    def search(idx: int):
        bound, pairing = _best_pairing(table, rho)
        if base + bound <= best["value"]:
            return
        if idx == len(v1):
            best["value"] = base + bound
            best["rho"] = dict(rho)
            best["pairing"] = pairing
            return
        x = v1[idx]
        for y in v2:
            if y in used:
                continue
            rho[x] = y
            used.add(y)
            search(idx + 1)
            del rho[x]
            used.discard(y)

    search(0)
    return GoalAlignment(tuple(sorted(best["rho"].items())), best["pairing"],
                         best["value"])


def _turned_around(a):
    """A witness of q2 against q1 as one of q1 against q2."""
    return GoalAlignment(tuple(sorted((y, x) for x, y in a.renaming)),
                         tuple(sorted((i, j) for j, i in a.atom_pairing)),
                         a.value, a.approximate)


def _reference_commonality(q1, q2, limits):
    """``commonality`` as it was before: both directions on equal counts."""
    k1, k2 = len(var_names(q1)), len(var_names(q2))
    if k1 < k2:
        return _reference_directed_commonality(q1, q2, limits)
    if k1 > k2:
        return _turned_around(_reference_directed_commonality(q2, q1, limits))
    fwd = _reference_directed_commonality(q1, q2, limits)
    rev = _reference_directed_commonality(q2, q1, limits)
    if rev.value > fwd.value:
        return _turned_around(rev)
    return fwd


def _random_term(rng, names, depth):
    roll = rng.random()
    if depth == 0 or roll < 0.45:
        return Var(rng.choice(names))
    if roll < 0.6:
        return Struct(rng.choice("ab"), ())
    if roll < 0.7:
        return Num(rng.randint(0, 2))
    return Struct(rng.choice("fg"), tuple(_random_term(rng, names, depth - 1)
                                          for _ in range(rng.randint(1, 2))))


def _similar_goal_pairs(seed, count):
    """Similarly structured goal pairs with repeated predicates (groups of
    up to 4 atoms), shared variables and many ties."""
    rng = random.Random(seed)
    preds = [("p", 2), ("q", 1), ("r", 3)]
    pool = ["A", "B", "C", "D", "E", "F"]
    for _ in range(count):
        shape = [rng.choice(preds) for _ in range(rng.randint(1, 5))]
        goals = []
        for _ in range(2):
            names = pool[:rng.randint(1, 5)]
            order = rng.sample(shape, len(shape))
            goals.append(Goal(tuple(
                Atom(PredSymbol(name, arity),
                     tuple(_random_term(rng, names, 2) for _ in range(arity)))
                for name, arity in order)))
        yield goals


@pytest.mark.parametrize("vars_limit, group_limit", [(8, 6), (2, 1), (1, 1)])
def test_commonality_witness_equals_reference(vars_limit, group_limit, monkeypatch):
    searches = []
    search = metrics._search

    def counted(*args):
        searches.append(args)
        return search(*args)

    monkeypatch.setattr(metrics, "_search", counted)
    approximate = greedy = 0
    limits = Limits(exact_vars=vars_limit, exact_group=group_limit)
    for g1, g2 in _similar_goal_pairs(vars_limit * 100 + group_limit, 2000):
        searches.clear()
        align = commonality(g1, g2, limits)
        assert align == _reference_commonality(g1, g2, limits), (g1, g2)
        approximate += align.approximate
        greedy += not searches
    # both the exact search and the greedy fallback are covered, and the
    # greedy both reaches the root bound and falls short of it
    assert (greedy == 0) == (approximate == 0) == (vars_limit == 8)
    assert vars_limit == 8 or (greedy > 1000 and approximate < greedy)


def test_commonality_searches_one_direction_on_equal_exact_counts(monkeypatch):
    calls = []
    directed = metrics._directed_commonality

    def counted(*args):
        calls.append(args)
        return directed(*args)

    monkeypatch.setattr(metrics, "_directed_commonality", counted)
    g1 = parse_goal("p(a,f(A)), q(A,B)")
    g2 = parse_goal("q(Y,Z), p(f(Y),a)")
    align = commonality(g1, g2)
    assert len(calls) == 1
    assert (align.value, dict(align.renaming), align.approximate) == (
        5, {"A": "Y", "B": "Z"}, False)
    # beyond the exact limits a greedy result at the root bound is exact
    # too, and only one that falls short of it runs the other direction
    calls.clear()
    assert commonality(g1, g2, Limits(exact_vars=1)) == align
    assert len(calls) == 1
    calls.clear()
    align = commonality(parse_goal("p(A,A), q(B)"), parse_goal("p(X,Y), q(Y)"),
                        Limits(exact_vars=1))
    assert (align.value, align.approximate) == (5, True)
    assert len(calls) == 2


@given(_shapes, st.data())
@settings(max_examples=150, deadline=None)
def test_directed_values_agree_on_equal_variable_counts(shape, data):
    n_args = sum(arity for _, arity in shape)
    args1 = data.draw(st.lists(_terms(1), min_size=n_args, max_size=n_args))
    args2 = data.draw(st.lists(_terms(1), min_size=n_args, max_size=n_args))
    g1 = _goal_for(shape, args1)
    g2 = _goal_for(data.draw(st.permutations(shape)), args2)
    assume(len(var_names(g1)) == len(var_names(g2)))
    groups = _similar_groups(g1, g2)
    v1, v2 = sorted(var_names(g1)), sorted(var_names(g2))
    fwd = metrics._directed_commonality(g1, g2, groups, v1, v2, Limits())
    rev = metrics._directed_commonality(g2, g1, [(r, l) for l, r in groups], v2, v1, Limits())
    assert not (fwd.approximate or rev.approximate)
    assert fwd.value == rev.value == brute_force_commonality(g1, g2)


@given(_shapes, st.data())
@settings(max_examples=150, deadline=None)
def test_weight_rows_track_best_pairing_under_bind_and_unbind(shape, data):
    n_args = sum(arity for _, arity in shape)
    args1 = data.draw(st.lists(_terms(), min_size=n_args, max_size=n_args))
    args2 = data.draw(st.lists(_terms(), min_size=n_args, max_size=n_args))
    g1 = _goal_for(shape, args1)
    g2 = _goal_for(data.draw(st.permutations(shape)), args2)
    groups = _similar_groups(g1, g2)
    table = _alignment_table(g1, g2, groups)
    root_bound = _best_pairing(table, {})[0]
    rows = _WeightRows(g1, g2, groups)
    v1, v2 = var_names(g1), var_names(g2) or ["Y"]
    bound: list = []
    rho: dict = {}

    def assert_rows_match_reference():
        assert (rows.total, rows.pairing()) == _best_pairing(table, rho)
        assert rows.rho == rho
        if not rho:
            assert rows.total == root_bound

    assert_rows_match_reference()
    for _ in range(data.draw(st.integers(0, 12))):
        free = [x for x in v1 if x not in rho]
        if free and (not bound or data.draw(st.booleans())):
            x, y = data.draw(st.sampled_from(free)), data.draw(st.sampled_from(v2))
            rows.bind(x, y)
            rho[x] = y
            bound.append(x)
        elif bound:
            rows.unbind()
            del rho[bound.pop()]
        assert_rows_match_reference()


def _reference_search(v1, v2, rows, base, best):
    """``metrics._search`` before the cut at the bound on entry: every
    free image of a variable is tried while its bound beats ``best``."""
    if len(rows.rho) == len(v1):
        return base + rows.total, tuple(sorted(rows.rho.items())), rows.pairing()
    x = v1[len(rows.rho)]
    for y in v2:
        if y not in rows.used:
            rows.bind(x, y)
            if base + rows.total > best[0]:
                best = _reference_search(v1, v2, rows, base, best)
            rows.unbind()
    return best


@given(st.lists(st.sampled_from([("p", 2), ("q", 1), ("r", 2)]), min_size=1, max_size=5),
       st.data())
@settings(max_examples=200, deadline=None)
def test_search_equals_reference_without_the_bound_cut(shape, data):
    n_args = sum(arity for _, arity in shape)
    args1 = data.draw(st.lists(_terms(1), min_size=n_args, max_size=n_args))
    args2 = data.draw(st.lists(_terms(1), min_size=n_args, max_size=n_args))
    g1 = _goal_for(shape, args1)
    g2 = _goal_for(data.draw(st.permutations(shape)), args2)
    v1, v2 = sorted(var_names(g1)), sorted(var_names(g2))
    assume(len(v1) <= len(v2))
    groups = _similar_groups(g1, g2)
    base, start = len(shape) - 1, (-1, None, None)
    assert metrics._search(v1, v2, _WeightRows(g1, g2, groups), base, start) \
        == _reference_search(v1, v2, _WeightRows(g1, g2, groups), base, start)


@given(_shapes, st.data())
@settings(max_examples=300, deadline=None)
def test_greedy_results_flagged_exact_are_optimal(shape, data):
    # renamed, reordered and near copies, searched greedily
    n_args = sum(arity for _, arity in shape)
    g1 = _goal_for(shape, data.draw(st.lists(_terms(1), min_size=n_args, max_size=n_args)))
    names = var_names(g1)
    images = data.draw(st.permutations([f"W{i}" for i in range(len(names))]))
    atoms = data.draw(st.permutations(rename_vars(g1, dict(zip(names, images))).atoms))
    for _ in range(data.draw(st.integers(0, 2))):
        k = data.draw(st.integers(0, len(atoms) - 1))
        args = list(atoms[k].args)
        args[data.draw(st.integers(0, len(args) - 1))] = data.draw(_terms(1))
        atoms[k] = Atom(atoms[k].pred, tuple(args))
    g2 = Goal(tuple(atoms))
    assume(len(var_names(g2)) <= 5)
    align = commonality(g1, g2, Limits(exact_vars=1, exact_group=1))
    if align.approximate:
        assert align.value <= brute_force_commonality(g1, g2)
    else:
        assert align.value == brute_force_commonality(g1, g2)


def test_greedy_tries_one_image_per_variable_on_duplicate_lists(monkeypatch):
    # each fact normalizes to 40 list-cell unifications over 81
    # variables, beyond the exact limits: the greedy runs, the first image
    # of each variable keeps the bound, and a result at the root bound is
    # exact, so the other direction does not run
    items = ",".join(map(str, range(40)))
    s1, s2 = build_sccs(normalize_program(parse_program(f"big([{items}]).\nbig2([{items}]).\n")))
    (segment,) = s1.segmented[0].segments
    binds = []
    bind = _WeightRows.bind

    def counted(rows, x, y):
        binds.append((x, y))
        bind(rows, x, y)

    monkeypatch.setattr(_WeightRows, "bind", counted)
    result = closeness(s1, s2)
    assert result.sigma == result.denominators[0] == result.denominators[1] == 406
    assert not result.approximate
    # per variable, one trial binding and the final one
    assert len(var_names(segment)) == 81
    assert len(binds) == 2 * 81


def _brute_optimum(weights) -> int:
    return max(sum(row[c] for row, c in zip(weights, perm))
               for perm in itertools.permutations(range(len(weights))))


@given(st.lists(st.sampled_from([("p", 2), ("q", 1)]), min_size=3, max_size=8),
       st.integers(1, 6), st.data())
@settings(max_examples=150, deadline=None)
def test_weight_rows_solve_each_table_once_per_search(shape, exact_group, data):
    n_args = sum(arity for _, arity in shape)
    g1 = _goal_for(shape, data.draw(st.lists(_terms(1), min_size=n_args, max_size=n_args)))
    g2 = _goal_for(data.draw(st.permutations(shape)),
                   data.draw(st.lists(_terms(1), min_size=n_args, max_size=n_args)))
    groups = _similar_groups(g1, g2)
    keyed = lambda weights: 3 <= len(weights) <= exact_group  # noqa: E731
    solves = []

    def counted(weights):
        solves.append(keyed(weights))
        return max_weight_matching(weights)

    v1, v2 = var_names(g1), var_names(g2) or ["Y"]
    seen = set()  # every keyed table the search has held
    depth = 0

    def check():
        for weights, optimum in zip(rows.weights, rows.optimum):
            assert optimum == _brute_optimum(weights)
            if keyed(weights):
                seen.add(tuple(map(tuple, weights)))
        assert rows.total == sum(rows.optimum)
        # each keyed table was solved once, the first time it was held
        assert solves.count(True) == len(seen)
        assert all(keyed(key) for key in rows._optima)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(metrics, "max_weight_matching", counted)
        rows = _WeightRows(g1, g2, groups, Limits(exact_group=exact_group))
        check()
        for _ in range(data.draw(st.integers(0, 12))):
            free = [x for x in v1 if x not in rows.rho]
            if free and (not depth or data.draw(st.booleans())):
                rows.bind(data.draw(st.sampled_from(free)), data.draw(st.sampled_from(v2)))
                depth += 1
            elif depth:
                rows.unbind()
                depth -= 1
            check()


def test_greedy_search_keeps_no_table_above_the_exact_group_limit(monkeypatch):
    # each fact normalizes to one group of 81 `=` atoms, searched greedily
    # and never keyed
    items = ",".join(map(str, range(40)))
    s1, s2 = build_sccs(normalize_program(parse_program(f"big([{items}]).\nbig2([{items}]).\n")))
    searches = []

    class Recorded(_WeightRows):
        def __init__(self, *args):
            super().__init__(*args)
            searches.append(self)

    monkeypatch.setattr(metrics, "_WeightRows", Recorded)
    limits = Limits()
    assert not closeness(s1, s2, limits).approximate
    assert max(len(left) for rows in searches for left, _ in rows.groups) == 81
    assert all(len(key) <= limits.exact_group for rows in searches for key in rows._optima)
