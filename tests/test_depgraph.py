import pytest
from hypothesis import given, settings, strategies as st

from logdup import (
    SCC, Atom, Clause, Goal, Num, PredSymbol, Program, Var, build_sccs,
    parse_program, scc_of, segment_clause,
)
from logdup.depgraph import ClauseSegments
from logdup.syntax import BUILTIN_PREDS, EQ
from tests.conftest import APPEND, assert_record_contract, scc_named


P1 = PredSymbol("p", 1)
FACT = Clause(Atom(P1, (Var("X"),)), Goal((Atom(PredSymbol("q", 1), (Var("X"),)),)), ("f.pl", 3))


@pytest.mark.parametrize("record, text, defaults", [
    (SCC((P1,), (FACT,)), "SCC(members=(p/1,), clauses=(p(X) :- q(X).,))", {}),
    (ClauseSegments(FACT.head, (FACT.body, Goal()), (FACT.head,)),
     "ClauseSegments(head=p(X), segments=(q(X), true), recursive_calls=(p(X),))", {}),
], ids=["SCC", "ClauseSegments"])
def test_depgraph_records_keep_their_contract(record, text, defaults):
    assert_record_contract(record, text, defaults)


def test_scc_caches_its_segments_outside_its_fields():
    scc = scc_named(APPEND, "append", 3)
    fresh = SCC(scc.members, scc.clauses)
    segmented = scc.segmented
    assert scc.segmented is segmented and "segmented" in vars(scc)
    assert "segmented" not in vars(fresh)
    # equal whether or not one of them has cached its derived values
    assert scc == fresh and fresh == scc and hash(scc) == hash(fresh) == hash(
        (scc.members, scc.clauses))
    assert repr(scc) == repr(fresh)
    assert fresh.segmented == segmented and fresh.segmented is not segmented


def test_single_recursive_predicate_is_own_scc():
    program = parse_program("p([]).\np([_|T]) :- p(T).")
    sccs = build_sccs(program)
    assert len(sccs) == 1
    assert sccs[0].members == (PredSymbol("p", 1),)


def test_mutual_recursion_grouped():
    source = """
    even(0).
    even(s(N)) :- odd(N).
    odd(s(N)) :- even(N).
    """
    sccs = build_sccs(parse_program(source))
    members = {scc.members for scc in sccs}
    assert (PredSymbol("even", 1), PredSymbol("odd", 1)) in members


def test_scc_members_sort_by_name_then_arity():
    # a cycle through a/2 -> a/10 -> ab/1 -> b/0 -> a/2
    args = lambda n: "(" + ",".join(["_"] * n) + ")"
    source = f"a{args(2)} :- a{args(10)}.\na{args(10)} :- ab(_).\nab(_) :- b.\nb :- a{args(2)}.\n"
    (scc,) = build_sccs(parse_program(source))
    assert scc.members == (PredSymbol("a", 2), PredSymbol("a", 10),
                           PredSymbol("ab", 1), PredSymbol("b", 0))
    assert scc.name() == "[a/2,a/10,ab/1,b/0]"


def test_reverse_topological_order():
    source = """
    top(X) :- mid(X).
    mid(X) :- bottom(X).
    bottom(a).
    """
    sccs = build_sccs(parse_program(source))
    names = [scc.members[0].name for scc in sccs]
    assert names.index("bottom") < names.index("mid") < names.index("top")


def test_undefined_and_builtin_calls_are_leaves():
    program = parse_program("p(X) :- q(X), X = a, Y is X, r(Y).\nr(b).")
    sccs = build_sccs(parse_program("p(X) :- q(X), X = a, Y is X, r(Y).\nr(b)."))
    p = scc_of(sccs, PredSymbol("p", 1))
    assert p.members == (PredSymbol("p", 1),)


def test_excluded_predicates_not_in_graph():
    program = parse_program("p(X) :- q(X) ; r(X).\nq(a).")
    sccs = build_sccs(program)
    assert all(PredSymbol("p", 1) not in scc.clause_indices for scc in sccs)


def test_segment_clause_splits_at_recursive_calls():
    source = "p([X|Xs], N) :- q(X), p(Xs, M), N is M + 1."
    program = parse_program(source)
    scc = scc_of(build_sccs(program), PredSymbol("p", 2))
    seg = segment_clause(scc.clauses[0], scc)
    assert len(seg.segments) == 2
    assert len(seg.recursive_calls) == 1
    assert seg.recursive_calls[0].pred == PredSymbol("p", 2)
    assert [a.pred.name for a in seg.segments[0].atoms] == ["q"]
    assert [a.pred.name for a in seg.segments[1].atoms] == ["is"]


def test_segment_clause_fact():
    program = parse_program("p(a).")
    scc = scc_of(build_sccs(program), PredSymbol("p", 1))
    seg = segment_clause(scc.clauses[0], scc)
    assert seg.segments == (seg.segments[0],)
    assert seg.recursive_calls == ()


def test_segment_reconstruct_round_trip():
    source = "e(X) :- a(X), o(X), b(X), e(X), c(X).\no(Y) :- e(Y)."
    program = parse_program(source)
    scc = scc_of(build_sccs(program), PredSymbol("e", 1))
    for clause in scc.clauses:
        seg = segment_clause(clause, scc)
        atoms = list(seg.segments[0].atoms)
        for call, segment in zip(seg.recursive_calls, seg.segments[1:]):
            atoms += (call,) + segment.atoms
        assert tuple(atoms) == clause.body.atoms


def test_segment_clause_rejects_foreign_head():
    program = parse_program("p(a).\nq(b).")
    sccs = build_sccs(program)
    p = scc_of(sccs, PredSymbol("p", 1))
    q = scc_of(sccs, PredSymbol("q", 1))
    with pytest.raises(ValueError):
        segment_clause(q.clauses[0], p)


def test_scc_of_missing_predicate():
    sccs = build_sccs(parse_program("p(a)."))
    with pytest.raises(KeyError):
        scc_of(sccs, PredSymbol("nope", 1))


def test_deep_call_chain_is_walked_without_recursion():
    source = "".join(f"p{i}(X) :- p{i + 1}(X).\n" for i in range(5_000)) + "p5000(a).\n"
    sccs = build_sccs(parse_program(source))
    assert [scc.members[0].name for scc in sccs[:2]] == ["p5000", "p4999"]
    assert len(sccs) == 5_001


# The Tarjan walk with a nested closure that the flat one replaced, kept
# as the reference it must equal.

def _pred_sort_key(pred: PredSymbol):
    return (pred.name, pred.arity)


def _reference_build_sccs(program: Program) -> tuple:
    """Tarjan over the defined, non-excluded predicates.

    Edge q -> r exists iff some clause of q calls r and r is defined.
    Builtins are graph leaves.  Output is in the order Tarjan emits
    components (reverse topological), which is deterministic because
    nodes and successors are visited in name order.
    """
    defined = sorted((p for p in program.predicates if p not in program.excluded),
                     key=_pred_sort_key)
    defined_set = set(defined)
    succs: dict = {p: [] for p in defined}
    for pred in defined:
        targets = set()
        for clause in program.predicates[pred]:
            for atom in clause.body.atoms:
                if atom.pred in defined_set and atom.pred not in BUILTIN_PREDS:
                    targets.add(atom.pred)
        succs[pred] = sorted(targets, key=_pred_sort_key)

    index: dict = {}
    lowlink: dict = {}
    on_stack: set = set()
    stack: list = []
    counter = [0]
    components: list = []

    def strongconnect(root):
        # iterative DFS so deep call chains cannot overflow the stack
        work = [(root, 0)]
        while work:
            node, succ_idx = work.pop()
            if succ_idx == 0:
                index[node] = lowlink[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack.add(node)
            recursed = False
            for i in range(succ_idx, len(succs[node])):
                w = succs[node][i]
                if w not in index:
                    work.append((node, i + 1))
                    work.append((w, 0))
                    recursed = True
                    break
                if w in on_stack:
                    lowlink[node] = min(lowlink[node], index[w])
            if recursed:
                continue
            if lowlink[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == node:
                        break
                components.append(tuple(sorted(comp, key=_pred_sort_key)))
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])

    for pred in defined:
        if pred not in index:
            strongconnect(pred)

    sccs = []
    for members in components:
        clauses = []
        for pred in members:
            clauses.extend(program.predicates[pred])
        sccs.append(SCC(members, tuple(clauses)))
    return tuple(sccs)


# names and arities chosen so that name order and arity order disagree
_preds = st.sampled_from([PredSymbol(name, arity) for name in ("p", "q", "qq", "r", "s")
                          for arity in (1, 2, 10)])


def _call(pred):
    return Atom(pred, tuple(Var(f"X{i}") for i in range(pred.arity)))


_builtin_calls = st.sampled_from([Atom(EQ, (Var("X"), Var("Y"))),
                                  Atom(PredSymbol("is", 2), (Var("X"), Num(1)))])


@st.composite
def _programs(draw):
    """Clauses calling defined, undefined and builtin predicates, among
    them self-loops and mutual recursion; excluded predicates may keep
    their clauses, as the graph must leave them out either way."""
    predicates: dict = {}
    for head, body in draw(st.lists(st.tuples(
            _preds, st.lists(st.one_of(_preds.map(_call), _builtin_calls), max_size=4)),
            max_size=14)):
        predicates.setdefault(head, []).append(Clause(_call(head), Goal(tuple(body))))
    return Program({pred: tuple(clauses) for pred, clauses in predicates.items()},
                   (), frozenset(draw(st.sets(_preds, max_size=3))))


@settings(max_examples=500, deadline=None)
@given(_programs())
def test_flat_tarjan_equals_the_closure_walk(program):
    assert build_sccs(program) == _reference_build_sccs(program)
