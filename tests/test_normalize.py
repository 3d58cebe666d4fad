import pytest
from hypothesis import given, settings, strategies as st

from logdup import (
    Atom, PredSymbol, Struct, Var, is_normal_atom, normalize_clause,
    normalize_program, parse_clause, parse_goal, parse_program, render_clause,
)
from logdup import normalize
from logdup.syntax import EQ, rename_vars, var_names


def norm(text):
    return render_clause(normalize_clause(parse_clause(text)))


def test_append_base_clause():
    assert norm("append([],L,L).") == "append(A,B,C) :- A = [], C = B."


def test_append_recursive_clause():
    expected = "append(A,B,C) :- A = [X|Xs], C = [X|Zs], append(Xs,B,Zs)."
    assert norm("append([X|Xs],Y,[X|Zs]) :- append(Xs,Y,Zs).") == expected


def test_arith_builtins_keep_compound_arguments():
    got = norm("add1_and_sqr([X|Xs],[Y|Ys]) :- N is X + 1, Y is N*N, add1_and_sqr(Xs,Ys).")
    assert "N is X+1" in got
    assert "Y is N*N" in got


def test_repeated_head_variable_emits_equality():
    assert norm("p(X, X).") == "p(A,B) :- B = A."


def test_nested_term_flattens_preorder():
    got = norm("p(f(g(a))).")
    assert got == "p(A) :- A = f(V1), V1 = g(V2), V2 = a."


def test_duplicate_var_in_one_unification_is_split():
    # both occurrences of X cannot stay inside a single binding
    clause = normalize_clause(parse_clause("p(f(X, X))."))
    for atom in clause.body.atoms:
        assert is_normal_atom(atom)


@pytest.mark.parametrize("goal, normal", [
    ("X = Y", True), ("X = 1", True), ("X = f", True), ("X = f(Y, Z)", True),
    ("X = f(a)", False), ("X = f(Y, Y)", False), ("X = f(X)", False), ("f(Y) = X", False),
    ("Y is X + 1", True), ("q(X, Y)", True), ("q(f(X))", False),
])
def test_is_normal_atom_shapes(goal, normal):
    (atom,) = parse_goal(goal).atoms
    assert is_normal_atom(atom) is normal


def test_body_unification_compound_both_sides():
    clause = normalize_clause(parse_clause("p(X) :- f(X) = f(a)."))
    assert all(is_normal_atom(a) for a in clause.body.atoms)


def test_call_arguments_become_variables():
    clause = normalize_clause(parse_clause("p(X) :- q(f(X), a)."))
    assert all(is_normal_atom(a) for a in clause.body.atoms)
    call = clause.body.atoms[-1]
    assert call.pred.name == "q"


def test_every_atom_is_normal_across_a_program():
    source = """
    rev_all([],[]).
    rev_all([X|Xs],[Y|Ys]) :- reverse(X,Y), rev_all(Xs,Ys).
    tree(node(L, V, R)) :- tree(L), number(V), tree(R).
    tree(leaf).
    """
    program = normalize_program(parse_program(source))
    for clauses in program.predicates.values():
        for clause in clauses:
            assert all(isinstance(arg.name, str) for arg in clause.head.args)
            for atom in clause.body.atoms:
                assert is_normal_atom(atom)


def test_normalization_is_idempotent_on_shape():
    clause = normalize_clause(parse_clause("p([X|Xs]) :- q(X), p(Xs)."))
    again = normalize_clause(clause)
    assert len(again.body.atoms) == len(clause.body.atoms)
    assert all(is_normal_atom(a) for a in again.body.atoms)


# The rescanning elimination pass that the one-pass one replaced, kept as
# the reference it must equal.

def _reference_eliminate_var_unifications(body: list, head_params: set) -> list:
    """Substitute away internal single-binding variables.

    ``X = Y`` atoms survive only when both sides are head parameters
    (matching the normal-form append listing) or when eliminating them
    would duplicate a variable inside another unification.
    """
    atoms = list(body)
    changed = True
    while changed:
        changed = False
        for idx, atom in enumerate(atoms):
            if atom.pred != EQ:
                continue
            lhs, rhs = atom.args
            if not (isinstance(lhs, Var) and isinstance(rhs, Var)):
                continue
            if lhs.name == rhs.name:
                del atoms[idx]
                changed = True
                break
            if lhs.name in head_params and rhs.name in head_params:
                continue
            if rhs.name in head_params:
                keep, drop = rhs, lhs
            else:
                keep, drop = lhs, rhs
            if _reference_would_duplicate(atoms, idx, keep.name, drop.name):
                continue
            del atoms[idx]
            atoms = [rename_vars(a, {drop.name: keep}) for a in atoms]
            changed = True
            break
    return atoms


def _reference_would_duplicate(atoms: list, skip: int, keep: str, drop: str) -> bool:
    for i, atom in enumerate(atoms):
        if i == skip or atom.pred != EQ:
            continue
        names = [v for v in var_names(atom)]
        if keep in names and drop in names:
            return True
    return False


_POOL = "ABCXYZ"
_pool_vars = st.sampled_from(_POOL).map(Var)
_var_eqs = st.tuples(_pool_vars, _pool_vars).map(lambda sides: Atom(EQ, sides))
_bindings = st.tuples(_pool_vars, st.lists(_pool_vars, max_size=3)).map(
    lambda t: Atom(EQ, (t[0], Struct("f", tuple(t[1])))))
_calls = st.lists(_pool_vars, max_size=3).map(
    lambda args: Atom(PredSymbol("q", len(args)), tuple(args)))


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.one_of(_var_eqs, _bindings, _calls), max_size=10),
       st.sets(st.sampled_from(_POOL)))
def test_one_pass_elimination_equals_the_rescanning_pass(body, head_params):
    got = normalize._eliminate_var_unifications(body, head_params)
    assert got == _reference_eliminate_var_unifications(body, head_params)


def test_var_unification_kept_when_another_binding_holds_both_sides():
    # eliminating X = Y would give f(X,X); the two X = Y atoms protect each other
    assert norm("p(Z) :- Z = f(X,Y), X = Y, Y = X, q(X).") == (
        "p(A) :- A = f(X,Y), X = Y, Y = X, q(X).")
    assert norm("p(Z) :- X = W, W = Y, q(X, Y).") == "p(A) :- q(X,X)."


def test_fresh_names_skip_the_clause_variables():
    assert norm("p(A, V1, f(a)).") == "p(B,C,D) :- D = f(V2), V2 = a."
