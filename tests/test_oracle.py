import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from logdup import (
    Atom, Goal, PredSymbol, Struct, Var, brute_force_commonality, closeness,
    commonality, mutate_duplicate, parse_goal,
)
from logdup.depgraph import segment_clause
from logdup.syntax import node_counts
from tests.conftest import scc_named


def test_brute_force_worked_example():
    q1 = parse_goal("p(a,f(A)), q(A,B)")
    q2 = parse_goal("q(Y,Z), p(f(X),Y)")
    assert brute_force_commonality(q1, q2) == 5


def test_brute_force_self_is_total_nodes():
    goal = parse_goal("p(f(X), a), q(X)")
    assert brute_force_commonality(goal, goal) == sum(node_counts(goal))


def test_brute_force_single_atoms():
    assert brute_force_commonality(parse_goal("p(X)"), parse_goal("p(Y)")) == 2


def test_brute_force_rejects_dissimilar_goals():
    with pytest.raises(ValueError):
        brute_force_commonality(parse_goal("p(a)"), parse_goal("q(a)"))


def test_brute_force_enforces_caps():
    big = parse_goal("p(A,B), p(C,D), p(E,F)")
    other = parse_goal("p(U,V), p(W,X), p(Y,Z)")
    with pytest.raises(ValueError):
        brute_force_commonality(big, other)


_preds = [PredSymbol("p", 2), PredSymbol("q", 1), PredSymbol("r", 2)]
_vars = ["X", "Y", "Z", "W"]


def _random_goal(rng, shape):
    atoms = []
    for pred in shape:
        args = []
        for _ in range(pred.arity):
            kind = rng.randrange(3)
            if kind == 0:
                args.append(Var(rng.choice(_vars)))
            elif kind == 1:
                args.append(Struct(rng.choice("ab"), ()))
            else:
                args.append(Struct("f", (Var(rng.choice(_vars)),)))
        atoms.append(Atom(pred, tuple(args)))
    rng.shuffle(atoms)
    return Goal(tuple(atoms))


def test_commonality_matches_brute_force_on_random_pairs():
    rng = random.Random(20260823)
    for _ in range(200):
        shape = [rng.choice(_preds) for _ in range(rng.randint(1, 4))]
        g1 = _random_goal(rng, list(shape))
        g2 = _random_goal(rng, list(shape))
        align = commonality(g1, g2)
        assert not align.approximate
        assert align.value == brute_force_commonality(g1, g2)


def test_mutation_is_deterministic(append_scc):
    first = mutate_duplicate(append_scc, 5)
    second = mutate_duplicate(append_scc, 5)
    assert first == second
    assert mutate_duplicate(append_scc, 6)[0] != first[0]


def test_mutation_log_records_steps(append_scc):
    _, log = mutate_duplicate(append_scc, 1)
    assert any("rename" in line for line in log)
    assert any("permute" in line for line in log)
    assert any("shuffle" in line for line in log)


def test_mutation_preserves_segment_membership(append_scc):
    mutated, _ = mutate_duplicate(append_scc, 9)
    for original, new in zip(append_scc.clauses, sorted(
            mutated.clauses, key=lambda c: len(c.body.atoms))):
        seg_old = segment_clause(original, append_scc)
        seg_new = segment_clause(new, mutated)
        assert len(seg_old.recursive_calls) == len(seg_new.recursive_calls)
        assert [len(s.atoms) for s in seg_old.segments] == \
            [len(s.atoms) for s in seg_new.segments]


@pytest.mark.parametrize("seed", range(8))
def test_mutated_duplicates_have_full_closeness(seed, rev_all_scc):
    mutated, _ = mutate_duplicate(rev_all_scc, seed)
    result = closeness(rev_all_scc, mutated)
    assert result is not None
    assert result.closeness == (Fraction(1), Fraction(1))


def test_mutation_of_mutual_recursion():
    source = """
    even(0).
    even(s(N)) :- odd(N).
    odd(s(N)) :- even(N).
    """
    scc = scc_named(source, "even", 1)
    mutated, _ = mutate_duplicate(scc, 3)
    assert len(mutated.members) == 2
    result = closeness(scc, mutated)
    assert result.closeness == (Fraction(1), Fraction(1))
