"""Goal-level measures: node counts, strict commonality, anti-unification,
similarly structured subgoals, renaming search and similarity."""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass

from .depgraph import SCC
from .syntax import (
    Atom, Clause, Goal, Num, PredSymbol, Struct, Var, align, rename_vars, var_names,
)

CONJ = "','"  # encoding functor for conjunction nodes
NECK = "':-'"  # encoding functor for the clause neck


@dataclass(frozen=True)
class Limits:
    """The bounds of the exact searches; a result cut by any of them is
    flagged approximate.  Commonality searches renamings exactly up to
    ``exact_vars`` variables and ``exact_group`` atoms of one predicate,
    and greedily beyond.  Closeness tries every argument permutation of
    a predicate up to arity ``arity`` (the identity only above it) and
    examines at most ``witness_cap`` (predicate bijection x argument
    permutation) combinations per pair."""

    exact_vars: int = 8
    exact_group: int = 6
    arity: int = 6
    witness_cap: int = 10000


# ---------------------------------------------------------------------------
# Term encoding: goals and clauses as plain terms
# ---------------------------------------------------------------------------

def atom_to_term(atom: Atom) -> Struct:
    return Struct(atom.pred.name, atom.args) if atom.args else Struct(atom.pred.name)


def goal_to_term(goal: Goal):
    """Right-folded conjunction term; None for the empty goal."""
    if not goal.atoms:
        return None
    result = atom_to_term(goal.atoms[-1])
    for atom in reversed(goal.atoms[:-1]):
        result = Struct(CONJ, (atom_to_term(atom), result))
    return result


def _encode(entity):
    if isinstance(entity, (Var, Num, Struct)):
        return entity
    if isinstance(entity, Atom):
        return atom_to_term(entity)
    if isinstance(entity, Goal):
        return goal_to_term(entity)
    if isinstance(entity, Clause):
        body = goal_to_term(entity.body)
        head = atom_to_term(entity.head)
        return Struct(NECK, (head, body)) if body is not None else Struct(NECK, (head,))
    raise TypeError(f"cannot encode {entity!r}")


# ---------------------------------------------------------------------------
# Node counts
# ---------------------------------------------------------------------------

def nodes(entity) -> int:
    """Functor/constant node count; variables count 0, numerals count 1.

    Goals and clauses count as terms built with conjunction and neck
    functors, one node per conjunction and one per clause neck.
    """
    if isinstance(entity, SCC):
        return sum(nodes(c) for c in entity.clauses)
    if isinstance(entity, Goal) and not entity.atoms:
        return 0
    if entity is None:
        return 0
    enc = _encode(entity)
    if isinstance(enc, Var):
        return 0
    if isinstance(enc, Num):
        return 1
    total = 0
    stack = [enc]
    while stack:
        t = stack.pop()
        if isinstance(t, Struct):
            total += 1
            stack.extend(t.args)
        elif isinstance(t, Num):
            total += 1
    return total


def var_occurrences(entity) -> int:
    if isinstance(entity, SCC):
        return sum(var_occurrences(c) for c in entity.clauses)
    if entity is None or (isinstance(entity, Goal) and not entity.atoms):
        return 0
    enc = _encode(entity)
    total = 0
    stack = [enc]
    while stack:
        t = stack.pop()
        if isinstance(t, Var):
            total += 1
        elif isinstance(t, Struct):
            stack.extend(t.args)
    return total


def total_nodes(entity) -> int:
    """Node count including variable occurrences."""
    return nodes(entity) + var_occurrences(entity)


# ---------------------------------------------------------------------------
# Strict commonality
# ---------------------------------------------------------------------------

def strict_commonality(e1, e2) -> int:
    """Positional shared-node count (Definition 1); symmetric.

    Accepts goal pairs of equal atom count, atom pairs, or term pairs.
    Goals contribute one extra unit per aligned conjunction node.
    """
    if isinstance(e1, Goal) or isinstance(e2, Goal):
        if not (isinstance(e1, Goal) and isinstance(e2, Goal)):
            raise ValueError("cannot compare a goal with a non-goal")
        if len(e1.atoms) != len(e2.atoms):
            raise ValueError("strict commonality requires equally long goals")
        if not e1.atoms:
            return 0
    matched, pairs, _ = align(_encode(e1), _encode(e2))
    return matched + sum(x == y for x, y in pairs)


def shared_var_count(e1, e2) -> int:
    """Occurrences of identical variables at identical tree positions.

    Positions only align below matching functors, which is exactly the
    set of positions surviving in the msg.
    """
    if isinstance(e1, Goal) != isinstance(e2, Goal):
        raise ValueError("cannot compare a goal with a non-goal")
    if isinstance(e1, Goal) and len(e1.atoms) != len(e2.atoms):
        raise ValueError("shared_var_count requires equally long goals")
    ea, eb = _encode(e1), _encode(e2)
    if ea is None or eb is None:
        return 0
    return sum(x == y for x, y in align(ea, eb)[1])


# ---------------------------------------------------------------------------
# Max-weight matching
# ---------------------------------------------------------------------------

def max_weight_matching(weights) -> list | None:
    """Perfect matching of maximal total weight in a square table, as
    (row, column) pairs in row order.  A negative weight marks a
    forbidden pair; None when the best matching still uses one.

    Shortest augmenting paths on the negated table (Crouse 2016), one
    row at a time.  Columns are scanned in the order scipy's
    ``linear_sum_assignment`` scans them and an equal-cost tie goes to
    an unassigned column, as there, so both pick the same matching among
    equally heavy ones and witnesses do not depend on which one ran.
    """
    n = len(weights)
    u = [0] * n  # row and column potentials
    v = [0] * n
    col4row = [-1] * n
    row4col = [-1] * n
    path = [-1] * n
    for cur in range(n):
        shortest = [math.inf] * n
        remaining = list(range(n - 1, -1, -1))
        rows, cols = [], []
        i, sink, min_val = cur, -1, 0
        while sink < 0:
            rows.append(i)
            row, offset = weights[i], min_val - u[i]
            lowest, index = math.inf, -1
            for it, j in enumerate(remaining):
                reduced = offset - row[j] - v[j]
                if reduced < shortest[j]:
                    path[j] = i
                    shortest[j] = reduced
                else:
                    reduced = shortest[j]
                if reduced < lowest or (reduced == lowest and row4col[j] < 0):
                    lowest, index = reduced, it
            min_val = lowest
            j = remaining[index]
            cols.append(j)
            if row4col[j] < 0:
                sink = j
            else:
                i = row4col[j]
            remaining[index] = remaining[-1]
            remaining.pop()
        u[cur] += min_val
        for i in rows[1:]:
            u[i] += min_val - shortest[col4row[i]]
        for j in cols:
            v[j] -= min_val - shortest[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    if any(weights[r][c] < 0 for r, c in enumerate(col4row)):
        return None
    return list(enumerate(col4row))


# ---------------------------------------------------------------------------
# Most specific generalization (anti-unification)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MsgResult:
    generalization: object
    subst1: dict  # generalization var name -> subterm of e1
    subst2: dict


def anti_unify(a, b, prefix: str, pairs: dict):
    """Anti-unification of two terms (Plotkin 1970, Reynolds 1970).

    Each distinct mismatched pair of subterms becomes one generalization
    variable named ``prefix`` plus an ordinal; ``pairs`` maps every such
    (left, right) pair to its variable and may be shared between calls
    that must reuse variables.
    """
    if isinstance(a, Var) and isinstance(b, Var) and a.name == b.name:
        return a
    if isinstance(a, Num) and isinstance(b, Num) and a.value == b.value:
        return a
    if (isinstance(a, Struct) and isinstance(b, Struct)
            and a.functor == b.functor and len(a.args) == len(b.args)):
        return Struct(a.functor, tuple(anti_unify(x, y, prefix, pairs)
                                       for x, y in zip(a.args, b.args)))
    if (a, b) not in pairs:
        pairs[a, b] = Var(f"{prefix}{len(pairs) + 1}")
    return pairs[a, b]


def msg(e1, e2) -> MsgResult:
    """Anti-unify two terms, atoms of equal predicate, or goals of equal
    length.  Repeated mismatch pairs reuse the same generalization
    variable, which makes the result unique up to renaming."""
    if isinstance(e1, Goal) != isinstance(e2, Goal):
        raise ValueError("cannot generalize a goal with a non-goal")
    if isinstance(e1, Goal):
        if len(e1.atoms) != len(e2.atoms):
            raise ValueError("msg requires positionally aligned goals")
        if not e1.atoms:
            return MsgResult(Goal(()), {}, {})
    if isinstance(e1, Atom) and isinstance(e2, Atom) and e1.pred != e2.pred:
        raise ValueError("msg of atoms requires equal predicates")

    pairs: dict = {}
    gen = anti_unify(_encode(e1), _encode(e2), "_M", pairs)
    return MsgResult(_decode_like(gen, e1),
                     {v.name: a for (a, _), v in pairs.items()},
                     {v.name: b for (_, b), v in pairs.items()})


def _decode_like(gen, template):
    """Present a generalization in the shape of its inputs when possible."""
    if isinstance(template, Goal):
        conjuncts = _split_conj(gen)
        atoms = []
        for c in conjuncts:
            if isinstance(c, Struct) and c.functor != CONJ:
                atoms.append(Atom(PredSymbol(c.functor, len(c.args)), c.args))
            else:
                return gen  # an atom collapsed to a variable; keep raw term
        return Goal(tuple(atoms))
    if isinstance(template, Atom) and isinstance(gen, Struct):
        return Atom(PredSymbol(gen.functor, len(gen.args)), gen.args)
    return gen


def _split_conj(term) -> list:
    out = []
    while isinstance(term, Struct) and term.functor == CONJ and len(term.args) == 2:
        out.append(term.args[0])
        term = term.args[1]
    out.append(term)
    return out


# ---------------------------------------------------------------------------
# Similarly structured subgoals
# ---------------------------------------------------------------------------

def predicate_multiset(goal: Goal) -> Counter:
    """Multiset of predicate symbols occurring in a goal."""
    return Counter(a.pred for a in goal.atoms)


def _select_similar_indices(q1: Goal, q2: Goal):
    """Indices of the retained atoms, first occurrences in source order."""
    shared = predicate_multiset(q1) & predicate_multiset(q2)

    def select(goal):
        remaining = Counter(shared)
        picked = []
        for i, atom in enumerate(goal.atoms):
            if remaining[atom.pred] > 0:
                remaining[atom.pred] -= 1
                picked.append(i)
        return tuple(picked)

    return select(q1), select(q2)


def maximal_similar_subgoals(q1: Goal, q2: Goal):
    """The maximal pair of similarly structured subgoals; atoms are
    retained in source order.  Disjoint predicate sets yield two empty
    goals."""
    i1, i2 = _select_similar_indices(q1, q2)
    return (Goal(tuple(q1.atoms[i] for i in i1)),
            Goal(tuple(q2.atoms[i] for i in i2)))


def enumerate_renamings(q1: Goal, q2: Goal):
    """All injective mappings vars(q1) -> vars(q2), lexicographic order."""
    v1 = sorted(var_names(q1))
    v2 = sorted(var_names(q2))
    if len(v1) > len(v2):
        raise ValueError("enumerate_renamings requires #vars(q1) <= #vars(q2)")
    for image in itertools.permutations(v2, len(v1)):
        yield dict(zip(v1, image))


# ---------------------------------------------------------------------------
# Commonality (Definition 4) via branch-and-bound over renamings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GoalAlignment:
    """Witness for a commonality/similarity value.

    ``renaming`` maps variables of the smaller-variable goal onto the
    other goal's variables; ``swapped`` is True when that smaller goal is
    the second argument.  ``atom_pairing`` pairs atom indices of the first
    argument with indices of the second.
    """

    renaming: tuple = ()  # sorted tuple[(from, to), ...]
    atom_pairing: tuple = ()  # tuple[(i1, i2), ...]
    value: int = 0
    swapped: bool = False
    approximate: bool = False

    @property
    def renaming_dict(self) -> dict:
        return dict(self.renaming)

    def renamed_pairs(self, q1: Goal, q2: Goal) -> list:
        """(left atom, right atom) for each pair of ``atom_pairing``, the
        left atom renamed into the right goal's variables."""
        if self.swapped:
            mapping = {v: Var(k) for k, v in self.renaming}
        else:
            mapping = {k: Var(v) for k, v in self.renaming}
        return [(rename_vars(q1.atoms[i], mapping), q2.atoms[j])
                for i, j in self.atom_pairing]


def _alignment_table(q1: Goal, q2: Goal) -> list:
    """Same-predicate atom groups in predicate order, each as (indices in
    q1, indices in q2, cells): cell [a][b] holds the coinciding node count
    and the aligned variable pairs of the a-th and b-th atoms."""
    groups: dict = {}
    for i, atom in enumerate(q1.atoms):
        groups.setdefault(atom.pred, ([], []))[0].append(i)
    for j, atom in enumerate(q2.atoms):
        groups.setdefault(atom.pred, ([], []))[1].append(j)
    table = []
    for pred in sorted(groups, key=lambda p: (p.name, p.arity)):
        left, right = groups[pred]
        cells = [[align(atom_to_term(q1.atoms[i]), atom_to_term(q2.atoms[j]))[:2]
                  for j in right] for i in left]
        table.append((left, right, cells))
    return table


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


def _group_optimum(weights) -> int:
    """Weight of a maximal same-predicate pairing of one group."""
    if len(weights) == 1:
        return weights[0][0]
    if len(weights) == 2:
        (a, b), (c, d) = weights
        return max(a + d, b + c)
    return sum(weights[r][c] for r, c in max_weight_matching(weights))


class _WeightRows:
    """The weight tables ``_best_pairing`` builds, kept up to date while a
    partial renaming grows and shrinks one binding at a time.

    A cell starts at its coinciding nodes plus all its variable pairs, as
    if every variable were unbound.  ``bind(x, y)`` takes off, in the cells
    whose pairs mention x only, the pairs (x, y') with y' != y, and solves
    again only the groups that changed; ``unbind`` undoes the latest
    binding from its undo record.  ``total`` always equals
    ``_best_pairing(table, rho)[0]`` for the bindings in force.
    """

    def __init__(self, table: list):
        self.weights = []
        # x -> [(group, [(weight row, column, pairs of x, {y: pairs (x, y)})])]
        self._cells: dict = {}
        for g, (_, _, cells) in enumerate(table):
            weights = []
            by_var: dict = {}
            for row in cells:
                weight_row = [matched + len(pairs) for matched, pairs in row]
                for b, (_, pairs) in enumerate(row):
                    counts: dict = {}
                    for x, y in pairs:
                        images = counts.setdefault(x, {})
                        images[y] = images.get(y, 0) + 1
                    for x, images in counts.items():
                        by_var.setdefault(x, []).append(
                            (weight_row, b, sum(images.values()), images))
                weights.append(weight_row)
            self.weights.append(weights)
            for x, entries in by_var.items():
                self._cells.setdefault(x, []).append((g, entries))
        self.optimum = [_group_optimum(w) for w in self.weights]
        self.total = sum(self.optimum)
        self._undo: list = []

    def bind(self, x: str, y: str) -> None:
        changed, solved = [], []
        for g, entries in self._cells.get(x, ()):
            hit = False
            for row, b, n, images in entries:
                drop = n - images.get(y, 0)
                if drop:
                    row[b] -= drop
                    changed.append((row, b, drop))
                    hit = True
            if hit:
                solved.append((g, self.optimum[g]))
                optimum = _group_optimum(self.weights[g])
                self.total += optimum - self.optimum[g]
                self.optimum[g] = optimum
        self._undo.append((changed, solved))

    def unbind(self) -> None:
        changed, solved = self._undo.pop()
        for row, b, drop in changed:
            row[b] += drop
        for g, optimum in solved:
            self.total += optimum - self.optimum[g]
            self.optimum[g] = optimum


def _directed_commonality(q1: Goal, q2: Goal, limits: Limits):
    """Max strict commonality over renamings vars(q1)->vars(q2) and
    permutations of q2, assuming Pi(q1) == Pi(q2).

    Variables are bound in sorted order, each to the images in sorted
    order, so the first optimum found is the witness.  Within the exact
    limits a branch-and-bound prunes on ``_WeightRows.total``; beyond
    them each variable greedily takes the image with the best bound.
    """
    n = len(q1.atoms)
    if n == 0:
        return GoalAlignment(value=0)
    base = n - 1
    table = _alignment_table(q1, q2)
    rows = _WeightRows(table)
    v1 = sorted(var_names(q1))
    v2 = sorted(var_names(q2))
    rho: dict = {}
    used: set = set()

    if not (len(v1) <= limits.exact_vars
            and max((len(g[0]) for g in table), default=0) <= limits.exact_group):
        for x in v1:
            best_y, best_s = None, -1
            for y in v2:
                if y in used:
                    continue
                rows.bind(x, y)
                if rows.total > best_s:
                    best_s, best_y = rows.total, y
                rows.unbind()
            rows.bind(x, best_y)
            rho[x] = best_y
            used.add(best_y)
        value, pairing = _best_pairing(table, rho)
        return GoalAlignment(tuple(sorted(rho.items())), pairing,
                             base + value, approximate=True)

    best_value, best_rho = _search(v1, v2, rows, base, rho, used, (-1, None))
    _, pairing = _best_pairing(table, best_rho)
    return GoalAlignment(tuple(sorted(best_rho.items())), pairing, best_value)


def _search(v1: list, v2: list, rows: _WeightRows, base: int,
            rho: dict, used: set, best: tuple) -> tuple:
    """The branch-and-bound of ``_directed_commonality`` below a partial
    renaming rho of v1's first ``len(rho)`` variables onto the images in
    ``used``: the first best completion as (value, renaming) if it beats
    ``best``, else ``best``.  The state is passed in, not closed over: a
    recursive closure holds itself through its cell, so each search would
    leave a reference cycle for the cyclic collector."""
    if len(rho) == len(v1):
        return base + rows.total, dict(rho)
    x = v1[len(rho)]
    for y in v2:
        if y in used:
            continue
        rows.bind(x, y)
        if base + rows.total > best[0]:
            rho[x] = y
            used.add(y)
            best = _search(v1, v2, rows, base, rho, used, best)
            del rho[x]
            used.discard(y)
        rows.unbind()
    return best


def commonality(q1: Goal, q2: Goal, limits: Limits = Limits()):
    """Commonality C (Definition 4) with a witness.

    The renaming always runs from the goal with fewer variables.  With
    equal counts an exact search runs from q1 only: a full renaming is
    then a bijection, so the search from q2 ranges over the inverse
    renamings and reaches the same value.  Beyond the exact-mode limits
    the result is a greedy lower bound, both directions are searched and
    the larger taken, and the witness is flagged approximate.
    """
    if predicate_multiset(q1) != predicate_multiset(q2):
        raise ValueError("commonality requires similarly structured goals")
    k1, k2 = len(var_names(q1)), len(var_names(q2))
    fwd = None
    if k1 <= k2:
        fwd = _directed_commonality(q1, q2, limits)
        if k1 < k2 or not fwd.approximate:
            return fwd.value, fwd
    rev = _directed_commonality(q2, q1, limits)
    if fwd is not None and rev.value <= fwd.value:
        return fwd.value, fwd
    flipped = GoalAlignment(rev.renaming, tuple(sorted((i, j) for j, i in rev.atom_pairing)),
                            rev.value, swapped=True, approximate=rev.approximate)
    return rev.value, flipped


def goal_similarity(q1: Goal, q2: Goal, limits: Limits = Limits()):
    """Similarity sigma (Definition 5): commonality of the maximal pair of
    similarly structured subgoals; 0 with an empty witness when that pair
    is empty.  Pairing indices refer to the original goals."""
    i1, i2 = _select_similar_indices(q1, q2)
    if not i1:
        return 0, GoalAlignment()
    s1 = Goal(tuple(q1.atoms[i] for i in i1))
    s2 = Goal(tuple(q2.atoms[i] for i in i2))
    value, align = commonality(s1, s2, limits)
    pairing = tuple(sorted((i1[a], i2[b]) for a, b in align.atom_pairing))
    return value, GoalAlignment(align.renaming, pairing, value,
                                align.swapped, align.approximate)
