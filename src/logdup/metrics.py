"""Goal-level measures: strict commonality, anti-unification, similarly
structured subgoals, renaming search and similarity."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .syntax import Goal, Num, Struct, Var, align, rename_vars, shape, var_names


@dataclass(frozen=True)
class Limits:
    """The bounds of the exact searches; a result cut by any of them is
    flagged approximate.  Commonality searches renamings exactly up to
    ``exact_vars`` variables and ``exact_group`` atoms of one predicate,
    and greedily beyond.  Closeness tries every argument permutation of
    a predicate up to arity ``arity`` (the identity only above it) and
    examines at most ``witness_cap`` (predicate bijection x argument
    permutation) combinations per pair.  Each is at least 1."""

    exact_vars: int = 8
    exact_group: int = 6
    arity: int = 6
    witness_cap: int = 10000

    def __post_init__(self):
        for name, value in vars(self).items():
            if value < 1:
                raise ValueError(f"{name} must be at least 1, got {value}")


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
    matched, pairs, _ = align(e1, e2)
    return matched + sum(x == y for x, y in pairs)


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
    equally heavy ones; ``test_max_weight_matching_breaks_ties_as_scipy_does``
    pins that choice, so witnesses stay as they were.
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
# Anti-unification
# ---------------------------------------------------------------------------

def anti_unify(a, b, prefix: str, pairs: dict):
    """Anti-unification of two terms (Plotkin 1970, Reynolds 1970).

    Each distinct mismatched pair of subterms becomes one generalization
    variable named ``prefix`` plus an ordinal; ``pairs`` maps the
    ``(shape(left), shape(right))`` of every such pair to ``(variable,
    left, right)`` and may be shared between calls that must reuse
    variables.  Keys are flat, so no term is hashed or compared
    recursively, and the result is rebuilt bottom-up without recursion:
    terms of any depth are generalized.
    """
    done: list = []  # generalized parts, in order
    work: list = [(a, b, None)]  # (left, right, its part count once they are queued)
    while work:
        x, y, n = work.pop()
        if n is not None:
            parts = tuple(done[len(done) - n:])
            del done[len(done) - n:]
            done.append(Struct(x.functor, parts))
        elif isinstance(x, (Var, Num)) and x == y:
            done.append(x)
        elif (isinstance(x, Struct) and isinstance(y, Struct)
              and x.functor == y.functor and len(x.args) == len(y.args)):
            work.append((x, y, len(x.args)))
            work.extend((u, v, None) for u, v in zip(reversed(x.args), reversed(y.args)))
        else:
            key = shape(x), shape(y)
            if key not in pairs:
                pairs[key] = (Var(f"{prefix}{len(pairs) + 1}"), x, y)
            done.append(pairs[key][0])
    return done[0]


# ---------------------------------------------------------------------------
# Similarly structured subgoals
# ---------------------------------------------------------------------------

def predicate_multiset(goal: Goal) -> Counter:
    """Multiset of predicate symbols occurring in a goal."""
    return Counter(a.pred for a in goal.atoms)


def _similar_groups(q1: Goal, q2: Goal) -> list:
    """The maximal pair of similarly structured subgoals as atom indices:
    per predicate both goals call, in (name, arity) order, the indices of
    its first n atoms in q1 and in q2, where n is the smaller count."""
    groups: dict = {}
    for side, goal in enumerate((q1, q2)):
        for i, atom in enumerate(goal.atoms):
            groups.setdefault(atom.pred, ([], []))[side].append(i)
    shared = []
    for pred in sorted(groups):
        left, right = groups[pred]
        n = min(len(left), len(right))
        if n:
            shared.append((left[:n], right[:n]))
    return shared


def maximal_similar_subgoals(q1: Goal, q2: Goal):
    """The maximal pair of similarly structured subgoals; atoms are
    retained in source order.  Disjoint predicate sets yield two empty
    goals."""
    groups = _similar_groups(q1, q2)
    i1 = sorted(i for left, _ in groups for i in left)
    i2 = sorted(j for _, right in groups for j in right)
    return Goal(tuple(q1.atoms[i] for i in i1)), Goal(tuple(q2.atoms[j] for j in i2))


# ---------------------------------------------------------------------------
# Commonality (Definition 4) via branch-and-bound over renamings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GoalAlignment:
    """Witness for a commonality/similarity value: ``renaming`` maps
    variables of the first goal onto the second goal's variables, and
    ``atom_pairing`` pairs atom indices of the first goal with indices of
    the second."""

    renaming: tuple = ()  # sorted tuple[(from, to), ...]
    atom_pairing: tuple = ()  # tuple[(i1, i2), ...]
    value: int = 0
    approximate: bool = False

    def renamed_pairs(self, q1: Goal, q2: Goal) -> list:
        """(left atom, right atom) for each pair of ``atom_pairing``, the
        left atom renamed into the right goal's variables.  A left
        variable the renaming leaves out gets a trailing ``'``, which no
        parsed name has, so it never coincides with a right variable."""
        mapping = {x: x + "'" for x in var_names(q1)}
        mapping.update(self.renaming)
        return [(rename_vars(q1.atoms[i], mapping), q2.atoms[j])
                for i, j in self.atom_pairing]


def _group_optimum(weights) -> int:
    """Weight of a maximal same-predicate pairing of one group."""
    if len(weights) == 1:
        return weights[0][0]
    if len(weights) == 2:
        (a, b), (c, d) = weights
        return max(a + d, b + c)
    return sum(weights[r][c] for r, c in max_weight_matching(weights))


class _WeightRows:
    """The state of a directed commonality search: a partial renaming
    ``rho`` of q1's variables onto the images in ``used`` and, per group
    of ``_similar_groups``, the weights of pairing its a-th left atom with
    its b-th right one: their coinciding nodes plus the aligned variable
    pairs (x, y) that rho sends x to y or leaves x unbound.

    Scoring unbound variables optimistically makes ``total``, the weight
    of an optimal pairing, an admissible bound of every completion of rho;
    before any ``bind`` it is the root bound.  ``bind(x, y)`` takes off the
    pairs (x, y') with y' != y and solves again only the groups that
    changed; ``unbind`` undoes the latest binding from its undo record.

    The branch-and-bound reaches one weight table of a group under many
    renamings, so the optimum of a table of 3 to ``limits.exact_group``
    rows is kept for the life of the search, keyed by the table.  Larger
    tables occur only in the greedy search, over groups of up to
    thousands of atoms, and are solved each time rather than copied into
    a key.
    """

    def __init__(self, q1: Goal, q2: Goal, groups: list, limits: Limits = Limits()):
        self.groups = groups
        self._exact_group = limits.exact_group
        self._optima: dict = {}  # weight table, as a tuple of rows -> its optimum
        self.weights = []
        self.rho: dict = {}
        self.used: set = set()
        # x -> [(group, [(weight row, column, pairs of x, {y: pairs (x, y)})])]
        self._cells: dict = {}
        for g, (left, right) in enumerate(groups):
            weights = []
            by_var: dict = {}
            for i in left:
                weight_row = []
                for b, j in enumerate(right):
                    matched, pairs, _ = align(q1.atoms[i], q2.atoms[j])
                    weight_row.append(matched + len(pairs))
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
        self.optimum = [self._optimum(w) for w in self.weights]
        self.total = sum(self.optimum)
        self._undo: list = []

    def _optimum(self, weights) -> int:
        """``_group_optimum`` of a table, through the memo of the search
        when the table has 3 to ``exact_group`` rows."""
        if not 3 <= len(weights) <= self._exact_group:
            return _group_optimum(weights)
        key = tuple(map(tuple, weights))
        optimum = self._optima.get(key)
        if optimum is None:
            optimum = self._optima[key] = _group_optimum(weights)
        return optimum

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
                optimum = self._optimum(self.weights[g])
                self.total += optimum - self.optimum[g]
                self.optimum[g] = optimum
        self.rho[x] = y
        self.used.add(y)
        self._undo.append((x, y, changed, solved))

    def unbind(self) -> None:
        x, y, changed, solved = self._undo.pop()
        del self.rho[x]
        self.used.discard(y)
        for row, b, drop in changed:
            row[b] += drop
        for g, optimum in solved:
            self.total += optimum - self.optimum[g]
            self.optimum[g] = optimum

    def pairing(self) -> tuple:
        """An optimal pairing under the bindings in force, as sorted
        (index in q1, index in q2) pairs."""
        pairing = []
        for (left, right), weights in zip(self.groups, self.weights):
            if len(left) == 1:
                pairing.append((left[0], right[0]))
            else:
                pairing.extend((left[r], right[c]) for r, c in max_weight_matching(weights))
        return tuple(sorted(pairing))


def _directed_commonality(q1: Goal, q2: Goal, groups: list, v1: list, v2: list,
                          limits: Limits):
    """Max strict commonality over renamings of the sorted variables v1
    onto v2 and pairings within the same-predicate ``groups`` of q1 and
    q2, which hold equally many atoms.

    Variables are bound in sorted order, each to the images in sorted
    order, so the first optimum found is the witness.  Within the exact
    limits a branch-and-bound prunes on ``_WeightRows.total``; beyond
    them each variable greedily takes the first image with the best
    bound.  A binding never raises the bound, so an image that keeps it
    is the best and the greedy tries no further one.  A greedy result is
    approximate only below the root bound, which no renaming exceeds and
    which the transposed search from q2 shares.
    """
    base = sum(len(left) for left, _ in groups) - 1
    rows = _WeightRows(q1, q2, groups, limits)

    if not (len(v1) <= limits.exact_vars
            and max(len(left) for left, _ in groups) <= limits.exact_group):
        root = rows.total
        for x in v1:
            best_y, best_s = None, -1
            before = rows.total
            for y in v2:
                if y not in rows.used:
                    rows.bind(x, y)
                    if rows.total > best_s:
                        best_s, best_y = rows.total, y
                    rows.unbind()
                    if best_s == before:
                        break
            rows.bind(x, best_y)
        return GoalAlignment(tuple(sorted(rows.rho.items())), rows.pairing(),
                             base + rows.total, approximate=rows.total < root)

    value, renaming, pairing = _search(v1, v2, rows, base, (-1, None, None))
    return GoalAlignment(renaming, pairing, value)


def _search(v1: list, v2: list, rows: _WeightRows, base: int, best: tuple) -> tuple:
    """The branch-and-bound of ``_directed_commonality`` below the
    renaming ``rows.rho`` of v1's first variables: the first best
    completion as (value, renaming, pairing) if it beats ``best``, else
    ``best``; a completion is reached only when its bound beats ``best``.
    A binding never raises the bound, so once ``best`` reaches the bound
    on entry no further image of the next variable can beat it.
    The state is passed in, not closed over: a recursive closure holds
    itself through its cell, so each search would leave a reference cycle
    for the cyclic collector."""
    if len(rows.rho) == len(v1):
        return base + rows.total, tuple(sorted(rows.rho.items())), rows.pairing()
    bound = base + rows.total
    x = v1[len(rows.rho)]
    for y in v2:
        if y not in rows.used:
            rows.bind(x, y)
            if base + rows.total > best[0]:
                best = _search(v1, v2, rows, base, best)
            rows.unbind()
            if best[0] >= bound:
                break
    return best


def commonality(q1: Goal, q2: Goal, limits: Limits = Limits()) -> GoalAlignment:
    """Commonality C (Definition 4) of two similarly structured goals,
    with its witness; ``value`` is the figure.  Such goals are their own
    maximal similarly structured subgoals, so this is their
    ``goal_similarity``."""
    if predicate_multiset(q1) != predicate_multiset(q2):
        raise ValueError("commonality requires similarly structured goals")
    return goal_similarity(q1, q2, limits)


def goal_similarity(q1: Goal, q2: Goal, limits: Limits = Limits()) -> GoalAlignment:
    """Similarity sigma (Definition 5): commonality of the maximal pair of
    similarly structured subgoals, with its witness over the original
    goals' atom indices; 0 with an empty witness when that pair is
    empty.

    The renaming is searched from the side with fewer variables.  With
    equal counts an exact search runs from q1 only: a full renaming is
    then a bijection, so the search from q2 ranges over the inverse
    renamings and reaches the same value.  Beyond the exact-mode limits
    the result is a greedy lower bound, both directions are searched and
    the larger taken, and the witness is flagged approximate unless it
    reaches the root bound.  A search from q2 is turned around, so the
    witness maps q1 onto q2.
    """
    groups = _similar_groups(q1, q2)
    if not groups:
        return GoalAlignment()
    v1 = sorted(var_names(Goal(tuple(q1.atoms[i] for left, _ in groups for i in left))))
    v2 = sorted(var_names(Goal(tuple(q2.atoms[j] for _, right in groups for j in right))))
    fwd = None
    if len(v1) <= len(v2):
        fwd = _directed_commonality(q1, q2, groups, v1, v2, limits)
        if len(v1) < len(v2) or not fwd.approximate:
            return fwd
    rev = _directed_commonality(q2, q1, [(right, left) for left, right in groups], v2, v1, limits)
    if fwd is not None and rev.value <= fwd.value:
        return fwd
    return GoalAlignment(tuple(sorted((y, x) for x, y in rev.renaming)),
                         tuple(sorted((i, j) for j, i in rev.atom_pairing)),
                         rev.value, rev.approximate)
