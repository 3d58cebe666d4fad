"""Reference closeness, witness replay and report checking, written apart
from ``logdup.structure``.

Nothing here calls ``closeness``, ``scc_similarity``, ``validate_witness``
or scipy.  The SCC closeness enumerates predicate bijections and argument
permutations itself, maximizes over clause bijections exactly, and scores
segments with ``logdup.oracle.brute_force_commonality`` (or, for goals
beyond that oracle's 5-atom/5-variable caps, with the same exhaustive
enumeration written here).

Node counting follows the README: functors, constants and numerals count
1, each variable occurrence counts 1 when it is matched, every
conjunction and every clause neck counts 1.  Two facts make the search
cheap without changing its result:

* a goal's commonality with any goal is at most its own size, so a
  clause pair scores at most ``min(self(i), self(j))`` and an SCC pair at
  most ``min(N1, N2)``; a goal's commonality with a variant of itself
  (same atoms up to variable renaming and order) reaches that bound;
* commonality does not change when one goal's variables are renamed or
  its atoms reordered, so values are cached per canonical goal pair.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction

from logdup.oracle import MAX_ORACLE_ATOMS, MAX_ORACLE_VARS, brute_force_commonality
from logdup.syntax import Goal, Num, Struct, Var

# Own exhaustive enumeration beyond the oracle's caps stops here: 8
# variables give 40320 renamings per atom alignment.
MAX_OWN_VARS = 8


# ---------------------------------------------------------------------------
# Sizes and positional commonality
# ---------------------------------------------------------------------------

def term_size(term) -> int:
    if isinstance(term, Struct):
        return 1 + sum(term_size(a) for a in term.args)
    return 1  # a variable occurrence or a numeral


def atom_size(atom) -> int:
    return 1 + sum(term_size(a) for a in atom.args)


def goal_size(goal: Goal) -> int:
    if not goal.atoms:
        return 0
    return len(goal.atoms) - 1 + sum(atom_size(a) for a in goal.atoms)


def _common(a, b, rho) -> int:
    """Positional shared nodes of ``a`` renamed by ``rho`` and ``b``."""
    if isinstance(a, Var):
        return 1 if isinstance(b, Var) and rho.get(a.name, a.name) == b.name else 0
    if isinstance(a, Num):
        return 1 if isinstance(b, Num) and a.value == b.value else 0
    if (isinstance(b, Struct) and a.functor == b.functor
            and len(a.args) == len(b.args)):
        return 1 + sum(_common(x, y, rho) for x, y in zip(a.args, b.args))
    return 0


def _atom_common(a, b, rho) -> int:
    if a.pred != b.pred:
        return 0
    return 1 + sum(_common(x, y, rho) for x, y in zip(a.args, b.args))


# ---------------------------------------------------------------------------
# Goals: variables, variants, similar subgoals, commonality
# ---------------------------------------------------------------------------

def _term_vars(term, out: dict):
    if isinstance(term, Var):
        out.setdefault(term.name, None)
    elif isinstance(term, Struct):
        for a in term.args:
            _term_vars(a, out)


def goal_vars(goal: Goal) -> list:
    out: dict = {}
    for atom in goal.atoms:
        for a in atom.args:
            _term_vars(a, out)
    return list(out)


def _rename(term, mapping: dict):
    if isinstance(term, Var):
        return Var(mapping.get(term.name, term.name))
    if isinstance(term, Struct):
        return Struct(term.functor, tuple(_rename(a, mapping) for a in term.args))
    return term


def _rename_atom(atom, mapping: dict):
    return type(atom)(atom.pred, tuple(_rename(a, mapping) for a in atom.args))


def canonical(goal: Goal) -> Goal:
    """The goal with its variables renamed by first occurrence."""
    mapping = {v: f"_C{i}" for i, v in enumerate(goal_vars(goal))}
    return Goal(tuple(_rename_atom(a, mapping) for a in goal.atoms))


def _match(a, b, fwd: dict, bwd: dict) -> bool:
    """Extend the variable bijection fwd/bwd so that a maps onto b."""
    if isinstance(a, Var):
        if not isinstance(b, Var):
            return False
        x, y = fwd.get(a.name), bwd.get(b.name)
        if x is None and y is None:
            fwd[a.name] = b.name
            bwd[b.name] = a.name
            return True
        return x == b.name and y == a.name
    if isinstance(a, Num):
        return isinstance(b, Num) and a.value == b.value
    return (isinstance(b, Struct) and a.functor == b.functor
            and len(a.args) == len(b.args)
            and all(_match(x, y, fwd, bwd) for x, y in zip(a.args, b.args)))


def match_atoms(pairs):
    """Variable bijection mapping each left atom of ``pairs`` onto its right
    atom, or None."""
    fwd: dict = {}
    bwd: dict = {}
    for a, b in pairs:
        if a.pred != b.pred or not all(_match(x, y, fwd, bwd)
                                       for x, y in zip(a.args, b.args)):
            return None
    return fwd


def is_variant(q1: Goal, q2: Goal) -> bool:
    """Same atoms up to one variable bijection and atom order."""
    if Counter(a.pred for a in q1.atoms) != Counter(a.pred for a in q2.atoms):
        return False

    def extend(k, used, fwd, bwd):
        if k == len(q1.atoms):
            return True
        a = q1.atoms[k]
        for j, b in enumerate(q2.atoms):
            if j in used or b.pred != a.pred:
                continue
            f, g = dict(fwd), dict(bwd)
            if all(_match(x, y, f, g) for x, y in zip(a.args, b.args)):
                if extend(k + 1, used | {j}, f, g):
                    return True
        return False

    return extend(0, frozenset(), {}, {})


def similar_subgoals(q1: Goal, q2: Goal):
    """Definition 5's maximal similarly structured subgoals: the shared
    predicate multiset, first occurrences kept in source order."""
    shared = Counter(a.pred for a in q1.atoms) & Counter(a.pred for a in q2.atoms)

    def pick(goal):
        left = Counter(shared)
        kept = []
        for atom in goal.atoms:
            if left[atom.pred] > 0:
                left[atom.pred] -= 1
                kept.append(atom)
        return Goal(tuple(kept))

    return pick(q1), pick(q2)


def _directed_enumeration(src: Goal, dst: Goal) -> int:
    """Max strict commonality over every injective renaming of src's
    variables into dst's and every same-predicate pairing of atoms."""
    src_vars, dst_vars = goal_vars(src), goal_vars(dst)
    groups: dict = {}
    for i, a in enumerate(src.atoms):
        groups.setdefault(a.pred, ([], []))[0].append(i)
    for j, b in enumerate(dst.atoms):
        groups.setdefault(b.pred, ([], []))[1].append(j)
    alignments = []
    for lefts, rights in groups.values():
        alignments.append([tuple(zip(lefts, perm))
                           for perm in itertools.permutations(rights)])
    pairings = [sum(combo, ()) for combo in itertools.product(*alignments)]
    base = len(src.atoms) - 1
    best = 0
    for image in itertools.permutations(dst_vars, len(src_vars)):
        rho = dict(zip(src_vars, image))
        for pairing in pairings:
            value = base + sum(_atom_common(src.atoms[i], dst.atoms[j], rho)
                               for i, j in pairing)
            best = max(best, value)
    return best


def exhaustive_commonality(q1: Goal, q2: Goal) -> int:
    """Commonality by the oracle's method without its caps: renamings run
    from the goal with fewer variables, both ways when the counts tie."""
    n1, n2 = len(goal_vars(q1)), len(goal_vars(q2))
    if min(n1, n2) > MAX_OWN_VARS:
        raise ValueError(f"goal pair too large for exhaustive search: {q1} / {q2}")
    if n1 < n2:
        return _directed_enumeration(q1, q2)
    if n2 < n1:
        return _directed_enumeration(q2, q1)
    return max(_directed_enumeration(q1, q2), _directed_enumeration(q2, q1))


def commonality(q1: Goal, q2: Goal) -> int:
    """Exhaustive commonality of two similarly structured goals."""
    if (min(len(q1.atoms), len(q2.atoms)) <= MAX_ORACLE_ATOMS
            and max(len(goal_vars(q1)), len(goal_vars(q2))) <= MAX_ORACLE_VARS):
        return brute_force_commonality(q1, q2)
    return exhaustive_commonality(q1, q2)


# ---------------------------------------------------------------------------
# Clauses and SCCs
# ---------------------------------------------------------------------------

def split_clause(clause, members) -> tuple:
    """(segments, recursive calls) of a clause: the body cut at every call
    of a member of the SCC."""
    segments, calls, current = [], [], []
    for atom in clause.body.atoms:
        if atom.pred in members:
            segments.append(Goal(tuple(current)))
            current = []
            calls.append(atom)
        else:
            current.append(atom)
    segments.append(Goal(tuple(current)))
    return tuple(segments), tuple(calls)


def permute(args: tuple, mapping) -> tuple:
    """Argument i (1-based) moves to position mapping[i-1], the convention
    of the report's ``arg_permutations``."""
    out = [None] * len(args)
    for i, arg in enumerate(args):
        out[mapping[i] - 1] = arg
    return tuple(out)


def matched_size(clause, calls) -> int:
    """The neck, and the head and recursive calls matched in full."""
    return 1 + atom_size(clause.head) + sum(atom_size(a) for a in calls)


def clause_self(clause, members) -> int:
    """A clause's score against itself: the matched part and its segments
    in full."""
    segments, calls = split_clause(clause, members)
    return matched_size(clause, calls) + sum(goal_size(q) for q in segments)


def self_similarity(scc) -> int:
    """N of an SCC.  The identity witness matches every node, and no
    witness can match more, so this is the maximum of sigma(s, s)."""
    members = frozenset(scc.members)
    return sum(clause_self(c, members) for c in scc.clauses)


def _assign(n: int, weight):
    """Maximum-weight perfect assignment of rows 0..n-1 to columns 0..n-1,
    exact, by dynamic programming over the sets of columns used;
    ``weight(i, j)`` is None for a forbidden pair and otherwise a tuple,
    compared lexicographically.  Returns (total, [column of each row]) or
    None when no perfect assignment exists."""
    layers = [{0: (None, None, None)}]
    for i in range(n):
        layer: dict = {}
        for mask, (total, _, _) in layers[-1].items():
            for j in range(n):
                if mask >> j & 1:
                    continue
                w = weight(i, j)
                if w is None:
                    continue
                value = w if total is None else _add(total, w)
                key = mask | 1 << j
                if key not in layer or value > layer[key][0]:
                    layer[key] = (value, mask, j)
        layers.append(layer)
    mask = (1 << n) - 1
    if n == 0 or mask not in layers[-1]:
        return None
    total = layers[-1][mask][0]
    columns = [0] * n
    for i in range(n, 0, -1):
        _, prev, j = layers[i][mask]
        columns[i - 1] = j
        mask = prev
    return total, columns


def _add(a, b):
    return tuple(x + y for x, y in zip(a, b))


class Reference:
    """Exhaustive closeness with caches shared across SCC pairs."""

    def __init__(self):
        self._commonality: dict = {}

    # -- goals ---------------------------------------------------------------

    def goal_similarity(self, q1: Goal, q2: Goal) -> int:
        s1, s2 = similar_subgoals(q1, q2)
        if not s1.atoms:
            return 0
        key = (canonical(s1), canonical(s2))
        value = self._commonality.get(key)
        if value is None:
            value = goal_size(s1) if is_variant(s1, s2) else commonality(s1, s2)
            self._commonality[key] = value
        return value

    def goal_bound(self, q1: Goal, q2: Goal) -> tuple:
        """(upper bound, similarity or None): the similarity is given when
        it needs no search, for variants, empty or already computed pairs."""
        s1, s2 = similar_subgoals(q1, q2)
        if not s1.atoms:
            return 0, 0
        if is_variant(s1, s2):
            return goal_size(s1), goal_size(s1)
        known = self._commonality.get((canonical(s1), canonical(s2)))
        return min(goal_size(s1), goal_size(s2)), known

    # -- clause pairs ----------------------------------------------------------

    def clause_renaming(self, left, right, m1, m2, pred_map, perms):
        """The renaming that maps the head and recursive calls of ``left``,
        under pred_map and perms, onto those of ``right``; None when the
        clauses do not share the recursive structure."""
        _, lcalls = split_clause(left, m1)
        _, rcalls = split_clause(right, m2)
        if len(lcalls) != len(rcalls):
            return None
        pairs = []
        for la, ra in zip((left.head,) + lcalls, (right.head,) + rcalls):
            if pred_map[la.pred] != ra.pred:
                return None
            pairs.append((type(la)(ra.pred, permute(la.args, perms[la.pred])), ra))
        return match_atoms(pairs)

    def clause_score(self, left, right, m1, m2) -> int:
        """Score of a clause pair whose heads and recursive calls match: the
        matched part and each segment pair's similarity."""
        lsegs, _ = split_clause(left, m1)
        rsegs, rcalls = split_clause(right, m2)
        return matched_size(right, rcalls) + sum(
            self.goal_similarity(a, b) for a, b in zip(lsegs, rsegs))

    def clause_bound(self, left, right, m1, m2) -> list:
        """[upper bound, score or None] of a clause pair whose heads and
        recursive calls match."""
        lsegs, _ = split_clause(left, m1)
        rsegs, rcalls = split_clause(right, m2)
        bounds = [self.goal_bound(a, b) for a, b in zip(lsegs, rsegs)]
        fixed = matched_size(right, rcalls)
        known = [value for _, value in bounds]
        return [fixed + sum(bound for bound, _ in bounds),
                None if None in known else fixed + sum(known)]

    # -- SCC pairs -------------------------------------------------------------

    @staticmethod
    def pred_bijections(s1, s2):
        """Every bijection of members that keeps arity and clause count."""
        if len(s1.members) != len(s2.members):
            return
        for image in itertools.permutations(s2.members):
            pairs = tuple(zip(s1.members, image))
            if all(p.arity == q.arity and len(s1.clauses_of(p)) == len(s2.clauses_of(q))
                   for p, q in pairs):
                yield dict(pairs)

    def sigma(self, s1, s2, floor=None):
        """Maximum sigma over all structure witnesses, or None when there
        is none.  With ``floor``, returns None as soon as the upper bound
        shows sigma stays below it."""
        m1, m2 = frozenset(s1.members), frozenset(s2.members)
        ceiling = min(self_similarity(s1), self_similarity(s2))
        best = None
        for pred_map in self.pred_bijections(s1, s2):
            spaces = [[(q, perm) for perm in itertools.permutations(range(1, q.arity + 1))]
                      for q in s1.members]
            for combo in itertools.product(*spaces):
                perms = dict(combo)
                groups = []
                for q in s1.members:
                    lefts, rights = s1.clauses_of(q), s2.clauses_of(pred_map[q])
                    table = [[None if self.clause_renaming(l, r, m1, m2, pred_map, perms) is None
                              else self.clause_bound(l, r, m1, m2)
                              for r in rights] for l in lefts]
                    groups.append((lefts, rights, table))
                bound = self._combo_total(groups, m1, m2, exact=False)
                if bound is None:
                    continue
                if (best is not None and bound <= best) or (floor is not None and bound < floor):
                    continue
                total = self._combo_total(groups, m1, m2, exact=True)
                if best is None or total > best:
                    best = total
                    if best == ceiling:
                        return best
        if floor is not None and best is not None and best < floor:
            return None
        return best

    def _combo_total(self, groups, m1, m2, exact):
        total = 0
        for lefts, rights, table in groups:
            if exact:
                value = self._exact_assignment(lefts, rights, table, m1, m2)
            else:
                found = _assign(len(lefts),
                                lambda i, j: None if table[i][j] is None else (table[i][j][0],))
                value = None if found is None else found[0][0]
            if value is None:
                return None
            total += value
        return total

    def _exact_assignment(self, lefts, rights, table, m1, m2):
        """Best clause bijection with exact scores, computing an exact
        score only where the optimum under the bounds still uses it."""
        while True:
            def weight(i, j):
                cell = table[i][j]
                if cell is None:
                    return None
                return (cell[0], 0) if cell[1] is None else (cell[1], 1)

            found = _assign(len(lefts), weight)
            if found is None:
                return None
            (value, _), columns = found
            pending = [(i, j) for i, j in enumerate(columns) if table[i][j][1] is None]
            if not pending:
                return value
            for i, j in pending:
                table[i][j][1] = self.clause_score(lefts[i], rights[j], m1, m2)

    def closeness(self, s1, s2):
        """(sigma, N1, N2) or None when no structure witness exists."""
        total = self.sigma(s1, s2)
        if total is None:
            return None
        return total, self_similarity(s1), self_similarity(s2)

    # -- witness replay ----------------------------------------------------------

    def replay(self, s1, s2, witness: dict):
        """Re-apply a report's witness to s1 and score the result.

        Checks that the clause mapping is a bijection, that it induces an
        arity-keeping bijection of members, that every argument
        permutation is one, and that each mapped clause's head and
        recursive calls, permuted and renamed, are exactly those of its
        partner.  Returns the sigma the witness reaches, or None when any
        check fails."""
        m1, m2 = frozenset(s1.members), frozenset(s2.members)
        pairs = [tuple(p) for p in witness.get("clause_mapping", ())]
        renamings = witness.get("renamings", ())
        if (len(renamings) != len(pairs)
                or sorted(i for i, _ in pairs) != list(range(len(s1.clauses)))
                or sorted(j for _, j in pairs) != list(range(len(s2.clauses)))):
            return None
        perms = {}
        names = {str(q): q for q in s1.members}
        raw = witness.get("arg_permutations", {})
        if set(raw) != set(names):
            return None
        for name, mapping in raw.items():
            q = names[name]
            if sorted(mapping) != list(range(1, q.arity + 1)):
                return None
            perms[q] = tuple(mapping)
        pred_map: dict = {}
        for i, j in pairs:
            p, q = s1.clauses[i].head.pred, s2.clauses[j].head.pred
            if pred_map.setdefault(p, q) != q or p.arity != q.arity:
                return None
        if sorted(map(str, pred_map.values())) != sorted(map(str, s2.members)):
            return None
        total = 0
        for (i, j), rho in zip(pairs, renamings):
            left, right = s1.clauses[i], s2.clauses[j]
            if len(set(rho.values())) != len(rho):
                return None
            _, lcalls = split_clause(left, m1)
            _, rcalls = split_clause(right, m2)
            if len(lcalls) != len(rcalls):
                return None
            for la, ra in zip((left.head,) + lcalls, (right.head,) + rcalls):
                if la.pred not in pred_map or pred_map[la.pred] != ra.pred:
                    return None
                found: dict = {}
                for a in la.args:
                    _term_vars(a, found)
                if not set(found) <= set(rho):
                    return None
                image = type(la)(ra.pred, tuple(_rename(a, rho)
                                                for a in permute(la.args, perms[la.pred])))
                if image != ra:
                    return None
            total += self.clause_score(left, right, m1, m2)
        return total


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def scc_key(scc) -> tuple:
    return tuple(str(p) for p in scc.members)


def pair_key(a: tuple, b: tuple) -> frozenset:
    return frozenset((tuple(a), tuple(b)))


def check_report(report, sccs: dict, expected: dict, reference: Reference):
    """Count the operations of one report.

    ``sccs`` maps an SCC key (member names) to the SCC; ``expected`` maps
    a pair key to its reference (sigma, {scc key: N}).  An operation is a
    pair that is expected or reported.  It fails when it is missing, not
    expected, flagged approximate, when its sigma, closeness or either
    denominator differs from the reference, or when its witness does not
    replay to its sigma.  ``report`` None (a failed run) fails every
    expected pair.  Returns (attempted, failures) where failures maps
    each failed pair key to a reason."""
    if report is None:
        return len(expected), {key: "run failed" for key in expected}
    failures = {}
    seen = set()
    for index, entry in enumerate(report.get("pairs", ())):
        try:
            left = tuple(entry["left"]["predicates"])
            right = tuple(entry["right"]["predicates"])
        except (KeyError, TypeError):
            key = pair_key(("malformed entry",), (str(index),))
            seen.add(key)
            failures[key] = "malformed entry"
            continue
        key = pair_key(left, right)
        if key in seen:
            failures[key] = "reported twice"
            continue
        seen.add(key)
        try:
            reason = _check_entry(entry, left, right, key, sccs, expected, reference)
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            reason = f"malformed entry: {exc!r}"
        if reason:
            failures[key] = reason
    for key in expected:
        if key not in seen:
            failures[key] = "missing"
    return len(seen | set(expected)), failures


def _check_entry(entry, left, right, key, sccs, expected, reference):
    if key not in expected:
        return "not expected"
    sigma, denominators = expected[key]
    if entry.get("approximate") is not False:
        return "approximate"
    if entry.get("sigma") != sigma:
        return f"sigma {entry.get('sigma')} != {sigma}"
    want = [denominators[left], denominators[right]]
    if entry.get("denominators") != want:
        return f"denominators {entry.get('denominators')} != {want}"
    if entry.get("closeness") != [float(Fraction(sigma, n)) for n in want]:
        return f"closeness {entry.get('closeness')} != sigma / denominators"
    if reference.replay(sccs[left], sccs[right], entry.get("witness", {})) != sigma:
        return "witness does not replay"
    return None
