"""Reference implementations for property tests: an exhaustive
commonality computation, the most specific generalization, an enumerator
of every structure witness, a seeded generator of duplicated SCCs and the
goalprint glb check."""

from __future__ import annotations

import itertools
import random
import string

from .depgraph import SCC
from .fingerprint import goalprint
from .metrics import (
    Limits, anti_unify, goal_similarity, predicate_multiset, strict_commonality,
)
from .structure import ArgPermutation, _witness, _witness_combos
from .syntax import Atom, Clause, Goal, PredSymbol, Record, align, rename_vars, var_names

MAX_ORACLE_ATOMS = 5
MAX_ORACLE_VARS = 5


def enumerate_renamings(q1: Goal, q2: Goal):
    """All injective mappings vars(q1) -> vars(q2), lexicographic order."""
    v1 = sorted(var_names(q1))
    v2 = sorted(var_names(q2))
    if len(v1) > len(v2):
        raise ValueError("enumerate_renamings requires #vars(q1) <= #vars(q2)")
    for image in itertools.permutations(v2, len(v1)):
        yield dict(zip(v1, image))


def _directed_max(src: Goal, dst: Goal) -> int:
    """Maximum strict commonality over every injective renaming of src's
    variables into dst's and every permutation of dst's atoms."""
    best = 0
    for renaming in enumerate_renamings(src, dst):
        renamed = rename_vars(src, renaming)
        for perm in itertools.permutations(dst.atoms):
            value = strict_commonality(renamed, Goal(perm))
            if value > best:
                best = value
    return best


def brute_force_commonality(q1: Goal, q2: Goal) -> int:
    """Exhaustive evaluation of the commonality maximum.

    Enumerates every renaming and every atom permutation, so both inputs
    are capped at 5 atoms and 5 variables.
    """
    if predicate_multiset(q1) != predicate_multiset(q2):
        raise ValueError("goals are not similarly structured")
    v1, v2 = var_names(q1), var_names(q2)
    if min(len(q1.atoms), len(q2.atoms)) > MAX_ORACLE_ATOMS:
        raise ValueError("goal too large for exhaustive search")
    if max(len(v1), len(v2)) > MAX_ORACLE_VARS:
        raise ValueError("too many variables for exhaustive search")
    if len(v1) < len(v2):
        return _directed_max(q1, q2)
    if len(v2) < len(v1):
        return _directed_max(q2, q1)
    return max(_directed_max(q1, q2), _directed_max(q2, q1))


# ---------------------------------------------------------------------------
# Most specific generalization
# ---------------------------------------------------------------------------

class MsgResult(Record):
    __slots__ = _fields = ("generalization", "subst1", "subst2")

    def __init__(self, generalization, subst1: dict, subst2: dict):
        self.generalization = generalization
        self.subst1 = subst1  # generalization var name -> subterm of e1
        self.subst2 = subst2


def msg(e1, e2) -> MsgResult:
    """Anti-unify two terms, two atoms of equal predicate, or two goals of
    equal length atom by atom, whose predicates must agree position by
    position.  Repeated mismatch pairs reuse the same generalization
    variable, which makes the result unique up to renaming."""
    if isinstance(e1, Goal) != isinstance(e2, Goal):
        raise ValueError("cannot generalize a goal with a non-goal")
    if isinstance(e1, Atom) != isinstance(e2, Atom):
        raise ValueError("cannot generalize an atom with a non-atom")
    pairs: dict = {}
    if isinstance(e1, Goal):
        if len(e1.atoms) != len(e2.atoms):
            raise ValueError("msg requires positionally aligned goals")
        gen = Goal(tuple(_msg_atom(a, b, pairs) for a, b in zip(e1.atoms, e2.atoms)))
    elif isinstance(e1, Atom):
        gen = _msg_atom(e1, e2, pairs)
    else:
        gen = anti_unify(e1, e2, "_M", pairs)
    return MsgResult(gen, {v.name: a for v, a, _ in pairs.values()},
                     {v.name: b for v, _, b in pairs.values()})


def _msg_atom(a: Atom, b: Atom, pairs: dict) -> Atom:
    if a.pred != b.pred:
        raise ValueError("msg of atoms requires equal predicates")
    return Atom(a.pred, tuple(anti_unify(x, y, "_M", pairs) for x, y in zip(a.args, b.args)))


def shared_var_count(e1, e2) -> int:
    """Occurrences of identical variables at identical tree positions.

    Positions only align below matching functors, which is exactly the
    set of positions surviving in the msg.
    """
    if isinstance(e1, Goal) != isinstance(e2, Goal):
        raise ValueError("cannot compare a goal with a non-goal")
    if isinstance(e1, Goal) and len(e1.atoms) != len(e2.atoms):
        raise ValueError("shared_var_count requires equally long goals")
    return sum(x == y for x, y in align(e1, e2)[1])


# ---------------------------------------------------------------------------
# Witness enumeration
# ---------------------------------------------------------------------------

def find_structure_witnesses(s1: SCC, s2: SCC, limits: Limits = Limits()):
    """Enumerate Definition-8 witnesses in deterministic order: per live
    (predicate bijection, argument permutations) combination, every
    bijection of compatible clause pairs, in lexicographic order.  An
    empty sequence means the SCCs do not share a recursive structure.
    The combinations examined are those ``closeness`` examines under the
    same limits."""
    for pred_map, perms, groups, rhos in itertools.islice(
            _witness_combos(s1, s2, limits), limits.witness_cap):
        if rhos is None:
            continue
        options = [[(i, j, rhos[i, j]) for j in right if (i, j) in rhos]
                   for left, right in groups for i in left]
        for mapping in itertools.product(*options):
            if len({j for _, j, _ in mapping}) == len(mapping):
                yield _witness(s1, pred_map, perms, sorted(mapping, key=lambda m: m[0]))


# ---------------------------------------------------------------------------
# Duplicate generation
# ---------------------------------------------------------------------------

def _fresh_names(members, rng: random.Random) -> dict:
    used = {q.name for q in members}
    mapping = {}
    for q in members:
        while True:
            suffix = "".join(rng.choice(string.ascii_lowercase) for _ in range(4))
            name = f"{q.name}_{suffix}"
            if name not in used:
                used.add(name)
                break
        mapping[q] = PredSymbol(name, q.arity)
    return mapping


def _rename_clause_vars(clause: Clause, rng: random.Random):
    names = var_names(clause)
    fresh = [f"MV{i + 1}" for i in range(len(names))]
    rng.shuffle(fresh)
    mapping = dict(zip(names, fresh))
    return rename_vars(clause, mapping), mapping


def mutate_duplicate(scc: SCC, seed: int) -> tuple:
    """Produce a duplicate of an SCC: fresh predicate names, one argument
    permutation per predicate applied at every member call site, a
    consistent variable renaming per clause, atom shuffles confined to
    single segments and a clause shuffle per predicate.  Deterministic in
    the seed; returns (new SCC, log of applied steps)."""
    rng = random.Random(seed)
    log = []

    pred_map = _fresh_names(scc.members, rng)
    for q in scc.members:
        log.append(f"rename {q} -> {pred_map[q]}")

    perms = {}
    for q in scc.members:
        order = list(range(1, q.arity + 1))
        rng.shuffle(order)
        perms[q] = ArgPermutation(tuple(order))
        log.append(f"permute {q} args {perms[q].mapping}")

    def transform_atom(atom: Atom) -> Atom:
        if atom.pred in pred_map:
            return Atom(pred_map[atom.pred], perms[atom.pred].apply(atom.args))
        return atom

    new_clauses = {q: [] for q in scc.members}
    for q in scc.members:
        for k in scc.clause_indices[q]:
            clause, seg = scc.clauses[k], scc.segmented[k]
            body = []
            for i, segment in enumerate(seg.segments):
                atoms = list(segment.atoms)
                rng.shuffle(atoms)
                body.extend(atoms)
                if i < len(seg.recursive_calls):
                    body.append(transform_atom(seg.recursive_calls[i]))
            shuffled = Clause(transform_atom(clause.head), Goal(tuple(body)), clause.origin)
            renamed, var_map = _rename_clause_vars(shuffled, rng)
            log.append(f"clause of {q}: shuffle segments, rename vars {var_map}")
            new_clauses[q].append(renamed)
        rng.shuffle(new_clauses[q])
        log.append(f"shuffle clause order of {q}")

    members = sorted(pred_map.values())
    inverse = {v: k for k, v in pred_map.items()}
    clauses = []
    for member in members:
        clauses.extend(new_clauses[inverse[member]])
    return SCC(tuple(members), tuple(clauses)), tuple(log)


# ---------------------------------------------------------------------------
# Goalprint glb vs generalization check
# ---------------------------------------------------------------------------

def check_glb_conjecture(q1: Goal, q2: Goal) -> tuple | None:
    """Compare the pointwise glb of two goalprints against the print of
    the generalization of their best-aligned subgoals.

    Returns None when they agree and (glb print, generalization print)
    when they differ.  Disagreements are possible in principle, so the
    caller decides how to report them.
    """
    glb = goalprint(q1).glb(goalprint(q2))
    pairs = goal_similarity(q1, q2).renamed_pairs(q1, q2)
    gen = msg(Goal(tuple(la for la, _ in pairs)),
              Goal(tuple(ra for _, ra in pairs))).generalization
    gen_print = goalprint(gen)
    if glb == gen_print:
        return None
    return (glb, gen_print)
