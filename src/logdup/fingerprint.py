"""Fingerprint abstraction: symbol-count prints for goals, clauses,
predicates and SCCs, their greatest lower bounds, and the print-based
candidate pre-filter.

A print's total adds up level by level: an SCC print's is the sum of its
predicate prints', down to the goalprints' symbol counts.  No print keeps
per-symbol sums; the pre-filter's one walk holds the only ones.

The pre-filter runs the cheap parts of a fingerprint first.  One walk
over each SCC's clauses gives its bucket signature and its symbol sums;
within a bucket, sorted by symbol total, a pair whose totals are too far
apart, or whose shared symbols fall below the threshold, is dropped on
those sums alone.  Only the pairs that pass get prints, each SCC's built
once, and a print-level estimate."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .depgraph import SCC, build_sccs
from .metrics import max_weight_matching
from .normalize import is_normal_atom
from .syntax import Goal, PredSymbol, Program, Struct


@dataclass(frozen=True)
class GoalPrint:
    """Finitely-supported symbol-count map; keys are (name, arity) pairs,
    zero counts are never stored."""

    items: tuple = ()  # sorted tuple[((name, arity), count), ...]

    @property
    def total(self) -> int:
        return sum(n for _, n in self.items)

    def glb(self, other: "GoalPrint") -> "GoalPrint":
        theirs = dict(other.items)
        kept = tuple((sym, min(n, theirs[sym]))
                     for sym, n in self.items
                     if sym in theirs and min(n, theirs[sym]) > 0)
        return GoalPrint(kept)


@dataclass(frozen=True)
class ClausePrint:
    prints: tuple  # tuple[GoalPrint, ...], one per non-recursive segment

    @property
    def total(self) -> int:
        return sum(p.total for p in self.prints)

    def glb(self, other: "ClausePrint") -> Optional["ClausePrint"]:
        if len(self.prints) != len(other.prints):
            return None
        return ClausePrint(tuple(a.glb(b) for a, b in zip(self.prints, other.prints)))


@dataclass(frozen=True)
class PredicatePrint:
    prints: tuple  # canonically sorted tuple[ClausePrint, ...] (a multiset)

    @property
    def total(self) -> int:
        return sum(p.total for p in self.prints)


@dataclass(frozen=True)
class SCCPrint:
    prints: tuple  # canonically sorted tuple[PredicatePrint, ...] (a multiset)

    @property
    def total(self) -> int:
        return sum(p.total for p in self.prints)


# ---------------------------------------------------------------------------
# Print construction
# ---------------------------------------------------------------------------

def goalprint(goal: Goal) -> GoalPrint:
    """Symbol counts of a normal-form goal.

    A call adds one to its predicate symbol plus every functor nested in
    its arguments (arithmetic builtins keep compound arguments).  A
    unification adds one to '=' plus the functors on either side, so a
    bare X = Y contributes the '=' alone.
    """
    for atom in goal.atoms:
        if not is_normal_atom(atom):
            raise ValueError(f"atom is not in normal form: {atom}")
    return _count_symbols(goal)


def _count_symbols(goal: Goal) -> GoalPrint:
    """``goalprint``'s counting rule, for any goal: clauses compared
    without normalization keep compound call arguments."""
    return GoalPrint(tuple(sorted(_add_symbols(goal.atoms, {}).items())))


def _add_symbols(atoms, counts: dict) -> dict:
    """Add the symbols of ``atoms`` to ``counts``, by ``_count_symbols``'s
    rule, and return it."""
    stack = []
    for atom in atoms:
        # a symbol is its (name, arity) pair, as a functor's key is
        counts[atom.pred] = counts.get(atom.pred, 0) + 1
        stack.extend(atom.args)
    while stack:
        t = stack.pop()
        # numerals are counted as nodes elsewhere but carry no symbol here
        if isinstance(t, Struct):
            key = (t.functor, len(t.args))
            counts[key] = counts.get(key, 0) + 1
            stack.extend(t.args)
    return counts


def _canonical_key(cp: ClausePrint):
    return (len(cp.prints), tuple(gp.items for gp in cp.prints))


def predicate_print(pred: PredSymbol, scc: SCC) -> PredicatePrint:
    cps = [ClausePrint(tuple(_count_symbols(q) for q in scc.segmented[i].segments))
           for i in scc.clause_indices[pred]]
    return PredicatePrint(tuple(sorted(cps, key=_canonical_key)))


def _pp_key(pp: PredicatePrint):
    return tuple(_canonical_key(cp) for cp in pp.prints)


def scc_print(scc: SCC) -> SCCPrint:
    pps = [predicate_print(p, scc) for p in scc.members]
    return SCCPrint(tuple(sorted(pps, key=_pp_key)))


# ---------------------------------------------------------------------------
# Greatest lower bounds
# ---------------------------------------------------------------------------

def _glb_matching(a, b, glb, key):
    """Pair the members of two print multisets of equal size so that the
    pairwise glbs keep the most symbols: a print of ``a``'s type holding
    those glbs sorted by ``key``, or None when the sizes differ or the
    best pairing needs a pair whose glb is None."""
    if len(a.prints) != len(b.prints):
        return None
    glbs = [[glb(left, right) for right in b.prints] for left in a.prints]
    matching = max_weight_matching([[-1 if g is None else g.total for g in row]
                                    for row in glbs])
    if matching is None:
        return None
    return type(a)(tuple(sorted((glbs[i][j] for i, j in matching), key=key)))


def print_glb(a: PredicatePrint, b: PredicatePrint) -> Optional[PredicatePrint]:
    """Greatest lower bound of two predicate prints, pairing clauseprints
    of equal segment count so that the retained symbol total is maximal;
    None when no such bijection exists."""
    return _glb_matching(a, b, ClausePrint.glb, _canonical_key)


def scc_print_glb(a: SCCPrint, b: SCCPrint) -> Optional[SCCPrint]:
    # print_glb is looked up at each call, so a wrapper set on the module
    # global sees every predicate-level glb
    return _glb_matching(a, b, print_glb, _pp_key)


def fp_closeness(a: SCCPrint, b: SCCPrint) -> Optional[tuple]:
    """Print-level estimate of closeness: retained over total symbol
    counts on each side.  Two all-empty prints estimate (1,1), the value
    exact comparison would reach on two bodiless duplicates."""
    g = scc_print_glb(a, b)
    if g is None:
        return None
    return (_ratio(g.total, a.total), _ratio(g.total, b.total))


def _shared_symbols(ours: dict, theirs: dict) -> int:
    """The per-symbol minimum of two symbol sums, summed.  Of the sums of
    two prints' goalprints it bounds what ``fp_closeness`` retains from
    above, since the glbs it keeps are disjoint sub-multisets of each
    side's symbols."""
    return sum(min(n, theirs[sym]) for sym, n in ours.items() if sym in theirs)


def _ratio(kept: int, total: int) -> Fraction:
    return Fraction(kept, total) if total else Fraction(1)


# ---------------------------------------------------------------------------
# Candidate pre-filter
# ---------------------------------------------------------------------------

def _signature_and_symbols(scc: SCC) -> tuple:
    """One walk over the SCC's clauses: its bucket signature, and the
    per-symbol sums of its print's goalprints without building the print.

    The signature is each predicate's arity and multiset of clause segment
    counts, as a canonical sorted structure; equal signatures are
    necessary for a shared recursive structure.  A clause has one segment
    more than it has body atoms calling a member, and the other body atoms
    are exactly its segments' atoms, whose symbols the sums count."""
    members = scc.clause_indices
    lengths: dict = {p: [] for p in scc.members}
    counts: dict = {}
    for clause in scc.clauses:
        body = clause.body.atoms
        own = [atom for atom in body if atom.pred not in members]
        _add_symbols(own, counts)
        lengths[clause.head.pred].append(1 + len(body) - len(own))
    signature = tuple(sorted((p.arity, tuple(sorted(ns))) for p, ns in lengths.items()))
    return signature, counts


def candidate_pairs(program: Program, threshold) -> tuple:
    """Cheap pre-filter over a whole program, taken as given (normalize
    it first for the paper's prints).

    Builds SCCs, buckets them by signature and emits pairs whose
    estimate's smaller component reaches the threshold, best first.  An
    estimate keeps at most ``_shared_symbols`` of the two SCCs, which is
    at most the smaller total, and its smaller component is that over the
    larger total.  So in a bucket sorted by total, the pairs of one SCC
    with later ones stop at the first total out of reach, and a pair
    whose shared symbols are out of reach is skipped; both bounds are
    compared in integers, ``kept / total < num / den`` as
    ``kept * den < num * total``.  Only then are the two SCCs' prints
    built, each at most once per call, and estimated.

    Two SCCs of one bucket always have an estimate: a print glb is None
    only across segment counts, and a bucket's predicates and clauses
    can always be matched within equal counts, which a heaviest matching
    then does.
    """
    threshold = Fraction(threshold)
    num, den = threshold.numerator, threshold.denominator
    sccs = build_sccs(program)
    # SCCs are keyed by position: hashing one hashes every term in it
    buckets: dict = {}
    symbols = []
    for k, scc in enumerate(sccs):
        signature, counts = _signature_and_symbols(scc)
        symbols.append(counts)
        buckets.setdefault(signature, []).append((sum(counts.values()), k))

    prints: dict = {}
    results = []
    for group in buckets.values():
        group.sort()
        for a, (low, i) in enumerate(group):
            for high, j in group[a + 1:]:
                if low * den < num * high:
                    break
                if _shared_symbols(symbols[i], symbols[j]) * den < num * high:
                    continue
                pair = (i, j) if sccs[i].name() < sccs[j].name() else (j, i)
                for k in pair:
                    if k not in prints:
                        prints[k] = scc_print(sccs[k])
                est = fp_closeness(prints[pair[0]], prints[pair[1]])
                if min(est) >= threshold:
                    results.append((sccs[pair[0]], sccs[pair[1]], est))
    results.sort(key=lambda t: (-min(t[2]), t[0].name(), t[1].name()))
    return tuple(results)
