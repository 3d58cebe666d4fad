"""Fingerprint abstraction: symbol-count prints for goals, clauses,
predicates and SCCs, their orders and greatest lower bounds, and the
print-based candidate pre-filter."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

from .depgraph import SCC, ClauseSegments, build_sccs, segment_clause
from .metrics import max_weight_matching
from .normalize import is_normal_atom
from .syntax import Clause, Goal, PredSymbol, Program, Struct


@dataclass(frozen=True)
class GoalPrint:
    """Finitely-supported symbol-count map; keys are (name, arity) pairs,
    zero counts are never stored."""

    items: tuple = ()  # sorted tuple[((name, arity), count), ...]

    def count(self, symbol) -> int:
        return dict(self.items).get(symbol, 0)

    @property
    def total(self) -> int:
        return sum(n for _, n in self.items)

    def leq(self, other: "GoalPrint") -> bool:
        theirs = dict(other.items)
        return all(n <= theirs.get(sym, 0) for sym, n in self.items)

    def glb(self, other: "GoalPrint") -> "GoalPrint":
        theirs = dict(other.items)
        kept = tuple((sym, min(n, theirs[sym]))
                     for sym, n in self.items
                     if sym in theirs and min(n, theirs[sym]) > 0)
        return GoalPrint(kept)

    def render(self) -> str:
        parts = [f"{name}/{arity}:{n}" for (name, arity), n in self.items]
        return "{" + ",".join(parts) + "}"


@dataclass(frozen=True)
class ClausePrint:
    prints: tuple  # tuple[GoalPrint, ...], one per non-recursive segment

    @property
    def total(self) -> int:
        return sum(p.total for p in self.prints)

    def leq(self, other: "ClausePrint") -> bool:
        return (len(self.prints) == len(other.prints)
                and all(a.leq(b) for a, b in zip(self.prints, other.prints)))

    def glb(self, other: "ClausePrint") -> Optional["ClausePrint"]:
        if len(self.prints) != len(other.prints):
            return None
        return ClausePrint(tuple(a.glb(b) for a, b in zip(self.prints, other.prints)))

    def render(self) -> str:
        return "<" + ",".join(p.render() for p in self.prints) + ">"


@dataclass(frozen=True)
class PredicatePrint:
    prints: tuple  # canonically sorted tuple[ClausePrint, ...] (a multiset)

    @property
    def total(self) -> int:
        return sum(p.total for p in self.prints)

    def render(self) -> str:
        return "{{" + ";".join(p.render() for p in self.prints) + "}}"


@dataclass(frozen=True)
class SCCPrint:
    prints: tuple  # canonically sorted tuple[PredicatePrint, ...] (a multiset)

    @cached_property
    def symbols(self) -> dict:
        """The sum of every goalprint in the print, per symbol."""
        counts: dict = {}
        for pp in self.prints:
            for cp in pp.prints:
                for gp in cp.prints:
                    for sym, n in gp.items:
                        counts[sym] = counts.get(sym, 0) + n
        return counts

    @property
    def total(self) -> int:
        return sum(self.symbols.values())

    def render(self) -> str:
        return "[" + "|".join(p.render() for p in self.prints) + "]"


# ---------------------------------------------------------------------------
# Print construction
# ---------------------------------------------------------------------------

def _count_functors(term, counts: dict):
    # numerals are counted as nodes elsewhere but carry no symbol here
    stack = [term]
    while stack:
        t = stack.pop()
        if isinstance(t, Struct):
            key = (t.functor, len(t.args))
            counts[key] = counts.get(key, 0) + 1
            stack.extend(t.args)


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
    counts: dict = {}
    for atom in goal.atoms:
        key = (atom.pred.name, atom.pred.arity)
        counts[key] = counts.get(key, 0) + 1
        for arg in atom.args:
            if isinstance(arg, Struct):
                _count_functors(arg, counts)
    return GoalPrint(tuple(sorted(counts.items())))


def clauseprint(clause: Clause, scc: SCC) -> ClausePrint:
    return _segments_print(segment_clause(clause, scc))


def _segments_print(seg: ClauseSegments) -> ClausePrint:
    return ClausePrint(tuple(_count_symbols(q) for q in seg.segments))


def _canonical_key(cp: ClausePrint):
    return (len(cp.prints), tuple(gp.items for gp in cp.prints))


def predicate_print(pred: PredSymbol, scc: SCC) -> PredicatePrint:
    cps = [_segments_print(seg) for seg in scc.segments_of(pred)]
    return PredicatePrint(tuple(sorted(cps, key=_canonical_key)))


def _pp_key(pp: PredicatePrint):
    return tuple(_canonical_key(cp) for cp in pp.prints)


def scc_print(scc: SCC) -> SCCPrint:
    pps = [predicate_print(p, scc) for p in scc.members]
    return SCCPrint(tuple(sorted(pps, key=_pp_key)))


# ---------------------------------------------------------------------------
# Orders and greatest lower bounds
# ---------------------------------------------------------------------------

def _glb_matching(lefts, rights, glb) -> Optional[list]:
    """Pair two print multisets of equal size so that the pairwise glbs
    keep the most symbols; the glbs in left order, or None when the best
    pairing needs a pair whose glb is None."""
    if len(lefts) != len(rights):
        return None
    glbs = [[glb(left, right) for right in rights] for left in lefts]
    matching = max_weight_matching([[-1 if g is None else g.total for g in row]
                                    for row in glbs])
    if matching is None:
        return None
    return [glbs[i][j] for i, j in matching]


def print_glb(a: PredicatePrint, b: PredicatePrint) -> Optional[PredicatePrint]:
    """Greatest lower bound of two predicate prints, pairing clauseprints
    of equal segment count so that the retained symbol total is maximal;
    None when no such bijection exists."""
    glbs = _glb_matching(a.prints, b.prints, ClausePrint.glb)
    if glbs is None:
        return None
    return PredicatePrint(tuple(sorted(glbs, key=_canonical_key)))


def scc_print_glb(a: SCCPrint, b: SCCPrint) -> Optional[SCCPrint]:
    glbs = _glb_matching(a.prints, b.prints, print_glb)
    if glbs is None:
        return None
    return SCCPrint(tuple(sorted(glbs, key=_pp_key)))


def fp_closeness(a: SCCPrint, b: SCCPrint) -> Optional[tuple]:
    """Print-level estimate of closeness: retained over total symbol
    counts on each side.  Two all-empty prints estimate (1,1), the value
    exact comparison would reach on two bodiless duplicates."""
    g = scc_print_glb(a, b)
    if g is None:
        return None
    return (_ratio(g.total, a.total), _ratio(g.total, b.total))


def _shared_symbols(a: SCCPrint, b: SCCPrint) -> int:
    """The per-symbol minimum of the two prints' symbol sums, summed: an
    upper bound of what ``fp_closeness(a, b)`` retains, since the glbs it
    keeps are disjoint sub-multisets of each side's symbols."""
    theirs = b.symbols
    return sum(min(n, theirs[sym]) for sym, n in a.symbols.items() if sym in theirs)


def _ratio(kept: int, total: int) -> Fraction:
    return Fraction(kept, total) if total else Fraction(1)


# ---------------------------------------------------------------------------
# Candidate pre-filter
# ---------------------------------------------------------------------------

def _shape_signature(scc: SCC):
    """Per-predicate multiset of clause segment counts, as a canonical
    sorted structure; equal signatures are necessary for a shared
    recursive structure."""
    per_pred = []
    for pred in scc.members:
        lengths = sorted(len(seg.segments) for seg in scc.segments_of(pred))
        per_pred.append((pred.arity, tuple(lengths)))
    return tuple(sorted(per_pred))


def candidate_pairs(program: Program, threshold=Fraction(1, 2)) -> tuple:
    """Cheap pre-filter over a whole program, taken as given (normalize
    it first for the paper's prints).

    Builds SCCs, buckets them by shape signature and emits pairs whose
    estimate's smaller component reaches the threshold, best first.  A
    pair whose ``_shared_symbols`` over either side's total is already
    below the threshold is skipped without computing the estimate; the
    bound is compared in integers, ``kept / total < num / den`` as
    ``kept * den < num * total``.

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
    prints = []
    for k, scc in enumerate(sccs):
        prints.append(scc_print(scc))
        buckets.setdefault(_shape_signature(scc), []).append(k)

    results = []
    for group in buckets.values():
        group = sorted(group, key=lambda k: sccs[k].name())
        for a in range(len(group)):
            for b in range(a + 1, len(group)):
                i, j = group[a], group[b]
                kept = _shared_symbols(prints[i], prints[j]) * den
                if kept < num * prints[i].total or kept < num * prints[j].total:
                    continue
                est = fp_closeness(prints[i], prints[j])
                if min(est) >= threshold:
                    results.append((sccs[i], sccs[j], est))
    results.sort(key=lambda t: (-min(t[2]), t[0].name(), t[1].name()))
    return tuple(results)
