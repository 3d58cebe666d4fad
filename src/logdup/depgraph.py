"""Predicate dependency graph, strongly connected components and clause
segmentation into non-recursive subgoals and recursive calls."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property

from .syntax import BUILTIN_PREDS, Atom, Clause, Goal, PredSymbol, Program, node_counts, shape


@dataclass(frozen=True)
class SCC:
    """A strongly connected component of the predicate dependency graph."""

    members: tuple  # sorted tuple[PredSymbol, ...]
    clauses: tuple  # tuple[Clause, ...], grouped per member in program order

    # Derived values are cached on the instance (outside the dataclass
    # fields, so equality, hashing and copies by field are unaffected).

    @cached_property
    def clause_indices(self) -> dict:
        """Each member's clause indices, in clause order; its keys are the
        members."""
        indices: dict = {p: [] for p in self.members}
        for i, c in enumerate(self.clauses):
            indices[c.head.pred].append(i)
        return {p: tuple(ix) for p, ix in indices.items()}

    @cached_property
    def segmented(self) -> tuple:
        """``segment_clause`` of each clause, in clause order."""
        return tuple(segment_clause(c, self) for c in self.clauses)

    def clauses_of(self, pred: PredSymbol) -> tuple:
        return tuple(self.clauses[i] for i in self.clause_indices[pred])

    def name(self) -> str:
        return "[" + ",".join(str(p) for p in self.members) + "]"


@dataclass(frozen=True)
class ClauseSegments:
    """Decomposition A0 <- Q1, A1, ..., Qk, Ak, Qk+1."""

    head: Atom
    segments: tuple  # tuple[Goal, ...], length k+1
    recursive_calls: tuple  # tuple[Atom, ...], length k

    # Derived values are cached on the instance, as on SCC.

    @cached_property
    def matched_nodes(self) -> int:
        """What a witness matches of the clause outside its segments: the
        neck, and the head and recursive calls in full."""
        return 1 + sum(sum(node_counts(a)) for a in (self.head,) + self.recursive_calls)

    @cached_property
    def segment_nodes(self) -> int:
        """The node total of the segments, variable occurrences included."""
        return sum(sum(node_counts(q)) for q in self.segments)

    @cached_property
    def repeated_preds(self) -> tuple:
        """Per segment, the set of predicates it calls more than once."""
        return tuple(frozenset(p for p, n in Counter(a.pred for a in q.atoms).items() if n > 1)
                     for q in self.segments)

    @cached_property
    def shapes(self) -> tuple:
        """``syntax.shape`` of each segment."""
        return tuple(map(shape, self.segments))


def build_sccs(program: Program) -> tuple:
    """Tarjan over the defined, non-excluded predicates.

    Edge q -> r exists iff some clause of q calls r and r is defined.
    Builtins are graph leaves.  Output is in the order Tarjan emits
    components (reverse topological), which is deterministic because
    nodes and successors are visited in name order.  The depth-first walk
    keeps one (node, iterator over its successors) entry per open node,
    so deep call chains cannot overflow the stack.
    """
    defined = sorted(p for p in program.predicates if p not in program.excluded)
    defined_set = set(defined)
    succs = {pred: sorted({atom.pred for clause in program.predicates[pred]
                           for atom in clause.body.atoms
                           if atom.pred in defined_set and atom.pred not in BUILTIN_PREDS})
             for pred in defined}

    index: dict = {}
    lowlink: dict = {}
    on_stack: set = set()
    stack: list = []
    sccs: list = []
    for root in defined:
        if root in index:
            continue
        work = [(root, iter(succs[root]))]
        while work:
            node, pending = work[-1]
            if node not in index:
                index[node] = lowlink[node] = len(index)
                stack.append(node)
                on_stack.add(node)
            for w in pending:
                if w not in index:
                    work.append((w, iter(succs[w])))
                    break
                if w in on_stack:
                    lowlink[node] = min(lowlink[node], index[w])
            else:
                work.pop()
                if lowlink[node] == index[node]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        comp.append(w)
                        if w == node:
                            break
                    members = tuple(sorted(comp))
                    sccs.append(SCC(members, tuple(c for pred in members
                                                   for c in program.predicates[pred])))
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
    return tuple(sccs)


def segment_clause(clause: Clause, scc: SCC) -> ClauseSegments:
    """Split the body at recursive calls, preserving atom order."""
    if clause.head.pred not in scc.clause_indices:
        raise ValueError(f"clause head {clause.head.pred} is not in {scc.name()}")
    segments = []
    calls = []
    current: list = []
    for atom in clause.body.atoms:
        if atom.pred in scc.clause_indices:
            segments.append(Goal(tuple(current)))
            current = []
            calls.append(atom)
        else:
            current.append(atom)
    segments.append(Goal(tuple(current)))
    return ClauseSegments(clause.head, tuple(segments), tuple(calls))


def scc_of(sccs, pred: PredSymbol) -> SCC:
    for scc in sccs:
        if pred in scc.clause_indices:
            return scc
    raise KeyError(str(pred))
