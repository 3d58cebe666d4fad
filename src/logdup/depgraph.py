"""Predicate dependency graph, strongly connected components and clause
segmentation into non-recursive subgoals and recursive calls."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .syntax import Atom, Clause, Goal, PredSymbol, Program, is_builtin


@dataclass(frozen=True)
class SCC:
    """A strongly connected component of the predicate dependency graph."""

    members: tuple  # sorted tuple[PredSymbol, ...]
    clauses: tuple  # tuple[Clause, ...], grouped per member in program order

    # Derived values are cached on the instance (outside the dataclass
    # fields, so equality, hashing and copies by field are unaffected).

    @cached_property
    def member_set(self) -> frozenset:
        return frozenset(self.members)

    @cached_property
    def segmented(self) -> tuple:
        """``segment_clause`` of each clause, in clause order."""
        return tuple(segment_clause(c, self) for c in self.clauses)

    def clauses_of(self, pred: PredSymbol) -> tuple:
        return tuple(c for c in self.clauses if c.head.pred == pred)

    def segments_of(self, pred: PredSymbol) -> tuple:
        return tuple(seg for seg in self.segmented if seg.head.pred == pred)

    def name(self) -> str:
        return "[" + ",".join(str(p) for p in self.members) + "]"


@dataclass(frozen=True)
class ClauseSegments:
    """Decomposition A0 <- Q1, A1, ..., Qk, Ak, Qk+1."""

    head: Atom
    segments: tuple  # tuple[Goal, ...], length k+1
    recursive_calls: tuple  # tuple[Atom, ...], length k

    def reconstruct(self) -> tuple:
        atoms = []
        for i, seg in enumerate(self.segments):
            atoms.extend(seg.atoms)
            if i < len(self.recursive_calls):
                atoms.append(self.recursive_calls[i])
        return tuple(atoms)


def _pred_sort_key(pred: PredSymbol):
    return (pred.name, pred.arity)


def build_sccs(program: Program) -> tuple:
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
                if atom.pred in defined_set and not is_builtin(atom.pred):
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


def segment_clause(clause: Clause, scc: SCC) -> ClauseSegments:
    """Split the body at recursive calls, preserving atom order."""
    if clause.head.pred not in scc.member_set:
        raise ValueError(f"clause head {clause.head.pred} is not in {scc.name()}")
    segments = []
    calls = []
    current: list = []
    for atom in clause.body.atoms:
        if atom.pred in scc.member_set:
            segments.append(Goal(tuple(current)))
            current = []
            calls.append(atom)
        else:
            current.append(atom)
    segments.append(Goal(tuple(current)))
    return ClauseSegments(clause.head, tuple(segments), tuple(calls))


def scc_of(sccs, pred: PredSymbol) -> SCC:
    for scc in sccs:
        if pred in scc.member_set:
            return scc
    raise KeyError(str(pred))
