"""Rewrite clauses into the flat normal form used by the measures.

After normalization every body atom is a call ``p(X1,...,Xn)``, a
variable-variable unification ``X = Y`` or a single-level binding
``X = f(X1,...,Xn)``.  Heads carry pairwise-distinct fresh parameters.
Arithmetic builtins (``is``/comparisons) keep their compound arguments
nested, so their operator symbols stay inside one goalprint.
"""

from __future__ import annotations

import string
from itertools import chain, count

from .syntax import (
    ARITH_BUILTINS, EQ, Atom, Clause, Goal, Num, Program, Struct,
    Var, rename_vars, var_names,
)


def _fresh_names(candidates, used):
    """The candidates not in ``used``, each added to it when taken."""
    for name in candidates:
        if name not in used:
            used.add(name)
            yield name


class _Normalizer:
    def __init__(self, clause: Clause):
        used = set(var_names(clause))
        self.params = _fresh_names(
            chain(string.ascii_uppercase, (f"P{i}" for i in count(1))), used)
        self.temps = _fresh_names((f"V{i}" for i in count(1)), used)
        self.binder: dict = {}  # head variable name -> the head parameter it binds
        self.body: list = []

    def image(self, v: Var) -> Var:
        return self.binder.get(v.name, v)

    def flatten(self, lhs: Var, term):
        """Emit lhs = <one level of term>, then its subterms pre-order.

        A work item whose term is a variable or a numeral is emitted as
        one unification."""
        work = [(lhs, term)]
        while work:
            lhs, term = work.pop()
            if not isinstance(term, Struct):
                self.body.append(Atom(EQ, (lhs, term)))
                continue
            pending = []
            args = []
            local = {lhs.name}
            for a in term.args:
                if isinstance(a, Var):
                    img = self.image(a)
                    if img.name in local:
                        # keep variables distinct inside one unification
                        tv = Var(next(self.temps))
                        args.append(tv)
                        pending.append((tv, img))
                        local.add(tv.name)
                    else:
                        args.append(img)
                        local.add(img.name)
                else:
                    tv = Var(next(self.temps))
                    args.append(tv)
                    local.add(tv.name)
                    pending.append((tv, a))
            self.body.append(Atom(EQ, (lhs, Struct(term.functor, tuple(args)))))
            work.extend(reversed(pending))


def _eliminate_var_unifications(body: list, head_params: set) -> list:
    """Substitute away internal single-binding variables.

    ``X = Y`` atoms survive only when both sides are head parameters
    (matching the normal-form append listing) or when eliminating them
    would duplicate a variable inside another unification.  An ``X = X``
    atom is dropped.

    One walk over the body makes the choices of rescanning it after each
    elimination.  A kept ``X = Y`` of two head parameters stays so, since
    a head parameter is always the side kept.  A kept ``X = Y`` that
    another ``=`` atom holds both variables of is itself such an atom for
    any later ``X = Y`` on those two, so they never merge.  A rescan would
    thus only re-check atoms it kept before, and eliminations happen in
    body order.  The substitution (dropped name -> kept name) is applied
    to the surviving atoms once, at the end.

    The would-duplicate test reads an index from each kept name to the
    ``=`` atoms holding it or a name merged into it, built when first
    needed; an elimination merges the smaller set into the larger.  An
    atom eliminated or dropped holds one name from then on, so it never
    needs removing.
    """
    subst: dict = {}

    def current(name):
        root = name
        while root in subst:
            root = subst[root]
        while name != root:
            subst[name], name = root, subst[name]
        return root

    holders: dict = {}  # kept name -> indices of the `=` atoms holding it
    kept = []
    for idx, atom in enumerate(body):
        lhs, rhs = atom.args if atom.pred == EQ else (None, None)
        if not (isinstance(lhs, Var) and isinstance(rhs, Var)):
            kept.append(atom)
            continue
        lhs, rhs = current(lhs.name), current(rhs.name)
        if lhs == rhs:
            continue
        if lhs in head_params and rhs in head_params:
            kept.append(atom)
            continue
        keep, drop = (rhs, lhs) if rhs in head_params else (lhs, rhs)
        if not holders:  # built for the first test, before any elimination
            for k, other in enumerate(body):
                if other.pred == EQ:
                    for name in var_names(other):
                        holders.setdefault(name, set()).add(k)
        small, large = sorted((holders[keep], holders[drop]), key=len)
        if any(other != idx and other in large for other in small):
            kept.append(atom)
            continue
        large |= small
        holders[keep] = large
        del holders[drop]
        subst[drop] = keep
    if not subst:
        return kept
    mapping = {name: Var(current(name)) for name in subst}
    return [rename_vars(atom, mapping) for atom in kept]


def normalize_clause(clause: Clause) -> Clause:
    """Normalize one definite clause, deterministically.

    Head arguments are flattened left to right, compound arguments
    depth-first pre-order, and emitted unifications precede the call they
    feed.  Fresh parameters are named A, B, C, ...; flattening temporaries
    V1, V2, ...; names never affect any measure.
    """
    nz = _Normalizer(clause)
    new_head_args = [Var(next(nz.params)) for _ in clause.head.args]
    # a variable argument binds its first parameter, also where it first
    # occurs inside an earlier compound argument
    for arg, param in zip(clause.head.args, new_head_args):
        if isinstance(arg, Var):
            nz.binder.setdefault(arg.name, param)
    for arg, param in zip(clause.head.args, new_head_args):
        if not isinstance(arg, Var):
            nz.flatten(param, arg)
        elif nz.binder[arg.name] is not param:
            nz.body.append(Atom(EQ, (param, nz.binder[arg.name])))

    for atom in clause.body.atoms:
        pred = atom.pred
        if pred == EQ:
            lhs, rhs = atom.args
            if isinstance(lhs, Var) and isinstance(rhs, Var):
                nz.body.append(Atom(EQ, (nz.image(lhs), nz.image(rhs))))
            elif isinstance(lhs, Var):
                nz.flatten(nz.image(lhs), rhs)
            elif isinstance(rhs, Var):
                nz.flatten(nz.image(rhs), lhs)
            else:
                tv = Var(next(nz.temps))
                nz.flatten(tv, lhs)
                nz.flatten(tv, rhs)
        elif pred in ARITH_BUILTINS:
            nz.body.append(rename_vars(atom, nz.binder))
        else:
            call_args = []
            for a in atom.args:
                if isinstance(a, Var):
                    call_args.append(nz.image(a))
                else:
                    tv = Var(next(nz.temps))
                    nz.flatten(tv, a)
                    call_args.append(tv)
            nz.body.append(Atom(pred, tuple(call_args)))

    head_params = {v.name for v in new_head_args}
    body = _eliminate_var_unifications(nz.body, head_params)
    return Clause(Atom(clause.head.pred, tuple(new_head_args)), Goal(tuple(body)), clause.origin)


def normalize_program(program: Program) -> Program:
    """Normalize every clause; fresh numbering restarts per clause."""
    predicates = {
        pred: tuple(normalize_clause(c) for c in clauses)
        for pred, clauses in program.predicates.items()
    }
    return Program(predicates, program.warnings, program.excluded)


def is_normal_atom(atom: Atom) -> bool:
    """True when the atom matches one of the three normal shapes."""
    if atom.pred == EQ:
        lhs, rhs = atom.args
        if not isinstance(lhs, Var):
            return False
        if isinstance(rhs, (Var, Num)):
            return True
        # a binding's arguments are variables, distinct from each other and lhs
        names = [lhs.name] + [a.name for a in rhs.args if isinstance(a, Var)]
        return len(names) == len(rhs.args) + 1 == len(set(names))
    if atom.pred in ARITH_BUILTINS:
        return True
    return all(isinstance(a, Var) for a in atom.args)
