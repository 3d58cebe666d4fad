"""Immutable syntax model and parser for a definite-clause Prolog subset.

The accepted language is deliberately small: facts and rules built from
atoms, variables, integers/floats, compound terms, list sugar and the
operators ``:-``, ``,``, ``=``, ``is``, comparisons and arithmetic.
Clauses containing cut, negation, disjunction or if-then-else make the
whole owning predicate unusable for analysis; such predicates are skipped
with a warning rather than rejected.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from decimal import Decimal
from typing import Union


class PrologSyntaxError(Exception):
    """Raised on malformed input, with 1-based line/column information."""

    def __init__(self, message: str, line: int, column: int, filename: str = "<string>"):
        super().__init__(f"{filename}:{line}:{column}: {message}")
        self.message = message
        self.line = line
        self.column = column
        self.filename = filename


# ---------------------------------------------------------------------------
# Term model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Var:
    name: str

    def __repr__(self):
        return self.name


@dataclass(frozen=True)
class Num:
    """Numeric constant.  Counts as a leaf node but carries no symbol.
    An integer and a float are different constants, as ``1 = 1.0`` fails
    in Prolog, so equality and hashing tell them apart."""

    value: Union[int, float]

    def __eq__(self, other):
        return (isinstance(other, Num) and type(self.value) is type(other.value)
                and self.value == other.value)

    def __hash__(self):
        return hash((type(self.value), self.value))

    def __repr__(self):
        return str(self.value)


@dataclass(frozen=True)
class Struct:
    """Compound term; constants are 0-ary structs."""

    functor: str
    args: tuple = ()

    def __post_init__(self):
        if not self.functor:
            raise ValueError("functor names must be non-empty")

    def __repr__(self):
        return render_term(self)


@dataclass(frozen=True, order=True)
class PredSymbol:
    """A predicate name and arity; predicates sort by name, then arity."""

    name: str
    arity: int

    def __str__(self):
        return f"{self.name}/{self.arity}"

    def __repr__(self):
        return str(self)


@dataclass(frozen=True)
class Atom:
    pred: PredSymbol
    args: tuple = ()

    def __post_init__(self):
        if len(self.args) != self.pred.arity:
            raise ValueError(f"arity mismatch for {self.pred}: got {len(self.args)} args")

    def __repr__(self):
        return render_atom(self)


@dataclass(frozen=True)
class Goal:
    """Conjunction of atoms.  Source order is kept for rendering and
    normalization determinism; the measures treat it as a multiset."""

    atoms: tuple = ()

    def __len__(self):
        return len(self.atoms)

    def __repr__(self):
        return ", ".join(render_atom(a) for a in self.atoms) or "true"


EMPTY_GOAL = Goal(())


@dataclass(frozen=True)
class Clause:
    head: Atom
    body: Goal = EMPTY_GOAL
    origin: tuple = ("<string>", 0)

    def __repr__(self):
        return render_clause(self)


@dataclass
class Program:
    """Predicate-indexed clause store.  Treated as immutable once built."""

    predicates: dict = field(default_factory=dict)  # PredSymbol -> tuple[Clause, ...]
    warnings: tuple = ()
    excluded: frozenset = frozenset()


# Equality is the only non-arithmetic builtin the analysis knows about.
EQ = PredSymbol("=", 2)

# Arithmetic builtins keep their compound arguments un-flattened during
# normalization and are never dependency-graph nodes.
ARITH_BUILTINS = frozenset({
    ("is", 2), ("<", 2), (">", 2), ("=<", 2), (">=", 2), ("=:=", 2), ("=\\=", 2),
})

BUILTIN_PREDS = frozenset({("=", 2)}) | ARITH_BUILTINS


def is_builtin(pred: PredSymbol) -> bool:
    return (pred.name, pred.arity) in BUILTIN_PREDS


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

# One match per token: the layout and comments before it are skipped
# inside the match, and a '.' followed by layout, a comment or the end of
# the text is a clause end.  ``eof`` matches only after the last token and
# ``bad`` takes any other character, so the layout prefix never backtracks.
_TOKEN_RE = re.compile(
    r"""
    (?:\s|%[^\n]*)*
    (?:
      (?P<end>\.(?=\s|%|\Z))
    | (?P<num>\d+(?:\.\d+)?)
    | (?P<name>[a-z]\w*)
    | (?P<var>[_A-Z]\w*)
    | (?P<quoted>'(?:[^']|'')*')
    | (?P<punct>:-|=:=|=\\=|=<|>=|->|\\\+|[()\[\]|,;!=<>+\-*/.])
    | (?P<eof>\Z)
    | (?P<bad>\S)
    )
    """,
    re.X,
)


def _location(text: str, offset: int) -> tuple:
    """1-based (line, column) of a text offset."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _shown(tok) -> str:
    """A token as an error message quotes it.  A name that is not plain
    was written quoted and keeps its quotes: the atom ')' is not ')'."""
    value = tok[1]
    if tok[0] == "name" and not _PLAIN_NAME_RE.match(value):
        value = "'" + value.replace("'", "''") + "'"
    return repr(value)


def _tokenize(text: str, filename: str) -> list:
    """``[kind, value, offset]`` tokens, kind one of 'num', 'name', 'var',
    'punct' and 'end'; a quoted atom is a 'name' with its quotes removed.
    The last token is an 'eof' at the offset of the last one before it,
    where an unexpected end of input is reported.

    Tokens are lists, not tuples: CPython keeps up to 2,000 freed tuples
    of each length for reuse, so dropping a file's token tuples at once
    would leave that many holding memory for the rest of the run."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "quoted":
            tokens.append(["name", m.group(kind)[1:-1].replace("''", "'"), m.start(kind)])
        elif kind == "eof":
            tokens.append(["eof", "", tokens[-1][2] if tokens else 0])
            break
        elif kind == "bad":
            offset = m.start(kind)
            raise PrologSyntaxError(
                f"unexpected character {text[offset]!r}", *_location(text, offset), filename)
        else:
            tokens.append([kind, m.group(kind), m.start(kind)])
    return tokens


# ---------------------------------------------------------------------------
# Parser (precedence climbing over a fixed operator table)
# ---------------------------------------------------------------------------

# name -> (priority, type); the set is fixed, no operator directives.
_INFIX_OPS = {
    ":-": (1200, "xfx"),
    ";": (1100, "xfy"),
    "->": (1050, "xfy"),
    ",": (1000, "xfy"),
    "=": (700, "xfx"),
    "is": (700, "xfx"),
    "<": (700, "xfx"),
    ">": (700, "xfx"),
    "=<": (700, "xfx"),
    ">=": (700, "xfx"),
    "=:=": (700, "xfx"),
    "=\\=": (700, "xfx"),
    "+": (500, "yfx"),
    "-": (500, "yfx"),
    "*": (400, "yfx"),
    "/": (400, "yfx"),
}


class _Parser:
    def __init__(self, text: str, filename: str):
        self.text = text
        self.filename = filename
        self.tokens = _tokenize(text, filename)
        self.pos = 0
        self.fresh_counter = 0

    def _peek(self):
        return self.tokens[self.pos]

    def _next(self):
        tok = self.tokens[self.pos]
        if tok[0] == "eof":
            self._error("unexpected end of input", tok)
        self.pos += 1
        return tok

    def _expect(self, value: str, kind: str = "punct"):
        """Consume a token of this kind and value: a clause ends only at an
        'end', and a quoted atom such as ')' is never punctuation."""
        tok = self._next()
        if tok[0] != kind or tok[1] != value:
            found = _shown(tok)
            if kind == "end" and tok[:2] == ["punct", "."]:
                found = "'.' followed by more text"
            self._error(f"expected {value!r}, found {found}", tok)
        return tok

    def _error(self, msg: str, tok: list):
        raise PrologSyntaxError(msg, *_location(self.text, tok[2]), self.filename)

    def _fresh_var(self) -> Var:
        self.fresh_counter += 1
        return Var(f"_G{self.fresh_counter}")

    def parse_term(self, maxprec: int):
        left = self._primary()
        tokens = self.tokens
        while True:
            tok = tokens[self.pos]
            op = tok[1]
            # no 'end', 'num', 'var' or 'eof' value is an operator name
            entry = _INFIX_OPS.get(op)
            if entry is None or entry[0] > maxprec:
                break
            prec, optype = entry
            self.pos += 1
            # Each xfy operator is the only one of its priority, so a chain
            # of it is read in a loop, not one recursion per operand, and
            # nested from the right.
            operands = [left, self.parse_term(prec - 1)]
            while optype == "xfy" and tokens[self.pos][1] == op:
                self.pos += 1
                operands.append(self.parse_term(prec - 1))
            if op == ":-" and isinstance(left, Struct) and left.functor == ":-" and len(left.args) == 2:
                self._error("chained ':-'", tok)
            left = operands.pop()
            while operands:
                left = Struct(op, (operands.pop(), left))
        return left

    def _primary(self):
        tok = self._next()
        kind, value, _ = tok
        if kind == "name":
            nxt = self.tokens[self.pos]
            if nxt[1] == "(" and nxt[0] == "punct":
                self.pos += 1
                return Struct(value, tuple(self._arglist()))
            return Struct(value)
        if kind == "var":
            return self._fresh_var() if value == "_" else Var(value)
        if kind == "num":
            return Num(float(value) if "." in value else int(value))
        if kind == "punct":
            if value == "(":
                term = self.parse_term(1200)
                self._expect(")")
                return term
            if value == "[":
                return self._list()
            if value == "!":
                return Struct("!")
            if value == "\\+":
                arg = self.parse_term(900)
                return Struct("\\+", (arg,))
            if value == "-":
                nxt = self.tokens[self.pos]
                if nxt[0] == "num":
                    self.pos += 1
                    return Num(-(float(nxt[1]) if "." in nxt[1] else int(nxt[1])))
                arg = self.parse_term(200)
                return Struct("-", (arg,))
        self._error(f"unexpected token {value!r}", tok)

    def _arglist(self) -> list:
        args = [self.parse_term(999)]
        while True:
            tok = self._next()
            sep = tok[1] if tok[0] == "punct" else None
            if sep == ")":
                return args
            if sep != ",":
                self._error(f"expected ',' or ')', found {_shown(tok)}", tok)
            args.append(self.parse_term(999))

    def _list(self):
        if self.tokens[self.pos][:2] == ["punct", "]"]:
            self.pos += 1
            return Struct("[]")
        elems = [self.parse_term(999)]
        tail = Struct("[]")
        while True:
            tok = self._next()
            sep = tok[1] if tok[0] == "punct" else None
            if sep == "]":
                break
            if sep == "|":
                tail = self.parse_term(999)
                self._expect("]")
                break
            if sep != ",":
                self._error(f"expected ',', '|' or ']', found {_shown(tok)}", tok)
            elems.append(self.parse_term(999))
        result = tail
        for e in reversed(elems):
            result = Struct(".", (e, result))
        return result


# ---------------------------------------------------------------------------
# Program construction
# ---------------------------------------------------------------------------

_NON_DEFINITE = {";": "';'", "->": "'->'", "\\+": "'\\+'", "!": "'!'"}


def _flatten_conj(term) -> list:
    """The conjuncts of a ','-tree, left to right."""
    conjuncts = []
    stack = [term]
    while stack:
        t = stack.pop()
        if isinstance(t, Struct) and t.functor == "," and len(t.args) == 2:
            stack.extend(reversed(t.args))
        else:
            conjuncts.append(t)
    return conjuncts


def _term_to_atom(term) -> Atom:
    if isinstance(term, Struct):
        return Atom(PredSymbol(term.functor, len(term.args)), term.args)
    raise ValueError(f"not a callable term: {term!r}")


def parse_term(text: str, filename: str = "<string>"):
    """Parse a single term (no trailing '.')."""
    parser = _Parser(text, filename)
    term = parser.parse_term(1200)
    tok = parser._peek()
    if tok[0] != "eof":
        parser._error(f"trailing input {tok[1]!r}", tok)
    return term


def parse_goal(text: str, filename: str = "<string>") -> Goal:
    """Parse a comma-separated conjunction of atoms."""
    term = parse_term(text, filename)
    return Goal(tuple(_term_to_atom(t) for t in _flatten_conj(term)))


def parse_clause(text: str, filename: str = "<string>") -> Clause:
    """Parse a single clause (trailing '.' optional; it goes on a line of
    its own, after any trailing comment)."""
    if [tok[0] for tok in _tokenize(text, filename)[-2:]] != ["end", "eof"]:
        text += "\n."
    prog = parse_program(text, filename)
    clauses = [c for clauses in prog.predicates.values() for c in clauses]
    if len(clauses) != 1:
        raise ValueError(f"expected exactly one definite clause, found {len(clauses)}")
    return clauses[0]


def parse_program(text: str, filename: str = "<string>") -> Program:
    """Parse a clause corpus into a Program.

    Clauses using non-definite constructs (cut, negation, disjunction,
    if-then-else) cause the whole owning predicate to be excluded from
    analysis, with a warning naming the construct.  Top-level directives
    are skipped with a warning.  Empty input yields an empty program.
    """
    parser = _Parser(text, filename)
    predicates: dict = {}  # PredSymbol -> [Clause, ...], in order of first clause
    warnings: list = []
    tainted: dict = {}  # PredSymbol -> reason
    # the line of each clause's first token, counted on from the last one
    line, counted = 1, 0

    while parser._peek()[0] != "eof":
        first = parser._peek()
        line += text.count("\n", counted, first[2])
        counted = first[2]
        directive = first[0] == "punct" and first[1] == ":-"
        if directive:
            parser._next()
        parser.fresh_counter = 0
        try:
            term = parser.parse_term(1200)
        except RecursionError:
            parser._error("term nested too deeply", first)
        parser._expect(".", "end")
        if directive:
            warnings.append(f"{filename}:{line}: directive skipped")
            continue
        origin = (filename, line)
        if isinstance(term, Struct) and term.functor == ":-" and len(term.args) == 2:
            head_term, body_term = term.args
        else:
            head_term, body_term = term, None
        if not isinstance(head_term, Struct) or head_term.functor in _NON_DEFINITE:
            parser._error("clause head must be an atom", first)
        head = _term_to_atom(head_term)
        offender = None
        body_atoms = []
        if body_term is not None:
            for conjunct in _flatten_conj(body_term):
                if not isinstance(conjunct, Struct):
                    offender = repr(conjunct)
                    break
                if conjunct.functor in _NON_DEFINITE and (
                        len(conjunct.args) in (0, 1, 2)):
                    offender = _NON_DEFINITE[conjunct.functor]
                    break
                body_atoms.append(_term_to_atom(conjunct))
        clauses = predicates.setdefault(head.pred, [])
        if offender is not None:
            tainted.setdefault(head.pred, (offender, origin))
            continue
        clauses.append(Clause(head, Goal(tuple(body_atoms)), origin))

    for pred, (offender, origin) in tainted.items():
        warnings.append(
            f"{origin[0]}:{origin[1]}: predicate {pred} excluded from analysis "
            f"(non-definite construct {offender})")
    result = {pred: tuple(clauses) for pred, clauses in predicates.items() if pred not in tainted}
    return Program(result, tuple(warnings), frozenset(tainted))


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

_PLAIN_NAME_RE = re.compile(r"[a-z]\w*$")
_SPACED_OPS = {"=", "is", "<", ">", "=<", ">=", "=:=", "=\\="}


def _render_name(name: str) -> str:
    if _PLAIN_NAME_RE.match(name) or name in ("[]", "!", ";", ",") or name in _INFIX_OPS:
        return name
    return "'" + name.replace("'", "''") + "'"


def _close_list(term) -> str:
    elems = []
    while isinstance(term, Struct) and term.functor == "." and len(term.args) == 2:
        elems.append(render_term(term.args[0], 999))
        term = term.args[1]
    inner = ",".join(elems)
    if isinstance(term, Struct) and term.functor == "[]" and not term.args:
        return f"[{inner}]"
    return f"[{inner}|{render_term(term, 999)}]"


def _render_num(value) -> str:
    """A float is written positionally from its shortest ``repr``: no
    Prolog reader takes the exponent form ``1e+20``."""
    text = repr(value)
    if isinstance(value, float) and "e" in text:
        text = format(Decimal(text), "f")
        if "." not in text:
            text += ".0"
    return text


def render_term(term, maxprec: int = 1200) -> str:
    if isinstance(term, Var):
        return term.name
    if isinstance(term, Num):
        return _render_num(term.value)
    if isinstance(term, Struct):
        if term.functor == "." and len(term.args) == 2:
            return _close_list(term)
        if term.functor in _INFIX_OPS and len(term.args) == 2:
            prec, optype = _INFIX_OPS[term.functor]
            lmax = prec if optype == "yfx" else prec - 1
            rmax = prec if optype == "xfy" else prec - 1
            # A chain of one priority is rendered along its spine in a loop:
            # the left one of a yfx chain, as the parser builds ``X+1+...+1``,
            # or the right one of an xfy chain such as ``a,b,...,z``.
            spine = 0 if optype == "yfx" else 1
            ops, texts = [], []
            while True:
                ops.append(term.functor)
                texts.append(render_term(term.args[1 - spine], (rmax, lmax)[spine]))
                term = term.args[spine]
                if not (optype != "xfx" and isinstance(term, Struct) and len(term.args) == 2
                        and _INFIX_OPS.get(term.functor) == (prec, optype)):
                    break
            texts.append(render_term(term, (lmax, rmax)[spine]))
            if not spine:
                ops.reverse()
                texts.reverse()
            # the text right of an operator starts with the next operand's
            parts = [texts[0]]
            for op, right in zip(ops, texts[1:]):
                if op in _SPACED_OPS:
                    op = f" {op} "
                elif right.startswith("-") and op not in (",", ";"):
                    # standard Prolog reads ``--``, ``+-`` or ``*-`` as one symbol token
                    op = f"{op} "
                parts += (op, right)
            text = "".join(parts)
            return f"({text})" if prec > maxprec else text
        if not term.args:
            return _render_name(term.functor)
        args = ",".join(render_term(a, 999) for a in term.args)
        return f"{_render_name(term.functor)}({args})"
    raise TypeError(f"cannot render {term!r}")


def render_atom(atom: Atom) -> str:
    return render_term(Struct(atom.pred.name, atom.args) if atom.args else Struct(atom.pred.name))


def render_clause(clause: Clause) -> str:
    head = render_atom(clause.head)
    if not clause.body.atoms:
        return f"{head}."
    body = ", ".join(render_atom(a) for a in clause.body.atoms)
    return f"{head} :- {body}."


# ---------------------------------------------------------------------------
# Structural helpers shared by the analysis modules
# ---------------------------------------------------------------------------

def var_names(entity) -> list:
    """Variable names in order of first occurrence."""
    seen: dict = {}
    stack = [entity]
    while stack:
        e = stack.pop()
        if isinstance(e, Var):
            seen.setdefault(e.name, None)
        elif isinstance(e, (Struct, Atom)):
            stack.extend(reversed(e.args))
        elif isinstance(e, Goal):
            stack.extend(reversed(e.atoms))
        elif isinstance(e, Clause):
            stack.extend((e.body, e.head))
    return list(seen)


def node_counts(entity) -> tuple:
    """(functor and numeral nodes, variable occurrences) of a term, atom,
    goal or clause, in one walk.  An atom is one node above its
    arguments, a goal of n atoms adds n - 1 conjunction nodes and a clause
    one neck node, as if goals and clauses were terms (Definition 1)."""
    count = variables = 0
    stack = [entity]
    while stack:
        e = stack.pop()
        if isinstance(e, Var):
            variables += 1
        elif isinstance(e, Num):
            count += 1
        elif isinstance(e, (Struct, Atom)):
            count += 1
            stack.extend(e.args)
        elif isinstance(e, Goal):
            count += max(len(e.atoms) - 1, 0)
            stack.extend(e.atoms)
        elif isinstance(e, Clause):
            count += 1
            stack.extend((e.head, e.body))
        elif e is not None:
            raise TypeError(f"cannot count the nodes of {e!r}")
    return count, variables


def shape(entity) -> tuple:
    """``(shape, constants)`` of a term, atom or goal, from one pre-order
    walk.  The shape holds each variable's name, each atom's predicate,
    each compound's arity and None for each numeral; ``constants`` holds
    each compound's (functor, arity) and each numeral's (type, value), in
    the same order.  Entities of one shape differ in their constants at
    most, and two terms are equal exactly when both parts are, so the
    pair stands for a term as a flat key, hashed without recursion."""
    names = []
    constants = []
    stack = list(reversed(entity.atoms)) if isinstance(entity, Goal) else [entity]
    while stack:
        e = stack.pop()
        if isinstance(e, Var):
            names.append(e.name)
        elif isinstance(e, Num):
            names.append(None)
            constants.append((type(e.value), e.value))
        elif isinstance(e, Struct):
            names.append(len(e.args))
            constants.append((e.functor, len(e.args)))
            stack.extend(reversed(e.args))
        else:
            names.append(e.pred)
            stack.extend(reversed(e.args))
    return tuple(names), tuple(constants)


def align(a, b) -> tuple:
    """Walk two terms, atoms or equally long goals position by position,
    descending only below coinciding functors and predicates.

    Returns ``(matched, pairs, exact)``: the number of functor, numeral,
    predicate and conjunction nodes that coincide, the ``(left name, right
    name)`` pair of every position where both hold a variable (in
    pre-order), and whether the two differ in variable names only.  A goal
    of n atoms has n - 1 conjunction nodes, so two goals count as the
    right-folded conjunction terms they stand for.
    """
    matched = 0
    pairs = []
    exact = True
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if isinstance(x, Var) and isinstance(y, Var):
            pairs.append((x.name, y.name))
        elif isinstance(x, Num) and x == y:
            matched += 1
        elif (isinstance(x, Struct) and isinstance(y, Struct)
              and x.functor == y.functor and len(x.args) == len(y.args)):
            matched += 1
            stack.extend(zip(reversed(x.args), reversed(y.args)))
        elif isinstance(x, Atom) and isinstance(y, Atom) and x.pred == y.pred:
            matched += 1
            stack.extend(zip(reversed(x.args), reversed(y.args)))
        elif isinstance(x, Goal) and isinstance(y, Goal) and len(x.atoms) == len(y.atoms):
            matched += max(len(x.atoms) - 1, 0)
            stack.extend(zip(reversed(x.atoms), reversed(y.atoms)))
        else:
            exact = False
    return matched, pairs, exact


def rename_vars(entity, mapping: dict):
    """Apply a variable-name substitution to a term, atom, goal or clause;
    unmapped variables stay.  A name maps to a name or to a term.  Rebuilt
    bottom-up without recursion, so terms of any depth are renamed."""
    done: list = []  # rebuilt parts, in order
    work: list = [(entity, None)]  # (item, its part count once they are queued)
    while work:
        e, n = work.pop()
        if n is not None:
            parts = tuple(done[len(done) - n:])
            del done[len(done) - n:]
            done.append(Struct(e.functor, parts) if isinstance(e, Struct)
                        else Atom(e.pred, parts) if isinstance(e, Atom)
                        else Goal(parts) if isinstance(e, Goal)
                        else Clause(*parts, e.origin))
        elif isinstance(e, Var):
            target = mapping.get(e.name)
            done.append(e if target is None
                        else target if isinstance(target, (Var, Num, Struct)) else Var(target))
        elif isinstance(e, Num):
            done.append(e)
        elif isinstance(e, (Struct, Atom, Goal, Clause)):
            parts = ((e.head, e.body) if isinstance(e, Clause)
                     else e.atoms if isinstance(e, Goal) else e.args)
            work.append((e, len(parts)))
            work.extend((x, None) for x in reversed(parts))
        else:
            raise TypeError(f"cannot rename {e!r}")
    return done[0]
