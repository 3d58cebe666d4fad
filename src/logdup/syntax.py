"""Immutable syntax model and parser for a definite-clause Prolog subset.

The accepted language is deliberately small: facts and rules built from
atoms, variables, integers/floats, compound terms, list sugar and the
operators ``:-``, ``,``, ``=``, ``is``, comparisons and arithmetic.
Clauses containing cut, negation, disjunction or if-then-else make the
whole owning predicate unusable for analysis; such predicates are skipped
with a warning rather than rejected.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass, field
from decimal import Decimal
from typing import NamedTuple, Union


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
        return _render_num(self.value)


@dataclass(frozen=True)
class Struct:
    """Compound term; constants are 0-ary structs.  Equality and hashing
    go through ``shape``, which walks without recursion, so terms of any
    depth compare and hash."""

    functor: str
    args: tuple = ()

    def __eq__(self, other):
        return self is other or (isinstance(other, Struct) and shape(self) == shape(other))

    def __hash__(self):
        return hash(shape(self))

    def __repr__(self):
        return render_term(self)


class PredSymbol(NamedTuple):
    """A predicate name and arity, which is the pair ``(name, arity)``: it
    equals, hashes and sorts (by name, then arity) like that tuple.  No
    other tuple sits next to symbols but in the print symbol maps, where a
    functor of one name and arity is meant to be the same key."""

    name: str
    arity: int

    def __str__(self):
        """The predicate indicator, its name written as the functor of an
        atom: ``p/2``, ``'a b'/1``, ``'-'/1`` (a bare ``-`` before ``/``
        reads as prefix minus)."""
        return f"{_render_name(self.name, 0)}/{self.arity}"

    __repr__ = __str__


@dataclass(frozen=True)
class Atom:
    """A predicate applied to its arguments; equality and hashing go
    through ``shape``, as for ``Struct``."""

    pred: PredSymbol
    args: tuple = ()

    def __post_init__(self):
        if len(self.args) != self.pred.arity:
            raise ValueError(f"arity mismatch for {self.pred}: got {len(self.args)} args")

    def __eq__(self, other):
        return self is other or (isinstance(other, Atom) and shape(self) == shape(other))

    def __hash__(self):
        return hash(shape(self))

    def __repr__(self):
        return render_atom(self)


@dataclass(frozen=True)
class Goal:
    """Conjunction of atoms, kept in source order for rendering and
    normalization; the measures treat it as a multiset, but compare only
    the first n occurrences of a predicate that the other goal has n of."""

    atoms: tuple = ()

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
ARITH_BUILTINS = frozenset(
    PredSymbol(op, 2) for op in ("is", "<", ">", "=<", ">=", "=:=", "=\\="))

BUILTIN_PREDS = ARITH_BUILTINS | {EQ}


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

# The ISO escapes of a quoted atom (ISO/IEC 13211-1, 6.4.2.1): a single
# character after the backslash, or a hexadecimal or octal character code
# closed by a backslash.  They differ in the character after the first
# backslash, so a quoted atom is read in time linear in its length.
_ESCAPE_TAIL = r"""(?:[\\'"`abfnrtv]|x[0-9a-fA-F]+\\|[0-7]+\\)"""
_ESCAPE = r"\\" + _ESCAPE_TAIL
_READ_ESCAPES = {"\\": "\\", "'": "'", '"': '"', "`": "`", "a": "\a", "b": "\b",
                 "f": "\f", "n": "\n", "r": "\r", "t": "\t", "v": "\v"}
_QUOTED_PART_RE = re.compile("''|" + _ESCAPE)

# One match per token: the layout and comments before it are skipped
# inside the match, and a '.' followed by layout, a comment or the end of
# the text is a clause end.  ``eof`` matches only after the last token,
# ``unclosed`` at a '/*' without '*/', ``escape`` at the first backslash of
# a quoted atom that begins no escape, and ``bad`` at any other character,
# so the layout prefix never backtracks.  ``1e5`` lacks a float's fraction.
_TOKEN_RE = re.compile(
    rf"""
    (?:\s|%[^\n]*|/\*[\s\S]*?\*/)*
    (?:
      (?P<end>\.(?=\s|%|/\*|\Z))
    | (?P<num>\d+(?:\.\d+(?:[eE][+-]?\d+)?)?)
    | (?P<name>[a-z]\w*)
    | (?P<var>[_A-Z]\w*)
    | (?P<quoted>'(?:[^'\\]|''|{_ESCAPE})*')
    | (?P<escape>'(?:[^'\\]|''|{_ESCAPE})*\\(?!{_ESCAPE_TAIL}))
    | (?P<unclosed>/\*)
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
    if tok[0] == "name" and not _PLAIN_NAME_RE.fullmatch(value):
        value = _quoted(value)
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
            tokens.append(["name", _unquote(text, m.start(kind), m.end(kind), filename),
                           m.start(kind)])
        elif kind == "eof":
            tokens.append(["eof", "", tokens[-1][2] if tokens else 0])
            break
        elif kind == "escape":
            raise PrologSyntaxError("undefined escape", *_location(text, m.end(kind) - 1),
                                    filename)
        elif kind == "unclosed" or kind == "bad":
            offset = m.start(kind)
            message = ("unterminated block comment" if kind == "unclosed"
                       else f"unexpected character {text[offset]!r}")
            raise PrologSyntaxError(message, *_location(text, offset), filename)
        else:
            tokens.append([kind, m.group(kind), m.start(kind)])
    return tokens


def _unquote(text: str, start: int, end: int, filename: str) -> str:
    """The name of the quoted atom ``text[start:end]``: a doubled quote is
    one quote and an escape is its character.  A character code past the
    last Unicode code point is an ``undefined escape``."""
    def part(m):
        seq = m.group()
        if len(seq) == 2:  # '' as well as \' is a quote
            return _READ_ESCAPES[seq[1]]
        code = int(seq[2:-1], 16) if seq[1] == "x" else int(seq[1:-1], 8)
        if code > sys.maxunicode:
            offset = start + 1 + m.start()
            raise PrologSyntaxError("undefined escape", *_location(text, offset), filename)
        return chr(code)

    return _QUOTED_PART_RE.sub(part, text[start + 1:end - 1])


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


def _operand_max(prec: int, optype: str) -> tuple:
    """The highest left and right operand priority of an infix operator,
    by which the reader checks and the writer parenthesizes: ``prec`` where
    a chain of it may nest, ``prec - 1`` otherwise (ISO/IEC 13211-1, 6.3.4)."""
    return (prec if optype == "yfx" else prec - 1,
            prec if optype == "xfy" else prec - 1)


class _Parser:
    def __init__(self, text: str, filename: str):
        self.text = text
        self.filename = filename
        self.tokens = _tokenize(text, filename)
        self.pos = 0
        self.fresh_counter = 0

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

    def read_term(self):
        """A term of priority up to 1200, or ``term nested too deeply`` at
        its first token when it nests past Python's recursion limit."""
        first = self.tokens[self.pos]
        try:
            return self.parse_term(1200)
        except RecursionError:
            self._error("term nested too deeply", first)

    def parse_term(self, maxprec: int):
        # the term read so far and its priority, 0 for any primary
        left, leftprec = self._primary(), 0
        tokens = self.tokens
        while True:
            tok = tokens[self.pos]
            op = tok[1]
            # no 'end', 'num', 'var' or 'eof' value is an operator name
            entry = _INFIX_OPS.get(op)
            if entry is None or entry[0] > maxprec:
                break
            prec, optype = entry
            # no enclosing level can take this operator either
            if leftprec > _operand_max(prec, optype)[0]:
                self._error("operator priority clash", tok)
            self.pos += 1
            # Each xfy operator is the only one of its priority, so a chain
            # of it is read in a loop, not one recursion per operand, and
            # nested from the right.
            operands = [left, self.parse_term(prec - 1)]
            while optype == "xfy" and tokens[self.pos][1] == op:
                self.pos += 1
                operands.append(self.parse_term(prec - 1))
            leftprec = prec
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
                return Struct(value, tuple(self._items((")",), "',' or ')'")[0]))
            return Struct(value)
        if kind == "var":
            if value != "_":
                return Var(value)
            self.fresh_counter += 1
            return Var(f"_G{self.fresh_counter}")
        if kind == "num":
            if "." not in value:
                try:  # past Python's digit limit, which ``repr`` shares
                    return Num(int(value))
                except ValueError:
                    self._error("integer too long", tok)
            number = float(value)
            if math.isinf(number):  # no text reads back as an infinite float
                self._error("float overflow", tok)
            return Num(number)
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
                if self.tokens[self.pos][0] == "num":
                    return Num(-self._primary().value)
                arg = self.parse_term(200)
                return Struct("-", (arg,))
        self._error(f"unexpected token {_shown(tok)}", tok)

    def _items(self, closers: tuple, expected: str) -> tuple:
        """Terms separated by ',' up to one of ``closers``: the terms and
        the closer read, or an error naming the ``expected`` tokens."""
        items = [self.parse_term(999)]
        while True:
            tok = self._next()
            sep = tok[1] if tok[0] == "punct" else None
            if sep in closers:
                return items, sep
            if sep != ",":
                self._error(f"expected {expected}, found {_shown(tok)}", tok)
            items.append(self.parse_term(999))

    def _list(self):
        if self.tokens[self.pos][:2] == ["punct", "]"]:
            self.pos += 1
            return Struct("[]")
        elems, closer = self._items(("|", "]"), "',', '|' or ']'")
        result = Struct("[]")
        if closer == "|":
            result = self.parse_term(999)
            self._expect("]")
        for e in reversed(elems):
            result = Struct(".", (e, result))
        return result


# ---------------------------------------------------------------------------
# Program construction
# ---------------------------------------------------------------------------

_NON_DEFINITE = {";", "->", "\\+", "!"}


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
    term = parser.read_term()
    tok = parser.tokens[parser.pos]
    if tok[0] != "eof":
        parser._error(f"trailing input {_shown(tok)}", tok)
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
    are skipped unparsed, up to their clause end, with a warning.  Empty
    input yields an empty program.
    """
    parser = _Parser(text, filename)
    predicates: dict = {}  # PredSymbol -> [Clause, ...], in order of first clause
    warnings: list = []
    tainted: dict = {}  # PredSymbol -> reason
    # the line of each clause's first token, counted on from the last one
    line, counted = 1, 0

    while parser.tokens[parser.pos][0] != "eof":
        first = parser.tokens[parser.pos]
        line += text.count("\n", counted, first[2])
        counted = first[2]
        if first[0] == "punct" and first[1] == ":-":
            # read to the clause end unparsed: a directive may use prefix
            # operators, such as dynamic, that this reader does not know
            while parser._next()[0] != "end":
                pass
            warnings.append(f"{filename}:{line}: directive skipped")
            continue
        parser.fresh_counter = 0
        term = parser.read_term()
        parser._expect(".", "end")
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
                    offender = _quoted(conjunct.functor)
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

_PLAIN_NAME_RE = re.compile(r"[a-z]\w*")
_SPACED_OPS = {op for op, (prec, _) in _INFIX_OPS.items() if prec == 700}


# the reader's escapes of control characters, a doubled quote and \\
_WRITE_ESCAPES = {"'": "''", "\\": "\\\\",
                  **{ch: "\\" + letter for letter, ch in _READ_ESCAPES.items()
                     if not ch.isprintable()}}


def _quoted(name: str) -> str:
    """A name in quotes as the reader takes it back."""
    return "'" + "".join(map(_quoted_char, name)) + "'"


def _quoted_char(ch: str) -> str:
    """A character as a quoted name writes it: a quote doubled, a
    backslash and the control characters as their escapes, and any other
    character that is not printable as its hexadecimal code."""
    if ch in _WRITE_ESCAPES:
        return _WRITE_ESCAPES[ch]
    return ch if ch.isprintable() else f"\\x{ord(ch):X}\\"


def _render_name(name: str, arity: int) -> str:
    """A functor's name as the parser reads it back: bare when it is a
    plain name, ``[]`` or ``!`` alone or the prefix ``-`` of ``-(X)``, and
    quoted otherwise, so that a name the parser takes as punctuation or
    an operator is read as that name."""
    if (_PLAIN_NAME_RE.fullmatch(name) or (arity == 0 and name in ("[]", "!"))
            or (arity == 1 and name == "-")):
        return name
    return _quoted(name)


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
            lmax, rmax = _operand_max(prec, optype)
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
        name = _render_name(term.functor, len(term.args))
        if not term.args:
            return name
        args = ",".join(render_term(a, 999) for a in term.args)
        return f"{name}({args})"
    raise TypeError(f"cannot render {term!r}")


def render_atom(atom: Atom) -> str:
    return render_term(Struct(atom.pred.name, atom.args))


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
