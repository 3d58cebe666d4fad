import copy
import pickle
import sys

import pytest
from hypothesis import example, given, strategies as st

from logdup import (
    Atom, Clause, Goal, Num, PredSymbol, PrologSyntaxError, Struct, Var,
    parse_clause, parse_goal, parse_program, parse_term, render_clause,
    render_term,
)
from logdup.syntax import (
    ARITH_BUILTINS, BUILTIN_PREDS, EMPTY_GOAL, EQ, _tokenize, align, node_counts, rename_vars,
    var_names,
)


def test_parse_fact():
    clause = parse_clause("append([],L,L).")
    assert clause.head.pred == PredSymbol("append", 3)
    assert clause.body.atoms == ()
    assert clause.head.args[0] == Struct("[]", ())


def test_parse_rule_body_order():
    clause = parse_clause("p(X) :- q(X), r(X, a).")
    assert [a.pred.name for a in clause.body.atoms] == ["q", "r"]


def test_list_sugar_desugars_to_cons():
    term = parse_term("[a|T]")
    assert term == Struct(".", (Struct("a", ()), Var("T")))


def test_list_round_trip():
    for text in ("[]", "[a]", "[a,b|T]", "[[a],b]"):
        assert render_term(parse_term(text)) == text


def test_operator_precedence():
    term = parse_term("1 + 2*X")
    assert term == Struct("+", (Num(1), Struct("*", (Num(2), Var("X")))))


def test_quoted_atom():
    term = parse_term("'hello world'(a)")
    assert term.functor == "hello world"
    assert render_term(term) == "'hello world'(a)"
    assert parse_term("'it''s'") == Struct("it's")
    assert render_term(Struct("it's")) == "'it''s'"


def test_anonymous_vars_are_distinct():
    clause = parse_clause("p(_, _).")
    left, right = clause.head.args
    assert isinstance(left, Var) and isinstance(right, Var)
    assert left.name != right.name


def test_negative_numbers():
    assert parse_term("-3") == Num(-3)


def test_integer_and_float_are_different_constants():
    # 1 = 1.0 fails in Prolog
    assert Num(1) != Num(1.0) and Num(1.0) == Num(1.0)
    assert len({Num(1), Num(1.0), Num(1)}) == 2
    assert align(Num(1), Num(1.0)) == (0, [], False)
    assert align(Num(1.0), Num(1.0)) == (1, [], True)


@pytest.mark.parametrize("op", ["+", "-", "*", "/"])
@pytest.mark.parametrize("operand, text", [(Num(-1), "-1"), (Struct("-", (Var("X"),)), "-(X)")])
def test_operand_starting_with_minus_is_spaced_from_its_operator(op, operand, text):
    # standard Prolog reads A--1 with the one symbol token --
    term = Struct(op, (Var("A"), operand))
    assert render_term(term) == f"A{op} {text}"
    assert parse_term(render_term(term)) == term


def test_deep_left_nested_chain_renders_back_to_its_source():
    # compared as text: term equality on a 3,000-deep term recurses
    source = "Y is X" + "".join(("+1", "-2", "+Z")[i % 3] for i in range(3_000))
    assert render_term(parse_term(source)) == source


@pytest.mark.parametrize("value", [1e20, 1e-7, -2.5e-10, 0.1, 123.0, -0.0, 1e300, 5e-324])
def test_float_renders_positionally_and_parses_back(value):
    text = render_term(Num(value))
    assert "e" not in text and repr(Num(value)) == text
    assert parse_term(text) == Num(value)


def test_exponent_floats_parse_and_render_positionally():
    clause = parse_clause("p(X) :- X = 0.5e3, Y is -2.5e+1 * 1.5e20, Y < 2.0E-2.")
    assert clause.body.atoms[0].args[1] == Num(500.0)
    assert parse_term("-2.5e+1") == Num(-25.0) and parse_term("1.5e3") == Num(1500.0)
    text = render_clause(clause)
    assert text == "p(X) :- X = 500.0, Y is -25.0*150000000000000000000.0, Y < 0.02."
    assert parse_clause(text) == clause


@given(st.floats(allow_nan=False, allow_infinity=False))
@example(1e20)
@example(-5e-324)
def test_num_repr_parses_back(value):
    # repr of a float such as 1e+20 is written positionally, as render_term does
    assert parse_term(repr(Num(value))) == Num(value)


def test_float_without_exponent_renders_as_before():
    assert [render_term(Num(v)) for v in (0.1, 123.0, -0.0, 2.5)] == ["0.1", "123.0", "-0.0", "2.5"]


def test_pred_symbols_sort_by_name_then_arity():
    preds = [PredSymbol("b", 0), PredSymbol("a", 10), PredSymbol("ab", 1), PredSymbol("a", 2)]
    assert sorted(preds) == [PredSymbol("a", 2), PredSymbol("a", 10),
                             PredSymbol("ab", 1), PredSymbol("b", 0)]


@given(st.text(min_size=1, max_size=6), st.integers(0, 20),
       st.text(min_size=1, max_size=6), st.integers(0, 20))
def test_pred_symbol_is_its_name_arity_pair(name, arity, other_name, other_arity):
    p, q = PredSymbol(name, arity), PredSymbol(other_name, other_arity)
    pair, other = (name, arity), (other_name, other_arity)
    assert p == pair and pair == p and (p == other) == (pair == other)
    assert hash(p) == hash(pair) and {pair: 1}.get(p) == 1
    assert (p < q, p <= q, p > q) == (pair < other, pair <= other, pair > other)
    assert sorted([q, p]) == sorted([other, pair])


def test_pred_symbol_str_and_repr_are_name_slash_arity():
    p = PredSymbol("append", 3)
    assert (str(p), repr(p), repr([p])) == ("append/3", "append/3", "[append/3]")
    assert (p.name, p.arity) == ("append", 3)


@pytest.mark.parametrize("name, arity, text", [
    ("", 1, "''/1"), ("a b", 1, "'a b'/1"), ("/", 1, "'/'/1"), ("-", 1, "'-'/1"),
    ("it's", 0, "'it''s'/0"), ("[]", 2, "[]/2"), ("=", 2, "'='/2"), ("is", 2, "is/2"),
])
def test_pred_symbol_str_quotes_its_name_as_the_writer_does(name, arity, text):
    assert str(PredSymbol(name, arity)) == text


def test_builtin_preds_are_equality_and_the_arithmetic_builtins():
    goal = parse_goal("X = 1, Y is X, X < Y, X > Y, X =< Y, X >= Y, X =:= Y, X =\\= Y")
    assert {a.pred for a in goal.atoms} == BUILTIN_PREDS == ARITH_BUILTINS | {EQ}
    assert all(a.pred in BUILTIN_PREDS for a in goal.atoms)
    assert EQ not in ARITH_BUILTINS and PredSymbol("is", 3) not in BUILTIN_PREDS


def test_directive_skipped_with_warning():
    # prefix operator forms such as dynamic are skipped without being read
    for directive in (":- module(m, []).", ":- dynamic(counter/1).", ":- dynamic counter/1.",
                      ":- discontiguous p/1.", ":- initialization main.", ":- dynamic a/1, b/2."):
        program = parse_program(f"{directive}\np(a).", filename="d.pl")
        assert program.warnings == ("d.pl:1: directive skipped",), directive
        assert PredSymbol("p", 1) in program.predicates


def test_non_definite_warning_writes_its_construct_as_the_writer_does():
    program = parse_program("p :- 1.0e20.\nq :- !.\nr(X) :- \\+ X.\ns :- a -> b.")
    assert program.excluded == {PredSymbol(n, a) for n, a in (("p", 0), ("q", 0), ("r", 1), ("s", 0))}
    constructs = [w.split("non-definite construct ")[1] for w in program.warnings]
    assert constructs == ["100000000000000000000.0)", "'!')", "'\\\\+')", "'->')"]


def test_disjunction_excludes_predicate():
    program = parse_program("p(X) :- q(X) ; r(X).\ns(a).")
    assert PredSymbol("p", 1) in program.excluded
    assert any("';'" in w for w in program.warnings)
    assert PredSymbol("s", 1) in program.predicates



@pytest.mark.parametrize("text, builtins", [
    ("'='(X,Y) :- X = Y, q(Y).\nq(a).", [("=", 1)]),
    ("is(c,d).\n'<'(c,d) :- q(c).\nq(a).", [("is", 1), ("<", 2)]),
], ids=["eq-rule", "arith-facts"])
def test_a_definition_of_a_builtin_is_excluded(text, builtins):
    # the analysis would read the builtin's own body atoms as recursive calls
    program = parse_program(text, filename="b.pl")
    assert program.excluded == {PredSymbol(name, 2) for name, _ in builtins}
    assert set(program.excluded) <= BUILTIN_PREDS
    assert program.warnings == tuple(
        f"b.pl:{line}: predicate {PredSymbol(name, 2)} excluded from analysis "
        f"(redefines a builtin)" for name, line in builtins)
    assert [str(p) for p in program.predicates if p not in program.excluded] == ["q/1"]


SYNTAX_ERRORS = [
    ("p(X :- q.", (1, 5), "expected ',' or ')', found ':-'"),
    ("p(a)", (1, 4), "unexpected end of input"),
    ("p(a.b).", (1, 4), "expected ',' or ')', found '.'"),
    ("p(a).\n\tq(#).", (2, 4), "unexpected character '#'"),
    ("p(a).\r\nq(#).", (2, 3), "unexpected character '#'"),
    ("% comment\np(a) :- #.", (2, 9), "unexpected character '#'"),
    # newlines inside a quoted atom count too
    ("p('a\nb').\nq(X) :- X = .", (3, 13), "unexpected token '.'"),
    # a '.' followed by more text ends no clause, and a quoted atom that
    # reads like punctuation neither ends a clause nor closes or separates
    ("p(X) :- X = a.b.", (1, 14), "expected '.', found '.' followed by more text"),
    ("p(a ')' .", (1, 5), "expected ',' or ')', found \"')'\""),
    # a skipped directive still needs its end
    ("p(a).\n:- dynamic foo/1", (2, 16), "unexpected end of input"),
    ("p(a) '.' q(b).", (1, 6), "expected '.', found \"'.'\""),
    ("p([a ']' ]).", (1, 6), "expected ',', '|' or ']', found \"']'\""),
    ("p([a '|' T]).", (1, 6), "expected ',', '|' or ']', found \"'|'\""),
    # too deep for the recursive parser: reported at the clause's first token
    ("p(" + "f(" * 1000 + "a" + ")" * 1000 + ").", (1, 1), "term nested too deeply"),
    ("q(a).\n  p(" + "(" * 1000 + "a" + ")" * 1000 + ").", (2, 3), "term nested too deeply"),
    # a block comment must be closed; a float must have its fraction
    ("p(a).\n  /* open", (2, 3), "unterminated block comment"),
    ("p(a) :- X = a /* b", (1, 15), "unterminated block comment"),
    ("p./* c", (1, 3), "unterminated block comment"),
    ("p(X) :- X = 1e5.", (1, 14), "expected '.', found 'e5'"),
    # an infinite float has no text that reads back; an integer longer
    # than Python converts has no value to read
    ("p(a).\nq(X) :- X = 1.0e400, g(X).", (2, 13), "float overflow"),
    ("p(X) :- X = " + "1" * (sys.get_int_max_str_digits() + 1) + ".", (1, 13),
     "integer too long"),
    # a backslash in a quoted atom begins one of the ISO escapes; a
    # character code must be closed by a backslash and name a character
    ("p('a\\qb').", (1, 5), "undefined escape"),
    ("p('ok\\n',\n  'a\\\n').", (2, 5), "undefined escape"),
    ("p('\\x41').", (1, 4), "undefined escape"),
    ("p('\\x4g\\').", (1, 4), "undefined escape"),
    ("p('\\89\\').", (1, 4), "undefined escape"),
    ("p('a\\x110000\\').", (1, 5), "undefined escape"),
]


@pytest.mark.parametrize("text, name", [
    ("'\\\\'", "\\"), ("'\\''", "'"), ("'\\\"'", '"'), ("'\\`'", "`"),
    ("'\\a\\b\\f\\n\\r\\t\\v'", "\a\b\f\n\r\t\v"),
    ("'\\x41\\\\x7e\\\\xE9\\'", "A~\u00e9"), ("'\\101\\\\0\\'", "A\0"),
    ("'it''s \\'n\\' \\x1F600\\'", "it's 'n' \U0001F600"),
])
def test_quoted_atom_escapes_read_and_write_back(text, name):
    assert parse_term(text) == Struct(name)
    written = render_term(Struct(name))
    assert parse_term(written) == Struct(name)
    assert not any(ch < " " for ch in written)


def test_an_escaped_and_a_raw_line_break_name_one_predicate():
    program = parse_program("'a\\nb'(X) :- X = a.\n'a\nb'(X) :- X = b.")
    pred = PredSymbol("a\nb", 1)
    assert list(program.predicates) == [pred] and len(program.predicates[pred]) == 2
    assert str(pred) == "'a\\nb'/1"


def test_syntax_error_carries_location():
    for text, (line, column), message in SYNTAX_ERRORS:
        with pytest.raises(PrologSyntaxError) as err:
            parse_program(text, filename="ml.pl")
        assert (err.value.line, err.value.column) == (line, column), text
        assert str(err.value) == f"ml.pl:{line}:{column}: {message}"


@pytest.mark.parametrize("text, column, shown", [
    ("a 'b c'", 3, "\"'b c'\""), ("f(a) )", 6, "')'"), ("a b", 3, "'b'"), ("a '.'", 3, "\"'.'\""),
])
def test_trailing_input_is_shown_as_written(text, column, shown):
    with pytest.raises(PrologSyntaxError) as info:
        parse_term(text)
    assert (info.value.column, info.value.message) == (column, f"trailing input {shown}")


@pytest.mark.parametrize("parse", [parse_term, parse_goal])
def test_a_too_deep_term_is_a_syntax_error_at_its_first_token(parse):
    with pytest.raises(PrologSyntaxError) as info:
        parse("f(" * 3000 + "a" + ")" * 3000)
    assert (info.value.line, info.value.column, info.value.message) == (
        1, 1, "term nested too deeply")


def test_an_overflowing_float_is_refused_at_its_number():
    for text, column in (("X = 1.0e400", 5), ("X = -1.0e400", 6)):
        with pytest.raises(PrologSyntaxError, match="float overflow") as info:
            parse_term(text)
        assert (info.value.line, info.value.column) == (1, column)
    # an underflowing float reads as 0.0, which writes back as itself
    zero = parse_term("1.0e-400")
    assert zero == Num(0.0) and parse_term(render_term(zero)) == zero


def test_an_integer_of_the_digit_limit_reads_and_writes_back():
    text = "1" * sys.get_int_max_str_digits()
    assert render_term(parse_term(text)) == text


def test_long_body_parses():
    program = parse_program("p(X) :- " + ", ".join(["q(X)"] * 5000) + ".")
    ((clause,),) = program.predicates.values()
    assert len(clause.body.atoms) == 5000


def test_operator_chains_nest_from_the_right():
    a, b, c, d, e = (Struct(n) for n in "abcde")
    assert parse_term("a ; b ; c") == Struct(";", (a, Struct(";", (b, c))))
    assert parse_term("(a , b) , c") == Struct(",", (Struct(",", (a, b)), c))
    assert parse_term("a :- b , c ; d -> e") == Struct(":-", (a, Struct(";", (
        Struct(",", (b, c)), Struct("->", (d, e))))))


def test_quoted_punctuation_is_an_atom():
    clause = parse_clause("p([']'], ')', '.').")
    assert clause.head.args == (Struct(".", (Struct("]"), Struct("[]"))), Struct(")"), Struct("."))


def test_parse_clause_end_is_found_in_the_tokens():
    expected = parse_clause("p(a).")
    for text in ("p(a) % done.", "p(a). % done", "p(a)", "p(a)."):
        assert parse_clause(text) == expected, text


CLAUSE_LINES = [
    ("\n\np(a).", [3]),
    ("p('a\nb').\nq(a).", [1, 3]),
    ("p(a).%c\nq(a).\tr(a).\r\ns(a).", [1, 2, 2, 3]),
    ("/* header\n*/\np(a)./* c\n */q(a).", [3, 4]),
]


def test_clause_origin_records_line():
    for text, lines in CLAUSE_LINES:
        program = parse_program(text, filename="f.pl")
        origins = [c.origin for clauses in program.predicates.values() for c in clauses]
        assert origins == [("f.pl", n) for n in lines], text


@pytest.mark.parametrize("text, tokens", [
    ("p.", [("name", "p", 0), ("end", ".", 1)]),
    ("p.%c", [("name", "p", 0), ("end", ".", 1)]),
    ("p.\tq.\r\n", [("name", "p", 0), ("end", ".", 1), ("name", "q", 3), ("end", ".", 4)]),
    ("a.b", [("name", "a", 0), ("punct", ".", 1), ("name", "b", 2)]),
    ("1.5. 1.", [("num", "1.5", 0), ("end", ".", 3), ("num", "1", 5), ("end", ".", 6)]),
    (" 'it''s' % c\n", [("name", "it's", 1)]),
    # block comments are layout, also right after a clause end
    ("/* a */p./* b\n% */q.", [("name", "p", 7), ("end", ".", 8), ("name", "q", 18),
                                ("end", ".", 19)]),
    ("a/ *b", [("name", "a", 0), ("punct", "/", 1), ("punct", "*", 3), ("name", "b", 4)]),
    ("'/*'", [("name", "/*", 0)]),
    # an exponent follows a fraction only
    ("1.5e3 2.0E-2 2.5e+1", [("num", "1.5e3", 0), ("num", "2.0E-2", 6), ("num", "2.5e+1", 13)]),
    ("1e5", [("num", "1", 0), ("name", "e5", 1)]),
])
def test_tokens_carry_kind_value_and_offset(text, tokens):
    *found, eof = _tokenize(text, "t.pl")
    assert [tuple(t) for t in found] == tokens
    # the end of input is reported at the last token
    assert eof == ["eof", "", tokens[-1][2]]


def test_end_dot_inside_functor_name():
    # a '.' not followed by layout is not a clause terminator
    program = parse_program("p('a.b').")
    assert PredSymbol("p", 1) in program.predicates


def test_rename_vars():
    goal = parse_goal("p(X, f(Y)), q(X)")
    renamed = rename_vars(goal, {"X": Var("Z")})
    assert renamed == parse_goal("p(Z, f(Y)), q(Z)")


def test_align_and_var_names_walk_deep_terms():
    nested = Var("X")
    for _ in range(10_000):
        nested = Struct("f", (nested, Num(1)))
    listed = Struct("[]")
    for i in range(10_000):
        listed = Struct(".", (Var(f"V{i % 7}") if i % 2 else Num(i), listed))
    for term, names in ((nested, 1), (listed, 7)):
        matched, pairs, exact = align(term, term)
        assert (matched, len(pairs), exact) == (*node_counts(term), True)
        assert len(var_names(term)) == names


def test_rename_vars_walks_deep_terms():
    nested = Var("X")
    for _ in range(5_000):
        nested = Struct("f", (nested,))
    renamed = rename_vars(Atom(PredSymbol("p", 1), (nested,)), {"X": "Y"}).args[0]
    depth = 0
    while isinstance(renamed, Struct):
        assert renamed.functor == "f" and len(renamed.args) == 1
        renamed, depth = renamed.args[0], depth + 1
    assert (depth, renamed) == (5_000, Var("Y"))


@pytest.mark.parametrize("source, changed", [
    # a 5,000-element list, and a 3,000-deep left-nested `is` expression
    ("p([" + ",".join(map(str, range(5000))) + "]).",
     "p([" + ",".join(map(str, range(4999))) + ",x])."),
    ("p(X,Y) :- Y is X" + "+1" * 3000 + ".", "p(X,Y) :- Y is X" + "+1" * 2999 + "+2."),
])
def test_deep_terms_compare_and_hash_without_recursion(source, changed):
    a, b, c = parse_clause(source), parse_clause(source), parse_clause(changed)
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert a != c
    for x, y in ((a.head, b.head), (a.body, b.body), (a.head.args[-1], b.head.args[-1])):
        assert x == y and hash(x) == hash(y)
    if a.body.atoms:
        assert a.body.atoms[0].args[1] != c.body.atoms[0].args[1]
    assert len({a, b, c}) == 2


def test_term_equality_keeps_kinds_and_numeral_types_apart():
    f = Struct("f", (Var("X"), Num(1)))
    assert f == Struct("f", (Var("X"), Num(1))) != Struct("f", (Var("X"), Num(1.0)))
    assert f != Struct("f", (Var("Y"), Num(1))) and f != Struct("g", (Var("X"), Num(1)))
    assert Struct("a") != Var("a") and Struct("a") != Num(1)
    atom = Atom(PredSymbol("f", 2), f.args)
    assert atom != f and atom == Atom(PredSymbol("f", 2), (Var("X"), Num(1)))
    assert atom != Atom(PredSymbol("g", 2), f.args)
    assert hash(f) == hash(Struct("f", (Var("X"), Num(1))))


def test_var_names_first_occurrence_order():
    clause = parse_clause("p(B, A) :- q(A, C).")
    assert list(var_names(clause)) == ["B", "A", "C"]


# Names the parser reads as operators or punctuation, and names that only
# a quoted atom can spell.
_CONTROL_NAMES = [":-", ",", ";", "->", "!", "\\+"]
_ATOM_NAMES = ["a", "b", "f", "g", "+", "-", "*", "/", "=", "is", "<", "=<", "[]", ".",
               "|", "a b", "it's", "a\n", "a\\b", "Abc", ""]
_names = st.sampled_from(_ATOM_NAMES + _CONTROL_NAMES)
# a body predicate the reader takes as an atom, not a control construct
_pred_names = st.sampled_from(_ATOM_NAMES)
_vars = st.sampled_from(["X", "Y", "Zed"])


def _terms(depth=2):
    leaf = st.one_of(
        _vars.map(Var),
        st.integers(min_value=-9, max_value=9).map(Num),
        _names.map(lambda n: Struct(n, ())),
    )
    if depth == 0:
        return leaf
    return st.one_of(
        leaf,
        st.tuples(_names, st.lists(_terms(depth - 1), min_size=1, max_size=3))
        .map(lambda t: Struct(t[0], tuple(t[1]))),
    )


@given(st.sampled_from(_ATOM_NAMES + _CONTROL_NAMES), st.integers(0, 12))
def test_pred_symbol_str_parses_back_as_a_predicate_indicator(name, arity):
    assert parse_term(str(PredSymbol(name, arity))) == Struct("/", (Struct(name), Num(arity)))


@given(_terms())
def test_render_parse_round_trip(term):
    assert parse_term(render_term(term)) == term


@given(st.lists(st.tuples(_pred_names, st.lists(_terms(1), min_size=1, max_size=2)),
                min_size=1, max_size=3))
def test_clause_render_parse_round_trip(atom_shapes):
    body = tuple(Atom(PredSymbol(n, len(args)), tuple(args))
                 for n, args in atom_shapes)
    clause = Clause(Atom(PredSymbol("h", 1), (Var("X"),)), Goal(body))
    parsed = parse_clause(render_clause(clause))
    assert (parsed.head, parsed.body) == (clause.head, clause.body)


@pytest.mark.parametrize("text, clash", [
    ("(a:-b):-c", None),
    ("p(X) :- X = ((a:-b):-c).", None),
    ("a :- b :- c", (1, 8)),
    ("a = b = c", (1, 7)),
    ("f(a < b < c)", (1, 9)),
    ("a = b - c = d", (1, 11)),
    ("p :- a\n  :- b.", (2, 3)),
])
def test_operand_priority_is_the_writers(text, clash):
    """An operand above an operator's left maximum is a clash at that
    operator, as in ISO readers; a parenthesized one may stand anywhere."""
    clause = text.endswith(".")
    parse, render = (parse_clause, render_clause) if clause else (parse_term, render_term)
    if clash is None:
        parsed = parse(text)
        assert render(parsed) == text and parse(render(parsed)) == parsed
    else:
        with pytest.raises(PrologSyntaxError, match="operator priority clash") as info:
            parse(text)
        assert (info.value.line, info.value.column) == clash


@pytest.mark.parametrize("body, text", [
    ("X = '/'", "X = '/'"),
    ("X = f('+')", "X = f('+')"),
    ("X = f(',')", "X = f(',')"),
    ("X = '[]'(a)", "X = '[]'(a)"),
    ("Y = X / '*'", "Y = X/'*'"),
    ("X = '-'(a,b,c)", "X = '-'(a,b,c)"),
    ("X = f('a\n')", "X = f('a\\n')"),
    ("'-'(X), '[]'(Y)", "-(X), '[]'(Y)"),
])
def test_operator_and_punctuation_names_are_quoted_and_parse_back(body, text):
    clause = parse_clause(f"p(X,Y) :- {body}.")
    rendered = render_clause(clause)
    assert rendered == f"p(X,Y) :- {text}."
    assert parse_clause(rendered) == clause


_X = Var("X")
_ATOM = Atom(PredSymbol("p", 2), (_X, Struct("f", (Num(1),))))
_GOAL = Goal((_ATOM, Atom(EQ, (_X, Struct("a")))))
# each term class with two equal instances built apart, an unequal one
# and its repr
TERMS = [
    (Var("X"), Var("X"), Var("Y"), "X"),
    (Num(1), Num(1), Num(2), "1"),
    (Struct("f", (Var("X"), Num(1.5))), Struct("f", (Var("X"), Num(1.5))),
     Struct("f", (Var("X"), Num(1))), "f(X,1.5)"),
    (_ATOM, Atom(PredSymbol("p", 2), (Var("X"), Struct("f", (Num(1),)))),
     Atom(PredSymbol("p", 2), (Var("Y"), Struct("f", (Num(1),)))), "p(X,f(1))"),
    (_GOAL, Goal((_ATOM, Atom(EQ, (Var("X"), Struct("a"))))), Goal(_GOAL.atoms[:1]),
     "p(X,f(1)), X = a"),
    (Clause(_ATOM, _GOAL, ("a.pl", 3)), Clause(_ATOM, Goal(_GOAL.atoms), ("a.pl", 3)),
     Clause(_ATOM, _GOAL, ("a.pl", 4)), "p(X,f(1)) :- p(X,f(1)), X = a."),
]


@pytest.mark.parametrize("term, same, other, text", TERMS,
                         ids=[type(t[0]).__name__ for t in TERMS])
def test_terms_keep_their_value_semantics(term, same, other, text):
    assert term == same and not term != same and hash(term) == hash(same)
    assert term != other and not term == other
    assert repr(term) == text
    assert copy.deepcopy(term) == term and pickle.loads(pickle.dumps(term)) == term
    assert copy.copy(term) == term


@pytest.mark.parametrize("term", [t[0] for t in TERMS], ids=[type(t[0]).__name__ for t in TERMS])
def test_terms_are_slotted(term):
    # no per-instance dict: a slot refuses a new attribute
    assert not hasattr(term, "__dict__")
    with pytest.raises(AttributeError):
        term.extra = 1


def test_terms_of_different_classes_differ():
    assert Var("X") != Struct("X") and Struct("X") != Var("X")
    assert not Var("X") == Struct("X") and not Struct("X") == Var("X")
    assert Num(1) != Num(1.0) and Num(1) != Struct("1")
    assert Goal(()) != Clause(Atom(PredSymbol("p", 0))) and Goal(()) != ()
    assert Atom(PredSymbol("f", 1), (_X,)) != Struct("f", (_X,))


def test_hashes_follow_the_field_tuples():
    # set and dict orders, and with them the reports, follow these values
    clause = Clause(_ATOM, _GOAL, ("a.pl", 3))
    assert hash(Var("X")) == hash(("X",))
    assert hash(_GOAL) == hash((_GOAL.atoms,))
    assert hash(clause) == hash((_ATOM, _GOAL, ("a.pl", 3)))
    assert Clause(_ATOM) == Clause(_ATOM, EMPTY_GOAL, ("<string>", 0))


def test_atom_arity_mismatch_is_a_value_error():
    with pytest.raises(ValueError, match=r"^arity mismatch for p/2: got 1 args$"):
        Atom(PredSymbol("p", 2), (_X,))
