import pytest
from hypothesis import given, strategies as st

from logdup import (
    Atom, Clause, Goal, Num, PredSymbol, PrologSyntaxError, Struct, Var,
    parse_clause, parse_goal, parse_program, parse_term, render_clause,
    render_term,
)
from logdup.metrics import nodes, var_occurrences
from logdup.syntax import _tokenize, align, rename_vars, var_names


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
    assert "e" not in text
    assert parse_term(text) == Num(value)


def test_float_without_exponent_renders_as_before():
    assert [render_term(Num(v)) for v in (0.1, 123.0, -0.0, 2.5)] == ["0.1", "123.0", "-0.0", "2.5"]


def test_pred_symbols_sort_by_name_then_arity():
    preds = [PredSymbol("b", 0), PredSymbol("a", 10), PredSymbol("ab", 1), PredSymbol("a", 2)]
    assert sorted(preds) == [PredSymbol("a", 2), PredSymbol("a", 10),
                             PredSymbol("ab", 1), PredSymbol("b", 0)]


def test_directive_skipped_with_warning():
    program = parse_program(":- module(m, []).\np(a).")
    assert any("directive" in w for w in program.warnings)
    assert PredSymbol("p", 1) in program.predicates


def test_disjunction_excludes_predicate():
    program = parse_program("p(X) :- q(X) ; r(X).\ns(a).")
    assert PredSymbol("p", 1) in program.excluded
    assert any("';'" in w for w in program.warnings)
    assert PredSymbol("s", 1) in program.predicates


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
    ("p(a) '.' q(b).", (1, 6), "expected '.', found \"'.'\""),
    ("p([a ']' ]).", (1, 6), "expected ',', '|' or ']', found \"']'\""),
    ("p([a '|' T]).", (1, 6), "expected ',', '|' or ']', found \"'|'\""),
    # too deep for the recursive parser: reported at the clause's first token
    ("p(" + "f(" * 1000 + "a" + ")" * 1000 + ").", (1, 1), "term nested too deeply"),
    ("q(a).\n  p(" + "(" * 1000 + "a" + ")" * 1000 + ").", (2, 3), "term nested too deeply"),
]


def test_syntax_error_carries_location():
    for text, (line, column), message in SYNTAX_ERRORS:
        with pytest.raises(PrologSyntaxError) as err:
            parse_program(text, filename="ml.pl")
        assert (err.value.line, err.value.column) == (line, column), text
        assert str(err.value) == f"ml.pl:{line}:{column}: {message}"


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
        assert (matched, exact) == (nodes(term), True)
        assert len(pairs) == var_occurrences(term)
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


def test_var_names_first_occurrence_order():
    clause = parse_clause("p(B, A) :- q(A, C).")
    assert list(var_names(clause)) == ["B", "A", "C"]


_names = st.sampled_from(["a", "b", "f", "g"])
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


@given(_terms())
def test_render_parse_round_trip(term):
    assert parse_term(render_term(term)) == term


@given(st.lists(st.tuples(_names, st.lists(_terms(1), min_size=1, max_size=2)),
                min_size=1, max_size=3))
def test_clause_render_parse_round_trip(atom_shapes):
    body = tuple(Atom(PredSymbol(n, len(args)), tuple(args))
                 for n, args in atom_shapes)
    clause = Clause(Atom(PredSymbol("h", 1), (Var("X"),)), Goal(body))
    parsed = parse_clause(render_clause(clause))
    assert (parsed.head, parsed.body) == (clause.head, clause.body)
