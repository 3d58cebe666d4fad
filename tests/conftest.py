import copy
import pickle

import pytest

from logdup import PredSymbol, build_sccs, normalize_program, parse_program, scc_of

APPEND = """
append([],L,L).
append([X|Xs],Y,[X|Zs]) :- append(Xs,Y,Zs).
"""

CONCAT = """
concat(L,[],L).
concat([E|Zs],[E|Es],Y) :- concat(Zs,Es,Y).
"""

REV_ALL = """
rev_all([],[]).
rev_all([X|Xs],[Y|Ys]) :- reverse(X,Y), rev_all(Xs,Ys).
"""

ADD1_AND_SQR = """
add1_and_sqr([],[]).
add1_and_sqr([X|Xs],[Y|Ys]) :- N is X + 1, Y is N*N, add1_and_sqr(Xs,Ys).
"""

CORPUS = APPEND + CONCAT + REV_ALL + ADD1_AND_SQR


def scc_named(source, name, arity, normalize=False):
    program = parse_program(source)
    if normalize:
        program = normalize_program(program)
    return scc_of(build_sccs(program), PredSymbol(name, arity))


def assert_record_contract(record, text, defaults, changed=None):
    """The rules every ``syntax.Record`` keeps.  ``record`` is built from
    distinct positional values and written as ``text``, which pins the
    positional order to the field names.  Its class fills in ``defaults``
    for the trailing fields left out; it equals only a record of its own
    class with equal fields, and a record with one field changed (to
    ``changed[name]``, else to a new object) differs; it hashes as the
    tuple of its fields, or not at all when it may hold a dict or list;
    and deepcopy and a pickle round trip give an equal record."""
    cls = type(record)
    assert repr(record) == text
    values = {name: getattr(record, name) for name in cls._fields}
    assert cls(*values.values()) == record == cls(**values)
    assert not record != cls(*values.values())
    bare = cls(*[value for name, value in values.items() if name not in defaults])
    assert {name: getattr(bare, name) for name in defaults} == defaults
    for name in values:
        other = cls(**{**values, name: (changed or {}).get(name, object())})
        assert record != other and not record == other
    twin = type(cls.__name__, (cls,), {})(*values.values())
    assert record != twin and twin != record and record != tuple(values.values())
    assert record.__eq__(twin) is NotImplemented
    fields = tuple(values.values())
    if cls.__hash__ is None or any(isinstance(value, (dict, list)) for value in fields):
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(fields)
    assert copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record


@pytest.fixture
def append_scc():
    return scc_named(APPEND, "append", 3)


@pytest.fixture
def concat_scc():
    return scc_named(CONCAT, "concat", 3)


@pytest.fixture
def rev_all_scc():
    return scc_named(REV_ALL, "rev_all", 2)


@pytest.fixture
def add1_scc():
    return scc_named(ADD1_AND_SQR, "add1_and_sqr", 2)
