"""Seeded corpora of the four workloads, with the pairs each must report.

Every generator returns a ``Corpus``: the files to write, the CLI options,
the pairs expected by construction and, for the faults the benchmark
keeps, the pairs that fail every time.  The program under test receives
only the written files.

Each corpus has a fixed structure: ``dup-scale`` and ``wide-search`` plant
``mutate_duplicate`` copies made with fixed mutation seeds, ``front-end``
draws its shapes from ``FRONT_END_STRUCTURE_SEED``, and ``near-miss`` from
``NEAR_MISS_STRUCTURE_SEED``, whose expected pairs the exhaustive
reference computed once into ``near_miss_expected.json``
(``python3 bench/expected.py`` rewrites it).  The run seed changes only
what the analysis does not depend on (``_relabel``): the names of the
generated predicates and the order of the predicates in each file.  The
work of a run is therefore the same for every seed; a seed that changed
the structure would move the run time by up to a quarter on ``front-end``
and ``dup-scale`` and hide a change in the program behind it.

Faults kept as failed operations sit in fixed text that does not depend
on the seed: the recall fixture (``near-miss``) and a file with one
malformed clause (``front-end``).
"""

from __future__ import annotations

import json
import os
import random
import re
import string
from dataclasses import dataclass, field

from logdup import (
    PredSymbol, Program, build_sccs, mutate_duplicate,
    normalize_program, parse_program, render_clause, scc_of,
)

import reference

HERE = os.path.dirname(os.path.abspath(__file__))
NEAR_MISS_EXPECTED = os.path.join(HERE, "near_miss_expected.json")
NEAR_MISS_STRUCTURE_SEED = 11
NEAR_MISS_PREDICATES = 20
NEAR_MISS_FAMILY = 4

WORKLOADS = ("dup-scale", "near-miss", "wide-search", "front-end")


@dataclass
class Corpus:
    files: dict  # file name -> text handed to the CLI
    options: list  # CLI options after the paths
    planted: list = field(default_factory=list)  # [(name/arity, name/arity)] known duplicates
    faults: dict = field(default_factory=dict)  # pair key -> why it fails every time
    intended: dict = field(default_factory=dict)  # file name -> text the analysis should see
    expected: dict = field(default_factory=dict)  # pair key -> (sigma, {scc key: N})
    sccs: dict = field(default_factory=dict)  # scc key -> SCC of the intended program


def _names(rng, count, prefix):
    """``count`` distinct names ``prefix`` + five random letters."""
    out = []
    while len(out) < count:
        name = prefix + "".join(rng.choice(string.ascii_lowercase) for _ in range(5))
        if name not in out:
            out.append(name)
    return out


def _plant(sccs, pred, seed):
    """Clauses of a duplicate of ``pred``'s SCC, and the copy's members."""
    mutated, _ = mutate_duplicate(scc_of(sccs, pred), seed)
    return [render_clause(c) for c in mutated.clauses], tuple(str(p) for p in mutated.members)


def _relabel(seed, files, prefix):
    """Seeded variants of ``files`` (file name -> list of predicate blocks):
    every predicate they define gets ``prefix`` and five seeded letters
    for its name, and the blocks of each file are shuffled.

    The new names sort among themselves as the old ones do, so that the
    program compares every pair in the same direction and visits the
    SCCs in the same order whatever the seed.  Where the corpus holds
    predicates that keep their names, the old names start with
    ``prefix`` too, so that both sort alike against those.  Returns
    (file name -> text, old name -> new name)."""
    rng = random.Random(seed)
    old = sorted({p.name for blocks in files.values()
                  for p in parse_program("\n".join(blocks)).predicates})
    table = dict(zip(old, sorted(_names(rng, len(old), prefix))))

    def rename(match):
        return table.get(match.group(1), match.group(1)) + "("

    out = {}
    for name, blocks in files.items():
        blocks = [re.sub(r"\b([a-z]\w*)\(", rename, block) for block in blocks]
        rng.shuffle(blocks)
        out[name] = "\n".join(blocks) + "\n"
    return out, table


def _renamed(members, table):
    """``name/arity`` members of an SCC key after ``_relabel``."""
    return tuple(table[m.split("/")[0]] + "/" + m.split("/")[1] for m in members)


# ---------------------------------------------------------------------------
# dup-scale: the 1,000-clause corpus of acceptance criterion 10
# ---------------------------------------------------------------------------

# Five of the twenty planted copies of criterion 10, one for each number
# of recursive clauses and one more: with twenty, one CLI process takes
# about 8 s and a run of the benchmark holds too few of them for a
# steady median.
DUP_PLANTED = 5
DUP_MUTATION_SEED = 2000


def dup_scale(seed):
    blocks = []
    for i in range(80):
        recursive = 1 + (i % 4)
        lines = [f"p{i}(a{i}x{j}, b{i}x{j})." for j in range(10 - recursive)]
        lines += [f"p{i}([e{i}k{k}(X)|Xs], [g{i}k{k}|Ys]) :- p{i}(Xs, Ys)."
                  for k in range(recursive)]
        blocks.append("\n".join(lines))
    sccs = build_sccs(parse_program("\n".join(blocks)))
    planted = []
    for i in range(DUP_PLANTED):
        clauses, members = _plant(sccs, PredSymbol(f"p{i}", 2), DUP_MUTATION_SEED + i)
        blocks.append("\n".join(clauses))
        planted.append(((f"p{i}/2",), members))
    files, table = _relabel(seed, {"scale.pl": blocks}, "p")
    planted = [(_renamed(a, table), _renamed(b, table)) for a, b in planted]
    return Corpus(files, ["--threshold", "1", "--fp-threshold", "1"], planted)


# ---------------------------------------------------------------------------
# wide-search: arity-5/6 predicates and mutually recursive SCCs
# ---------------------------------------------------------------------------

# Segments are kept to a few variables, so that scoring one clause pair
# is cheap and its cost hardly depends on variable names: the work is in
# repeating it for every argument permutation and member bijection.
WIDE_BASES = [
    """w6a([], B, C, D, E, u_w6a).
w6a([X|Xs], B, C, D, E, F) :- w6a(Xs, C, B, D, E, G), F = s(G).""",
    """w5a([], B, C, D, u_w5a) :- B = C.
w5a([X|Xs], B, C, D, E) :- X > D, w5a(Xs, C, B, D, F), E = t(X, F).""",
    """w5b(A, B, [], D, u_w5b).
w5b(A, B, [X], D, E) :- E = one(X, D).
w5b(A, B, [X|Xs], D, E) :- Y is A + X, w5b(Y, B, Xs, D, E).""",
    # two mutually recursive members of arity 4
    """ev4([], B, C, u_ev4).
ev4([X|Xs], B, C, D) :- od4(Xs, C, B, E), D = s(E).
od4([X|Xs], B, C, D) :- ev4(Xs, B, C, E), D = p(E, X).
od4([], B, C, u_od4).""",
    # three members of arity 3
    """ta([], B, u_ta) :- B > 0.
ta([X|Xs], B, C) :- tb(Xs, X, D), C = l(D, B).
tb([], B, u_tb) :- B < 0.
tb([X|Xs], B, C) :- tc(Xs, B, X), C = r(X).
tc(A, B, C) :- B > C, ta(A, B, D), D = u_tc.""",
]
# (name, arity, mutation seed) of the planted copies.  The copies are
# made with fixed mutation seeds: scoring a segment pair costs more or
# less with the order of its variable names.  Arity-6 bases with three
# clauses or more would take 2 s a pair and leave a run too few CLI
# processes for a steady median.
WIDE_PLANTED = [("w6a", 6, 1000), ("w5a", 5, 1003), ("w5b", 5, 1004),
                ("ev4", 4, 1005), ("ta", 3, 1006)]


def wide_search(seed):
    sccs = build_sccs(parse_program("\n".join(WIDE_BASES)))
    blocks = list(WIDE_BASES)
    planted = []
    for name, arity, mutation_seed in WIDE_PLANTED:
        original = scc_of(sccs, PredSymbol(name, arity))
        clauses, members = _plant(sccs, original.members[0], mutation_seed)
        blocks.append("\n".join(clauses))
        planted.append((tuple(str(p) for p in original.members), members))
    files, table = _relabel(seed, {"wide.pl": blocks}, "w")
    planted = [(_renamed(a, table), _renamed(b, table)) for a, b in planted]
    return Corpus(files, ["--threshold", "1", "--fp-threshold", "1"], planted)


# ---------------------------------------------------------------------------
# near-miss: many weak candidates, plus the recall fixture
# ---------------------------------------------------------------------------

# The recall fixture of the acceptance tests, verbatim.  At 0.5/0.5 the
# fingerprint prefilter drops add1_and_sqr/2 ~ sum/2, whose exact
# closeness is (0.537, 0.786): fault (a).
RECALL_FIXTURE = """app([],L,L).
app([X|Xs],Y,[X|Zs]) :- app(Xs,Y,Zs).
rev_all([],[]).
rev_all([X|Xs],[Y|Ys]) :- reverse(X,Y), rev_all(Xs,Ys).
add1_and_sqr([],[]).
add1_and_sqr([X|Xs],[Y|Ys]) :- N is X + 1, Y is N*N, add1_and_sqr(Xs,Ys).
len([],zero).
len([_|T],s(N)) :- len(T,N).
member(X,[X|_]).
member(X,[_|T]) :- member(X,T).
sum([],0).
sum([X|Xs],S) :- sum(Xs,T), S is T + X.
double([],[]).
double([X|Xs],[Y|Ys]) :- Y is X * 2, double(Xs,Ys).
last([X],X).
last([_|T],X) :- last(T,X).
select(X,[X|T],T).
select(X,[H|T],[H|R]) :- select(X,T,R).
tree_size(leaf,zero).
tree_size(node(L,_,R),s(N)) :- tree_size(L,M), tree_size(R,K), plus(M,K,N).
"""
RECALL_FAULT = (("add1_and_sqr/2",), ("sum/2",))


def _expression(rng, leaves, operators):
    """A random arithmetic tree with ``operators`` inner nodes; leaves are
    drawn from ``leaves`` and the digits."""
    if operators == 0:
        return rng.choice(leaves + list("123456789"))
    left = rng.randrange(operators)
    op = rng.choice("+-*")
    return (f"({_expression(rng, leaves, left)} {op} "
            f"{_expression(rng, leaves, operators - 1 - left)})")


def _perturb(rng, text, edits):
    """``text`` with ``edits`` random digits or operators replaced."""
    spots = [m.start() for m in re.finditer(r"[1-9+*-]", text)]
    chars = list(text)
    for i in rng.sample(spots, edits):
        pool = "123456789" if chars[i].isdigit() else "+-*"
        chars[i] = rng.choice([c for c in pool if c != chars[i]])
    return "".join(chars)


def near_miss_templates():
    """The fixed structure: (template name, base clause, recursive clause).

    Every predicate folds a list through arithmetic trees of 10 to 14
    operators.  The trees share their operator symbols but differ in
    shape, numbers and variable leaves, so the fingerprint estimate of
    most pairs is high while their exact closeness, which counts symbols
    by position and counts variables and numbers too, is below 1/2.
    Predicates come in families of ``NEAR_MISS_FAMILY``: the members of a
    family differ from its first in a few digits or operators, so they
    are near misses of each other."""
    rng = random.Random(NEAR_MISS_STRUCTURE_SEED)
    out = []
    for k in range(NEAR_MISS_PREDICATES):
        name = f"nm{k:02d}"
        if k % NEAR_MISS_FAMILY == 0:
            trees = [_expression(rng, ["1"], rng.randint(10, 14)),
                     _expression(rng, ["X"], rng.randint(10, 14)),
                     _expression(rng, ["T", "Y"], rng.randint(10, 14))]
            family = trees
        else:
            trees = [_perturb(rng, tree, rng.randint(1, 2)) for tree in family]
        base, step, fold = trees
        out.append((name, f"{name}([], R) :- R is {base}.",
                    f"{name}([X|Xs], R) :- Y is {step}, {name}(Xs, T), R is {fold}."))
    return out


def near_miss_text(seed):
    """The seeded corpus text and the template-to-predicate renaming.  With
    seed None the template names are kept, which is the form
    ``near_miss_expected.json`` is computed on."""
    blocks = [base + "\n" + rec for _, base, rec in near_miss_templates()]
    if seed is None:
        return "\n".join(blocks) + "\n", {}
    files, rename = _relabel(seed, {"near.pl": blocks}, "nm")
    return files["near.pl"], rename


def near_miss(seed):
    text, rename = near_miss_text(seed)
    with open(NEAR_MISS_EXPECTED) as handle:
        stored = json.load(handle)
    corpus = Corpus({"near.pl": text, "recall.pl": RECALL_FIXTURE}, ["--emit-common-core"])
    corpus.faults[reference.pair_key(*RECALL_FAULT)] = (
        "fault (a): the fingerprint estimate is below the exact closeness, "
        "so the prefilter drops the pair")

    def key_of(name):
        base, arity = name.split("/")
        return rename.get(base, base) + "/" + arity

    for left, right, sigma, n_left, n_right in stored["pairs"]:
        a, b = (key_of(left),), (key_of(right),)
        corpus.expected[reference.pair_key(a, b)] = (sigma, {a: n_left, b: n_right})
    return corpus


# ---------------------------------------------------------------------------
# front-end: a large corpus of mixed shapes over several files
# ---------------------------------------------------------------------------

# Fault (b): parse_program stops at the malformed clause, so cli.run drops
# the whole file and fe_fault_left/2 ~ fe_fault_right/2 is never compared.
FAULT_FILE_GOOD = """fe_fault_left([], u_fault).
fe_fault_left([X|Xs], [f(X, Y)|Ys]) :- Y is X * 3 + 1, fe_fault_left(Xs, Ys).
"""
FAULT_FILE_BAD = "fe_fault_bad(X, :- q(X).\n"
FAULT_PARTNER = """fe_fault_right(u_fault, []).
fe_fault_right([f(E, W)|Ws], [E|Es]) :- W is E * 3 + 1, fe_fault_right(Ws, Es).
"""
FAULT_PAIR = (("fe_fault_left/2",), ("fe_fault_right/2",))
FRONT_END_FILES = 6
FRONT_END_PREDICATES = 600
FRONT_END_PLANTED = 6
FRONT_END_STRUCTURE_SEED = 17


def _fe_term(rng, depth):
    """A ground term mixing atoms, numbers, structures and nested lists."""
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        return rng.choice(["a", "b", "c", "nil", str(rng.randrange(10))])
    if roll < 0.6:
        return "[" + ", ".join(_fe_term(rng, depth - 1)
                               for _ in range(rng.randint(1, 4))) + "]"
    functor = rng.choice("fgh")
    args = ", ".join(_fe_term(rng, depth - 1) for _ in range(rng.randint(1, 2)))
    return f"{functor}({args})"


def _fe_predicate(rng, name, unique):
    """(plantable, clauses) of one predicate.  Shapes are spread over
    about 45 prefilter buckets by 0 to 2 extra arguments and 0 to 3 extra
    facts; only rules without extra arguments are planted, which keeps
    the exact stage of this workload small."""
    shape = rng.randrange(5)
    pad = rng.randint(0, 2)
    extra = "".join(f", P{k}" for k in range(pad))

    def atom(args):
        return f"{name}({args}{extra})"

    def fact(arity):
        return atom(", ".join(_fe_term(rng, 0) for _ in range(arity))) + "."

    if shape == 0:  # a fact table with nested terms
        clauses = [atom(f"{unique}, {_fe_term(rng, 2)}") + "."] + [
            atom(f"{_fe_term(rng, 1)}, {_fe_term(rng, 3)}") + "."
            for _ in range(rng.randint(2, 5))]
        return False, clauses
    if shape == 1:  # arithmetic
        k1, k2 = rng.randrange(1, 9), rng.randrange(1, 9)
        clauses = [f"{atom(f'X, Y, {unique}')} :- Y is X * {k1} + {k2}, Y > {k1}.",
                   f"{atom('X, Y, Z')} :- Z is (X + Y) * {k2} - {k1}, Z =< X * Y."]
        arity = 3
    elif shape == 2:  # list recursion with arithmetic
        op = rng.choice("+*-")
        clauses = [atom(f"[], {unique}") + ".",
                   f"{atom('[X|Xs], [Y|Ys]')} :- Y is X {op} {rng.randrange(1, 9)}, "
                   f"{atom('Xs, Ys')}."]
        arity = 2
    elif shape == 3:  # tree recursion building nested lists
        clauses = [atom(f"leaf, [{unique}]") + ".",
                   f"{atom('node(L, V, R), [V|T]')} :- {atom('L, T1')}, {atom('R, T2')}, "
                   f"T = [T1|T2]."]
        arity = 2
    else:  # accumulator recursion
        clauses = [f"{atom('[], A, A')} :- A = {unique}.",
                   f"{atom('[X|Xs], A, R')} :- A1 = s(X, A), {atom('Xs, A1, R')}."]
        arity = 3
    clauses += [fact(arity) for _ in range(rng.randint(0, 3))]
    return pad == 0, clauses


def front_end(seed):
    """Generated names start with ``fg_``, so that they sort after the
    fault predicates ``fe_fault_*`` whatever the seed."""
    rng = random.Random(FRONT_END_STRUCTURE_SEED)
    names = _names(rng, FRONT_END_PREDICATES, "fg_")
    files = [[] for _ in range(FRONT_END_FILES)]
    sources = []
    for i, name in enumerate(names):
        plantable, clauses = _fe_predicate(rng, name, f"u{i}")
        if plantable:
            sources.append((name, clauses))
        files[i % FRONT_END_FILES].append("\n".join(clauses))
    planted = []
    for name, clauses in rng.sample(sources, FRONT_END_PLANTED):
        program = parse_program("\n".join(clauses))
        pred = next(iter(program.predicates))
        copy, members = _plant(build_sccs(program), pred, rng.randrange(2 ** 31))
        files[rng.randrange(FRONT_END_FILES)].append("\n".join(copy))
        planted.append(((str(pred),), members))
    out, table = _relabel(seed, {f"front{k}.pl": chunk for k, chunk in enumerate(files)},
                          "fg_")
    planted = [(_renamed(a, table), _renamed(b, table)) for a, b in planted]
    out["broken.pl"] = FAULT_FILE_GOOD + FAULT_FILE_BAD
    out["partner.pl"] = FAULT_PARTNER
    corpus = Corpus(out, ["--threshold", "1", "--fp-threshold", "1"], planted + [FAULT_PAIR])
    corpus.intended["broken.pl"] = FAULT_FILE_GOOD
    corpus.faults[reference.pair_key(*FAULT_PAIR)] = (
        "fault (b): one malformed clause makes cli.run drop its whole file")
    return corpus


# ---------------------------------------------------------------------------
# Building a workload
# ---------------------------------------------------------------------------

GENERATORS = {"dup-scale": dup_scale, "near-miss": near_miss,
              "wide-search": wide_search, "front-end": front_end}


def intended_sccs(corpus: Corpus) -> dict:
    """SCCs of the program the analysis should see, keyed by member names."""
    predicates = {}
    for name, text in corpus.files.items():
        program = parse_program(corpus.intended.get(name, text), filename=name)
        predicates.update(program.predicates)
    program = normalize_program(Program(predicates, (), frozenset()))
    return {reference.scc_key(scc): scc for scc in build_sccs(program)}


def build(workload: str, seed) -> Corpus:
    """Generate a workload's corpus and the reference value of each pair
    it expects: planted duplicates score sigma = N on both sides."""
    corpus = GENERATORS[workload](seed)
    corpus.sccs = intended_sccs(corpus)
    for left, right in corpus.planted:
        n_left = reference.self_similarity(corpus.sccs[left])
        n_right = reference.self_similarity(corpus.sccs[right])
        if n_left != n_right:
            raise RuntimeError(f"planted pair {left} ~ {right} is not a duplicate")
        corpus.expected[reference.pair_key(left, right)] = (n_left, {left: n_left, right: n_right})
    return corpus


def write(corpus: Corpus, directory: str) -> list:
    """Write the corpus files into ``directory`` (emptied first); returns
    their paths in a fixed order."""
    os.makedirs(directory, exist_ok=True)
    for stale in os.listdir(directory):
        os.remove(os.path.join(directory, stale))
    paths = []
    for name in sorted(corpus.files):
        path = os.path.join(directory, name)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(corpus.files[name])
        paths.append(path)
    return paths

