"""End-to-end acceptance checks. Each test prints one pass/fail line."""

import json
import pathlib
import random
import subprocess
import sys
import time
from fractions import Fraction

from logdup import (
    Atom, Goal, PredSymbol, Struct, Var, brute_force_commonality,
    build_sccs, candidate_pairs, check_glb_conjecture, closeness, commonality,
    enumerate_renamings, msg, mutate_duplicate, normalize_program,
    parse_goal, parse_program, render_clause, scc_of, scc_print,
    scc_similarity, shared_var_count, strict_commonality,
)
from logdup.cli import NODE_COUNTING_NOTE
from logdup.fingerprint import GoalPrint, scc_print_glb
from logdup.oracle import find_structure_witnesses
from logdup.syntax import node_counts
from tests.conftest import (
    ADD1_AND_SQR, APPEND, CONCAT, CORPUS, REV_ALL, scc_named,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent


def report(number, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"acceptance criterion {number:2d}: {status}  {detail}")
    assert passed, f"criterion {number} failed: {detail}"


def test_criterion_01_strict_commonality_worked_example():
    q1 = parse_goal("p(f(X),g(Y,h(Z,a))), q(Z,X)")
    q2 = parse_goal("p(f(T),g(T,h(Z,b))), q(Z,T)")
    value = strict_commonality(q1, q2)
    gen = msg(q1, q2).generalization
    msg_nodes = node_counts(gen)[0]
    delta = shared_var_count(q1, q2)
    best = min(
        (lambda t0: (strict_commonality(q1, q2), time.perf_counter() - t0))(
            time.perf_counter())[1]
        for _ in range(50))
    ok = value == 8 and msg_nodes == 6 and delta == 2 and value == msg_nodes + delta
    ok = ok and best < 0.001
    report(1, ok, f"c={value}, msg nodes={msg_nodes}, delta={delta}, "
                  f"runtime={best * 1000:.3f}ms")


def test_criterion_02_goal_similarity_worked_example():
    q1 = parse_goal("p(a,f(A)), q(A,B)")
    q2 = parse_goal("q(Y,Z), p(f(X),Y)")
    align = commonality(q1, q2)
    renaming_count = len(list(enumerate_renamings(q1, q2)))
    ok = (align.value == 5 and dict(align.renaming) == {"A": "Y", "B": "Z"}
          and renaming_count == 6)
    report(2, ok, f"sigma={align.value}, rho={dict(align.renaming)}, |R|={renaming_count}")


def test_criterion_03_scc_similarity_worked_examples():
    app = scc_named(APPEND, "append", 3)
    con = scc_named(CONCAT, "concat", 3)
    ra = scc_named(REV_ALL, "rev_all", 2)
    aas = scc_named(ADD1_AND_SQR, "add1_and_sqr", 2)

    result = closeness(app, con)
    perm = dict(result.witness.arg_permutations)[PredSymbol("append", 3)]
    ok = (result.sigma == 18 and perm.mapping == (2, 3, 1)
          and result.closeness == (Fraction(1), Fraction(1)))

    identity = [w for w in find_structure_witnesses(ra, aas)
                if all(src == dst for rho in w.renamings for src, dst in rho)]
    ok = ok and identity and scc_similarity(ra, aas, identity[0]) == 15
    report(3, bool(ok), f"append/concat sigma={result.sigma}, pi={perm.mapping}; "
                        f"rev_all/add1 identity sigma=15")


def test_criterion_04_closeness_deviation_documented():
    ra = scc_named(REV_ALL, "rev_all", 2)
    aas = scc_named(ADD1_AND_SQR, "add1_and_sqr", 2)
    gamma = closeness(ra, aas).closeness
    derived_ok = (abs(float(gamma[0]) - 15 / 18) < 1e-9
                  and abs(float(gamma[1]) - 15 / 26) < 1e-9)
    not_legacy = (abs(float(gamma[0]) - 0.79) > 1e-3
                  and abs(float(gamma[1]) - 0.6) > 1e-3)
    readme = (ROOT / "README.md").read_text()
    documented = "node counting" in readme.lower()
    in_metadata = "node_counting_note" in json.dumps(
        {"metadata": {"node_counting_note": NODE_COUNTING_NOTE}})
    from logdup.cli import Config, run
    _, live = run(Config(paths=[]))
    in_metadata = "node_counting_note" in live["metadata"]
    ok = derived_ok and not_legacy and documented and in_metadata
    report(4, ok, f"gamma=({float(gamma[0]):.6f}, {float(gamma[1]):.6f}), "
                  f"documented={documented}")


def test_criterion_05_fingerprint_worked_examples():
    app = scc_print(scc_named(APPEND, "append", 3, normalize=True))
    con = scc_print(scc_named(CONCAT, "concat", 3, normalize=True))
    ra = scc_print(scc_named(REV_ALL, "rev_all", 2, normalize=True))
    aas = scc_print(scc_named(ADD1_AND_SQR, "add1_and_sqr", 2, normalize=True))
    mp = scc_print(scc_named("mp([],[]).\nmp([X|Xs],[Y|Ys]) :- mp(Xs,Ys).",
                             "mp", 2, normalize=True))
    glb = scc_print_glb(ra, aas)
    empty_kept = any(len(cp.prints) == 2 and cp.prints[1] == GoalPrint(())
                     for pp in glb.prints for cp in pp.prints)
    ok = app == con and glb == mp and empty_kept
    report(5, ok, f"append print == concat print: {app == con}; glb == mp print: "
                  f"{glb == mp}; empty component kept: {empty_kept}")


def test_criterion_06_oracle_equivalence():
    preds = [PredSymbol("p", 2), PredSymbol("q", 1), PredSymbol("r", 2)]
    variables = ["X", "Y", "Z", "W"]
    rng = random.Random(1234)

    def random_goal(shape):
        atoms = []
        for pred in shape:
            args = []
            for _ in range(pred.arity):
                choice = rng.randrange(3)
                if choice == 0:
                    args.append(Var(rng.choice(variables)))
                elif choice == 1:
                    args.append(Struct(rng.choice("ab"), ()))
                else:
                    args.append(Struct("f", (Var(rng.choice(variables)),)))
            atoms.append(Atom(pred, tuple(args)))
        rng.shuffle(atoms)
        return Goal(tuple(atoms))

    start = time.perf_counter()
    checked = 0
    for _ in range(500):
        shape = [rng.choice(preds) for _ in range(rng.randint(1, 4))]
        g1, g2 = random_goal(list(shape)), random_goal(list(shape))
        align = commonality(g1, g2)
        assert not align.approximate
        assert align.value == brute_force_commonality(g1, g2), (g1, g2)
        checked += 1
    elapsed = time.perf_counter() - start
    ok = checked >= 500 and elapsed < 30
    report(6, ok, f"{checked} pairs agreed in {elapsed:.1f}s")


FIXTURE = """
app([],L,L).
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

FIXTURE_PREDS = [("app", 3), ("rev_all", 2), ("add1_and_sqr", 2), ("len", 2),
                 ("member", 2), ("sum", 2), ("double", 2), ("last", 2),
                 ("select", 3), ("tree_size", 2)]


def test_criterion_07_mutation_round_trip():
    from logdup import Program

    program = normalize_program(parse_program(FIXTURE))
    sccs = build_sccs(program)
    mutations = 0
    for name, arity in FIXTURE_PREDS:
        original = scc_of(sccs, PredSymbol(name, arity))
        for seed in range(10):
            mutated, _ = mutate_duplicate(original, seed)
            result = closeness(original, mutated)
            assert result is not None, (name, seed)
            assert result.closeness == (Fraction(1), Fraction(1)), (name, seed)
            assert scc_print(original) == scc_print(mutated), (name, seed)

            predicates = {}
            for scc in (original, mutated):
                for pred in scc.members:
                    predicates[pred] = scc.clauses_of(pred)
            pair_prog = Program(predicates, (), frozenset())
            pairs = candidate_pairs(pair_prog, Fraction(1))
            assert any({l.name(), r.name()} == {original.name(), mutated.name()}
                       for l, r, _ in pairs), (name, seed)
            mutations += 1
    report(7, mutations >= 100, f"{mutations} mutations at closeness (1,1), "
                                f"all surfaced at threshold 1.0")


def test_criterion_08_glb_conjecture_checker(tmp_path):
    rng = random.Random(99)
    variables = ["X", "Y", "Z", "W"]
    preds = [PredSymbol("p", 2), PredSymbol("q", 1)]
    eq = PredSymbol("=", 2)

    def normal_atom():
        kind = rng.randrange(4)
        if kind == 0:
            return Atom(eq, (Var(rng.choice(variables)), Var(rng.choice(variables))))
        if kind == 1:
            lhs = rng.choice(variables)
            rest = [v for v in variables if v != lhs]
            args = tuple(Var(rng.choice(rest)) for _ in range(rng.randint(0, 2)))
            functor = rng.choice(["f", "g", "[]", "a"])
            if len(set(a.name for a in args)) != len(args):
                args = (Var(rest[0]),)
            return Atom(eq, (Var(lhs), Struct(functor, args)))
        pred = rng.choice(preds)
        return Atom(pred, tuple(Var(rng.choice(variables))
                                for _ in range(pred.arity)))

    violations = []
    checked = 0
    for _ in range(500):
        g1 = Goal(tuple(normal_atom() for _ in range(rng.randint(1, 4))))
        g2 = Goal(tuple(normal_atom() for _ in range(rng.randint(1, 4))))
        outcome = check_glb_conjecture(g1, g2)
        if outcome is not None:
            violations.append((g1, g2, outcome))
        checked += 1

    artifact = tmp_path / "conjecture_counterexamples.txt"
    if violations:
        lines = []
        for g1, g2, (glb, gen) in violations:
            lines.append(f"goal 1: {g1}\ngoal 2: {g2}\n"
                         f"glb print: {glb.items}\n"
                         f"generalization print: {gen.items}\n")
        artifact.write_text("\n".join(lines))
    ok = checked >= 500 and (not violations or artifact.exists())
    report(8, ok, f"{checked} pairs checked, {len(violations)} violations"
                  + (f" recorded in {artifact}" if violations else ""))


def test_criterion_09_sensitivity_to_moves_across_recursive_calls():
    moved = scc_named("""
    append(X,Y,Z) :- X = [], Z = Y.
    append(X,Y,Z) :- X = [Xe|Xs], append(Xs,Y,Zs), Z = [Xe|Zs].
    """, "append", 3)
    normal = scc_named("""
    append(X,Y,Z) :- X = [], Z = Y.
    append(X,Y,Z) :- X = [Xe|Xs], Z = [Xe|Zs], append(Xs,Y,Zs).
    """, "append", 3)
    concat = scc_named("""
    concat(A,B,C) :- B = [], A = C.
    concat(A,B,C) :- A = [Be|As], B = [Be|Bs], concat(As,Bs,C).
    """, "concat", 3)
    still_structured = bool(list(find_structure_witnesses(moved, concat)))
    full = closeness(normal, concat).sigma
    lowered = closeness(moved, concat).sigma
    ok = still_structured and lowered < full
    report(9, ok, f"structure kept: {still_structured}, "
                  f"sigma {lowered} < {full}")


def _scale_corpus():
    rng = random.Random(7)
    lines = []
    base_sccs = []
    for i in range(80):
        recursive = 1 + (i % 4)
        facts = 10 - recursive
        for j in range(facts):
            lines.append(f"p{i}(a{i}x{j}, b{i}x{j}).")
        for k in range(recursive):
            lines.append(f"p{i}([e{i}k{k}(X)|Xs], [g{i}k{k}|Ys]) :- p{i}(Xs, Ys).")
    source = "\n".join(lines)
    program = parse_program(source)
    sccs = build_sccs(program)
    extra = []
    for i in range(20):
        scc = scc_of(sccs, PredSymbol(f"p{i}", 2))
        mutated, _ = mutate_duplicate(scc, 1000 + i)
        for clause in mutated.clauses:
            extra.append(render_clause(clause))
    return source + "\n" + "\n".join(extra) + "\n"


def test_criterion_10_scale_smoke(tmp_path):
    corpus = _scale_corpus()
    assert corpus.count(".\n") + corpus.count(".\r") >= 1000
    path = tmp_path / "corpus.pl"
    path.write_text(corpus)
    cmd = [sys.executable, "-m", "logdup", str(path), "--format", "json",
           "--threshold", "1", "--fp-threshold", "1"]
    start = time.perf_counter()
    first = subprocess.run(cmd, capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    second = subprocess.run(cmd, capture_output=True, text=True)
    assert first.returncode == 0, first.stderr
    reportdoc = json.loads(first.stdout)
    pairs = reportdoc["pairs"]
    all_dup = all(entry["closeness"] == [1.0, 1.0] for entry in pairs)
    planted = set()
    for entry in pairs:
        names = entry["left"]["predicates"] + entry["right"]["predicates"]
        bases = [n for n in names if "_" not in n.split("/")[0]]
        planted.add(bases[0])
    ok = (len(pairs) == 20 and all_dup and len(planted) == 20
          and elapsed < 10 and first.stdout == second.stdout)
    report(10, ok, f"{len(pairs)} pairs at (1,1) in {elapsed:.1f}s, "
                   f"byte-identical JSON: {first.stdout == second.stdout}")
