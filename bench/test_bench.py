"""Tests of the benchmark's reference, checker, corpora and spans.

Run from the repository root:  python3 -m pytest bench/test_bench.py -q
"""

import copy
import io
import contextlib
import itertools
import json
import os
import random
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import corpora  # noqa: E402
import expected  # noqa: E402
import reference  # noqa: E402
from spans import LAYERS, TARGETS, Tracer  # noqa: E402

import logdup.cli  # noqa: E402
from logdup import (  # noqa: E402
    Atom, Goal, PredSymbol, Struct, Var, brute_force_commonality, build_sccs,
    closeness, mutate_duplicate, normalize_program, parse_program, scc_of,
)

APPEND = """append([],L,L).
append([X|Xs],Y,[X|Zs]) :- append(Xs,Y,Zs).
"""
CONCAT = """concat(L,[],L).
concat([E|Zs],[E|Es],Y) :- concat(Zs,Es,Y).
"""
REV_ALL = """rev_all([],[]).
rev_all([X|Xs],[Y|Ys]) :- reverse(X,Y), rev_all(Xs,Ys).
"""
ADD1_AND_SQR = """add1_and_sqr([],[]).
add1_and_sqr([X|Xs],[Y|Ys]) :- N is X + 1, Y is N*N, add1_and_sqr(Xs,Ys).
"""


def scc(source, name, arity, normalize=False):
    program = parse_program(source)
    if normalize:
        program = normalize_program(program)
    return scc_of(build_sccs(program), PredSymbol(name, arity))


def fixture_sccs():
    return build_sccs(normalize_program(parse_program(corpora.RECALL_FIXTURE)))


# ---------------------------------------------------------------------------
# Reference closeness
# ---------------------------------------------------------------------------

def test_reference_reproduces_append_concat():
    assert reference.Reference().closeness(
        scc(APPEND, "append", 3), scc(CONCAT, "concat", 3)) == (18, 18, 18)


def test_reference_reproduces_rev_all_add1_and_sqr():
    sigma, n1, n2 = reference.Reference().closeness(
        scc(REV_ALL, "rev_all", 2), scc(ADD1_AND_SQR, "add1_and_sqr", 2))
    assert (Fraction(sigma, n1), Fraction(sigma, n2)) == (Fraction(15, 18), Fraction(15, 26))


@pytest.mark.parametrize("seed", range(3))
def test_reference_agrees_with_closeness_on_mutate_duplicate(seed):
    ref = reference.Reference()
    for original in fixture_sccs():
        mutated, _ = mutate_duplicate(original, seed)
        result = closeness(original, mutated)
        n = reference.self_similarity(original)
        assert ref.closeness(original, mutated) == (result.sigma, n, n)
        assert result.closeness == (Fraction(1), Fraction(1))


def test_reference_agrees_with_closeness_on_fixture_pairs():
    ref = reference.Reference()
    for a, b in itertools.combinations(fixture_sccs(), 2):
        result = closeness(a, b)
        mine = ref.closeness(a, b)
        assert (mine is None) == (result is None), (a.name(), b.name())
        if mine is not None:
            assert (mine[0], Fraction(mine[0], mine[1]), Fraction(mine[0], mine[2])) == (
                result.sigma, *result.closeness), (a.name(), b.name())


def test_own_enumeration_matches_the_oracle():
    rng = random.Random(5)
    preds = [PredSymbol("p", 2), PredSymbol("q", 1)]

    def goal(shape):
        atoms = []
        for pred in shape:
            atoms.append(Atom(pred, tuple(
                Var(rng.choice("XYZW")) if rng.random() < 0.6
                else Struct("f", (Var(rng.choice("XYZ")),)) for _ in range(pred.arity))))
        rng.shuffle(atoms)
        return Goal(tuple(atoms))

    for _ in range(150):
        shape = [rng.choice(preds) for _ in range(rng.randint(1, 3))]
        q1, q2 = goal(shape), goal(shape)
        assert reference.exhaustive_commonality(q1, q2) == brute_force_commonality(q1, q2)


# ---------------------------------------------------------------------------
# The report checker and the witness replayer
# ---------------------------------------------------------------------------

def small_corpus():
    """The recall fixture plus copies of len/2 and select/3."""
    sccs = build_sccs(parse_program(corpora.RECALL_FIXTURE))
    text, planted = corpora.RECALL_FIXTURE, []
    for k, pred in enumerate([PredSymbol("len", 2), PredSymbol("select", 3)]):
        clauses, members = corpora._plant(sccs, pred, 40 + k)
        text += "\n".join(clauses) + "\n"
        planted.append(((str(pred),), members))
    corpus = corpora.Corpus({"small.pl": text}, ["--threshold", "1", "--fp-threshold", "1"],
                            planted)
    corpus.sccs = corpora.intended_sccs(corpus)
    for left, right in planted:
        n = reference.self_similarity(corpus.sccs[left])
        corpus.expected[reference.pair_key(left, right)] = (n, {left: n, right: n})
    return corpus


@pytest.fixture(scope="module")
def checked(tmp_path_factory):
    corpus = small_corpus()
    paths = corpora.write(corpus, str(tmp_path_factory.mktemp("small")))
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert logdup.cli.main(paths + ["--format", "json"] + corpus.options) == 0
    return corpus, json.loads(buffer.getvalue())


def count(corpus, report):
    return reference.check_report(report, corpus.sccs, corpus.expected, reference.Reference())


def test_checker_passes_the_program_report(checked):
    corpus, report = checked
    assert count(corpus, report) == (2, {})


def corrupt_sigma(entry):
    entry["sigma"] -= 1


def corrupt_denominator(entry):
    entry["denominators"][1] += 1


def corrupt_approximate(entry):
    entry["approximate"] = True


def corrupt_renaming(entry):
    rho = entry["witness"]["renamings"][-1]
    source, target = next(iter(rho.items()))
    rho[source] = target + "x"


def corrupt_permutation(entry):
    for mapping in entry["witness"]["arg_permutations"].values():
        mapping.reverse()


def corrupt_clause_mapping(entry):
    pairs = entry["witness"]["clause_mapping"]
    pairs[0][1], pairs[1][1] = pairs[1][1], pairs[0][1]


@pytest.mark.parametrize("corrupt", [
    corrupt_sigma, corrupt_denominator, corrupt_approximate, corrupt_renaming,
    corrupt_permutation, corrupt_clause_mapping])
def test_checker_counts_a_corrupted_pair_as_failed(checked, corrupt):
    corpus, report = checked
    bad = copy.deepcopy(report)
    entry = next(e for e in bad["pairs"] if e["left"]["predicates"] == ["select/3"]
                 or e["right"]["predicates"] == ["select/3"])
    corrupt(entry)
    attempted, failures = count(corpus, bad)
    assert attempted == 2 and len(failures) == 1


def test_checker_counts_missing_and_unexpected_pairs(checked):
    corpus, report = checked
    dropped = copy.deepcopy(report)
    dropped["pairs"].pop()
    assert count(corpus, dropped)[1] and count(corpus, dropped)[0] == 2
    extra = copy.deepcopy(report)
    stray = copy.deepcopy(extra["pairs"][0])
    stray["right"]["predicates"] = ["sum/2"]
    extra["pairs"].append(stray)
    attempted, failures = count(corpus, extra)
    assert attempted == 3 and list(failures.values()) == ["not expected"]


def test_checker_fails_every_pair_of_a_failed_run(checked):
    corpus, _ = checked
    assert count(corpus, None) == (2, {key: "run failed" for key in corpus.expected})


# ---------------------------------------------------------------------------
# Corpora
# ---------------------------------------------------------------------------

def test_near_miss_expected_file_is_current():
    with open(corpora.NEAR_MISS_EXPECTED) as handle:
        assert expected.dump(expected.compute()) == handle.read()


def test_near_miss_expectations_hold_for_a_seeded_corpus():
    """The run seed renames and reorders only; recomputing every pair of
    a seeded corpus gives the stored pairs and values."""
    corpus = corpora.build("near-miss", 7)
    ref = reference.Reference()
    found = {}
    for a, b in itertools.combinations(sorted(corpus.sccs), 2):
        n_a = reference.self_similarity(corpus.sccs[a])
        n_b = reference.self_similarity(corpus.sccs[b])
        sigma = ref.sigma(corpus.sccs[a], corpus.sccs[b], floor=(max(n_a, n_b) + 1) // 2)
        if sigma is not None:
            found[reference.pair_key(a, b)] = (sigma, {a: n_a, b: n_b})
    assert found == corpus.expected
    assert set(corpus.faults) <= set(found)


@pytest.mark.parametrize("workload", ["dup-scale", "wide-search", "front-end"])
def test_planted_pairs_are_duplicates_by_the_reference(workload):
    corpus = corpora.build(workload, 3)
    ref = reference.Reference()
    for key, (sigma, denominators) in corpus.expected.items():
        left, right = sorted(key)
        assert ref.closeness(corpus.sccs[left], corpus.sccs[right]) == (
            sigma, denominators[left], denominators[right])


def test_the_same_seed_gives_the_same_corpus():
    for workload in corpora.WORKLOADS:
        assert corpora.build(workload, 4).files == corpora.build(workload, 4).files
        assert corpora.build(workload, 4).files != corpora.build(workload, 5).files


@pytest.mark.parametrize("workload", corpora.WORKLOADS)
def test_the_seed_changes_names_and_order_only(workload):
    """Two seeds give SCCs of the same sizes in the same name order and the
    same expected values, so a run does the same work whatever the seed."""
    def shape(corpus):
        sccs = [(len(key), reference.self_similarity(corpus.sccs[key]))
                for key in sorted(corpus.sccs)]
        values = sorted((sigma, sorted(n.values())) for sigma, n in corpus.expected.values())
        return sccs, values

    assert shape(corpora.build(workload, 4)) == shape(corpora.build(workload, 5))


@pytest.mark.parametrize("workload", corpora.WORKLOADS)
def test_only_the_known_faults_fail(workload, tmp_path):
    corpus = corpora.build(workload, 2)
    paths = corpora.write(corpus, str(tmp_path))
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        logdup.cli.main(paths + ["--format", "json"] + corpus.options)
    _, failures = count(corpus, json.loads(buffer.getvalue()))
    assert set(failures) == set(corpus.faults)


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------

def test_layer_self_times_add_up_to_the_root_span(tmp_path):
    path = tmp_path / "small.pl"
    path.write_text(corpora.RECALL_FIXTURE)
    saved = [getattr(module, attr) for module, attr, _ in TARGETS]
    tracer = Tracer()
    with contextlib.redirect_stdout(io.StringIO()):
        with tracer.patch():
            tracer.root(lambda: logdup.cli.main([str(path), "--format", "json"]))
    assert [getattr(module, attr) for module, attr, _ in TARGETS] == saved
    root = sum(tracer.durations("cli.main"))
    selves = tracer.layer_self_times()
    assert set(selves) == set(LAYERS)
    assert abs(sum(selves.values()) - root) < 1e-6
    assert tracer.durations("structure.closeness") and tracer.durations("cli.render")
    tracer.write(str(tmp_path / "spans.json"))
    spans = json.loads((tmp_path / "spans.json").read_text())["spans"]
    assert spans[0][1] == -1 and all(0 <= s[1] < i for i, s in enumerate(spans) if i)
