import gc
import json
import subprocess
import sys
from dataclasses import asdict, replace
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from logdup import (Atom, Limits, Num, PredSymbol, Struct, build_sccs, closeness,
                    parse_clause, parse_program, parse_term, render_clause, scc_of)
from logdup import cli, structure
from logdup.cli import Config, build_arg_parser, main, run
from tests.conftest import ADD1_AND_SQR, APPEND, CONCAT, CORPUS, REV_ALL


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run_cli(args):
    return subprocess.run([sys.executable, "-m", "logdup", *args],
                          capture_output=True, text=True)


def test_duplicate_pair_text_output(tmp_path, capsys):
    path = write(tmp_path, "dup.pl", APPEND + CONCAT)
    code = main([path])
    out = capsys.readouterr().out
    assert code == 0
    assert "duplicate: [append/3] ~ [concat/3]" in out
    assert "(1.000, 1.000)" in out


def test_no_normalize_reproduces_raw_figures(tmp_path, capsys):
    path = write(tmp_path, "sim.pl", REV_ALL + ADD1_AND_SQR)
    code = main([path, "--no-normalize", "--fp-threshold", "0",
                 "--format", "json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    (entry,) = report["pairs"]
    assert entry["sigma"] == 15
    assert abs(entry["closeness"][1] - 15 / 18) < 1e-9
    assert abs(entry["closeness"][0] - 15 / 26) < 1e-9
    assert entry["denominators"] == [26, 18]


def test_json_schema_keys(tmp_path, capsys):
    path = write(tmp_path, "dup.pl", CORPUS)
    main([path, "--format", "json", "--emit-common-core"])
    report = json.loads(capsys.readouterr().out)
    assert report["version"] == 1
    assert "node_counting_note" in report["metadata"]
    for entry in report["pairs"]:
        for key in ("left", "right", "fingerprint_estimate", "closeness",
                    "sigma", "denominators", "approximate", "witness",
                    "common_core"):
            assert key in entry
        assert set(entry["witness"]) == {"arg_permutations", "clause_mapping",
                                         "renamings"}
        assert entry["left"]["file"] == str(path)


def test_witness_replays_from_json(tmp_path, capsys):
    from logdup import (ArgPermutation, PredSymbol, StructureWitness,
                        build_sccs, normalize_program, parse_program, scc_of,
                        validate_witness)

    path = write(tmp_path, "dup.pl", APPEND + CONCAT)
    main([path, "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    (entry,) = report["pairs"]
    program = normalize_program(parse_program((tmp_path / "dup.pl").read_text(),
                                              filename=str(path)))
    sccs = build_sccs(program)
    left = scc_of(sccs, PredSymbol("append", 3))
    right = scc_of(sccs, PredSymbol("concat", 3))
    raw = entry["witness"]
    perms = tuple((PredSymbol(*k.rsplit("/", 1)[:1], int(k.rsplit("/", 1)[1])),
                   ArgPermutation(tuple(v)))
                  for k, v in sorted(raw["arg_permutations"].items()))
    witness = StructureWitness(
        tuple(tuple(p) for p in raw["clause_mapping"]),
        ((PredSymbol("append", 3), PredSymbol("concat", 3)),),
        perms,
        tuple(tuple(sorted(r.items())) for r in raw["renamings"]),
    )
    assert validate_witness(left, right, witness)


def test_multi_member_witness_replays_from_json(tmp_path, capsys):
    from logdup import (ArgPermutation, StructureWitness, mutate_duplicate,
                        normalize_program, scc_similarity, validate_witness)
    from tests.test_structure import TWO_MEMBERS

    ring = scc_of(build_sccs(parse_program(TWO_MEMBERS)), PredSymbol("tw_a", 2))
    copy, _ = mutate_duplicate(ring, seed=3)
    path = write(tmp_path, "rings.pl", TWO_MEMBERS + "".join(render_clause(c) + "\n"
                                                             for c in copy.clauses))
    assert main([path, "--format", "json"]) == 0
    (entry,) = json.loads(capsys.readouterr().out)["pairs"]
    sccs = build_sccs(normalize_program(parse_program(Path(path).read_text(), filename=path)))

    def pred(text):
        name, arity = text.rsplit("/", 1)
        return PredSymbol(name, int(arity))

    left, right = (scc_of(sccs, pred(entry[side]["predicates"][0])) for side in ("left", "right"))
    assert len(left.members) == len(right.members) == 2
    raw = entry["witness"]
    pairs = tuple(tuple(p) for p in raw["clause_mapping"])
    # the predicate bijection is read off the heads of the mapped clauses
    pred_map = tuple(sorted({left.clauses[i].head.pred: right.clauses[j].head.pred
                             for i, j in pairs}.items()))
    assert len(pred_map) == 2
    witness = StructureWitness(
        pairs, pred_map,
        tuple(sorted((pred(k), ArgPermutation(tuple(v)))
                     for k, v in raw["arg_permutations"].items())),
        tuple(tuple(sorted(r.items())) for r in raw["renamings"]),
    )
    assert validate_witness(left, right, witness)
    assert scc_similarity(left, right, witness) == entry["sigma"]


def test_empty_corpus_exits_zero(capsys):
    assert main([]) == 0
    assert "no similar definitions found" in capsys.readouterr().out


def test_unreadable_path_exits_two(tmp_path, capsys):
    assert main([str(tmp_path / "missing.pl")]) == 2


def test_file_that_is_not_utf8_exits_two(tmp_path, capsys):
    good = write(tmp_path, "good.pl", APPEND + CONCAT)
    latin = tmp_path / "latin.pl"
    latin.write_bytes("p('\u00e9').".encode("latin-1"))
    assert main([good, str(latin)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"logdup: cannot read {latin}: ")
    assert "in position 3" in captured.err


def test_a_byte_order_mark_is_read(tmp_path, capsys):
    path = tmp_path / "bom.pl"
    path.write_text("\ufeffp(X) :- X = a.\nq(Y) :- Y = a.\n", encoding="utf-8")
    assert main([str(path)]) == 0
    assert "duplicate: [p/1] ~ [q/1]" in capsys.readouterr().out


@pytest.mark.parametrize("second", ["dup.pl", "./dup.pl"])
def test_a_file_named_twice_is_read_once(tmp_path, monkeypatch, capsys, second):
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "dup.pl", "p(X) :- X = a.\nq(Y) :- Y = a.\n")
    assert main(["dup.pl"]) == 0
    once = capsys.readouterr().out
    assert main(["dup.pl", second]) == 0
    out = capsys.readouterr().out
    assert out == once
    assert "sigma: 6 / 6 and 6" in out
    assert "merged" not in out


def test_invalid_threshold_rejected():
    result = run_cli(["--threshold", "2"])
    assert result.returncode == 2


def test_all_inputs_unparsable_exits_one(tmp_path, capsys):
    path = write(tmp_path, "bad.pl", "p(a :- q.")
    assert main([path]) == 1


def test_partial_parse_failure_becomes_warning(tmp_path, capsys):
    good = write(tmp_path, "good.pl", APPEND + CONCAT)
    bad = write(tmp_path, "bad.pl", "p(a :- q.")
    code = main([good, bad, "--format", "json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert any("parse error" in w for w in report["warnings"])
    assert len(report["pairs"]) == 1


def test_a_dynamic_declaration_keeps_its_file(tmp_path, capsys):
    path = write(tmp_path, "dyn.pl", ":- dynamic counter/1.\n" + APPEND + CONCAT)
    assert main([path]) == 0
    out = capsys.readouterr().out
    assert f"warning: {path}:1: directive skipped" in out
    assert "duplicate: [append/3] ~ [concat/3]" in out


def test_deeply_nested_term_becomes_a_parse_warning(tmp_path, capsys):
    good = write(tmp_path, "good.pl", APPEND + CONCAT)
    deep = write(tmp_path, "deep.pl", "p(" + "f(" * 1000 + "a" + ")" * 1000 + ").\n")
    assert main([good, deep]) == 0
    out = capsys.readouterr().out
    assert f"warning: parse error: {deep}:1:1: term nested too deeply" in out
    assert "duplicate: [append/3] ~ [concat/3]" in out


def test_long_body_is_analyzed(tmp_path, capsys):
    good = write(tmp_path, "good.pl", APPEND + CONCAT)
    long = write(tmp_path, "long.pl", "p(X) :- " + ", ".join(["q(X)"] * 5000) + ".\n")
    assert main([good, long]) == 0
    out = capsys.readouterr().out
    assert "parse error" not in out
    assert "duplicate: [append/3] ~ [concat/3]" in out


def test_readme_example_output(tmp_path, capsys):
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    source = readme.split("$ cat > examples.pl <<'EOF'\n", 1)[1].split("EOF\n", 1)[0]
    shown = readme.split("$ logdup examples.pl --emit-common-core\n", 1)[1].split("```", 1)[0]
    assert main([write(tmp_path, "examples.pl", source), "--emit-common-core"]) == 0
    assert capsys.readouterr().out == shown


def test_threshold_monotonicity(tmp_path):
    path = write(tmp_path, "all.pl", CORPUS)
    counts = []
    for threshold in (Fraction(1, 2), Fraction(3, 4), Fraction(1)):
        _, report = run(Config(paths=[path], threshold=threshold))
        counts.append(len(report["pairs"]))
    assert counts == sorted(counts, reverse=True)


def test_json_output_is_deterministic(tmp_path):
    path = write(tmp_path, "all.pl", CORPUS)
    first = run_cli([path, "--format", "json", "--emit-common-core"])
    second = run_cli([path, "--format", "json", "--emit-common-core"])
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout



@pytest.mark.parametrize("source, warned, pair", [
    ("'='(X,Y) :- X = Y, q(Y).\nq(a).\nr(X,Y) :- X = Y, s(Y).\nt(X,Y) :- X = Y, s(Y).\n",
     ["'='/2"], ("r/2", "t/2")),
    ("is(c,d).\n'<'(c,d).\np(a).\nq(a).\n", ["is/2", "'<'/2"], ("p/1", "q/1")),
], ids=["eq-rule", "arith-facts"])
def test_a_definition_of_a_builtin_is_not_compared(tmp_path, capsys, source, warned, pair):
    path = write(tmp_path, "builtin.pl", source)
    assert main([path, "--threshold", "0", "--fp-threshold", "0", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["warnings"] == [
        f"{path}:{line}: predicate {name} excluded from analysis (redefines a builtin)"
        for line, name in enumerate(warned, 1)]
    # the other predicates are still compared, and no builtin is
    assert [(*e["left"]["predicates"], *e["right"]["predicates"])
            for e in report["pairs"]] == [pair]


def test_skipped_predicate_warning_surfaces(tmp_path, capsys):
    path = write(tmp_path, "mixed.pl", "p(X) :- q(X) ; r(X).\n" + APPEND + CONCAT)
    main([path])
    out = capsys.readouterr().out
    assert "warning:" in out and "p/1" in out


@pytest.mark.parametrize("source", ["p(X) :- X = 1.0.\nq(Y) :- Y = 1.\n", "p(1.0).\nq(1).\n"],
                         ids=["rules", "facts"])
def test_integer_and_float_constants_differ(tmp_path, capsys, source):
    # 1 = 1.0 fails in Prolog, so p and q are not duplicates
    path = write(tmp_path, "num.pl", source)
    assert main([path, "--emit-common-core"]) == 0
    assert capsys.readouterr().out == (
        "similar: [p/1] ~ [q/1]\n"
        "  closeness: (0.833, 0.833)  sigma: 5 / 6 and 6\n"
        "  common core:\n"
        "    core_p_q(A) :- A = G1.\n")


def test_common_core_spaces_a_negative_operand(tmp_path, capsys):
    clause = "(X) :- X = -1, Y is X - -1, Y > 0.\n"
    path = write(tmp_path, "neg.pl", "p" + clause + "q" + clause)
    assert main([path, "--emit-common-core"]) == 0
    assert "    core_p_q(A) :- A = -1, Y is A- -1, Y > 0.\n" in capsys.readouterr().out


@pytest.mark.parametrize("options, x, y", [([], "A", "B"), (["--no-normalize"], "X", "Y")],
                         ids=["normalized", "raw"])
def test_common_core_of_deep_arithmetic(tmp_path, options, x, y):
    chain = "+1" * 3000
    path = write(tmp_path, "deep.pl", f"p(X,Y) :- Y is X{chain}.\nq(X,Y) :- Y is X{chain}.\n")
    result = run_cli([path, "--emit-common-core", *options])
    assert (result.returncode, result.stderr) == (0, "")
    assert "duplicate: [p/2] ~ [q/2]" in result.stdout
    assert f"  common core:\n    core_p_q({x},{y}) :- {y} is {x}{chain}.\n" in result.stdout


@pytest.mark.parametrize("options", [[], ["--no-normalize"]], ids=["normalized", "raw"])
def test_memoized_segment_pairs_with_deep_arithmetic(tmp_path, options):
    # two `is` atoms per segment, so closeness keys each segment pair by
    # its shape, walking the 3,000-deep expression
    chain = "+1" * 3000
    source = "".join(f"{p}(X,Y) :- Y is X{chain}, Z is X+2, Z > 0.\n"
                     f"{p}(X,Y) :- Y is X+3, Z is X+4, Z > 1.\n" for p in "pq")
    path = write(tmp_path, "deep.pl", source)
    result = run_cli([path, "--emit-common-core", *options])
    assert (result.returncode, result.stderr) == (0, "")
    assert "duplicate: [p/2] ~ [q/2]" in result.stdout
    assert "sigma: 6036 / 6036 and 6036" in result.stdout


@pytest.mark.parametrize("options, x, y", [([], "A", "B"), (["--no-normalize"], "X", "Y")],
                         ids=["normalized", "raw"])
def test_common_core_generalizes_a_deep_mismatch(tmp_path, options, x, y):
    # the 3,000-deep expression and X*2 differ at the root: one variable
    path = write(tmp_path, "deep.pl",
                 f"p(X,Y) :- Y is X{'+1' * 3000}.\nq(X,Y) :- Y is X*2.\n")
    result = run_cli([path, "--threshold", "0", "--fp-threshold", "0",
                      "--emit-common-core", *options])
    assert (result.returncode, result.stderr) == (0, "")
    assert f"  common core:\n    core_p_q({x},{y}) :- {y} is G1.\n" in result.stdout


def test_common_core_of_a_long_conjunction_term_parses_back(tmp_path):
    conjunction = ",".join(["a"] * 3000)
    clause = f"(X) :- X = ({conjunction}).\n"
    path = write(tmp_path, "conj.pl", "p" + clause + "q" + clause)
    result = run_cli([path, "--no-normalize", "--emit-common-core"])
    assert (result.returncode, result.stderr) == (0, "")
    core = result.stdout.split("  common core:\n    ")[1]
    assert core == f"core_p_q(X) :- X = ({conjunction}).\n"
    # compared as text: term equality on a 3,000-deep term recurses
    assert render_clause(parse_clause(core)) + "\n" == core


_OPS_CLAUSE = "(X,Y) :- X = '/', Y = f('+',',',';'), Z = X/'*', g(Z).\n"
_NECK_CLAUSE = "(X) :- X = ((a:-b):-c), g(X).\n"
_EMPTY_ATOM_CLAUSE = "(X) :- X = '', g(X).\n"


@pytest.mark.parametrize("clause, options, core", [
    (_OPS_CLAUSE, [], "core_p_q(A,B) :- A = '/', B = f(V1,V2,V3), V1 = '+', V2 = ',', "
                      "V3 = ';', Z = A/V4, V4 = '*', g(Z)."),
    (_OPS_CLAUSE, ["--no-normalize"],
     "core_p_q(X,Y) :- X = '/', Y = f('+',',',';'), Z = X/'*', g(Z)."),
    (_NECK_CLAUSE, [], "core_p_q(A) :- A = (V1:-V2), V1 = (V3:-V4), V3 = a, V4 = b, V2 = c, "
                       "g(A)."),
    (_NECK_CLAUSE, ["--no-normalize"], "core_p_q(X) :- X = ((a:-b):-c), g(X)."),
    (_EMPTY_ATOM_CLAUSE, [], "core_p_q(A) :- A = '', g(A)."),
    (_EMPTY_ATOM_CLAUSE, ["--no-normalize"], "core_p_q(X) :- X = '', g(X)."),
], ids=["normalized", "raw", "neck-normalized", "neck-raw", "empty-atom-normalized",
        "empty-atom-raw"])
def test_common_core_of_operator_atoms_parses_back(tmp_path, capsys, clause, options, core):
    path = write(tmp_path, "ops.pl", "p" + clause + "q" + clause)
    assert main([path, "--emit-common-core", "--format", "json", *options]) == 0
    (entry,) = json.loads(capsys.readouterr().out)["pairs"]
    assert entry["common_core"] == core
    ((parsed,),) = parse_program(core).predicates.values()
    assert render_clause(parsed) == core


def test_common_core_float_parses_back(tmp_path, capsys):
    clause = "(X) :- X = 100000000000000000000.0.\n"
    path = write(tmp_path, "float.pl", "p" + clause + "q" + clause)
    assert main([path, "--emit-common-core"]) == 0
    assert "    core_p_q(A) :- A = 100000000000000000000.0.\n" in capsys.readouterr().out


def test_deep_list_fact_is_analyzed(tmp_path, capsys):
    path = write(tmp_path, "deep.pl", "big([" + ",".join(map(str, range(2000))) + "]).\n")
    assert main([path]) == 0
    assert main([path, "--no-normalize"]) == 0


def test_duplicate_list_facts_beyond_the_exact_limits_are_exact(tmp_path, capsys):
    # the greedy search reaches the root bound, so the pair is exact and
    # gets a common core
    items = ",".join(map(str, range(40)))
    path = write(tmp_path, "list.pl", f"big([{items}]).\nbig2([{items}]).\n")
    assert main([path, "--emit-common-core", "--format", "json"]) == 0
    (entry,) = json.loads(capsys.readouterr().out)["pairs"]
    assert (entry["sigma"], entry["approximate"]) == (406, False)
    assert entry["common_core"].startswith("core_big_big2(A) :- A = [V1|V2], V1 = 0, ")


def test_deep_list_facts_compared_without_normalization(tmp_path, capsys):
    items = ",".join(map(str, range(3000)))
    path = write(tmp_path, "deep.pl", f"big([{items}]).\nbag([{items}]).\n")
    assert main([path, "--no-normalize"]) == 0
    assert "duplicate: [bag/1] ~ [big/1]" in capsys.readouterr().out
    assert main([path, "--no-normalize", "--format", "json"]) == 0
    (entry,) = json.loads(capsys.readouterr().out)["pairs"]
    assert entry["closeness"] == [1.0, 1.0]
    assert entry["sigma"] == 6003
    assert entry["denominators"] == [6003, 6003]


def test_paths_may_follow_options(tmp_path, capsys):
    left = write(tmp_path, "a.pl", APPEND)
    right = write(tmp_path, "b.pl", CONCAT)
    code = main([left, "--threshold", "1", right, "--format", "json"])
    assert code == 0
    (entry,) = json.loads(capsys.readouterr().out)["pairs"]
    assert {entry["left"]["file"], entry["right"]["file"]} == {left, right}


def test_long_arithmetic_expression_is_analyzed(tmp_path, capsys):
    total = "+".join(["1"] * 2000)
    single = write(tmp_path, "one.pl", f"s(X) :- X is {total}.\n")
    pair = write(tmp_path, "two.pl", f"s(X) :- X is {total}.\nt(Y) :- Y is {total}.\n")
    assert main([single]) == 0
    assert main([single, "--no-normalize"]) == 0
    capsys.readouterr()
    for options in ([], ["--no-normalize"]):
        assert main([pair, "--format", "json", *options]) == 0
        (entry,) = json.loads(capsys.readouterr().out)["pairs"]
        assert entry["closeness"] == [1.0, 1.0]
        assert entry["sigma"] == 4004


def test_predicate_defined_in_two_files_is_warned(tmp_path, capsys):
    left = write(tmp_path, "a.pl", "h(X,Y) :- X = Y.\n")
    right = write(tmp_path, "b.pl", "h(X,Y) :- X = f(Y).\nk(X,Y) :- X = Y.\n")
    warning = f"h/2 is defined in {left} and {right}; their clauses are merged"
    assert main([left, right, "--threshold", "1", "--fp-threshold", "1"]) == 0
    assert f"warning: {warning}\n" in capsys.readouterr().out
    main([left, right, "--format", "json"])
    assert json.loads(capsys.readouterr().out)["warnings"] == [warning]
    main([right, "--format", "json"])
    assert json.loads(capsys.readouterr().out)["warnings"] == []


def test_compound_call_argument_without_normalization(tmp_path, capsys):
    single = write(tmp_path, "nn.pl", "p :- q([1,2]).\n")
    assert main([single, "--no-normalize"]) == 0
    pair = write(tmp_path, "pair.pl", "p :- q([1,2]).\nr :- q([1,2]).\n")
    capsys.readouterr()
    assert main([pair, "--no-normalize", "--format", "json"]) == 0
    (entry,) = json.loads(capsys.readouterr().out)["pairs"]
    assert entry["closeness"] == [1.0, 1.0]
    assert entry["fingerprint_estimate"] == [1.0, 1.0]


@pytest.mark.parametrize("fields, exercised", [
    ({}, lambda pairs: pairs and not any(e["approximate"] for e in pairs)),
    ({"limits": Limits(exact_vars=1)}, lambda pairs: any(e["approximate"] for e in pairs)),
    ({"emit_common_core": True}, lambda pairs: any(e["common_core"] for e in pairs)),
    ({"normalize": False}, lambda pairs: pairs),
], ids=["exact", "greedy", "common-core", "no-normalize"])
def test_pipeline_leaves_no_reference_cycles(tmp_path, fields, exercised):
    # main runs the pipeline with the cyclic collector paused, which is
    # safe only while nothing in it builds a reference cycle
    good = write(tmp_path, "good.pl", CORPUS)
    bad = write(tmp_path, "bad.pl", "p(a :- q.")
    # no renaming reaches the root bound of these segments, so the greedy
    # search leaves their pair approximate
    greedy = write(tmp_path, "greedy.pl", "greedy_p(X) :- r(X,Y,Y).\ngreedy_q(X) :- r(X,Y,Z).\n")
    gc.collect()
    gc.disable()
    try:
        code, report = run(Config(paths=[good, bad, greedy], **fields))
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert code == 0
    assert any("parse error" in w for w in report["warnings"])
    assert exercised(report["pairs"])


APP = """
app([],L,L).
app([H|T],L,[H|R]) :- app(T,L,R).
"""

LIMIT_FLAGS = {"exact_vars": "--exact-vars-limit", "exact_group": "--exact-group-limit",
               "arity": "--arity-limit", "witness_cap": "--witness-cap"}


def test_limit_flags_default_to_limits():
    args = vars(build_arg_parser().parse_args([]))
    assert {name: args[flag[2:].replace("-", "_")] for name, flag in LIMIT_FLAGS.items()} \
        == asdict(Limits())


def test_block_comments_and_exponent_floats_reach_the_core(tmp_path, capsys):
    path = write(tmp_path, "bc.pl", "/* header */\np(X) :- X = 1.5e20. /* c */\n"
                                    "q(X) :- X = 0.15e21./* c\n */\n")
    assert main([path, "--emit-common-core"]) == 0
    out = capsys.readouterr().out
    assert "duplicate: [p/1] ~ [q/1]" in out
    (core,) = [line.strip() for line in out.splitlines() if "150000000000000000000.0" in line]
    assert parse_clause(core).body == parse_clause("p(A) :- A = 1.5e20.").body


def test_threshold_flags_default_to_config():
    args = build_arg_parser().parse_args([])
    config = Config()
    assert (args.threshold, args.fp_threshold) == (config.threshold, config.fp_threshold)


def test_report_writes_every_predicate_as_a_string(tmp_path):
    # a symbol is a tuple, which json.dumps would write as a list
    path = write(tmp_path, "all.pl", CORPUS)
    code, report = run(Config(paths=[path], threshold=Fraction(0), fp_threshold=Fraction(0),
                              emit_common_core=True))
    assert code == 0 and len(report["pairs"]) > 1
    stack = [report]
    while stack:
        value = stack.pop()
        assert not isinstance(value, tuple), value
        stack.extend(value.values() if isinstance(value, dict)
                     else value if isinstance(value, list) else ())
    for entry in json.loads(json.dumps(report))["pairs"]:
        preds = (entry["left"]["predicates"] + entry["right"]["predicates"]
                 + list(entry["witness"]["arg_permutations"]))
        assert all(isinstance(p, str) and "/" in p for p in preds), preds


NAMES = "''(X) :- X = a.\n'a b'(X) :- X = a.\n'/'(X) :- X = a.\n"


def test_report_names_predicates_as_the_writer_quotes_them(tmp_path, capsys):
    # written bare, these would print as /1, a b/1 and //1, which do not parse back
    path = write(tmp_path, "names.pl", NAMES)
    assert main([path, "--format", "json"]) == 0
    pairs = json.loads(capsys.readouterr().out)["pairs"]
    preds = [p for e in pairs for side in ("left", "right") for p in e[side]["predicates"]]
    assert sorted(set(preds)) == ["''/1", "'/'/1", "'a b'/1"] and len(preds) == 6
    assert {parse_term(p) for p in preds} == {
        Struct("/", (Struct(name), Num(1))) for name in ("", "a b", "/")}
    assert main([path]) == 0
    assert capsys.readouterr().out.splitlines()[::2] == [
        "duplicate: [''/1] ~ ['/'/1]", "duplicate: [''/1] ~ ['a b'/1]",
        "duplicate: ['/'/1] ~ ['a b'/1]"]


def test_a_name_with_a_line_break_is_one_predicate_on_one_report_line(tmp_path, capsys):
    # '\n' in a quoted atom is ISO's line break, so both clauses define
    # one predicate, which the report writes with the escape
    path = write(tmp_path, "break.pl", "'a\\nb'(X) :- X = a.\n'a\nb'(X) :- X = b.\n"
                                       "c(X) :- X = a.\nc(X) :- X = b.\n")
    assert main([path]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "duplicate: ['a\\nb'/1] ~ [c/1]"
    assert main([path, "--format", "json"]) == 0
    (pair,) = json.loads(capsys.readouterr().out)["pairs"]
    assert pair["left"]["predicates"] == ["'a\\nb'/1"]
    assert parse_term(pair["left"]["predicates"][0]) == Struct("/", (Struct("a\nb"), Num(1)))


@pytest.mark.parametrize("name", list(LIMIT_FLAGS))
def test_a_limit_flag_below_one_is_a_usage_error(tmp_path, name):
    path = write(tmp_path, "dup.pl", APPEND + CONCAT)
    result = run_cli([path, LIMIT_FLAGS[name], "0"])
    assert (result.returncode, result.stdout) == (2, "")
    assert f"error: {name} must be at least 1, got 0" in result.stderr
    assert "Traceback" not in result.stderr


# No renaming of the two variables of rep_a's segment reaches its root
# bound (Y pairs with both Y and Z), so the greedy search leaves the pair
# approximate.
REPEATED = """
rep_a(X) :- r(X,Y,Y), r(X,Y,Y).
rep_b(X) :- r(X,Y,Z), r(X,Y,Z).
"""


@pytest.mark.parametrize("name", list(LIMIT_FLAGS))
def test_each_limit_flag_reaches_its_layer(tmp_path, capsys, monkeypatch, name):
    # each pair is exact at the default limits, and each limit set to 1
    # alone cuts a search: the renamings of two or more variables or the
    # pairing of two r/3 atoms of rep_a ~ rep_b, the argument permutations
    # of arity-3 app ~ append, or its six (identity first) argument
    # permutation combinations
    if name in ("exact_vars", "exact_group"):
        path = write(tmp_path, "rep.pl", REPEATED)
        header = "similar: [rep_a/1] ~ [rep_b/1]\n  closeness: (0.833, 0.833)"
    else:
        path = write(tmp_path, "dup.pl", APPEND + APP)
        header = "duplicate: [app/3] ~ [append/3]\n  closeness: (1.000, 1.000)"
    seen = []
    memos = []

    def recorded(left, right, limits, memo):
        seen.append(limits)
        memos.append(memo)
        return closeness(left, right, limits, memo)

    monkeypatch.setattr(cli, "closeness", recorded)
    for extra, limits in (([], Limits()), ([LIMIT_FLAGS[name], "1"], replace(Limits(), **{name: 1}))):
        approximate = bool(extra)
        assert main([path, "--format", "json", *extra]) == 0
        (entry,) = json.loads(capsys.readouterr().out)["pairs"]
        assert entry["approximate"] is approximate
        assert main([path, *extra]) == 0
        out = capsys.readouterr().out
        assert out.startswith(header)
        assert ("note: search was truncated; values are a lower bound" in out) is approximate
        assert seen == [limits, limits]
        # each run searched under its own limits, into a memo of its own
        assert [list(m) for m in memos] == [[limits], [limits]]
        assert memos[0] is not memos[1]
        seen.clear()
        memos.clear()


def _fresh_memo_closeness(left, right, limits, memo):
    """``closeness`` as the library runs it alone: one memo per call."""
    return structure.closeness(left, right, limits)


def test_one_memo_serves_every_pair_of_a_run(tmp_path, monkeypatch):
    # app, append and concat normalize to one segment shape, searched
    # once for the run instead of once per pair
    path = write(tmp_path, "corpus.pl", CORPUS + REPEATED + APP)
    config = Config(paths=[path], threshold=Fraction(0), fp_threshold=Fraction(0))
    memos = []
    searches = []
    goal_similarity = structure.goal_similarity

    def recorded(left, right, limits, memo):
        memos.append(memo)
        return closeness(left, right, limits, memo)

    def counted(q1, q2, limits):
        searches.append((q1, q2))
        return goal_similarity(q1, q2, limits)

    monkeypatch.setattr(structure, "goal_similarity", counted)
    monkeypatch.setattr(cli, "closeness", _fresh_memo_closeness)
    expected = run(config)
    per_pair = len(searches)
    searches.clear()
    monkeypatch.setattr(cli, "closeness", recorded)
    assert run(config) == expected
    code, report = expected
    assert code == 0 and len(report["pairs"]) > 2
    assert len(memos) > 2 and all(memo is memos[0] for memo in memos)
    assert list(memos[0]) == [Limits()]
    assert len(searches) < per_pair


def _shared_shape_program(rng, preds: int) -> str:
    """Predicates of one or two clauses over a few body shapes, so that
    segment pairs of one key recur across SCC pairs."""
    text = []
    for k in range(preds):
        for _ in range(rng.choice([1, 1, 2])):
            c = [rng.choice(["a", "b"]) for _ in range(3)]
            atoms = [f"r(X,{c[0]})", f"r(Y,{c[1]})", "r(X,Z)", f"s(Z,{c[2]})"][:rng.randint(3, 4)]
            if rng.random() < 0.2:
                atoms.insert(rng.randint(0, len(atoms)), f"p{k}(Y,X)")
            text.append(f"p{k}(X,Y) :- {', '.join(atoms)}.")
    return "\n".join(text)


@given(st.integers(3, 6), st.randoms(use_true_random=False),
       st.sampled_from([Limits(), Limits(exact_vars=2, exact_group=1)]), st.booleans())
@settings(max_examples=40, deadline=None)
def test_run_memo_gives_the_entries_of_a_fresh_memo_per_pair(preds, rng, limits, normalize):
    program = parse_program(_shared_shape_program(rng, preds))
    config = Config(threshold=Fraction(0), fp_threshold=Fraction(0), limits=limits,
                    normalize=normalize, emit_common_core=True)
    entries = cli.analyze(program, config)
    with mock.patch.object(cli, "closeness", _fresh_memo_closeness):
        assert cli.analyze(program, config) == entries


def test_a_memo_shared_across_limits_keeps_each_limits_own_result(tmp_path):
    program = parse_program(REPEATED)
    rep_a, rep_b = (scc_of(build_sccs(program), PredSymbol(name, 1))
                    for name in ("rep_a", "rep_b"))
    exact, greedy = Limits(), Limits(exact_vars=1)
    for order in ((exact, greedy), (greedy, exact)):
        memo: dict = {}
        results = {limits: closeness(rep_a, rep_b, limits, memo) for limits in order}
        for limits, result in results.items():
            assert result == closeness(rep_a, rep_b, limits)
        assert not results[exact].approximate and results[greedy].approximate
        assert set(memo) == {exact, greedy} and all(memo.values())


def test_pipeline_hashes_no_term(tmp_path, monkeypatch):
    # a term hashes in time linear in its size, so a pipeline step keyed
    # by terms would be slow on large ones; every key is a shape or an index
    def refused(term):
        raise AssertionError(f"{type(term).__name__} hashed")

    path = write(tmp_path, "corpus.pl", CORPUS + REPEATED + APP)
    for cls in (Struct, Atom):
        monkeypatch.setattr(cls, "__hash__", refused)
    for normalize in (True, False):
        code, report = run(Config(paths=[path], normalize=normalize, emit_common_core=True))
        assert code == 0 and report["pairs"]


def test_main_restores_the_cyclic_collector(tmp_path, capsys):
    path = write(tmp_path, "dup.pl", APPEND + CONCAT)
    assert main([path]) == 0
    assert gc.isenabled()
    gc.disable()
    try:
        assert main([path]) == 0
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_cli_import_loads_no_numeric_libraries():
    # numpy and scipy took most of a run's start-up time when they were imported
    probe = "import sys, logdup.cli; print(sorted({'numpy', 'scipy'} & set(sys.modules)))"
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"
