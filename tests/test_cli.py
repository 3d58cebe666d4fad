import gc
import json
import subprocess
import sys
from dataclasses import asdict, replace
from fractions import Fraction
from pathlib import Path

import pytest

from logdup import Limits, closeness, parse_clause, render_clause
from logdup import cli
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
    from logdup import (ArgPermutation, ClauseMapping, PredSymbol,
                        StructureWitness, build_sccs, normalize_program,
                        parse_program, scc_of, validate_witness)

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
        ClauseMapping(tuple(tuple(p) for p in raw["clause_mapping"]),
                      ((PredSymbol("append", 3), PredSymbol("concat", 3)),)),
        perms,
        tuple(tuple(sorted(r.items())) for r in raw["renamings"]),
    )
    assert validate_witness(left, right, witness)


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

    def recorded(left, right, limits):
        seen.append(limits)
        return closeness(left, right, limits)

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
        seen.clear()


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
