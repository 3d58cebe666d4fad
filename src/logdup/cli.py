"""Command line front end: parse a corpus, pre-filter with fingerprints,
compare candidates exactly and print a ranked duplication report."""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from fractions import Fraction

from .fingerprint import candidate_pairs
from .normalize import normalize_program
from .structure import closeness, common_core
from .metrics import Limits
from .syntax import PrologSyntaxError, Program, Record, parse_program, render_clause

NODE_COUNTING_NOTE = (
    "Closeness denominators are per-definition self-similarity values, so a "
    "definition compared with itself scores exactly (1,1). Ratios computed "
    "from raw node totals, or with numerals or clause nodes counted "
    "differently, will not match these figures."
)


class Config(Record):
    """The settings of one run.  It holds a list, so it has no hash."""

    __slots__ = _fields = ("paths", "threshold", "fp_threshold", "limits", "normalize",
                           "emit_common_core")
    __hash__ = None

    def __init__(self, paths: list | None = None, threshold: Fraction = Fraction(1, 2),
                 fp_threshold: Fraction = Fraction(1, 2), limits: Limits = Limits(),
                 normalize: bool = True, emit_common_core: bool = False):
        self.paths = [] if paths is None else paths  # a fresh list when not given
        self.threshold = threshold
        self.fp_threshold = fp_threshold
        self.limits = limits
        self.normalize = normalize
        self.emit_common_core = emit_common_core


def _fraction_arg(text: str) -> Fraction:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not 0 <= value <= 1:
        raise argparse.ArgumentTypeError(f"must be in [0,1]: {text!r}")
    return value


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logdup",
        description="Detect duplicated and similar predicate definitions "
                    "in definite logic programs.")
    parser.add_argument("paths", nargs="*", help="Prolog source files")
    config = Config()
    parser.add_argument("--threshold", type=_fraction_arg, default=config.threshold,
                        help="minimum closeness component to report (default 0.5)")
    parser.add_argument("--fp-threshold", type=_fraction_arg, default=config.fp_threshold,
                        help="minimum fingerprint estimate to compare exactly (default 0.5)")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--no-normalize", action="store_true",
                        help="compare clauses as written instead of in flat normal form")
    parser.add_argument("--emit-common-core", action="store_true",
                        help="include a generalized definition for each exact pair")
    limits = Limits()
    parser.add_argument("--exact-vars-limit", type=int, default=limits.exact_vars,
                        help="most variables of a goal whose renamings are searched "
                             "exactly (default %(default)s)")
    parser.add_argument("--exact-group-limit", type=int, default=limits.exact_group,
                        help="most atoms of one predicate in a goal whose pairings are "
                             "searched exactly (default %(default)s)")
    parser.add_argument("--arity-limit", type=int, default=limits.arity,
                        help="largest arity whose argument permutations are all tried "
                             "(default %(default)s)")
    parser.add_argument("--witness-cap", type=int, default=limits.witness_cap,
                        help="most predicate bijection x argument permutation "
                             "combinations examined per pair (default %(default)s)")
    return parser


def _merge(programs) -> Program:
    """One program from several files.  A predicate defined in more than
    one file gets all their clauses, in file order, and a warning."""
    predicates: dict = {}
    warnings: list = []
    excluded: set = set()
    for prog in programs:
        for pred, clauses in prog.predicates.items():
            predicates.setdefault(pred, ())
            predicates[pred] = predicates[pred] + clauses
        warnings.extend(prog.warnings)
        excluded.update(prog.excluded)
    for pred, clauses in predicates.items():
        files = list(dict.fromkeys(c.origin[0] for c in clauses))
        if len(files) > 1:
            named = ", ".join(files[:-1]) + " and " + files[-1]
            warnings.append(f"{pred} is defined in {named}; their clauses are merged")
    return Program(predicates, tuple(warnings), frozenset(excluded))


def _scc_location(scc):
    origin = scc.clauses[0].origin if scc.clauses else ("<none>", 0)
    return {"predicates": [str(p) for p in scc.members],
            "file": origin[0], "line": origin[1]}


def _witness_json(witness):
    return {
        "arg_permutations": {str(q): list(perm.mapping)
                             for q, perm in witness.arg_permutations},
        "clause_mapping": [list(pair) for pair in witness.pairs],
        "renamings": [{src: dst for src, dst in rho} for rho in witness.renamings],
    }


def analyze(program: Program, config: Config) -> list:
    """Run the candidate filter and the exact comparison; returns report
    entries sorted best first."""
    if config.normalize:
        program = normalize_program(program)
    candidates = candidate_pairs(program, config.fp_threshold)
    entries = []
    memo: dict = {}  # the segment-pair searches of the run, shared by every pair
    for left, right, estimate in candidates:
        result = closeness(left, right, config.limits, memo)
        if result is None or min(result.closeness) < config.threshold:
            continue
        core = None
        if config.emit_common_core and not result.approximate:
            core = "\n".join(render_clause(c) for c in common_core(left, right, result))
        entries.append({
            "left": _scc_location(left),
            "right": _scc_location(right),
            "fingerprint_estimate": [float(estimate[0]), float(estimate[1])],
            "closeness": [float(result.closeness[0]), float(result.closeness[1])],
            "sigma": result.sigma,
            "denominators": list(result.denominators),
            "approximate": result.approximate,
            "witness": _witness_json(result.witness),
            "common_core": core,
        })
    entries.sort(key=lambda e: (-min(e["closeness"]),
                                e["left"]["predicates"], e["right"]["predicates"]))
    return entries


def _render_text(entries, warnings) -> str:
    lines = []
    for w in warnings:
        lines.append(f"warning: {w}")
    if not entries:
        lines.append("no similar definitions found")
        return "\n".join(lines) + "\n"
    for e in entries:
        label = "duplicate" if e["closeness"] == [1.0, 1.0] else "similar"
        left = ",".join(e["left"]["predicates"])
        right = ",".join(e["right"]["predicates"])
        lines.append(f"{label}: [{left}] ~ [{right}]")
        lines.append(f"  closeness: ({e['closeness'][0]:.3f}, {e['closeness'][1]:.3f})"
                     f"  sigma: {e['sigma']} / {e['denominators'][0]}"
                     f" and {e['denominators'][1]}")
        if e["approximate"]:
            lines.append("  note: search was truncated; values are a lower bound")
        if e["common_core"]:
            lines.append("  common core:")
            for line in e["common_core"].splitlines():
                lines.append(f"    {line}")
    return "\n".join(lines) + "\n"


def run(config: Config):
    """Execute the pipeline; returns (exit code, report dict)."""
    programs = []
    failures = []
    read = set()  # the real path of each file read, so a file named twice is read once
    for path in config.paths:
        real = os.path.realpath(path)
        if real in read:
            continue
        read.add(real)
        try:
            # utf-8-sig drops a leading byte-order mark
            with open(path, "r", encoding="utf-8-sig") as handle:
                text = handle.read()
        except (OSError, UnicodeDecodeError) as exc:
            reason = exc.strerror if isinstance(exc, OSError) else exc
            print(f"logdup: cannot read {path}: {reason}", file=sys.stderr)
            return 2, None
        try:
            programs.append(parse_program(text, filename=path))
        except PrologSyntaxError as exc:
            failures.append(str(exc))
    if config.paths and not programs:
        for message in failures:
            print(f"logdup: {message}", file=sys.stderr)
        return 1, None

    program = _merge(programs)
    warnings = list(program.warnings) + [f"parse error: {m}" for m in failures]
    entries = analyze(program, config)
    report = {
        "version": 1,
        "pairs": entries,
        "warnings": warnings,
        "metadata": {"node_counting_note": NODE_COUNTING_NOTE},
    }
    return 0, report


def main(argv=None) -> int:
    parser = build_arg_parser()
    args = parser.parse_intermixed_args(argv)
    try:
        limits = Limits(exact_vars=args.exact_vars_limit, exact_group=args.exact_group_limit,
                        arity=args.arity_limit, witness_cap=args.witness_cap)
    except ValueError as exc:
        parser.error(str(exc))
    config = Config(
        paths=args.paths,
        threshold=args.threshold,
        fp_threshold=args.fp_threshold,
        limits=limits,
        normalize=not args.no_normalize,
        emit_common_core=args.emit_common_core,
    )
    # The pipeline builds acyclic terms and leaves no reference cycle, so
    # the cyclic collector would only rescan them; it is paused for the run.
    enabled = gc.isenabled()
    gc.disable()
    try:
        code, report = run(config)
    finally:
        if enabled:
            gc.enable()
    if report is None:
        return code
    if args.format == "json":
        sys.stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    else:
        sys.stdout.write(_render_text(report["pairs"], report["warnings"]))
    return code
