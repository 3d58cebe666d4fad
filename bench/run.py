"""Benchmark of the logdup CLI on four seeded corpora.

Usage:
    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is taken from
``src/`` there.  Workloads: dup-scale, near-miss, wide-search, front-end
(see bench/README.md).  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` measures what a user sees, one CLI process at a time, for
about S seconds.  Each process runs ``logdup`` as ``python -m logdup``
does, after importing ``logdup.cli`` and noting the time: spawn to exit
is ``wall_s``, spawn to the end of the import ``setup_s``, the rest of
the run (``cli.main``: analysis and JSON rendering) ``analyze_s``; the
process notes its peak resident memory.  Each time is scaled to the
reference speed of the machine by the speed probe timed before and
after the process (see ``probe_s``), and each figure is the median over
the processes of the run.  The unscaled medians go to standard error.

``--trace 1`` reports per-layer figures instead: import times from
``-X importtime``, spans around the public calls of each layer
(bench/spans.py), and small timings of inner layers on the workload's own
inputs.  After one call to warm up, each round runs the pipeline once
untraced and once traced; the median difference is the tracing overhead.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import gc
import io
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
CORPORA = os.path.join(HERE, "corpora")
WORKLOADS = ("dup-scale", "near-miss", "wide-search", "front-end")
IMPORT_PROBES = 3
CHILD_TIMEOUT_S = 150
MICRO_BUDGET_S = 1.0
# The speed probe: PROBE_REPEATS calls of ``probe_work``, which took
# PROBE_REFERENCE_S on average on the machine the benchmark was written on.
PROBE_REPEATS = 3
PROBE_REFERENCE_S = 0.079


# The CLI as ``python -m logdup`` runs it, with the end of the import and
# the end of the run noted on the clock the parent uses for the spawn, and
# the peak resident memory of its own address space (VmHWM, KiB).  The
# kernel's ru_maxrss would not do: a child keeps, across exec, the peak of
# the parent it was forked from, and the benchmark process is larger than
# the CLI.
CLI = """import sys, time
import logdup.cli
ready = time.monotonic()
import runpy
times = sys.argv.pop(1)
sys.argv[0] = "logdup"
try:
    runpy.run_module("logdup", run_name="__main__", alter_sys=True)
finally:
    done = time.monotonic()
    with open("/proc/self/status") as status:
        peak = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    with open(times, "w") as handle:
        handle.write(f"{ready!r} {done!r} {peak}")
"""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(argv, stdout_path, stderr_path):
    """Run a child to its end; returns (monotonic start, monotonic end,
    exit code).  The child is killed if it outlives ``CHILD_TIMEOUT_S``."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status = os.waitpid(proc.pid, 0)
        except BaseException:
            # interrupted or terminated: end the child before leaving
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return start, end, proc.returncode


def read(path) -> str:
    with open(path, encoding="utf-8", errors="replace") as handle:
        return handle.read()


def metric(value, unit):
    return {"value": value, "unit": unit}


class Run:
    """One benchmark run: a workload's corpus, its reference and counts."""

    def __init__(self, workload, seed):
        import corpora
        import reference

        self.workload = workload
        self.seed = seed
        self.corpus = corpora.build(workload, seed)
        self.paths = corpora.write(self.corpus, os.path.join(CORPORA, workload))
        self.argv = self.paths + ["--format", "json"] + self.corpus.options
        self.reference = reference.Reference()
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.problems: list = []
        self.scratch = os.path.join(RESULTS, f"{workload}-{seed}")

    def count(self, report):
        """Count the operations of one report; a failure that is not one
        of the workload's known faults makes the run incorrect."""
        import reference

        attempted, failures = reference.check_report(
            report, self.corpus.sccs, self.corpus.expected, self.reference)
        self.attempted += attempted
        self.failed += len(failures)
        for key, reason in failures.items():
            if key not in self.corpus.faults:
                self.correct = False
                self.problems.append(f"{sorted(key)}: {reason}")

    def cli(self):
        """One CLI process: (wall s, setup s, analyze s, peak MiB)."""
        out, err, times = (self.scratch + ext for ext in (".stdout", ".stderr", ".times"))
        if os.path.exists(times):
            os.remove(times)
        start, end, code = spawn(
            [sys.executable, "-c", CLI, times, *self.argv], out, err)
        errors = read(err)
        report = None
        if code == 0 and "Traceback" not in errors:
            try:
                report = json.loads(read(out))
            except ValueError:
                pass
        if report is None:
            self.problems.append(f"CLI exit {code}: {errors.strip()[-300:]}")
        self.count(report)
        ready, done, peak_kib = map(float, read(times).split())
        return end - start, ready - start, done - ready, peak_kib / 1024

    def analyze(self, tracer=None):
        """In-process ``cli.main`` with its output captured: (seconds,
        output).  With a tracer the call runs inside its root span."""
        import logdup.cli

        buffer = io.StringIO()
        gc.collect()
        call = lambda: logdup.cli.main(list(self.argv))  # noqa: E731
        start = time.perf_counter()
        with contextlib.redirect_stdout(buffer):
            if tracer is None:
                code = call()
            else:
                with tracer.patch():
                    code = tracer.root(call)
        seconds = time.perf_counter() - start
        if code != 0:
            self.correct = False
            self.problems.append(f"cli.main returned {code}")
        return seconds, buffer.getvalue()


def probe_work() -> int:
    """A fixed piece of pure-Python work of the kind the program does:
    small tuples and strings by the ten thousand, dict updates and a
    keyed sort, with a working set of some megabytes.  It is part of the
    benchmark, so it is the same on every commit measured."""
    items = [(i % 251, str(i), (i, i + 1)) for i in range(60000)]
    index = {}
    for item in items:
        index.setdefault(item[0], []).append(item)
    items.sort(key=lambda item: (item[1], item[0]))
    return len(index)


def probe_s() -> float:
    """Mean seconds of one ``probe_work`` call now.

    The speed of a shared machine drifts: on the 2-core sandbox this
    benchmark was written on, the same analysis took from 0.92 to 1.64 s
    within ten minutes, in CPU time as well as in wall time.  Medians over
    a run cannot remove a drift that lasts minutes, so each time is
    scaled by ``PROBE_REFERENCE_S / probe_s()``, taken next to the
    process.  Of the probes tried, this one followed the CLI best: over
    124 ``dup-scale`` processes its time correlated with their wall time
    at 0.71 and with their set-up time at 0.59, against 0.66 and 0.46 for
    a tight loop over permutations."""
    start = time.perf_counter()
    for _ in range(PROBE_REPEATS):
        probe_work()
    return (time.perf_counter() - start) / PROBE_REPEATS


def measure(run: Run, seconds: float) -> dict:
    scaled, raw, probes = [], [], []
    before = probe_s()
    start = time.monotonic()
    while True:
        wall, setup, analyze, peak = run.cli()
        after = probe_s()
        scale = PROBE_REFERENCE_S / ((before + after) / 2)
        scaled.append((wall * scale, setup * scale, analyze * scale, peak))
        raw.append((wall, setup, analyze))
        probes.append(after)
        before = after
        if time.monotonic() - start + wall > seconds:
            break
    walls, setups, analyses, peaks = zip(*scaled)
    unscaled = [statistics.median(column) for column in zip(*raw)]
    print("bench: unscaled medians: wall_s %.4f setup_s %.4f analyze_s %.4f; probe %.4f s"
          % (*unscaled, statistics.median(probes)), file=sys.stderr)
    return {
        "wall_s": metric(statistics.median(walls), "s"),
        "setup_s": metric(statistics.median(setups), "s"),
        "analyze_s": metric(statistics.median(analyses), "s"),
        "peak_rss_mib": metric(statistics.median(peaks), "MiB"),
    }


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------

def import_times(run: Run) -> dict:
    """Self time of the modules of numpy, scipy and logdup while a fresh
    interpreter imports logdup.cli, from ``-X importtime``; medians."""
    samples = {"numpy": [], "scipy": [], "logdup": []}
    for _ in range(IMPORT_PROBES):
        out, err = run.scratch + ".importtime.stdout", run.scratch + ".importtime.stderr"
        code = spawn([sys.executable, "-X", "importtime", "-c", "import logdup.cli"], out, err)[2]
        totals = dict.fromkeys(samples, 0)
        for line in read(err).splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            self_us, _, name = line[len("import time:"):].split("|")
            package = name.strip().split(".", 1)[0]
            if package in totals and self_us.strip().isdigit():
                totals[package] += int(self_us)
        if code != 0:
            run.correct = False
        for package, us in totals.items():
            samples[package].append(us / 1e6)
    return {f"import.{p}_s": metric(statistics.median(v), "s") for p, v in samples.items()}


def median_or_zero(values):
    return statistics.median(values) if values else 0.0


def percentile_tail(values: list):
    """The highest value with ten samples beyond it, from 40 samples on;
    with fewer, the median (no tail can be told from fewer)."""
    if len(values) < 40:
        return median_or_zero(values)
    return sorted(values)[-11]


class Observed:
    """Inputs and outputs seen at the span boundaries of one traced call."""

    def __init__(self):
        self.clauses = 0
        self.body_atoms = 0
        self.sccs = 0
        self.candidates = 0
        self.goal_pairs: list = []
        self.results: list = []

    def observers(self) -> dict:
        def parsed(args, program):
            self.clauses += sum(len(c) for c in program.predicates.values())

        def normalized(args, program):
            self.body_atoms += sum(len(c.body.atoms) for cs in program.predicates.values()
                                   for c in cs)

        def sccs(args, result):
            self.sccs += len(result)

        def candidates(args, result):
            self.candidates += len(result)

        def goals(args, result):
            # kept as seen; hashing goals here would slow the traced run
            if len(self.goal_pairs) < 2000:
                self.goal_pairs.append((args[0], args[1]))

        def compared(args, result):
            if result is not None and len(self.results) < 400:
                self.results.append((args[0], args[1], result))

        return {"syntax.parse_program": parsed, "normalize.normalize_program": normalized,
                "depgraph.build_sccs": sccs, "fingerprint.candidate_pairs": candidates,
                "metrics.goal_similarity": goals, "structure.closeness": compared}


def span_metrics(tracer, observed: Observed, output: str, reported: int) -> dict:
    total = lambda name: sum(tracer.durations(name))  # noqa: E731
    parse_s = total("syntax.parse_program")
    closeness_ms = [d * 1e3 for d in tracer.durations("structure.closeness")]
    out = {
        "trace.analyze_s": metric(total("cli.main"), "s"),
        "syntax.parse_s": metric(parse_s, "s"),
        "syntax.clauses_per_s": metric(observed.clauses / parse_s if parse_s else 0.0, "1/s"),
        "normalize.normalize_s": metric(total("normalize.normalize_program"), "s"),
        "normalize.body_atoms": metric(observed.body_atoms, "count"),
        "depgraph.build_sccs_s": metric(total("depgraph.build_sccs"), "s"),
        "depgraph.sccs": metric(observed.sccs, "count"),
        "fingerprint.scc_print_s": metric(total("fingerprint.scc_print"), "s"),
        "fingerprint.prefilter_s": metric(total("fingerprint.candidate_pairs"), "s"),
        "fingerprint.print_glb_us.p50": metric(
            median_or_zero(tracer.durations("fingerprint.print_glb")) * 1e6, "us"),
        "fingerprint.candidates": metric(observed.candidates, "count"),
        "fingerprint.candidate_yield": metric(
            reported / observed.candidates if observed.candidates else 0.0, "ratio"),
        "structure.closeness_s": metric(sum(closeness_ms) / 1e3, "s"),
        "structure.closeness_ms.p50": metric(median_or_zero(closeness_ms), "ms"),
        "structure.closeness_ms.tail": metric(percentile_tail(closeness_ms), "ms"),
        "structure.pairs_compared": metric(len(closeness_ms), "count"),
        "structure.self_similarity_s": metric(total("structure.self_similarity"), "s"),
        "structure.common_core_s": metric(total("structure.common_core"), "s"),
        "metrics.goal_similarity_s": metric(total("metrics.goal_similarity"), "s"),
        "metrics.goal_similarity_calls": metric(len(tracer.durations("metrics.goal_similarity")),
                                                "count"),
        "cli.render_s": metric(total("cli.render"), "s"),
        "cli.report_bytes": metric(len(output.encode()), "bytes"),
    }
    for layer, seconds in tracer.layer_self_times().items():
        out[f"self.{layer}_s"] = metric(seconds, "s")
    return out


def micro_timings(observed: Observed, reported: set) -> dict:
    """Inner layers timed alone on the workload's own inputs: commonality
    (branch-and-bound) on the similar subgoals of the segment pairs the
    closeness search scored, strict commonality on their same-predicate
    atom pairs, and scc_similarity under the witness of each reported
    pair.  Medians, each within a time budget."""
    from logdup.metrics import commonality, maximal_similar_subgoals, strict_commonality
    from logdup.structure import scc_similarity
    from reference import pair_key, scc_key

    clock = time.perf_counter_ns
    goal_pairs = []
    atom_pairs = []
    for q1, q2 in dict.fromkeys(observed.goal_pairs):
        s1, s2 = maximal_similar_subgoals(q1, q2)
        if s1.atoms:
            goal_pairs.append((s1, s2))
            for a in s1.atoms:
                b = next(b for b in s2.atoms if b.pred == a.pred)
                atom_pairs.append((a, b))

    def timed(calls, repeat):
        samples = []
        deadline = time.perf_counter() + MICRO_BUDGET_S
        for call in calls:
            start = clock()
            for _ in range(repeat):
                call()
            samples.append((clock() - start) / repeat)
            if time.perf_counter() > deadline:
                break
        return samples

    common = timed([lambda s=s: commonality(*s) for s in goal_pairs], 1)
    strict = timed([lambda s=s: strict_commonality(*s) for s in atom_pairs], 20)
    witnesses = [(s1, s2, result.witness) for s1, s2, result in observed.results
                 if pair_key(scc_key(s1), scc_key(s2)) in reported]
    scored = timed([lambda w=w: scc_similarity(*w) for w in witnesses], 1)
    return {
        "metrics.commonality_us.p50": metric(median_or_zero(common) / 1e3, "us"),
        "metrics.strict_commonality_us.p50": metric(median_or_zero(strict) / 1e3, "us"),
        "structure.scc_similarity_ms.p50": metric(median_or_zero(scored) / 1e6, "ms"),
    }


def traced(run: Run, seconds: float) -> dict:
    from reference import pair_key
    from spans import Tracer

    metrics = import_times(run)
    rounds = []
    plain = []
    overheads = []
    start = time.perf_counter()
    # the first call in a process runs slower (memory is still being
    # mapped in), which would show as negative overhead
    run.analyze()
    while True:
        round_start = time.perf_counter()
        took, _ = run.analyze()
        plain.append(took)
        observed = Observed()
        tracer = Tracer(observed.observers())
        traced_took, output = run.analyze(tracer)
        overheads.append(traced_took - took)
        try:
            report = json.loads(output)
        except ValueError:
            report = None
        run.count(report)
        reported = {pair_key(tuple(e["left"]["predicates"]), tuple(e["right"]["predicates"]))
                    for e in report["pairs"]} if report else set()
        rounds.append((span_metrics(tracer, observed, output, len(reported)), tracer,
                       observed, reported))
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            break
    # report the round whose traced time is the median, so that its layer
    # self times add up to its trace.analyze_s
    rounds.sort(key=lambda r: r[0]["trace.analyze_s"]["value"])
    chosen, tracer, observed, reported = rounds[(len(rounds) - 1) // 2]
    os.makedirs(RESULTS, exist_ok=True)
    tracer.write(os.path.join(RESULTS, f"trace-{run.workload}-{run.seed}.json"))
    metrics.update(chosen)
    metrics["trace.untraced_analyze_s"] = metric(statistics.median(plain), "s")
    # paired per round, so that a machine slowing down or speeding up
    # between rounds does not show as overhead
    metrics["trace.overhead_s"] = metric(statistics.median(overheads), "s")
    metrics.update(micro_timings(observed, reported))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="logdup benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "logdup", "__init__.py")):
        print(f"bench: no logdup sources under {SRC}", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        # fixed string hashing, as in the children, so that set and dict
        # orders inside the program repeat from run to run
        os.execve(sys.executable, [sys.executable, *sys.argv], child_env())
    # a terminated run leaves through ``spawn``, which ends its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.path[:0] = [HERE, SRC]
    if not compileall.compile_dir(SRC, quiet=1):
        print("bench: src/ does not compile", file=sys.stderr)
        return 2
    os.makedirs(RESULTS, exist_ok=True)

    run = Run(args.workload, args.seed)
    metrics = traced(run, args.seconds) if args.trace else measure(run, args.seconds)
    for problem in run.problems:
        print(f"bench: {problem}", file=sys.stderr)
    result = {"correct": run.correct, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    line = json.dumps(result, sort_keys=True)
    with open(os.path.join(RESULTS, f"{args.workload}-{args.seed}-trace{args.trace}.json"),
              "w") as handle:
        handle.write(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
