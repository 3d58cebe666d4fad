"""Spans recorded from outside the program, around calls to the public
functions of each layer.

``Tracer.patch`` replaces module attributes of ``logdup`` with wrappers
for the length of one traced call and restores them afterwards.  A span
holds its name, its parent span, and its start and end in nanoseconds;
spans stay in memory until ``write`` saves them.  A layer is the part of
a span name before the first dot.
"""

from __future__ import annotations

import contextlib
import json
import time
from array import array

import logdup.cli
import logdup.fingerprint
import logdup.structure

# (module, attribute, span name): every call the pipeline makes through
# that attribute becomes a span.  Calls are caught where the caller looks
# the function up, which is why the module is the caller's.
TARGETS = (
    (logdup.cli, "run", "cli.run"),
    (logdup.cli, "parse_program", "syntax.parse_program"),
    (logdup.cli, "normalize_program", "normalize.normalize_program"),
    (logdup.cli, "candidate_pairs", "fingerprint.candidate_pairs"),
    (logdup.fingerprint, "build_sccs", "depgraph.build_sccs"),
    (logdup.fingerprint, "scc_print", "fingerprint.scc_print"),
    (logdup.fingerprint, "print_glb", "fingerprint.print_glb"),
    (logdup.cli, "closeness", "structure.closeness"),
    (logdup.structure, "self_similarity", "structure.self_similarity"),
    (logdup.structure, "goal_similarity", "metrics.goal_similarity"),
    (logdup.cli, "common_core", "structure.common_core"),
)
ROOT_SPAN = "cli.main"
RENDER_SPAN = "cli.render"
LAYERS = ("cli", "syntax", "normalize", "depgraph", "fingerprint", "structure", "metrics")


class Tracer:
    def __init__(self, observers=None):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        # span name -> callback(args, result) run after each call
        self.observers = observers or {}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, function):
        nid = self._id(name)
        observe = self.observers.get(name)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1])
            self.start.append(clock())
            self.end.append(0)
            self._stack.append(index)
            try:
                result = function(*args, **kwargs)
            finally:
                self.end[index] = clock()
                self._stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def patch(self):
        """Install the wrappers of ``TARGETS``, and one around the JSON
        rendering of ``cli.main``; a missing attribute raises, so that a
        layer that moved is not silently left out."""
        saved = [(module, attr, getattr(module, attr)) for module, attr, _ in TARGETS]
        saved.append((logdup.cli, "json", logdup.cli.json))
        try:
            for module, attr, name in TARGETS:
                setattr(module, attr, self.wrap(name, getattr(module, attr)))
            render = self.wrap(RENDER_SPAN, json.dumps)
            logdup.cli.json = type("TracedJson", (), {"dumps": staticmethod(render)})
            yield self
        finally:
            for module, attr, value in saved:
                setattr(module, attr, value)

    def root(self, function):
        """Call ``function`` inside the root span."""
        return self.wrap(ROOT_SPAN, function)()

    # -- analysis ---------------------------------------------------------------

    def durations(self, name: str) -> list:
        """Durations in seconds of every span called ``name``."""
        nid = self._ids.get(name)
        return [(e - s) / 1e9 for n, s, e in zip(self.name, self.start, self.end) if n == nid]

    def layer_self_times(self) -> dict:
        """Seconds each layer spent outside its child spans; they add up
        to the root spans' duration."""
        child = [0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        totals = dict.fromkeys(LAYERS, 0)
        for i, nid in enumerate(self.name):
            layer = self.names[nid].split(".", 1)[0]
            totals[layer] += self.end[i] - self.start[i] - child[i]
        return {layer: ns / 1e9 for layer, ns in totals.items()}

    def write(self, path: str):
        """Save the spans as JSON: names, then [name, parent, start_ns,
        end_ns] per span, parents as span indices (-1 for a root)."""
        spans = [[n, p, s, e] for n, p, s, e in zip(self.name, self.parent, self.start, self.end)]
        with open(path, "w") as handle:
            json.dump({"names": self.names, "spans": spans}, handle, separators=(",", ":"))
