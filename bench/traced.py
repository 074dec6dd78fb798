"""Record a span around every call a bootperc job makes into a layer.

Usage:
    python job.py OUT --trace --cli ARG...   # run a job traced (see job.py)
    python traced.py SPANS                   # print the span sums as JSON

When job.py is given ``--trace``, before the job starts each public function of the layer modules is
replaced by a recording wrapper in every bootperc namespace that binds
it: the home module, the modules that import it by name (cli, engine's
callers, polymethod's calls into linalg) and module-level dispatch
tables such as the oracle's process table.  The package itself is not
edited.  A span is the tuple

    (layer, function, start, end, child_s, parent, counts)

where start and end come from ``time.perf_counter`` (CLOCK_MONOTONIC,
so comparable with the parent process's clock), child_s is the time
covered by direct child spans, parent is the index of the enclosing
span or -1, and counts holds result sizes the benchmark needs (edges of
a built graph, elements of a seed, activated elements and rounds of an
``ActivationTrace``).

Spans stay in memory and are written with ``marshal`` when the job ends,
in chunks of CHUNK spans so that the reader never holds them all;
``marshal`` because writing 10^5 spans as JSON would add a visible tail
to the traced wall time.  Process-pool workers forked by the job inherit
the wrappers; each writes its own spans to SPANS.<pid> when it exits.
Run as a script, this file reads SPANS and SPANS.* back and prints the
per-layer sums the benchmark reports (see span_totals).
"""

from __future__ import annotations

import functools
import glob
import json
import marshal
import os
import sys
import time
import types
from collections import defaultdict
from multiprocessing import util as mp_util

import bootperc.cli
from bootperc.engine import ActivationTrace
from bootperc.graphs import Graph

LAYERS = ("graphs", "constructions", "engine", "oracle", "polymethod", "linalg")

# Per-edge helper called from the engines' inner loops: a span there
# would measure the tracer, not the layer.
NOT_TRACED = {("graphs", "normalize_edge")}
CHUNK = 10_000

ENGINE_PROCESS = {
    "percolate_vertices": "vertex",
    "is_percolating_vertices": "vertex",
    "percolate_edges_star": "star",
    "is_percolating_edges_star": "star",
    "percolate_edges_linegraph": "line",
    "is_percolating_edges_line": "line",
}
COLORING = {"product_coloring_on", "product_coloring", "lift_coloring", "is_proper_coloring"}


class Tracer:
    """Span recorder: one stack per process, spans kept in memory until write()."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.spans: list = []
        self.stack: list[list] = []  # [span index, time covered by children]

    def wrap(self, layer: str, fn):
        name = fn.__name__

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = self.spans, self.stack
            index = len(spans)
            parent = stack[-1][0] if stack else -1
            frame = [index, 0.0]
            stack.append(frame)
            spans.append(None)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans[index] = (layer, name, start, end, frame[1], parent, _counts(result))

        return traced

    def after_fork(self) -> None:
        self.path = f"{self.path}.{os.getpid()}"
        self.spans = []
        self.stack = []
        mp_util.Finalize(self, self.write, exitpriority=10)

    def write(self) -> None:
        with open(self.path, "wb") as fh:
            for i in range(0, len(self.spans), CHUNK):
                marshal.dump(self.spans[i : i + CHUNK], fh)


def _counts(result) -> dict | None:
    if isinstance(result, tuple) and result and isinstance(result[0], Graph):
        result = result[0]  # make_line_graph returns (graph, edge map)
    if isinstance(result, Graph):
        return {"edges": result.edge_count}
    if isinstance(result, ActivationTrace):
        return {
            "activated": len(result.final) - len(result.seed),
            "rounds": result.round_count,
        }
    if isinstance(result, frozenset):
        return {"elements": len(result)}
    return None


def install(tracer: Tracer) -> None:
    """Wrap the layers' public functions wherever a bootperc module binds them."""
    modules = [m for n, m in sys.modules.items() if n == "bootperc" or n.startswith("bootperc.")]
    wrapped: dict[int, object] = {id(bootperc.cli.main): tracer.wrap("cli", bootperc.cli.main)}
    for layer in LAYERS:
        home = sys.modules[f"bootperc.{layer}"]
        for name, value in vars(home).items():
            if (
                isinstance(value, types.FunctionType)
                and value.__module__ == home.__name__
                and not name.startswith("_")
                and (layer, name) not in NOT_TRACED
            ):
                wrapped[id(value)] = tracer.wrap(layer, value)
    for module in modules:
        for name, value in list(vars(module).items()):
            if name.startswith("__"):
                continue
            if id(value) in wrapped:
                setattr(module, name, wrapped[id(value)])
            elif isinstance(value, dict):
                for key, item in value.items():
                    if id(item) in wrapped:
                        value[key] = wrapped[id(item)]
    mp_util.register_after_fork(tracer, Tracer.after_fork)


def read_spans(path: str):
    """Spans of one traced process, loaded one chunk at a time."""
    with open(path, "rb") as fh:
        while True:
            try:
                chunk = marshal.load(fh)  # written by Tracer.write under this interpreter
            except EOFError:
                return
            yield from chunk


def span_totals(paths: list[str]) -> dict[str, float]:
    """Sums over one job's spans: main process first, then its pool workers.

    A span's self time is its duration minus the time its direct child
    spans cover.  Counts (calls, edges built, ...) are taken from the
    outermost span of each entry into a layer.
    """
    m: dict[str, float] = defaultdict(float)
    for i, path in enumerate(paths):
        layers: list[str | None] = []  # layer of each span so far, by index
        for span in read_spans(path):
            if span is None:  # still open when the process exited
                layers.append(None)
                continue
            layer, name, start, end, child_s, parent, counts = span
            layers.append(layer)
            self_s = end - start - child_s
            outer = parent < 0 or layers[parent] != layer
            counts = counts or {}
            m[f"{layer}.self_s"] += self_s
            if i == 0:
                # main-process self times add up to the time its spans
                # cover; pool workers run alongside it and are left out
                m["covered_s"] += self_s
            if layer == "graphs" and outer and "edges" in counts:
                m["graphs.edges_built"] += counts["edges"]
                m["largest_graph"] = max(m["largest_graph"], counts["edges"])
            elif layer == "constructions" and outer:
                m["constructions.seed_elements"] += counts.get("elements", 0)
            elif layer == "engine":
                m[f"engine.{ENGINE_PROCESS.get(name, 'other')}_s"] += self_s
                m["engine.calls"] += outer
                m["engine.activated"] += counts.get("activated", 0)
                m["engine.rounds"] += counts.get("rounds", 0)
            elif layer == "polymethod" and name in COLORING:
                m["polymethod.coloring_s"] += self_s
            elif layer == "linalg":
                m["linalg.calls"] += outer
    return m


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    workers = sorted(glob.glob(glob.escape(argv[0]) + ".*"))
    print(json.dumps(span_totals([argv[0], *workers])))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
