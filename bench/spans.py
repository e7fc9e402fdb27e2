"""Nested timing spans recorded around spreadlab's public functions.

Only the traced run installs a Tracer. It replaces each public function of
each spreadlab layer wherever a spreadlab module binds it (for example
all_pairs_distances in graph, spectral, bounds and structures), so calls made
inside the package are timed too. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import gzip
import json
import sys
import types
from collections import defaultdict
from time import perf_counter

LAYERS = ("graph", "spectral", "linalg", "quotient", "structures", "bounds", "search")
MATRIX_FUNCTIONS = {"matrix_of_kind", "dsl_rows", "distance_rows", "distance_matrix", "distance_signless_laplacian"}
WITNESS_ENUMERATORS = {"maximum_cliques", "diameter_paths", "cactus_longest_cycles"}

# span record fields
NAME, START, END, PARENT, ITEM, SIZE = range(6)


class Tracer:
    """Collects spans [name, start, end, parent index, item id, size]."""

    def __init__(self):
        self.spans: list[list] = []
        self.item = -1
        self.witnesses = 0
        self.truncated_items: set[int] = set()
        self._stack: list[int] = []
        self._patched: list[tuple[types.ModuleType, str, object]] = []
        self._reference_graphs: list = []

    def _wrap(self, layer: str, fn):
        name = f"{layer}.{fn.__name__}"
        spans, stack = self.spans, self._stack
        fname = fn.__name__

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item, None]
            if fname == "jacobi_eigenvalues":
                record[SIZE] = len(args[0])
            elif fname == "spread" and args and any(args[0] is g for g in self._reference_graphs):
                record[SIZE] = "reference"
            stack.append(len(spans))
            spans.append(record)
            record[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = perf_counter()
                stack.pop()
            if fname in WITNESS_ENUMERATORS:
                self.witnesses += len(result)
                if result.truncated:
                    self.truncated_items.add(self.item)
            elif fname == "complete_bipartite" and stack and spans[stack[-1]][NAME] == "search.check_conjecture":
                # the search's own K_{n/2,n/2} reference, not a candidate
                self._reference_graphs.append(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, package: types.ModuleType) -> None:
        """Wrap every public function defined in a spreadlab layer, in every
        layer module and the package namespace that binds it."""
        modules = [sys.modules[f"{package.__name__}.{layer}"] for layer in LAYERS]
        wrappers = {}
        for module in modules + [package]:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(value, types.FunctionType):
                    continue
                layer = value.__module__.rpartition(".")[2]
                if value.__module__.partition(".")[0] != package.__name__ or layer not in LAYERS:
                    continue
                if value not in wrappers:
                    wrappers[value] = self._wrap(layer, value)
                self._patched.append((module, attr, value))
                setattr(module, attr, wrappers[value])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def write(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "item", "size"], "spans": self.spans}, fh)


def layer_metrics(tracer: Tracer, items: int, wall_s: float) -> dict[str, float]:
    """Per-layer numbers from the spans of one traced pass of `items` items
    that took wall_s seconds."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child_time[rec[PARENT]] += rec[END] - rec[START]
    self_by_layer: dict[str, float] = defaultdict(float)
    total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    build_self = 0.0
    n3 = search_reference = 0
    for i, rec in enumerate(spans):
        name = rec[NAME]
        layer, _, fname = name.partition(".")
        duration = rec[END] - rec[START]
        own = duration - child_time[i]
        self_by_layer[layer] += own
        total[name] += duration
        calls[name] += 1
        if fname in MATRIX_FUNCTIONS:
            build_self += own
        if fname == "jacobi_eigenvalues":
            n3 += rec[SIZE] ** 3
        if rec[SIZE] == "reference":
            search_reference += 1
    canonical = total["search.canonical_labelling"]
    eigensolves = calls["linalg.jacobi_eigenvalues"]
    covered = sum(self_by_layer.values())
    candidate_solves = calls["spectral.spread"] - search_reference if calls["search.check_conjecture"] else 0
    return {
        "linalg.eigensolve_ms": 1e3 * self_by_layer["linalg"],
        "linalg.eigensolve_calls": eigensolves,
        "linalg.eigensolve_ns_per_n3": 1e9 * total["linalg.jacobi_eigenvalues"] / n3 if n3 else 0.0,
        "spectral.matrix_build_ms": 1e3 * build_self,
        "spectral.self_ms": 1e3 * self_by_layer["spectral"],
        "spectral.spread_calls_per_item": calls["spectral.spread"] / max(items, 1),
        "graph.parse_ms": 1e3 * total["graph.parse_graph6"],
        "graph.apd_ms": 1e3 * total["graph.all_pairs_distances"],
        "graph.apd_calls_per_item": calls["graph.all_pairs_distances"] / max(items, 1),
        "graph.self_ms": 1e3 * self_by_layer["graph"],
        "quotient.calls": calls["quotient.quotient"],
        "quotient.ms": 1e3 * self_by_layer["quotient"],
        "quotient.us_per_call": 1e6 * self_by_layer["quotient"] / calls["quotient.quotient"] if calls["quotient.quotient"] else 0.0,
        "structures.enum_ms": 1e3 * self_by_layer["structures"],
        "structures.witnesses": tracer.witnesses,
        "structures.truncated_items": len(tracer.truncated_items),
        "bounds.self_ms": 1e3 * self_by_layer["bounds"],
        "search.canonical_ms": 1e3 * canonical,
        "search.canonical_calls": calls["search.canonical_labelling"],
        "search.self_ms": 1e3 * (self_by_layer["search"] - canonical),
        "search.eigensolves": candidate_solves,
        "trace.spans": len(spans),
        "trace.wall_ms": 1e3 * wall_s,
        "trace.self_coverage": covered / wall_s if wall_s else 0.0,
    }
