"""Exhaustive small-n verification of the extremal DSL-spread conjecture.

Connected bipartite graphs are enumerated one isomorphism class each: for a
part split a + b = n the biadjacency rows are generated as non-decreasing
bitmask tuples (a cheap exact reduction of labelled duplicates), survivors
are deduplicated by a canonical form computed with iterated colour
refinement plus backtracking. Work is chunked by (a, combination range) so
runs can be parallelised and checkpointed.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import combinations_with_replacement, islice

from .errors import SpreadlabError
from .graph import Graph, complete_bipartite, write_graph6
from .spectral import KIND_DSL, kab_q_extremes, spread

CONJECTURE_MAX_N = 10
ABS_TOL = 1e-8
EQUALITY_TOL = 1e-6
DEFAULT_CHUNK = 20000


# ---------------------------------------------------------------------------
# canonical form (iterated refinement + backtracking)


def _refine(n: int, adj: tuple[frozenset, ...], colors: list[int]) -> list[int]:
    while True:
        sigs = [
            (colors[v], tuple(sorted(colors[u] for u in adj[v])))
            for v in range(n)
        ]
        order = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        new = [order[sigs[v]] for v in range(n)]
        if len(set(new)) == len(set(colors)):
            return new
        colors = new


def _leaf_key(n: int, adj: tuple[frozenset, ...], colors: list[int]) -> int:
    # colors are a bijection vertex -> position; encode the relabelled
    # adjacency as an integer bitmask over the upper triangle
    pos = colors
    key = 0
    for v in range(n):
        pv = pos[v]
        for u in adj[v]:
            pu = pos[u]
            if pv < pu:
                key |= 1 << (pv * n + pu)
    return key


def _canonical_search(n: int, adj: tuple[frozenset, ...], colors: list[int], best: list):
    cells: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        cells.setdefault(c, []).append(v)
    target = None
    for c in sorted(cells):
        if len(cells[c]) > 1:
            target = cells[c]
            break
    if target is None:
        key = _leaf_key(n, adj, colors)
        if best[0] is None or key < best[0]:
            best[0] = key
            best[1] = list(colors)
        return
    for v in target:
        branched = [c + (1 if c > colors[v] or (c == colors[v] and u != v) else 0)
                    for u, c in enumerate(colors)]
        branched[v] = colors[v]
        _canonical_search(n, adj, _refine(n, adj, branched), best)


def canonical_labelling(g: Graph) -> list[int]:
    """Permutation mapping each vertex to its canonical position."""
    if g.n == 0:
        return []
    colors = _refine(g.n, g.adjacency, [g.degree(v) for v in range(g.n)])
    # normalise colour ids to 0..k-1 in order
    best: list = [None, None]
    _canonical_search(g.n, g.adjacency, _refine(g.n, g.adjacency, colors), best)
    return best[1]


def canonical_graph(g: Graph) -> Graph:
    perm = canonical_labelling(g)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def canonical_key(g: Graph) -> tuple[int, int]:
    """(n, adjacency bitmask) of the canonical relabelling; equal exactly for
    isomorphic graphs."""
    if g.n == 0:
        return (0, 0)
    perm = canonical_labelling(g)
    return (g.n, _leaf_key(g.n, g.adjacency, perm))


def canonical_graph6(g: Graph) -> str:
    return write_graph6(canonical_graph(g))


def isomorphic(g: Graph, h: Graph) -> bool:
    return g.n == h.n and canonical_key(g) == canonical_key(h)


# ---------------------------------------------------------------------------
# enumeration of connected bipartite graphs


def _row_tuples(a: int, b: int):
    """Non-decreasing tuples of a nonzero b-bit row masks."""
    return combinations_with_replacement(range(1, 1 << b), a)


def _rows_connected(a: int, b: int, rows: tuple[int, ...]) -> bool:
    cover = 0
    for r in rows:
        cover |= r
    if cover != (1 << b) - 1:
        return False
    # BFS over left indices via shared right neighbours
    seen_left = 1
    seen_right = rows[0]
    frontier_right = rows[0]
    while True:
        new_left = 0
        for i in range(a):
            if not (seen_left >> i) & 1 and rows[i] & frontier_right:
                new_left |= 1 << i
        if not new_left:
            break
        seen_left |= new_left
        new_right = 0
        for i in range(a):
            if (new_left >> i) & 1:
                new_right |= rows[i]
        frontier_right = new_right & ~seen_right
        seen_right |= new_right
        if not frontier_right and seen_left == (1 << a) - 1:
            break
    return seen_left == (1 << a) - 1 and seen_right == (1 << b) - 1


def _graph_from_rows(a: int, b: int, rows: tuple[int, ...]) -> Graph:
    edges = [(i, a + j) for i in range(a) for j in range(b) if (rows[i] >> j) & 1]
    return Graph(a + b, edges)


def enumerate_connected_bipartite(n: int):
    """Yield one representative per isomorphism class of connected bipartite
    graphs on n vertices, in a deterministic order."""
    if not (2 <= n <= CONJECTURE_MAX_N):
        raise ValueError(f"enumeration supports 2 <= n <= {CONJECTURE_MAX_N}, got {n}")
    seen: set[tuple[int, int]] = set()
    for a in range(1, n // 2 + 1):
        b = n - a
        for rows in _row_tuples(a, b):
            if not _rows_connected(a, b, rows):
                continue
            g = _graph_from_rows(a, b, rows)
            key = canonical_key(g)
            if key not in seen:
                seen.add(key)
                yield g


# ---------------------------------------------------------------------------
# monotonicity of the complete-bipartite spreads


def check_monotonicity(n: int) -> list[float]:
    """[S_Q(K_{1,n-1}), ..., S_Q(K_{floor,ceil})], strictly decreasing."""
    if n < 4:
        raise ValueError(f"monotonicity chain needs n >= 4, got {n}")
    values = [kab_q_extremes(a, n)[2] for a in range(1, n // 2 + 1)]
    for x, y in zip(values, values[1:]):
        if not x > y:
            raise SpreadlabError(f"spread chain is not strictly decreasing at n={n}: {values}")
    return values


# ---------------------------------------------------------------------------
# conjecture check


@dataclass(frozen=True)
class ConjectureReport:
    n: int
    graphs_checked: int
    candidates: int
    minimizer_graph6: str
    minimizer_spread: float
    reference: float
    verdict: str
    counterexamples: tuple[tuple[str, float], ...]
    elapsed_seconds: float
    chunks: int


def _chunk_ranges(total: int, chunk_size: int):
    start = 0
    while start < total:
        yield start, min(start + chunk_size, total)
        start += chunk_size


def _count_row_tuples(a: int, b: int) -> int:
    # C(2^b - 1 + a - 1, a)
    from math import comb
    return comb((1 << b) - 1 + a - 1, a)


def _run_chunk(args) -> tuple[int, int, int, dict, int]:
    """Worker: canonical classes found in one (a, range) chunk.

    Returns (a, start, end, {canonical graph6: S_Q}, candidates examined).
    """
    n, a, start, end = args
    b = n - a
    classes: dict[str, float] = {}
    candidates = 0
    for rows in islice(_row_tuples(a, b), start, end):
        if not _rows_connected(a, b, rows):
            continue
        candidates += 1
        g = _graph_from_rows(a, b, rows)
        key = canonical_graph6(g)
        if key not in classes:
            classes[key] = spread(g, KIND_DSL).spread
    return a, start, end, classes, candidates


def check_conjecture(
    n: int,
    threads: int | None = None,
    chunk_size: int = DEFAULT_CHUNK,
    checkpoint: str | None = None,
) -> ConjectureReport:
    """Evaluate S_Q over every connected bipartite isomorphism class on n
    vertices and compare against S_Q(K_{floor(n/2), ceil(n/2)})."""
    if not (2 <= n <= CONJECTURE_MAX_N):
        raise ValueError(f"conjecture check supports 2 <= n <= {CONJECTURE_MAX_N}, got {n}")
    if chunk_size < 1:
        raise ValueError(f"chunk size must be >= 1, got {chunk_size}")
    if threads is None:
        threads = _threads_from_env()
    t0 = time.monotonic()

    chunks = [
        (n, a, start, end)
        for a in range(1, n // 2 + 1)
        for start, end in _chunk_ranges(_count_row_tuples(a, n - a), chunk_size)
    ]
    done: dict[tuple[int, int, int], tuple[dict, int]] = {}
    if checkpoint and os.path.exists(checkpoint):
        with open(checkpoint) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                rec = json.loads(line)
                if rec.get("n") == n:
                    done[(rec["a"], rec["start"], rec["end"])] = (rec["classes"], rec["candidates"])

    pending = [c for c in chunks if (c[1], c[2], c[3]) not in done]
    results = []
    if threads > 1 and pending:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(_run_chunk, pending))
    else:
        results = [_run_chunk(c) for c in pending]

    ckpt_fh = open(checkpoint, "a") if checkpoint else None
    try:
        for a, start, end, classes, candidates in results:
            done[(a, start, end)] = (classes, candidates)
            if ckpt_fh:
                ckpt_fh.write(json.dumps({
                    "n": n, "a": a, "start": start, "end": end,
                    "classes": classes, "candidates": candidates,
                }) + "\n")
    finally:
        if ckpt_fh:
            ckpt_fh.close()

    merged: dict[str, float] = {}
    candidates_total = 0
    for key in sorted(done):
        classes, candidates = done[key]
        candidates_total += candidates
        for g6, sq in classes.items():
            if g6 not in merged:
                merged[g6] = sq

    a0 = n // 2
    reference_graph = complete_bipartite(a0, n - a0)
    reference = spread(reference_graph, KIND_DSL).spread
    reference_key = canonical_graph6(reference_graph)

    counterexamples = []
    for g6, sq in sorted(merged.items()):
        if sq < reference - EQUALITY_TOL:
            counterexamples.append((g6, sq))
        elif abs(sq - reference) <= EQUALITY_TOL and g6 != reference_key:
            # a near-tie must be the extremal graph itself
            counterexamples.append((g6, sq))
    minimizer_g6, minimizer_sq = min(merged.items(), key=lambda kv: (kv[1], kv[0]))

    return ConjectureReport(
        n=n,
        graphs_checked=len(merged),
        candidates=candidates_total,
        minimizer_graph6=minimizer_g6,
        minimizer_spread=minimizer_sq,
        reference=reference,
        verdict="holds" if not counterexamples else "counterexample",
        counterexamples=tuple(counterexamples),
        elapsed_seconds=time.monotonic() - t0,
        chunks=len(chunks),
    )


def _threads_from_env() -> int:
    raw = os.environ.get("SPREADLAB_THREADS", "1")
    try:
        value = int(raw)
    except ValueError:
        raise SpreadlabError(f"SPREADLAB_THREADS must be a positive integer, got {raw!r}") from None
    if value < 1:
        raise SpreadlabError(f"SPREADLAB_THREADS must be a positive integer, got {raw!r}")
    return value
