"""Substructure enumeration: maximum cliques, diameter paths, cactus cycles.

These are the witness sets indexing the parameterised spread bounds. Only
diameter paths need distances, which the caller passes in; the bounds sum
the transmissions over each witness themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import AcyclicError, NotCactusError
from .graph import DistanceData, Graph, is_connected

DIAMETER_PATH_CAP = 10000


@dataclass(frozen=True)
class WitnessSet:
    """A family of substructures of one kind.

    kind is "clique", "diameter_path" or "cycle"; parameter is omega, d or l.
    members are vertex lists (cliques sorted, paths end-to-end, cycles in
    cyclic order).
    """

    kind: str
    parameter: int
    members: tuple[tuple[int, ...], ...]
    truncated: bool = False

    def __len__(self) -> int:
        return len(self.members)


# ---------------------------------------------------------------------------
# cliques


def _bron_kerbosch(adj, r: list[int], p: set[int], x: set[int], out: list[tuple[int, ...]]):
    if not p and not x:
        out.append(tuple(sorted(r)))
        return
    pivot = max(p | x, key=lambda v: len(adj[v] & p))
    for v in sorted(p - adj[pivot]):
        _bron_kerbosch(adj, r + [v], p & adj[v], x & adj[v], out)
        p.remove(v)
        x.add(v)


def maximal_cliques(g: Graph) -> list[tuple[int, ...]]:
    """All maximal cliques, via Bron-Kerbosch with pivoting."""
    if g.n == 0:
        return []
    adj = [set(a) for a in g.adjacency]
    out: list[tuple[int, ...]] = []
    _bron_kerbosch(adj, [], set(range(g.n)), set(), out)
    return sorted(out)


def maximum_cliques(g: Graph) -> WitnessSet:
    """All cliques of maximum order, each as a sorted vertex tuple."""
    cliques = maximal_cliques(g)
    omega = max((len(c) for c in cliques), default=0)
    return WitnessSet(
        kind="clique",
        parameter=omega,
        members=tuple(c for c in cliques if len(c) == omega),
    )


# ---------------------------------------------------------------------------
# diameter paths


def _geodesics(g: Graph, dd: DistanceData, u: int, v: int) -> Iterator[tuple[int, ...]]:
    """All shortest u-v paths in ascending order, walked forward from u over
    the neighbours one step closer to v, smallest first."""
    d = dd.dist[v].tolist()
    stack = [(u,)]
    while stack:
        path = stack.pop()
        x = path[-1]
        if x == v:
            yield path
            continue
        for y in reversed(g.adjacency[x]):
            if d[y] == d[x] - 1:
                stack.append(path + (y,))


def diameter_paths(g: Graph, dd: DistanceData, cap: int = DIAMETER_PATH_CAP) -> WitnessSet:
    """All paths whose length equals the diameter, each reported once with the
    lexicographically smaller endpoint first; truncated at cap. dd is the
    graph's all_pairs_distances."""
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    d = dd.diameter
    members: list[tuple[int, ...]] = []
    truncated = False
    # endpoint pairs u < v at distance d, in row-major order
    for u, v in np.argwhere(np.triu(dd.dist == d, 1)).tolist():
        for path in _geodesics(g, dd, u, v):
            if len(members) >= cap:
                truncated = True
                break
            members.append(path)
        if truncated:
            break
    return WitnessSet(
        kind="diameter_path",
        parameter=d,
        members=tuple(members),
        truncated=truncated,
    )


# ---------------------------------------------------------------------------
# cactus cycles


def biconnected_components(g: Graph) -> list[list[tuple[int, int]]]:
    """Edge sets of the biconnected blocks (iterative Hopcroft-Tarjan)."""
    disc = [-1] * g.n
    low = [0] * g.n
    timer = 0
    edge_stack: list[tuple[int, int]] = []
    blocks: list[list[tuple[int, int]]] = []
    parent = [-1] * g.n
    for root in range(g.n):
        if disc[root] >= 0:
            continue
        disc[root] = low[root] = timer
        timer += 1
        stack = [(root, iter(g.adjacency[root]))]
        while stack:
            v, it = stack[-1]
            advanced = False
            for w in it:
                if w == parent[v]:
                    continue
                if disc[w] < 0:
                    parent[w] = v
                    edge_stack.append((v, w))
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, iter(g.adjacency[w])))
                    advanced = True
                    break
                if disc[w] < disc[v]:
                    # back edge
                    edge_stack.append((v, w))
                    low[v] = min(low[v], disc[w])
            if advanced:
                continue
            stack.pop()
            if stack:
                pv = stack[-1][0]
                low[pv] = min(low[pv], low[v])
                if low[v] >= disc[pv]:
                    block: list[tuple[int, int]] = []
                    while edge_stack:
                        e = edge_stack.pop()
                        block.append(e)
                        if e == (pv, v):
                            break
                    blocks.append(block)
    return blocks


def _cycle_order(block_edges: list[tuple[int, int]]) -> tuple[int, ...]:
    """Walk a cycle block into cyclic vertex order, smallest vertex first."""
    adj: dict[int, list[int]] = {}
    for u, v in block_edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    start = min(adj)
    order = [start]
    prev = None
    cur = start
    while True:
        nxt = [w for w in sorted(adj[cur]) if w != prev]
        step = nxt[0]
        if step == start:
            break
        order.append(step)
        prev, cur = cur, step
    return tuple(order)


def is_cactus(g: Graph) -> bool:
    """True for a connected graph whose blocks are edges or cycles, with at
    least one cycle."""
    if not is_connected(g):
        return False
    try:
        cactus_longest_cycles(g)
    except (NotCactusError, AcyclicError):
        return False
    return True


def cactus_longest_cycles(g: Graph) -> WitnessSet:
    """Longest cycles of a cactus, via block decomposition.

    A block is a cycle exactly when its edge count equals its vertex count;
    a block with more edges is not allowed in a cactus. Raises AcyclicError
    when every block is an edge (the graph is a tree).
    """
    cycles: list[tuple[int, ...]] = []
    for block in biconnected_components(g):
        if len(block) == 1:
            continue
        vertices = {v for e in block for v in e}
        if len(block) != len(vertices):
            raise NotCactusError(vertices)
        cycles.append(_cycle_order(block))
    if not cycles:
        raise AcyclicError("graph is a tree: no cycle, circumference undefined")
    length = max(len(c) for c in cycles)
    return WitnessSet(
        kind="cycle",
        parameter=length,
        members=tuple(sorted(c for c in cycles if len(c) == length)),
    )
