"""Substructure enumeration: maximum cliques, diameter paths, cactus cycles.

These are the witness sets indexing the parameterised spread bounds. Only
diameter paths need distances, which the caller passes in; the bounds sum
the transmissions over each witness themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice
from typing import Iterator

import numpy as np

from .errors import AcyclicError, NotCactusError
from .graph import DistanceData, Graph, is_connected

# Most members a clique or diameter-path witness set keeps.
WITNESS_CAP = 10000


@dataclass(frozen=True)
class WitnessSet:
    """A family of substructures of one kind: maximum cliques, diameter paths
    or longest cycles, with parameter omega, d or l. members are vertex lists
    (cliques sorted, paths end-to-end, cycles in cyclic order).
    """

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
    """The cliques of maximum order, each as a sorted vertex tuple, in
    ascending order; truncated at the first WITNESS_CAP."""
    cliques = maximal_cliques(g)
    omega = max((len(c) for c in cliques), default=0)
    members = [c for c in cliques if len(c) == omega]
    return WitnessSet(parameter=omega, members=tuple(members[:WITNESS_CAP]), truncated=len(members) > WITNESS_CAP)


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


def diameter_paths(g: Graph, dd: DistanceData, cap: int = WITNESS_CAP) -> WitnessSet:
    """All paths whose length equals the diameter, each reported once with the
    lexicographically smaller endpoint first; truncated at cap. dd is the
    graph's all_pairs_distances."""
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    d = dd.diameter
    # endpoint pairs u < v at distance d, in row-major order; one path past
    # the cap is built to tell a full family from a truncated one
    pairs = np.argwhere(np.triu(dd.dist == d, 1)).tolist()
    members = list(islice(chain.from_iterable(_geodesics(g, dd, u, v) for u, v in pairs), cap + 1))
    return WitnessSet(parameter=d, members=tuple(members[:cap]), truncated=len(members) > cap)


# ---------------------------------------------------------------------------
# cactus cycles


def biconnected_components(g: Graph) -> list[list[tuple[int, int]]]:
    """Edge sets of the biconnected blocks (iterative Hopcroft-Tarjan), each
    in the order the search met its edges.

    A stack entry is (v, its parent, its neighbour iterator, the index of its
    tree edge on the edge stack). When v finishes with low[v] >= disc[parent],
    the edge stack from v's tree edge on is one block.
    """
    disc = [-1] * g.n
    low = [0] * g.n
    timer = 0
    edges: list[tuple[int, int]] = []
    blocks: list[list[tuple[int, int]]] = []
    for root in range(g.n):
        if disc[root] >= 0:
            continue
        disc[root] = low[root] = timer
        timer += 1
        stack = [(root, -1, iter(g.adjacency[root]), 0)]
        while stack:
            v, parent, it, at = stack[-1]
            for w in it:
                if disc[w] < 0:
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, v, iter(g.adjacency[w]), len(edges)))
                    edges.append((v, w))
                    break
                if w != parent and disc[w] < disc[v]:
                    # back edge
                    edges.append((v, w))
                    low[v] = min(low[v], disc[w])
            else:
                stack.pop()
                if parent >= 0:
                    low[parent] = min(low[parent], low[v])
                    if low[v] >= disc[parent]:
                        blocks.append(edges[at:])
                        del edges[at:]
    return blocks


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
    a block with more edges is not allowed in a cactus. A cycle block runs
    once around its cycle from the vertex where the search entered it; each
    cycle is rotated to start at its smallest vertex and head towards that
    vertex's smaller neighbour. Raises AcyclicError when every block is an
    edge (the graph is a tree).
    """
    cycles: list[tuple[int, ...]] = []
    for block in biconnected_components(g):
        if len(block) == 1:
            continue
        vertices = {v for e in block for v in e}
        if len(block) != len(vertices):
            raise NotCactusError(vertices)
        order = [u for u, _ in block]
        i = order.index(min(order))
        order = order[i:] + order[:i]
        cycles.append(tuple(order if order[1] < order[-1] else order[:1] + order[:0:-1]))
    if not cycles:
        raise AcyclicError("graph is a tree: no cycle, circumference undefined")
    length = max(len(c) for c in cycles)
    return WitnessSet(parameter=length, members=tuple(sorted(c for c in cycles if len(c) == length)))
