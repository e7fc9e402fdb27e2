"""Substructure enumeration: maximum cliques, diameter paths, cactus cycles.

These are the witness sets indexing the parameterised spread bounds. Only
diameter paths need distances, which the caller passes in as the graph's
all_pairs_distances array; the bounds sum the transmissions over each
witness themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice
from typing import Iterator

import numpy as np

from .errors import AcyclicError, NotCactusError
from .graph import Graph

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


def _cliques(g: Graph, floor: list[int]) -> Iterator[list[int]]:
    """The cliques of at least floor[0] vertices, in ascending lexicographic
    order, each yielded as one shared vertex list (a branch and bound on the
    candidate count; Carraghan and Pardalos, Oper. Res. Lett. 9, 1990).

    Depth i of the stack holds, as an int bitset, the vertices that can still
    follow clique[:i]: its common neighbours above the vertex last tried
    there. A branch whose clique and candidates together fall short of
    floor[0] is skipped; the caller may raise floor[0] between steps.
    """
    higher = [int.from_bytes(row.tobytes(), "little")
              for row in np.packbits(np.triu(g.adj, 1), axis=1, bitorder="little")]
    clique: list[int] = []
    stack = [(1 << g.n) - 1]
    while stack:
        candidates = stack[-1]
        if candidates and len(clique) + candidates.bit_count() >= floor[0]:
            v = (candidates & -candidates).bit_length() - 1
            stack[-1] = candidates ^ (1 << v)
            clique.append(v)
            stack.append(stack[-1] & higher[v])
            if len(clique) >= floor[0]:
                yield clique
        else:
            stack.pop()
            if clique:
                clique.pop()


def maximum_cliques(g: Graph) -> WitnessSet:
    """The cliques of maximum order, each as a sorted vertex tuple, in
    ascending order; truncated at the first WITNESS_CAP."""
    floor = [1]
    for clique in _cliques(g, floor):
        floor[0] = len(clique) + 1
    omega = floor[0] - 1
    members = [tuple(c) for c in islice(_cliques(g, [omega]), WITNESS_CAP + 1)]
    return WitnessSet(parameter=omega, members=tuple(members[:WITNESS_CAP]), truncated=len(members) > WITNESS_CAP)


# ---------------------------------------------------------------------------
# diameter paths


def _geodesics(g: Graph, dist: np.ndarray, u: int, v: int) -> Iterator[tuple[int, ...]]:
    """All shortest u-v paths in ascending order, walked forward from u over
    the neighbours one step closer to v, smallest first."""
    d = dist[v].tolist()
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


def diameter_paths(g: Graph, dist: np.ndarray, cap: int = WITNESS_CAP) -> WitnessSet:
    """All paths whose length equals the diameter, each reported once with the
    lexicographically smaller endpoint first; truncated at cap. dist is the
    graph's all_pairs_distances."""
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    d = int(dist.max(initial=0))
    # endpoint pairs u < v at distance d, in row-major order; one path past
    # the cap is built to tell a full family from a truncated one
    pairs = np.argwhere(np.triu(dist == d, 1)).tolist()
    members = list(islice(chain.from_iterable(_geodesics(g, dist, u, v) for u, v in pairs), cap + 1))
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
