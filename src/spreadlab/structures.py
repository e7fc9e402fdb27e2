"""Substructure enumeration: maximum cliques, diameter paths, cactus cycles.

These are the witness sets indexing the parameterised spread bounds; each
witness carries s_i, the sum of transmissions over its vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import AcyclicError, NotCactusError
from .graph import DistanceData, Graph, all_pairs_distances, check_connected

DIAMETER_PATH_CAP = 10000


@dataclass(frozen=True)
class WitnessSet:
    """A family of substructures of one kind plus their transmission sums.

    kind is "clique", "diameter_path" or "cycle"; parameter is omega, d or l.
    members are vertex lists (cliques sorted, paths end-to-end, cycles in
    cyclic order).
    """

    kind: str
    parameter: int
    members: tuple[tuple[int, ...], ...]
    s_values: tuple[int, ...]
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


def maximum_cliques(g: Graph, dd: DistanceData | None = None) -> WitnessSet:
    """All cliques of maximum order, each as a sorted vertex tuple."""
    check_connected(g)
    dd = dd or all_pairs_distances(g)
    cliques = maximal_cliques(g)
    omega = max((len(c) for c in cliques), default=0)
    members = tuple(c for c in cliques if len(c) == omega)
    return WitnessSet(
        kind="clique",
        parameter=omega,
        members=members,
        s_values=tuple(sum(dd.trans[v] for v in c) for c in members),
    )


# ---------------------------------------------------------------------------
# diameter paths


def _geodesics(g: Graph, dd: DistanceData, u: int, v: int) -> Iterator[tuple[int, ...]]:
    """All shortest u-v paths in ascending order, walked forward from u over
    the neighbours one step closer to v, smallest first."""
    d = dd.dist[v]
    stack = [(u,)]
    while stack:
        path = stack.pop()
        x = path[-1]
        if x == v:
            yield path
            continue
        for y in sorted(g.adjacency[x], reverse=True):
            if d[y] == d[x] - 1:
                stack.append(path + (y,))


def diameter_paths(g: Graph, dd: DistanceData | None = None, cap: int = DIAMETER_PATH_CAP) -> WitnessSet:
    """All paths whose length equals the diameter, each reported once with the
    lexicographically smaller endpoint first; truncated at cap."""
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    dd = dd or all_pairs_distances(g)
    d = dd.diameter
    members: list[tuple[int, ...]] = []
    truncated = False
    for u in range(g.n):
        if truncated:
            break
        for v in range(u + 1, g.n):
            if dd.dist[u][v] != d:
                continue
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
        s_values=tuple(sum(dd.trans[v] for v in p) for p in members),
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
        stack = [(root, iter(sorted(g.adjacency[root])))]
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
                    stack.append((w, iter(sorted(g.adjacency[w]))))
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
    try:
        cactus_longest_cycles(g)
    except (NotCactusError, AcyclicError):
        return False
    return True


def cactus_longest_cycles(g: Graph, dd: DistanceData | None = None) -> WitnessSet:
    """Longest cycles of a cactus, via block decomposition.

    A block is a cycle exactly when its edge count equals its vertex count;
    a block with more edges is not allowed in a cactus. Raises AcyclicError
    when every block is an edge (the graph is a tree).
    """
    check_connected(g)
    dd = dd or all_pairs_distances(g)
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
    members = tuple(sorted(c for c in cycles if len(c) == length))
    return WitnessSet(
        kind="cycle",
        parameter=length,
        members=members,
        s_values=tuple(sum(dd.trans[v] for v in c) for c in members),
    )


# ---------------------------------------------------------------------------
# closed-form internal distance sums


def cycle_internal_sum(l: int) -> int:
    """Distance sum from one vertex of C_l to the others: l^2/4 for even l,
    (l^2 - 1)/4 for odd l."""
    if l < 3:
        raise ValueError(f"cycle length must be >= 3, got {l}")
    return l * l // 4 if l % 2 == 0 else (l * l - 1) // 4


def path_internal_sum(d: int) -> int:
    """Ordered-pair distance sum over a geodesic with d edges:
    d(d+1)(d+2)/3."""
    if d < 1:
        raise ValueError(f"path length must be >= 1, got {d}")
    return d * (d + 1) * (d + 2) // 3
