"""Seeded benchmark inputs: connected graphs as graph6 strings.

Nothing here imports spreadlab. Graphs are built with the standard library's
random.Random, relabelled by a random permutation and encoded by networkx, so
the program under test sees only graph6 text. The same (workload, seed) pair
always yields the same items.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import networkx as nx

KINDS = ("distance", "dsl")
BOUND_METHODS = ("bipartite_distance", "bipartite_dsl", "clique", "diameter", "cactus")

# spectra: item i of N has n = 10 * 6.4**(((i + 0.5) / N) ** SPECTRA_SKEW), so n
# runs from 10 to 64 with most items small and a few near 64. A pass takes
# about 3 s, so a 30-second run sees every item about ten times.
SPECTRA_ITEMS = 120
SPECTRA_TOP = 6.4
SPECTRA_SKEW = 3.0
SPECTRA_FAMILIES = ("sparse", "dense", "tree", "grid", "cycle", "bipartite")


@dataclass
class Item:
    """One benchmark call: a graph plus what to compute on it."""

    index: int
    family: str
    g6: str
    graph: nx.Graph = field(repr=False)
    op: str  # a matrix kind for spectra, a bound method for bounds
    cap: int | None = None
    grid: tuple[int, int] | None = None  # (rows, cols) when family == "grid"

    @property
    def n(self) -> int:
        return self.graph.number_of_nodes()


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


# ---------------------------------------------------------------------------
# edge-list generators on vertices 0..n-1


def tree_edges(r: random.Random, n: int) -> list[tuple[int, int]]:
    """Uniform random labelled tree (Pruefer decoding)."""
    if n == 2:
        return [(0, 1)]
    seq = [r.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = []
    for x in seq:
        leaf = min(v for v in range(n) if degree[v] == 1)
        edges.append((leaf, x))
        degree[leaf] -= 1
        degree[x] -= 1
    u, v = (w for w in range(n) if degree[w] == 1)
    edges.append((u, v))
    return edges


def random_connected_edges(r: random.Random, n: int, p: float) -> list[tuple[int, int]]:
    """Random tree plus every other pair with probability p."""
    edges = set(tuple(sorted(e)) for e in tree_edges(r, n))
    for v in range(n):
        for u in range(v):
            if (u, v) not in edges and r.random() < p:
                edges.add((u, v))
    return sorted(edges)


def bipartite_edges(r: random.Random, n: int, p: float) -> list[tuple[int, int]]:
    """Connected bipartite graph, parts 0..a-1 and a..n-1 with a = n // 2."""
    a = n // 2
    left, right = list(range(a)), list(range(a, n))
    # spanning tree that alternates sides keeps it connected and bipartite
    edges = {(0, a)}
    placed_l, placed_r = [0], [a]
    for v in left[1:] + right[1:]:
        other = placed_r if v < a else placed_l
        u = r.choice(other)
        edges.add((min(u, v), max(u, v)))
        (placed_l if v < a else placed_r).append(v)
    for u in left:
        for v in right:
            if r.random() < p:
                edges.add((u, v))
    return sorted(edges)


def grid_edges(rows: int, cols: int) -> list[tuple[int, int]]:
    g = nx.convert_node_labels_to_integers(nx.grid_2d_graph(rows, cols), ordering="sorted")
    return list(g.edges())


def hypercube_edges(k: int) -> list[tuple[int, int]]:
    n = 1 << k
    return [(v, v ^ (1 << b)) for v in range(n) for b in range(k) if v < v ^ (1 << b)]


def cycle_edges(n: int) -> list[tuple[int, int]]:
    return [(i, (i + 1) % n) for i in range(n)]


def regular_bipartite_edges(r: random.Random, half: int, d: int) -> list[tuple[int, int]]:
    """Union of d random perfect matchings between two parts of size half,
    redrawn until simple and connected (d >= 2 keeps that quick)."""
    while True:
        edges = set()
        for _ in range(d):
            perm = list(range(half))
            r.shuffle(perm)
            edges.update((i, half + perm[i]) for i in range(half))
        if len(edges) == d * half:
            g = nx.Graph(sorted(edges))
            if nx.is_connected(g):
                return sorted(edges)


def cactus_edges(r: random.Random, longest: int, copies: int, extra: int) -> list[tuple[int, int]]:
    """Cactus with `copies` cycles of length `longest`, then `extra` more
    vertices as shorter cycles and pendant edges; blocks hang off random
    vertices, so the result stays a cactus."""
    edges: list[tuple[int, int]] = []
    n = 0

    def attach_cycle(length: int) -> None:
        nonlocal n
        anchor = r.randrange(n) if n else None
        ring = ([anchor] if anchor is not None else []) + list(range(n, n + length - (anchor is not None)))
        n += length - (anchor is not None)
        edges.extend((ring[i], ring[(i + 1) % length]) for i in range(length))

    for _ in range(copies):
        attach_cycle(longest)
    budget = extra
    while budget > 0:
        length = r.randrange(3, longest)
        if r.random() < 0.5 and length - 1 <= budget:
            attach_cycle(length)
            budget -= length - 1
        else:
            edges.append((r.randrange(n), n))
            n += 1
            budget -= 1
    return edges


# ---------------------------------------------------------------------------
# relabelling and encoding


def make_item(r: random.Random, index: int, family: str, edges, op: str, **extra) -> Item:
    n = 1 + max(max(e) for e in edges)
    perm = list(range(n))
    r.shuffle(perm)
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from((perm[u], perm[v]) for u, v in edges)
    g6 = nx.to_graph6_bytes(g, header=False).decode("ascii").strip()
    return Item(index=index, family=family, g6=g6, graph=g, op=op, **extra)


# ---------------------------------------------------------------------------
# workloads


def spectra_items(seed: int) -> list[Item]:
    """Connected graphs with n in 10..64 over six families, each paired
    with the distance or the DSL matrix.

    At equal n the (family, kind) pair changes the eigensolve cost by up to
    2x, so the multiset of (n, family, kind) is the same for every seed and
    each run of 12 consecutive sizes holds every pair once. The seed draws
    the random graphs and the vertex labels.
    """
    r = rng_for("spectra", seed)
    layout = random.Random("spectra-layout")
    combos = [(f, k) for f in SPECTRA_FAMILIES for k in KINDS]
    items = []
    for i in range(SPECTRA_ITEMS):
        if i % len(combos) == 0:
            layout.shuffle(combos)
        family, kind = combos[i % len(combos)]
        n = round(10 * SPECTRA_TOP ** (((i + 0.5) / SPECTRA_ITEMS) ** SPECTRA_SKEW))
        grid = None
        if family == "sparse":
            edges = random_connected_edges(r, n, min(1.0, 2.0 / n))
        elif family == "dense":
            edges = random_connected_edges(r, n, 0.5)
        elif family == "tree":
            edges = tree_edges(r, n)
        elif family == "grid":
            rows = max(2, math.isqrt(n))
            grid = (rows, round(n / rows))
            edges = grid_edges(*grid)
        elif family == "cycle":
            edges = cycle_edges(n)
        else:
            edges = bipartite_edges(r, n, 0.25)
        items.append(make_item(r, i, family, edges, kind, grid=grid))
    return items


GRID_DIMS = ((3, 4), (3, 5), (4, 5), (4, 6), (5, 5), (5, 6))
WITNESS_METHODS = ("bipartite_distance", "bipartite_dsl", "clique", "diameter")


def _bounds_plan(r: random.Random):
    """Yield (family, build, method, extra) for every bounds item, where
    build() draws the item's edge list from r.

    Families, sizes and methods are fixed, so each seed costs about the same;
    the seed draws the random graphs, grid orientations, caps and labels.
    Witness-rich families (grids, hypercubes, regular bipartite graphs, cacti
    with several longest cycles) make up most of the batch. Sizes stop near
    n = 42, so a pass takes about 3 s and a 30-second run sees every item
    about ten times.
    """
    for dims in GRID_DIMS:
        dims = dims if r.random() < 0.5 else dims[::-1]
        for method in WITNESS_METHODS:
            yield "grid", lambda d=dims: grid_edges(*d), method, {"grid": dims}
    # the diameter-path cap truncates: 2 * C(11, 5) = 924 geodesics > cap
    yield "grid", lambda: grid_edges(6, 7), "diameter", {"grid": (6, 7), "cap": r.randint(200, 400)}
    # Q5 has 16 antipodal pairs with 5! = 120 geodesics each, 1920 > cap
    for k in (4, 5):
        for method in WITNESS_METHODS:
            extra = {"cap": r.randint(200, 400)} if (k, method) == (5, "diameter") else {}
            yield "hypercube", lambda k=k: hypercube_edges(k), method, extra
    for i in range(16):
        half, d = 8 + i // 2, 3 + i % 2
        yield "regular_bipartite", lambda h=half, d=d: regular_bipartite_edges(r, h, d), WITNESS_METHODS[i % 4], {}
    cactus_methods = ("cactus", "cactus", "clique", "diameter")
    for i in range(24):
        longest, copies = 4 + i % 5, 2 + i % 3
        extra = max(2, 12 + (28 * i) // 23 - (longest - 1) * copies - 1)
        yield ("cactus", lambda a=(longest, copies, extra): cactus_edges(r, *a),
               cactus_methods[i % 4], {})
    for i in range(16):
        n = 10 + round(i * 30 / 15)
        yield "plain", lambda n=n: random_connected_edges(r, n, 3.0 / n), ("clique", "diameter")[i % 2], {}
    for i in range(12):
        n = 10 + round(i * 30 / 11)
        yield "tree", lambda n=n: tree_edges(r, n), ("bipartite_distance", "bipartite_dsl", "diameter")[i % 3], {}


def _bound_defined(g: nx.Graph, method: str) -> bool:
    """True when the bound is a witness bound on g (no closed form, no
    degenerate partition), so every item has witnesses to check."""
    n = g.number_of_nodes()
    if method in ("bipartite_distance", "bipartite_dsl"):
        return nx.is_bipartite(g) and max(d for _, d in g.degree()) < n - 1
    if method == "clique":
        return max(len(c) for c in nx.find_cliques(g)) < n
    if method == "diameter":
        return 1 < nx.diameter(g) < n - 1
    return True  # cactus inputs are built with two or more longest cycles


def bounds_items(seed: int) -> list[Item]:
    """(graph, bound method) pairs with n in 10..42, weighted toward
    witness-rich graphs. A random graph on which the method is undefined
    (a path for the diameter bound, say) is redrawn."""
    r = rng_for("bounds", seed)
    items = []
    for family, build, method, extra in _bounds_plan(r):
        while True:
            item = make_item(r, len(items), family, build(), method, **extra)
            if _bound_defined(item.graph, method):
                break
        items.append(item)
    return items
