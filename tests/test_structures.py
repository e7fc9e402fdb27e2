from itertools import combinations

import pytest

from spreadlab import (
    AcyclicError,
    Graph,
    NotCactusError,
    all_pairs_distances,
    builtin,
    cactus_longest_cycles,
    complete,
    complete_bipartite,
    cycle,
    cycle_internal_sum,
    diameter_paths,
    is_cactus,
    kite,
    maximum_cliques,
    path,
    path_internal_sum,
    star,
)
from spreadlab.structures import _geodesics, biconnected_components, maximal_cliques

from .conftest import random_cactus, random_connected_graph


# ---------------------------------------------------------------------------
# oracles


def brute_force_max_cliques(g: Graph):
    best = []
    for k in range(g.n, 0, -1):
        for sub in combinations(range(g.n), k):
            if all(v in g.adjacency[u] for u, v in combinations(sub, 2)):
                best.append(sub)
        if best:
            return k, sorted(best)
    return 0, []


def brute_force_diameter_paths(g: Graph):
    dd = all_pairs_distances(g)
    d = dd.diameter
    found = []

    def extend(p):
        if len(p) == d + 1:
            found.append(tuple(p))
            return
        for y in sorted(g.adjacency[p[-1]]):
            if dd.dist[p[0]][y] == len(p):
                extend(p + [y])

    for u in range(g.n):
        if any(dv == d for dv in dd.dist[u]):
            extend([u])
    return sorted(p for p in found if p[0] < p[-1])


# ---------------------------------------------------------------------------
# cliques


def test_maximum_cliques_against_brute_force(rng):
    for _ in range(25):
        g = random_connected_graph(rng, rng.randint(2, 10))
        ws = maximum_cliques(g)
        omega, want = brute_force_max_cliques(g)
        assert ws.parameter == omega
        assert sorted(ws.members) == want
        dd = all_pairs_distances(g)
        assert ws.s_values == tuple(sum(dd.trans[v] for v in c) for c in ws.members)


def test_maximal_cliques_triangle_free():
    g = complete_bipartite(2, 3)
    assert maximum_cliques(g).parameter == 2
    assert len(maximum_cliques(g).members) == 6  # one per edge
    assert maximum_cliques(kite(5, 3)).members == ((0, 1, 2),)


def test_maximal_cliques_complete():
    assert maximal_cliques(complete(5)) == [(0, 1, 2, 3, 4)]


def test_clique_members_are_cliques(rng):
    for _ in range(10):
        g = random_connected_graph(rng, rng.randint(3, 9))
        for member in maximum_cliques(g).members:
            assert all(v in g.adjacency[u] for u, v in combinations(member, 2))


# ---------------------------------------------------------------------------
# diameter paths


def test_diameter_paths_against_dfs_oracle(rng):
    for _ in range(25):
        g = random_connected_graph(rng, rng.randint(2, 9), extra_edge_prob=0.15)
        ws = diameter_paths(g)
        assert sorted(ws.members) == brute_force_diameter_paths(g)
        assert not ws.truncated


def test_diameter_paths_are_geodesics(rng):
    for _ in range(10):
        g = random_connected_graph(rng, rng.randint(3, 9))
        dd = all_pairs_distances(g)
        ws = diameter_paths(g, dd)
        for p in ws.members:
            assert len(p) == ws.parameter + 1 == dd.diameter + 1
            for u, v in zip(p, p[1:]):
                assert v in g.adjacency[u]
            assert dd.dist[p[0]][p[-1]] == dd.diameter


def test_diameter_paths_known():
    ws = diameter_paths(builtin("G1"))
    assert ws.parameter == 4
    assert ws.members == ((4, 1, 0, 2, 6), (4, 1, 5, 2, 6))
    assert ws.s_values == (59, 61)  # transmissions (9,10,10,14,15,11,15)


def test_diameter_paths_cap():
    ws = diameter_paths(complete_bipartite(4, 4), cap=3)
    assert ws.truncated and len(ws.members) == 3
    with pytest.raises(ValueError):
        diameter_paths(path(4), cap=0)


# ---------------------------------------------------------------------------
# biconnected components and cacti


def test_biconnected_components_partition_edges(rng):
    for _ in range(20):
        g = random_connected_graph(rng, rng.randint(2, 9))
        blocks = biconnected_components(g)
        seen = [tuple(sorted((min(u, v), max(u, v)) for (u, v) in b)) for b in blocks]
        flat = sorted(e for b in seen for e in b)
        assert flat == g.sorted_edges()


def test_cactus_detection():
    assert is_cactus(builtin("G3"))
    assert is_cactus(builtin("G4"))
    assert is_cactus(cycle(5))
    assert not is_cactus(complete(4))
    assert not is_cactus(complete_bipartite(2, 3))
    assert not is_cactus(path(5))  # tree: no circumference


def test_cactus_cycles_known():
    ws = cactus_longest_cycles(builtin("G3"))
    assert ws.parameter == 4
    assert ws.members == ((0, 1, 2, 3),)
    assert ws.s_values == (32,)
    ws = cactus_longest_cycles(builtin("G4"))
    assert ws.parameter == 5
    assert ws.members == ((0, 1, 2, 3, 4),)
    assert ws.s_values == (52,)


def test_cactus_cycle_members_are_cycles(rng):
    for _ in range(25):
        g = random_cactus(rng, rng.randint(3, 12))
        try:
            ws = cactus_longest_cycles(g)
        except AcyclicError:
            assert g.edge_count() == g.n - 1
            continue
        for member in ws.members:
            assert len(member) == ws.parameter
            ring = list(member) + [member[0]]
            for u, v in zip(ring, ring[1:]):
                assert v in g.adjacency[u]


def test_cactus_errors():
    with pytest.raises(NotCactusError) as exc:
        cactus_longest_cycles(complete(4))
    assert exc.value.block_vertices == (0, 1, 2, 3)
    with pytest.raises(AcyclicError):
        cactus_longest_cycles(star(6))


# ---------------------------------------------------------------------------
# internal distance sums (verified against BFS, not assumed)


def test_path_internal_sum_brute_force():
    for d in range(1, 13):
        g = path(d + 1)
        dd = all_pairs_distances(g)
        assert path_internal_sum(d) == sum(dd.trans)
    with pytest.raises(ValueError):
        path_internal_sum(0)


def test_cycle_internal_sum_bfs():
    for l in range(3, 16):
        dd = all_pairs_distances(cycle(l))
        assert cycle_internal_sum(l) == dd.trans[0]
    with pytest.raises(ValueError):
        cycle_internal_sum(2)


def all_geodesics(g: Graph, dd, u: int, v: int):
    """Every shortest u-v path, in no particular order."""
    found = []

    def extend(p):
        if p[-1] == v:
            found.append(tuple(p))
            return
        for y in g.adjacency[p[-1]]:
            if dd.dist[u][y] == len(p) and dd.dist[y][v] == dd.dist[u][v] - len(p):
                extend(p + [y])

    extend([u])
    return found


def test_geodesics_stream_in_sorted_order(rng):
    for _ in range(20):
        g = random_connected_graph(rng, rng.randint(2, 10), extra_edge_prob=rng.choice([0.1, 0.3]))
        dd = all_pairs_distances(g)
        for u in range(g.n):
            for v in range(g.n):
                assert list(_geodesics(g, dd, u, v)) == sorted(all_geodesics(g, dd, u, v))


def test_diameter_paths_cap_stops_early_on_grid():
    # the 11x11 grid has C(20,10) = 184,756 geodesics per pair of opposite
    # corners; with cap=10 only the ten smallest from corner 0 are built
    side = 11
    edges = [(r * side + c, r * side + c + 1) for r in range(side) for c in range(side - 1)]
    edges += [(r * side + c, (r + 1) * side + c) for r in range(side - 1) for c in range(side)]
    g = Graph(side * side, edges)
    ws = diameter_paths(g, cap=10)
    assert ws.truncated and len(ws.members) == 10
    assert list(ws.members) == sorted(ws.members) and len(set(ws.members)) == 10
    assert ws.members[0] == tuple(range(side)) + tuple(side - 1 + side * r for r in range(1, side))
    dd = all_pairs_distances(g)
    for p in ws.members:
        assert p[0] == 0 and p[-1] == side * side - 1 and len(p) == 2 * (side - 1) + 1
        assert all(y in g.adjacency[x] for x, y in zip(p, p[1:]))
