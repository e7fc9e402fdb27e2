from itertools import combinations

import networkx as nx
import pytest

import spreadlab
from spreadlab import (
    AcyclicError,
    Graph,
    NotCactusError,
    NotConnectedError,
    all_pairs_distances,
    bound_bipartite_distance,
    bound_bipartite_dsl,
    bound_cactus,
    bound_clique,
    bound_diameter,
    builtin,
    cactus_longest_cycles,
    complete,
    complete_bipartite,
    cycle,
    diameter_paths,
    is_cactus,
    kite,
    legacy_2012_counterexample,
    maximum_cliques,
    path,
    star,
)
from spreadlab.structures import _geodesics, biconnected_components, maximal_cliques

from .conftest import (
    cycle_internal_sum,
    edges_of,
    path_internal_sum,
    random_cactus,
    random_connected_graph,
    relabelled,
)


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
        ws = diameter_paths(g, all_pairs_distances(g))
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
    g = builtin("G1")
    ws = diameter_paths(g, all_pairs_distances(g))
    assert ws.parameter == 4
    assert ws.members == ((4, 1, 0, 2, 6), (4, 1, 5, 2, 6))
    # the bound's s_i per path, from transmissions (9,10,10,14,15,11,15)
    assert [w.s_or_t for w in bound_diameter(g).witnesses] == [59, 61]


def test_diameter_paths_cap():
    g = complete_bipartite(4, 4)
    ws = diameter_paths(g, all_pairs_distances(g), cap=3)
    assert ws.truncated and len(ws.members) == 3
    with pytest.raises(ValueError):
        diameter_paths(path(4), all_pairs_distances(path(4)), cap=0)


# ---------------------------------------------------------------------------
# biconnected components and cacti


def test_biconnected_components_partition_edges(rng):
    for _ in range(20):
        g = random_connected_graph(rng, rng.randint(2, 9))
        blocks = biconnected_components(g)
        seen = [tuple(sorted((min(u, v), max(u, v)) for (u, v) in b)) for b in blocks]
        flat = sorted(e for b in seen for e in b)
        assert flat == edges_of(g)


def to_networkx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(edges_of(g))
    return h


def disjoint_union(g: Graph, h: Graph) -> Graph:
    return Graph(g.n + h.n, edges_of(g) + [(u + g.n, v + g.n) for u, v in edges_of(h)])


def canonical_cycle(cycle) -> tuple[int, ...]:
    """A cycle's least rotation over both directions: its smallest vertex
    first, then that vertex's smaller neighbour."""
    turns = [tuple(c[i:] + c[:i]) for c in (list(cycle), list(cycle)[::-1]) for i in range(len(cycle))]
    return min(turns)


def test_biconnected_components_match_networkx(rng):
    graphs = []
    for _ in range(40):
        n = rng.randint(1, 12)
        graphs.append(random_connected_graph(rng, n, extra_edge_prob=rng.choice([0.0, 0.1, 0.2, 0.4])))
        graphs.append(relabelled(rng, random_cactus(rng, rng.randint(1, 16))))
        # disconnected, with an isolated vertex now and then
        parts = [random_connected_graph(rng, rng.randint(1, 6), extra_edge_prob=0.3),
                 relabelled(rng, random_cactus(rng, rng.randint(1, 8)))]
        graphs.append(relabelled(rng, disjoint_union(*parts)))
    for g in graphs:
        blocks = biconnected_components(g)
        mine = [frozenset(frozenset(e) for e in b) for b in blocks]
        want = {frozenset(frozenset(e) for e in b) for b in nx.biconnected_component_edges(to_networkx(g))}
        assert len(set(mine)) == len(mine) and set(mine) == want
        assert sum(map(len, blocks)) == g.edge_count()


def test_cactus_longest_cycles_match_networkx_cycle_basis(rng):
    # on a cactus every cycle is in the cycle basis, and nothing else is
    for _ in range(60):
        g = relabelled(rng, random_cactus(rng, rng.randint(2, 18)))
        if rng.random() < 0.3:
            g = relabelled(rng, disjoint_union(g, random_cactus(rng, rng.randint(1, 10))))
        cycles = [canonical_cycle(c) for c in nx.cycle_basis(to_networkx(g))]
        if not cycles:
            with pytest.raises(AcyclicError):
                cactus_longest_cycles(g)
            continue
        length = max(map(len, cycles))
        ws = cactus_longest_cycles(g)
        assert ws.parameter == length
        assert ws.members == tuple(sorted(c for c in cycles if len(c) == length))


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
    assert [w.s_or_t for w in bound_cactus(builtin("G3")).witnesses] == [32]
    ws = cactus_longest_cycles(builtin("G4"))
    assert ws.parameter == 5
    assert ws.members == ((0, 1, 2, 3, 4),)
    assert [w.s_or_t for w in bound_cactus(builtin("G4")).witnesses] == [52]


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
    dd = all_pairs_distances(g)
    ws = diameter_paths(g, dd, cap=10)
    assert ws.truncated and len(ws.members) == 10
    assert list(ws.members) == sorted(ws.members) and len(set(ws.members)) == 10
    assert ws.members[0] == tuple(range(side)) + tuple(side - 1 + side * r for r in range(1, side))
    for p in ws.members:
        assert p[0] == 0 and p[-1] == side * side - 1 and len(p) == 2 * (side - 1) + 1
        assert all(y in g.adjacency[x] for x, y in zip(p, p[1:]))


# ---------------------------------------------------------------------------
# connectivity


def test_bounds_refuse_disconnected_graphs_with_first_unreachable_pair():
    g = Graph(7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (5, 6)])
    bounds = (bound_bipartite_distance, bound_bipartite_dsl, bound_clique, bound_diameter, bound_cactus)
    for fn in bounds + (lambda h: legacy_2012_counterexample(h, 0),):
        with pytest.raises(NotConnectedError) as exc:
            fn(g)
        assert (exc.value.u, exc.value.v) == (0, 3), fn.__name__
    # a cactus is connected; the witness sets themselves need no connectivity
    assert not is_cactus(g)
    assert len(maximum_cliques(g)) == len(cactus_longest_cycles(g)) == 2


def test_clique_and_cactus_bounds_sweep_connectivity_once(monkeypatch):
    # the all-pairs sweep already proves connectivity; no separate check runs
    calls = []
    real = spreadlab.graph.check_connected

    def counting(g):
        calls.append(g)
        return real(g)

    for module in (spreadlab.graph, spreadlab.spectral, spreadlab.structures, spreadlab.bounds):
        if hasattr(module, "check_connected"):
            monkeypatch.setattr(module, "check_connected", counting)
    assert bound_clique(kite(5, 3)).witnesses
    assert bound_cactus(builtin("G4")).witnesses
    assert maximum_cliques(kite(5, 3)).members
    assert cactus_longest_cycles(builtin("G4")).members
    assert calls == []
