import random

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spreadlab.graph import MAX_VERTICES, _distances, _graph6_stack

from spreadlab import (
    Graph,
    NotBipartiteError,
    NotConnectedError,
    ParseError,
    all_pairs_distances,
    bipartition,
    builtin,
    builtin_names,
    complete,
    complete_bipartite,
    cycle,
    generate,
    kite,
    parse_edge_list,
    parse_graph6,
    path,
    star,
    write_graph6,
)

from .conftest import edges_of, kite_by_lists, random_connected_graph


# ---------------------------------------------------------------------------
# independent oracles


def encode_graph6_oracle(g: Graph) -> str:
    """Reference graph6 encoder written independently of the library's."""
    assert g.n <= 62
    edges = set(edges_of(g))
    bits = ""
    for v in range(1, g.n):
        for u in range(v):
            bits += "1" if (min(u, v), max(u, v)) in edges else "0"
    bits += "0" * (-len(bits) % 6)
    out = chr(g.n + 63)
    for i in range(0, len(bits), 6):
        out += chr(int(bits[i:i + 6], 2) + 63)
    return out


def floyd_warshall(g: Graph):
    inf = float("inf")
    d = [[0 if i == j else (1 if j in g.adjacency[i] else inf) for j in range(g.n)]
         for i in range(g.n)]
    for k in range(g.n):
        for i in range(g.n):
            for j in range(g.n):
                if d[i][k] + d[k][j] < d[i][j]:
                    d[i][j] = d[i][k] + d[k][j]
    return d


# ---------------------------------------------------------------------------
# Graph basics


def test_graph_rejects_loops_and_out_of_range():
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(-1, [])
    with pytest.raises(ValueError, match="machine integers"):
        Graph(3, [(0, 1.5)])
    with pytest.raises(ValueError, match="machine integers"):
        Graph(3, [(0, 2 ** 70)])
    # a graph holds an n x n array, so Graph itself refuses too many vertices
    with pytest.raises(ValueError, match="exceeds the limit"):
        Graph(MAX_VERTICES + 1, [])


def test_graph_deduplicates_and_normalises_edges():
    g = Graph(3, [(0, 1), (1, 0), (2, 1)])
    assert g.edge_count() == 2
    assert edges_of(g) == [(0, 1), (1, 2)]
    assert g == Graph(3, [(1, 2), (0, 1)])
    assert hash(g) == hash(Graph(3, [(1, 2), (0, 1)]))
    # one graph built five ways
    edges = [(0, 4), (4, 1), (2, 0), (3, 4), (1, 2), (2, 3), (0, 3)]
    h = Graph(5, edges)
    for other in [
        Graph(5, edges[::-1]),
        Graph(5, edges + [(v, u) for u, v in edges]),
        Graph(5, np.array(edges)),
        parse_graph6(write_graph6(h)),
        Graph(5, (e for e in edges)),
    ]:
        assert other == h and hash(other) == hash(h)
    assert edges_of(h) == sorted((min(e), max(e)) for e in edges)
    with pytest.raises(ValueError):
        h.adj[0, 1] = False
    # the witness order in structures relies on ascending neighbours
    assert h.adjacency == ((2, 3, 4), (2, 4), (0, 1, 3), (0, 2, 4), (0, 1, 3))


def test_degrees():
    g = star(5)
    assert g.degree(0) == 4
    assert g.max_degree() == 4
    assert Graph(0, []).max_degree() == 0


# ---------------------------------------------------------------------------
# graph6


def test_graph6_roundtrip_against_oracle(rng):
    for _ in range(60):
        n = rng.randint(1, 12)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        g = Graph(n, edges)
        enc = write_graph6(g)
        assert enc == encode_graph6_oracle(g)
        assert parse_graph6(enc) == g


def test_graph6_known_strings():
    # C~ is K_4; names from the de-facto standard corpus
    assert parse_graph6("C~") == complete(4)
    assert parse_graph6(">>graph6<<A_") == Graph(2, [(0, 1)])
    assert write_graph6(complete(4)) == "C~"


def test_graph6_long_form_sizes():
    g = Graph(63, [(0, 62)])
    enc = write_graph6(g)
    assert enc.startswith("~")
    assert parse_graph6(enc) == g


def test_graph6_matches_networkx_codec():
    rnd = random.Random(63)
    graphs = [nx.gnp_random_graph(n, 0.5, seed=rnd.randrange(2 ** 32)) for n in (1, 2, 62, 63, 64, 200)]
    for h in graphs + [nx.empty_graph(MAX_VERTICES)]:
        want = nx.to_graph6_bytes(h, header=False).decode("ascii").strip()
        g = parse_graph6(want)
        assert g.n == len(h) and edges_of(g) == sorted((min(e), max(e)) for e in h.edges)
        assert write_graph6(g) == want
    # K_2000 as a networkx graph is two million Python edges: encoding it
    # there too took ~10 s and ~750 MB, so only networkx's decoder reads it
    k = complete(MAX_VERTICES)
    h = nx.from_graph6_bytes(write_graph6(k).encode())
    assert len(h) == MAX_VERTICES and h.number_of_edges() == k.edge_count() == MAX_VERTICES * (MAX_VERTICES - 1) // 2


def test_graph6_stack_matches_write_graph6_and_networkx():
    # n = 63 and up take the '~' size prefix
    rnd = random.Random(70)
    for n in range(71):
        graphs = [nx.gnp_random_graph(n, p, seed=rnd.randrange(2 ** 32)) for p in (0.0, 0.2, 0.5, 1.0)]
        adj = np.array([nx.to_numpy_array(h, dtype=bool) for h in graphs]).reshape(len(graphs), n, n)
        want = [nx.to_graph6_bytes(h, header=False).decode("ascii").strip() for h in graphs]
        assert _graph6_stack(adj) == want, n
        assert [write_graph6(Graph(n, np.argwhere(m))) for m in adj] == want, n
    assert _graph6_stack(np.zeros((0, 5, 5), dtype=bool)) == []


def test_graph6_errors_name_byte_offsets():
    with pytest.raises(ParseError, match="empty"):
        parse_graph6("   ")
    with pytest.raises(ParseError, match="byte"):
        parse_graph6("D")  # truncated bit stream
    with pytest.raises(ParseError, match="offset 0"):
        parse_graph6("!")
    with pytest.raises(ParseError, match="trailing"):
        parse_graph6("A_A_")


def test_graph6_rejects_non_ascii():
    # 'é' used to be replaced by '?', a valid all-zero byte: C? is K4's complement
    with pytest.raises(ParseError, match="non-ASCII .* offset 1"):
        parse_graph6("Cé")


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10), st.integers(0, 2 ** 45 - 1))
def test_graph6_roundtrip_property(n, seed):
    rnd = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rnd.random() < 0.4]
    g = Graph(n, edges)
    assert parse_graph6(write_graph6(g)) == g


# ---------------------------------------------------------------------------
# edge lists


def test_edge_list_basic():
    g = parse_edge_list("# comment\n0 1\n1 2  2 3\n")
    assert g == path(4)


def test_edge_list_declared_n_allows_isolated():
    g = parse_edge_list("n 4\n0 1\n")
    assert g.n == 4 and g.edge_count() == 1


def test_edge_list_errors():
    with pytest.raises(ParseError, match="line 1"):
        parse_edge_list("0 1 2")
    with pytest.raises(ParseError, match="loop"):
        parse_edge_list("3 3")
    with pytest.raises(ParseError, match="negative"):
        parse_edge_list("-1 2")
    with pytest.raises(ParseError, match="declared n"):
        parse_edge_list("n 2\n0 5")
    with pytest.raises(ParseError, match="first non-empty"):
        parse_edge_list("0 1\nn 4")


@pytest.fixture
def no_graph_built(monkeypatch):
    def refuse(self, n, edges):
        raise AssertionError(f"Graph({n}, ...) was built")

    monkeypatch.setattr(Graph, "__init__", refuse)


@pytest.mark.parametrize("build, text", [
    (parse_edge_list, "0 1000000000"),
    (parse_edge_list, "n 1000000000"),
    (parse_edge_list, f"n {MAX_VERTICES + 1}\n0 1"),
    (generate, "path:1000000000"),
    (generate, "complete:100000"),
    (generate, f"complete_bipartite:{MAX_VERTICES},1"),
    (generate, f"kite:{MAX_VERTICES + 1},3"),
    # 2001 in the 4-byte size form, with no body, and the largest '~~' size
    (parse_graph6, "~?^P"),
    (parse_graph6, "~~~~~~~~"),
])
def test_vertex_count_over_limit_rejected_before_allocation(no_graph_built, build, text):
    with pytest.raises(ParseError, match="exceeds the limit"):
        build(text)


def test_vertex_count_at_limit_accepted():
    assert parse_edge_list(f"0 {MAX_VERTICES - 1}").n == MAX_VERTICES
    assert generate(f"star:{MAX_VERTICES}").n == MAX_VERTICES


# ---------------------------------------------------------------------------
# generators and builtins


def test_generators_shapes():
    assert complete(5).edge_count() == 10
    assert path(6).edge_count() == 5
    assert star(7).edge_count() == 6
    assert cycle(5).edge_count() == 5
    assert complete_bipartite(2, 3).edge_count() == 6
    k = kite(5, 3)
    assert k.edge_count() == 3 + 2
    assert k.degree(0) == 3  # clique vertex carrying the path


def test_kite_matches_list_construction():
    for n in range(2, 40):
        for omega in range(2, n + 1):
            assert kite(n, omega) == kite_by_lists(n, omega), (n, omega)


def test_generate_descriptors():
    assert generate("kite:5,3") == kite(5, 3)
    assert generate("path:6") == path(6)
    assert generate("complete_bipartite:2,3") == complete_bipartite(2, 3)
    with pytest.raises(ParseError):
        generate("mystery:3")
    with pytest.raises(ParseError):
        generate("path")
    with pytest.raises(ParseError):
        generate("path:x")
    with pytest.raises(ParseError):
        generate("kite:5")


def test_builtin_corpus():
    assert set(builtin_names()) >= {"G1", "G2", "G3", "G4", "H1", "H2", "P4", "P5", "S4", "S5", "K22", "K23"}
    assert builtin("G1").n == 7 and builtin("G1").edge_count() == 7
    assert builtin("G2").n == 9 and builtin("G2").edge_count() == 10
    with pytest.raises(ParseError):
        builtin("G99")


def test_builtin_g1_distance_matrix_frozen():
    # the full distance matrix of the first showcase graph, checked by hand
    dist = all_pairs_distances(builtin("G1"))
    assert dist.dtype == np.int64 and not dist.flags.writeable
    assert dist.tolist() == [
        [0, 1, 1, 1, 2, 2, 2],
        [1, 0, 2, 2, 1, 1, 3],
        [1, 2, 0, 2, 3, 1, 1],
        [1, 2, 2, 0, 3, 3, 3],
        [2, 1, 3, 3, 0, 2, 4],
        [2, 1, 1, 3, 2, 0, 2],
        [2, 3, 1, 3, 4, 2, 0],
    ]
    # transmissions, their total, the Wiener index and the diameter
    assert dist.sum(axis=1).tolist() == [9, 10, 10, 14, 15, 11, 15]
    assert int(dist.sum()) == 84
    assert int(dist.sum()) // 2 == 42
    assert int(dist.max()) == 4


# ---------------------------------------------------------------------------
# metric quantities


def grid(rows: int, cols: int) -> Graph:
    return Graph(rows * cols, [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
                 + [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)])


def test_vertex_limit_keeps_float32_products_exact():
    # all_pairs_distances multiplies 0/1 and distance matrices in float32,
    # whose integers are exact only below 2^24; its entries reach (n-1)^2
    assert MAX_VERTICES ** 2 < 2 ** 24


def test_distances_match_floyd_warshall(rng):
    graphs = [random_connected_graph(rng, rng.randint(2, 10)) for _ in range(25)]
    # diameters 1..69 cross every 2^k - 1, 2^k and 2^k + 1 up to 64, where
    # the number of squarings steps
    graphs += [path(n) for n in range(2, 71)] + [cycle(n) for n in range(3, 71)]
    graphs += [complete(n) for n in range(1, 9)] + [path(1)]
    graphs += [grid(r, c) for r in range(2, 7) for c in range(r, 9)]
    graphs += [random_connected_graph(rng, rng.randint(2, 40), extra_edge_prob=0) for _ in range(20)]
    for g in graphs:
        assert all_pairs_distances(g).tolist() == floyd_warshall(g), g


def test_disconnected_raises_with_witness():
    g = Graph(4, [(0, 1), (2, 3)])
    assert not nx.is_connected(nx.from_numpy_array(g.adj))
    with pytest.raises(NotConnectedError) as exc:
        all_pairs_distances(g)
    assert (exc.value.u, exc.value.v) == (0, 2)
    # the first source with an unreachable vertex, and its first such vertex
    h = Graph(6, [(0, 1), (1, 2), (3, 4)])
    with pytest.raises(NotConnectedError) as exc:
        all_pairs_distances(h)
    assert (exc.value.u, exc.value.v) == (0, 3)
    with pytest.raises(NotConnectedError) as exc:
        all_pairs_distances(Graph(3, [(1, 2)]))
    assert (exc.value.u, exc.value.v) == (0, 1)
    # P9 plus an isolated vertex: squarings go on joining pairs for three
    # rounds before the fourth joins none
    with pytest.raises(NotConnectedError) as exc:
        all_pairs_distances(Graph(10, [(i, i + 1) for i in range(8)]))
    assert (exc.value.u, exc.value.v) == (0, 9)
    # complete components: the first squaring joins nothing; K3 on {0, 2, 5}
    # and K3 on {1, 3, 4} interleave the labels
    with pytest.raises(NotConnectedError) as exc:
        all_pairs_distances(Graph(6, [(0, 2), (0, 5), (2, 5), (1, 3), (1, 4), (3, 4)]))
    assert (exc.value.u, exc.value.v) == (0, 1)
    with pytest.raises(NotConnectedError) as exc:
        all_pairs_distances(Graph(7, [(u, v) for v in range(3) for u in range(v)]
                                  + [(u, v) for v in range(3, 7) for u in range(3, v)]))
    assert (exc.value.u, exc.value.v) == (0, 3)
    with pytest.raises(NotConnectedError) as exc:
        all_pairs_distances(Graph(2, []))
    assert (exc.value.u, exc.value.v) == (0, 1)


def test_stacked_distances_match_each_graph(rng):
    # members of one order and mixed diameter: complete, path, cycle and
    # random graphs, so members turn complete after different squarings
    for n in (1, 2, 3, 5, 9, 17, 33):
        graphs = [complete(n), path(n)] + ([cycle(n)] if n >= 3 else [])
        graphs += [random_connected_graph(rng, n, p) for p in (0.0, 0.1, 0.5) for _ in range(3)]
        rng.shuffle(graphs)
        stacked = _distances(np.array([g.adj for g in graphs]))
        assert stacked.dtype == np.int64
        for g, dist in zip(graphs, stacked):
            assert np.array_equal(dist, all_pairs_distances(g)), g
    assert _distances(np.zeros((0, 4, 4), dtype=bool)).shape == (0, 4, 4)


def test_stacked_distances_raise_for_a_disconnected_member():
    # the error names the first member that is not connected, as that
    # member alone would
    p9, loose = path(9), Graph(9, [(i, i + 1) for i in range(7)])
    split = Graph(9, [(0, 2), (2, 4), (1, 3)] + [(i, i + 1) for i in range(4, 8)])
    for stack, member in (([p9, loose, complete(9)], loose), ([complete(9), split, loose, p9], split)):
        with pytest.raises(NotConnectedError) as exc:
            _distances(np.array([g.adj for g in stack]))
        with pytest.raises(NotConnectedError) as alone:
            all_pairs_distances(member)
        assert (exc.value.u, exc.value.v) == (alone.value.u, alone.value.v)


def test_bipartition_parts_and_odd_walk(rng):
    for _ in range(40):
        g = random_connected_graph(rng, rng.randint(2, 9))
        bipartite = nx.is_bipartite(nx.from_numpy_array(g.adj))
        try:
            a, b = bipartition(g, all_pairs_distances(g))
        except NotBipartiteError as exc:
            walk = exc.odd_walk
            assert walk[0] == walk[-1]
            assert len(walk) % 2 == 0  # odd number of steps
            for u, v in zip(walk, walk[1:]):
                assert v in g.adjacency[u]
            assert not bipartite
        else:
            assert a | b == set(range(g.n)) and not (a & b)
            for u, v in edges_of(g):
                assert (u in a) != (v in a)
            assert bipartite
