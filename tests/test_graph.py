import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spreadlab import (
    Graph,
    NotBipartiteError,
    NotConnectedError,
    ParseError,
    all_pairs_distances,
    average_distance_degree,
    bipartition,
    builtin,
    builtin_names,
    complete,
    complete_bipartite,
    cycle,
    generate,
    is_bipartite,
    is_connected,
    kite,
    parse_edge_list,
    parse_graph6,
    path,
    star,
    write_graph6,
)

from .conftest import random_connected_graph


# ---------------------------------------------------------------------------
# independent oracles


def encode_graph6_oracle(g: Graph) -> str:
    """Reference graph6 encoder written independently of the library's."""
    assert g.n <= 62
    bits = ""
    for v in range(1, g.n):
        for u in range(v):
            bits += "1" if (min(u, v), max(u, v)) in g.edges else "0"
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


def test_graph_deduplicates_and_normalises_edges():
    g = Graph(3, [(0, 1), (1, 0), (2, 1)])
    assert g.edge_count() == 2
    assert g.sorted_edges() == [(0, 1), (1, 2)]
    assert g == Graph(3, [(1, 2), (0, 1)])
    assert hash(g) == hash(Graph(3, [(1, 2), (0, 1)]))


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
    dd = all_pairs_distances(builtin("G1"))
    assert dd.dist == (
        (0, 1, 1, 1, 2, 2, 2),
        (1, 0, 2, 2, 1, 1, 3),
        (1, 2, 0, 2, 3, 1, 1),
        (1, 2, 2, 0, 3, 3, 3),
        (2, 1, 3, 3, 0, 2, 4),
        (2, 1, 1, 3, 2, 0, 2),
        (2, 3, 1, 3, 4, 2, 0),
    )
    assert dd.trans == (9, 10, 10, 14, 15, 11, 15)
    assert sum(dd.trans) == 84
    assert dd.wiener == 42
    assert dd.diameter == 4


# ---------------------------------------------------------------------------
# metric quantities


def test_distances_match_floyd_warshall(rng):
    for _ in range(25):
        g = random_connected_graph(rng, rng.randint(2, 10))
        dd = all_pairs_distances(g)
        assert [list(r) for r in dd.dist] == floyd_warshall(g)


def test_disconnected_raises_with_witness():
    g = Graph(4, [(0, 1), (2, 3)])
    assert not is_connected(g)
    with pytest.raises(NotConnectedError):
        all_pairs_distances(g)


def test_bipartition_parts_and_odd_walk(rng):
    for _ in range(40):
        g = random_connected_graph(rng, rng.randint(2, 9))
        try:
            a, b = bipartition(g)
        except NotBipartiteError as exc:
            walk = exc.odd_walk
            assert walk[0] == walk[-1]
            assert len(walk) % 2 == 0  # odd number of steps
            for u, v in zip(walk, walk[1:]):
                assert v in g.adjacency[u]
            assert not is_bipartite(g)
        else:
            assert a | b == set(range(g.n)) and not (a & b)
            for u, v in g.edges:
                assert (u in a) != (v in a)
            assert is_bipartite(g)


def test_average_distance_degree_exact():
    g = builtin("G1")
    dd = all_pairs_distances(g)
    assert average_distance_degree(g, dd, 0) == Fraction(34, 3)
    assert average_distance_degree(g, dd, 1) == Fraction(35, 3)
