import itertools
import json
import random

import numpy as np
import pytest

from spreadlab import (
    Graph,
    check_conjecture,
    check_monotonicity,
    complete_bipartite,
    cycle,
    enumerate_connected_bipartite,
    isomorphic,
    path,
    star,
)
from spreadlab.errors import SpreadlabError
from spreadlab.search import canonical_graph, canonical_graph6, canonical_key, canonical_labelling


# ---------------------------------------------------------------------------
# oracle: count connected bipartite isomorphism classes by brute force


def oracle_bipartite_class_count(n: int) -> int:
    """Enumerate all labelled graphs on n vertices with numpy-backed
    connectivity/bipartiteness checks and bucket them by a permutation-orbit
    canonical form. Only feasible for n <= 6."""
    pairs = list(itertools.combinations(range(n), 2))
    perms = list(itertools.permutations(range(n)))
    canon_seen = set()
    count = 0
    for mask in range(1 << len(pairs)):
        adj = np.zeros((n, n), dtype=int)
        for i, (u, v) in enumerate(pairs):
            if (mask >> i) & 1:
                adj[u, v] = adj[v, u] = 1
        # connectivity via boolean matrix powers
        reach = np.eye(n, dtype=bool) | adj.astype(bool)
        for _ in range(n):
            reach = reach | (reach @ reach)
        if not reach.all():
            continue
        # bipartite iff no odd closed walk: check via 2-colouring over powers
        color = [-1] * n
        color[0] = 0
        stack = [0]
        ok = True
        while stack and ok:
            x = stack.pop()
            for y in range(n):
                if adj[x, y]:
                    if color[y] < 0:
                        color[y] = 1 - color[x]
                        stack.append(y)
                    elif color[y] == color[x]:
                        ok = False
                        break
        if not ok:
            continue
        canon = min(
            tuple(adj[p, :][:, p].flatten()) for p in (np.array(q) for q in perms)
        )
        if canon not in canon_seen:
            canon_seen.add(canon)
            count += 1
    return count


# ---------------------------------------------------------------------------
# canonical form


def test_canonical_labelling_is_permutation():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    perm = canonical_labelling(g)
    assert sorted(perm) == list(range(5))


def test_canonical_invariant_under_relabelling(rng):
    for _ in range(40):
        n = rng.randint(2, 8)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
        g = Graph(n, edges)
        perm = list(range(n))
        rng.shuffle(perm)
        h = Graph(n, [(perm[u], perm[v]) for u, v in g.edges])
        assert canonical_key(g) == canonical_key(h)
        assert canonical_graph(g) == canonical_graph(h)
        assert isomorphic(g, h)


def test_canonical_separates_non_isomorphic():
    assert not isomorphic(path(4), star(4))
    assert not isomorphic(cycle(6), complete_bipartite(3, 3))
    # same degree sequence, different graphs: C_6 vs two triangles? (must be
    # connected) use C_6 vs K_{3,3} minus a perfect matching (= C_6) -> skip;
    # instead: two regular graphs of degree 3 on 8 vertices
    cube = Graph(8, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4),
                     (0, 4), (1, 5), (2, 6), (3, 7)])
    k33_plus = Graph(8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 0),
                         (0, 4), (1, 5), (2, 6), (3, 7)])
    assert not isomorphic(cube, k33_plus)


def test_canonical_graph6_deterministic():
    g = complete_bipartite(2, 3)
    assert canonical_graph6(g) == canonical_graph6(canonical_graph(g))


# ---------------------------------------------------------------------------
# enumeration


def test_enumeration_counts_match_oracle():
    for n in range(2, 7):
        assert sum(1 for _ in enumerate_connected_bipartite(n)) == oracle_bipartite_class_count(n)


def test_enumeration_counts_frozen():
    # connected bipartite isomorphism classes on 2..8 vertices
    want = {2: 1, 3: 1, 4: 3, 5: 5, 6: 17, 7: 44, 8: 182}
    for n, k in want.items():
        assert sum(1 for _ in enumerate_connected_bipartite(n)) == k


def test_enumeration_deterministic_and_pairwise_non_isomorphic():
    first = [canonical_key(g) for g in enumerate_connected_bipartite(6)]
    second = [canonical_key(g) for g in enumerate_connected_bipartite(6)]
    assert first == second
    assert len(set(first)) == len(first)


def test_enumeration_range_check():
    with pytest.raises(ValueError):
        list(enumerate_connected_bipartite(1))
    with pytest.raises(ValueError):
        list(enumerate_connected_bipartite(11))


# ---------------------------------------------------------------------------
# monotonicity of complete-bipartite spreads


def test_monotonicity_chain():
    for n in range(4, 41):
        values = check_monotonicity(n)
        assert len(values) == n // 2
        assert all(x > y for x, y in zip(values, values[1:]))
    with pytest.raises(ValueError):
        check_monotonicity(3)


# ---------------------------------------------------------------------------
# conjecture check


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_conjecture_holds_small(n):
    report = check_conjecture(n)
    assert report.verdict == "holds"
    assert not report.counterexamples
    minimizer = report.minimizer_graph6
    from spreadlab import parse_graph6

    assert isomorphic(parse_graph6(minimizer), complete_bipartite(n // 2, n - n // 2))


def test_conjecture_range_check():
    with pytest.raises(ValueError):
        check_conjecture(1)


def test_conjecture_checkpoint_resume(tmp_path):
    ckpt = tmp_path / "chk.jsonl"
    # run with a tiny chunk size so several chunks are written
    full = check_conjecture(6, chunk_size=3, checkpoint=str(ckpt))
    lines = [json.loads(l) for l in ckpt.read_text().splitlines()]
    assert len(lines) == full.chunks
    # drop the tail of the checkpoint and resume: the report must be identical
    kept = lines[: len(lines) // 2]
    ckpt.write_text("".join(json.dumps(r) + "\n" for r in kept))
    resumed = check_conjecture(6, chunk_size=3, checkpoint=str(ckpt))
    assert resumed.graphs_checked == full.graphs_checked
    assert resumed.minimizer_graph6 == full.minimizer_graph6
    assert resumed.minimizer_spread == full.minimizer_spread
    assert resumed.verdict == full.verdict


def test_conjecture_parallel_matches_serial():
    serial = check_conjecture(6, threads=1)
    parallel = check_conjecture(6, threads=2, chunk_size=5)
    assert serial.graphs_checked == parallel.graphs_checked
    assert serial.minimizer_graph6 == parallel.minimizer_graph6
    assert serial.verdict == parallel.verdict


def test_threads_env(monkeypatch):
    from spreadlab.search import _threads_from_env

    monkeypatch.setenv("SPREADLAB_THREADS", "4")
    assert _threads_from_env() == 4
    monkeypatch.setenv("SPREADLAB_THREADS", "zero")
    with pytest.raises(SpreadlabError):
        _threads_from_env()
    monkeypatch.setenv("SPREADLAB_THREADS", "0")
    with pytest.raises(SpreadlabError):
        _threads_from_env()
    monkeypatch.delenv("SPREADLAB_THREADS")
    assert _threads_from_env() == 1


def test_conjecture_rejects_chunk_size_below_one():
    for size in (0, -5):
        with pytest.raises(ValueError, match="chunk size"):
            check_conjecture(4, chunk_size=size)
