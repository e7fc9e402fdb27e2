import dataclasses
import pickle
import tracemalloc
from fractions import Fraction

import pytest

import spreadlab
from spreadlab import (
    AcyclicError,
    DegenerateBoundError,
    Graph,
    KIND_DISTANCE,
    KIND_DSL,
    NotBipartiteError,
    NotCactusError,
    SpreadlabError,
    all_pairs_distances,
    average_distance_degree,
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
    enumerate_connected_bipartite,
    is_cactus,
    kite,
    legacy_2012_counterexample,
    maximum_cliques,
    parse_graph6,
    path,
    spread,
    star,
)
from spreadlab.bounds import _witnesses
from spreadlab.spectral import distance_matrix

from .conftest import (
    around,
    eig2_real,
    matrix_rows,
    random_cactus,
    random_connected_bipartite,
    random_connected_graph,
    reference_quotient,
)

TOL = 1e-8


def check_witness_quotient_consistency(report):
    """The closed-form eigenvalue pair of every witness must match the
    eigenvalues of its exact 2x2 quotient."""
    for w in report.witnesses:
        hi, lo = eig2_real(w.quotient.entries)
        assert w.lam1 == pytest.approx(hi, abs=TOL)
        assert w.lam2 == pytest.approx(lo, abs=TOL)
        assert w.bound_value == pytest.approx(hi - lo, abs=TOL)


def check_soundness(report, true_spread):
    assert report.bound <= true_spread + TOL
    for w in report.witnesses:
        assert w.bound_value <= report.bound + TOL


# ---------------------------------------------------------------------------
# bipartite bounds


def test_bipartite_distance_showcase_values():
    r = bound_bipartite_distance(builtin("G1"))
    assert r.method == "bipartite_distance" and r.parameter == 3
    assert r.bound == pytest.approx(15.596474, abs=5e-7)
    assert r.true_spread == pytest.approx(17.658809, abs=5e-7)
    r2 = bound_bipartite_distance(builtin("G2"))
    assert r2.bound == pytest.approx(19.005907, abs=5e-7)
    assert r2.true_spread == pytest.approx(20.967412, abs=5e-7)


def test_bipartite_dsl_showcase_values():
    assert bound_bipartite_dsl(builtin("G1")).bound == pytest.approx(15.638494, abs=5e-7)
    assert bound_bipartite_dsl(builtin("G2")).bound == pytest.approx(17.861142, abs=5e-7)


def test_bipartite_bounds_sound_and_consistent_exhaustive():
    # every connected bipartite graph on up to 7 vertices
    for n in range(2, 8):
        for g in enumerate_connected_bipartite(n):
            for fn, kind in ((bound_bipartite_distance, KIND_DISTANCE), (bound_bipartite_dsl, KIND_DSL)):
                r = fn(g)
                check_soundness(r, spread(g, kind).spread)
                check_witness_quotient_consistency(r)


def test_bipartite_corollary_bounds_exhaustive():
    # radius_lb <= largest eigenvalue, min_ub >= least eigenvalue
    for n in range(2, 8):
        for g in enumerate_connected_bipartite(n):
            for fn, kind in ((bound_bipartite_distance, KIND_DISTANCE), (bound_bipartite_dsl, KIND_DSL)):
                r = fn(g)
                rep = spread(g, kind)
                assert r.radius_lb <= rep.rho_max + TOL
                assert r.min_ub >= rep.rho_min - TOL


def test_bipartite_rejects_odd_cycles():
    with pytest.raises(NotBipartiteError):
        bound_bipartite_distance(cycle(5))
    with pytest.raises(NotBipartiteError):
        bound_bipartite_dsl(builtin("G3"))


def test_bipartite_star_dispatches_to_closed_form():
    r = bound_bipartite_distance(star(6))
    assert r.closed_form and not r.witnesses
    assert r.bound == pytest.approx(spread(star(6), KIND_DISTANCE).spread, abs=1e-8)
    r = bound_bipartite_dsl(star(6))
    assert r.closed_form
    assert r.bound == pytest.approx(spread(star(6), KIND_DSL).spread, abs=1e-8)


def test_bipartite_dsl_star3_closed_form_is_exact():
    # P_3 = K_{1,2}: the leaf eigenvalue, not the smaller quotient root, is
    # the least eigenvalue of Q, so the bare quotient-root gap would undershoot
    r = bound_bipartite_dsl(star(3))
    assert r.closed_form
    assert r.bound == pytest.approx(spread(star(3), KIND_DSL).spread, abs=1e-8)


def test_bipartite_quotient_entries_are_exact():
    r = bound_bipartite_distance(builtin("G1"))
    w = {w.label: w for w in r.witnesses}["v1"]
    assert w.quotient.entries == (
        (Fraction(9, 2), Fraction(25, 4)),
        (Fraction(25, 3), Fraction(16, 3)),
    )
    assert w.s_or_t == Fraction(34, 3)


def test_bipartite_witnesses_carry_the_average_distance_degree(rng):
    # the bound reads t_v off one product over the max-degree rows; on graphs
    # with vertices of several degrees it must still be each vertex's mean
    # neighbour transmission
    checked = 0
    while checked < 40:
        g = random_connected_bipartite(rng, rng.randint(4, 12))
        if len({g.degree(v) for v in range(g.n)}) == 1 or g.max_degree() == g.n - 1:
            continue
        dd = all_pairs_distances(g)
        for fn in (bound_bipartite_distance, bound_bipartite_dsl):
            r = fn(g)
            assert [w.vertices for w in r.witnesses] == [(v,) for v in range(g.n) if g.degree(v) == r.parameter]
            for w in r.witnesses:
                assert w.s_or_t == average_distance_degree(g, dd, w.vertices[0])
        checked += 1


# ---------------------------------------------------------------------------
# clique bound


def test_clique_bound_kite():
    r = bound_clique(kite(5, 3))
    assert r.parameter == 3
    assert r.bound == pytest.approx(10.615764, abs=5e-7)
    assert r.true_spread == pytest.approx(11.339392, abs=5e-7)


def test_clique_bound_complete_closed_form():
    r = bound_clique(complete(6))
    assert r.closed_form and r.bound == 6.0


def test_clique_bound_needs_an_edge():
    with pytest.raises(SpreadlabError):
        bound_clique(complete(1))


def test_clique_bound_random_soundness(rng):
    count = 0
    while count < 250:
        g = random_connected_graph(rng, rng.randint(3, 9))
        r = bound_clique(g)
        if r.closed_form:
            continue
        check_soundness(r, spread(g, KIND_DSL).spread)
        check_witness_quotient_consistency(r)
        count += 1


def test_clique_witnesses_are_capped(monkeypatch):
    # K_{3,4} has 12 maximum cliques, its edges; the cap keeps the first in
    # sorted order and the bound is the best of those kept
    g = complete_bipartite(3, 4)
    everything = maximum_cliques(g).members
    assert len(everything) == 12
    monkeypatch.setattr(spreadlab.structures, "WITNESS_CAP", 5)
    r = bound_clique(g)
    assert r.witnesses_truncated
    assert [w.vertices for w in r.witnesses] == list(everything[:5])
    assert r.bound == max(w.bound_value for w in r.witnesses)
    monkeypatch.setattr(spreadlab.structures, "WITNESS_CAP", 12)
    r = bound_clique(g)
    assert not r.witnesses_truncated and [w.vertices for w in r.witnesses] == list(everything)


# ---------------------------------------------------------------------------
# diameter bound


def test_diameter_bound_showcase():
    r = bound_diameter(builtin("G1"))
    assert r.parameter == 4
    vals = sorted(w.bound_value for w in r.witnesses)
    assert vals[0] == pytest.approx(12.762837, abs=5e-7)
    assert vals[1] == pytest.approx(15.352199, abs=5e-7)
    assert r.bound == pytest.approx(15.352199, abs=5e-7)


def test_diameter_bound_degenerate_cases():
    r = bound_diameter(complete(5))
    assert r.closed_form and r.bound == 5.0
    with pytest.raises(DegenerateBoundError):
        bound_diameter(path(5))  # d = n - 1


def test_diameter_bound_random_soundness(rng):
    count = 0
    while count < 250:
        g = random_connected_graph(rng, rng.randint(3, 9), extra_edge_prob=0.2)
        try:
            r = bound_diameter(g)
        except DegenerateBoundError:
            continue
        if r.closed_form:
            continue
        check_soundness(r, spread(g, KIND_DSL).spread)
        check_witness_quotient_consistency(r)
        count += 1


def test_diameter_bound_truncation_flag():
    r = bound_diameter(complete_bipartite(4, 4), cap=2)
    assert r.witnesses_truncated


# ---------------------------------------------------------------------------
# cactus bound


def test_cactus_bound_showcase():
    r3 = bound_cactus(builtin("G3"))
    assert r3.parameter == 4
    assert r3.bound == pytest.approx(11.489125, abs=5e-7)
    assert r3.true_spread == pytest.approx(12.778268, abs=5e-7)
    r4 = bound_cactus(builtin("G4"))
    assert r4.parameter == 5
    assert r4.bound == pytest.approx(14.323407, abs=5e-7)
    assert r4.true_spread == pytest.approx(16.312635, abs=5e-7)


def test_cactus_bound_degenerate_cycle():
    with pytest.raises(DegenerateBoundError):
        bound_cactus(cycle(5))  # l = n


def test_cactus_bound_random_soundness(rng):
    count = 0
    while count < 200:
        g = random_cactus(rng, rng.randint(4, 12))
        try:
            r = bound_cactus(g)
        except (DegenerateBoundError, NotCactusError, AcyclicError):
            continue
        check_soundness(r, spread(g, KIND_DSL).spread)
        check_witness_quotient_consistency(r)
        count += 1
        # both parities of l must be exercised over the run
    assert count == 200


def test_cactus_bound_parity_coverage(rng):
    seen = set()
    for _ in range(200):
        g = random_cactus(rng, rng.randint(5, 12))
        try:
            seen.add(bound_cactus(g).parameter % 2)
        except (DegenerateBoundError, NotCactusError, AcyclicError):
            pass
        if seen == {0, 1}:
            return
    raise AssertionError("random cacti never covered both cycle parities")


# ---------------------------------------------------------------------------
# legacy 2012 quotient comparison


def test_legacy_counterexample_exact():
    cmp = legacy_2012_counterexample(builtin("G1"), 0)
    assert cmp.b1 == (
        (Fraction(18, 4), Fraction(19, 4)),
        (Fraction(19, 3), Fraction(28, 3)),
    )
    assert cmp.b2.entries == (
        (Fraction(18, 4), Fraction(25, 4)),
        (Fraction(25, 3), Fraction(16, 3)),
    )
    assert cmp.equal is False


def test_legacy_disagrees_on_every_small_bipartite_graph():
    for n in range(4, 8):
        for g in enumerate_connected_bipartite(n):
            delta = g.max_degree()
            if delta > n - 2:
                continue
            for v in range(n):
                if g.degree(v) == delta:
                    assert not legacy_2012_counterexample(g, v).equal
                    break


def test_legacy_b2_is_the_bipartite_distance_witness_quotient(rng):
    # B2 and the bound's witness at v come from one quotient routine: every
    # connected bipartite graph on up to 7 vertices and 40 random ones on up
    # to 16, at every max-degree vertex
    graphs = [g for n in range(4, 8) for g in enumerate_connected_bipartite(n)]
    graphs += [random_connected_bipartite(rng, rng.randint(4, 16)) for _ in range(40)]
    for g in graphs:
        if g.max_degree() > g.n - 2:
            continue
        for w in bound_bipartite_distance(g).witnesses:
            v = w.vertices[0]
            assert legacy_2012_counterexample(g, v).b2 == w.quotient


def test_legacy_vertex_validation():
    with pytest.raises(SpreadlabError, match="degree"):
        legacy_2012_counterexample(builtin("G1"), 3)  # v4 has degree 1
    with pytest.raises(SpreadlabError):
        legacy_2012_counterexample(star(5), 0)  # delta = n - 1 out of scope
    for v in (-1, 7, 99):  # G1 has 7 vertices; -1 must not wrap to v7
        with pytest.raises(SpreadlabError, match="out of range"):
            legacy_2012_counterexample(builtin("G1"), v)


# ---------------------------------------------------------------------------
# the shared witness engine


def witness_set(g, report, w):
    """The vertex set a witness partitions around."""
    if report.method.startswith("bipartite"):
        v = w.vertices[0]
        return {v, *g.adjacency[v]}
    return set(w.vertices)


def assert_quotients_match_general(g, report, kind):
    rows = matrix_rows(g, kind)
    for w in report.witnesses:
        assert w.quotient == reference_quotient(rows, around(witness_set(g, report, w), g.n))


def test_engine_quotients_match_general_quotient_bipartite():
    # every connected bipartite graph on up to 7 vertices, both matrices
    for n in range(2, 8):
        for g in enumerate_connected_bipartite(n):
            assert_quotients_match_general(g, bound_bipartite_distance(g), KIND_DISTANCE)
            assert_quotients_match_general(g, bound_bipartite_dsl(g), KIND_DSL)


def test_engine_quotients_match_general_quotient_structures(rng):
    checked = {"clique": 0, "diameter": 0, "cactus": 0}
    graphs = [random_connected_graph(rng, rng.randint(3, 10), extra_edge_prob=rng.choice([0.15, 0.3]))
              for _ in range(60)]
    graphs += [random_cactus(rng, rng.randint(4, 12)) for _ in range(60)]
    for g in graphs:
        for fn in (bound_clique, bound_diameter, bound_cactus):
            try:
                r = fn(g)
            except (AcyclicError, DegenerateBoundError, NotCactusError):
                continue
            assert_quotients_match_general(g, r, KIND_DSL)
            checked[r.method] += len(r.witnesses)
    assert all(count > 20 for count in checked.values()), checked


def grid(rows, cols):
    """The rows x cols grid, vertex r * cols + c."""
    edges = [(v, v + 1) for v in range(rows * cols) if (v + 1) % cols]
    edges += [(v, v + cols) for v in range(rows * cols - cols)]
    return Graph(rows * cols, edges)


def hypercube(dim):
    """Q_dim, vertices adjacent when their labels differ in one bit."""
    return Graph(1 << dim, [(u, u | 1 << i) for u in range(1 << dim) for i in range(dim) if not u >> i & 1])


@pytest.mark.parametrize("g, paths", [(hypercube(5), 1920), (grid(6, 7), 924)], ids=["Q5", "grid6x7"])
def test_engine_matches_reference_across_gather_blocks(monkeypatch, g, paths):
    # a few witnesses per gather block, the last block partial on Q5, must
    # give the same report as one block; each quotient, equitable flag
    # included, is the reference's
    whole = bound_diameter(g)
    assert len(whole.witnesses) == paths and not whole.witnesses_truncated
    monkeypatch.setattr(spreadlab.bounds, "GATHER_ENTRIES", 2500)
    assert bound_diameter(g) == whole
    assert_quotients_match_general(g, whole, KIND_DSL)


def test_engine_equitable_flag_both_ways():
    # every edge of C_4 and the 4-cycle of E?lo split Q(G) equitably; no
    # diameter path of G1 does
    cases = [(bound_clique, cycle(4), True), (bound_cactus, parse_graph6("E?lo"), True),
             (bound_diameter, builtin("G1"), False)]
    for fn, g, equitable in cases:
        r = fn(g)
        assert {w.quotient.equitable for w in r.witnesses} == {equitable}
        assert_quotients_match_general(g, r, KIND_DSL)


def test_engine_int64_sums_match_python_ints_on_large_transmissions():
    # kite(300, 3): a triangle with a 297-vertex tail, transmissions up to
    # ~44,000; the reference sums Python-int rows of Q(G) in Fractions
    g = kite(300, 3)
    rows = matrix_rows(g, KIND_DSL)
    reports = [bound_clique(g), bound_diameter(g), bound_cactus(g)]
    assert [len(r.witnesses) for r in reports] == [1, 2, 1]
    for r in reports:
        for w in r.witnesses:
            assert w.quotient == reference_quotient(rows, around(w.vertices, g.n))


def test_engine_memory_is_flat_in_the_witness_count():
    # 6,864 diameter paths of 15 vertices on the 8x8 grid: one unblocked
    # gather of their rows would hold 6864 * 15 * 64 int64 entries (~53 MB)
    g = grid(8, 8)
    unblocked = 6864 * 15 * 64 * 8
    tracemalloc.start()
    try:
        r = bound_diameter(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(r.witnesses) == 6864
    assert peak < unblocked


def test_each_bound_runs_one_distance_analysis(monkeypatch):
    calls = []
    real = spreadlab.graph.all_pairs_distances

    def counting(g):
        calls.append(g)
        return real(g)

    for module in (spreadlab.graph, spreadlab.spectral, spreadlab.structures, spreadlab.bounds):
        if hasattr(module, "all_pairs_distances"):
            monkeypatch.setattr(module, "all_pairs_distances", counting)
    cases = [
        (bound_bipartite_distance, builtin("G1")),
        (bound_bipartite_dsl, builtin("G2")),
        (bound_clique, kite(5, 3)),
        (bound_diameter, builtin("G1")),
        (bound_cactus, builtin("G4")),
    ]
    for fn, g in cases:
        calls.clear()
        assert fn(g).witnesses
        assert len(calls) == 1, fn.__name__
    calls.clear()
    assert not legacy_2012_counterexample(builtin("G1"), 0).equal
    assert len(calls) == 1
    # witness enumeration alone needs no distances
    calls.clear()
    for fn, g in ((is_cactus, builtin("G4")), (maximum_cliques, kite(5, 3)), (cactus_longest_cycles, builtin("G4"))):
        assert fn(g)
        assert calls == [], fn.__name__


def test_engine_rejects_perturbed_coefficients():
    g = builtin("G1")
    x = distance_matrix(all_pairs_distances(g), KIND_DSL)
    w = bound_diameter(g).witnesses[0]
    item = (w.label, w.vertices, w.vertices, w.s_or_t, w.a, w.b)
    assert _witnesses(x, 3, (-1, 1), [item]) == [w]
    for a, b in ((w.a + 1, w.b), (w.a, w.b - 1)):
        with pytest.raises(SpreadlabError, match="disagree"):
            _witnesses(x, 3, (-1, 1), [item[:4] + (a, b)])
    with pytest.raises(SpreadlabError, match="disagree"):
        _witnesses(x, 3, (1, 1), [item])  # a sign flipped


def test_engine_checks_every_witness_of_a_shared_quotient():
    # all 12 edges of K_{3,4} split Q(G) alike, so they share one quotient;
    # a later witness with a wrong (a, b) must still raise, whether it
    # repeats the first witness's set or only its block sums
    g = complete_bipartite(3, 4)
    x = distance_matrix(all_pairs_distances(g), KIND_DSL)
    first, other = bound_clique(g).witnesses[:2]
    assert first.vertices != other.vertices
    items = [(w.label, w.vertices, w.vertices, w.s_or_t, w.a, w.b) for w in (first, other)]
    assert _witnesses(x, 1, (-1, 1), items) == [first, other]
    for later in (items[0], items[1]):
        for a, b in ((later[4] + 1, later[5]), (later[4], later[5] - 1)):
            with pytest.raises(SpreadlabError, match="disagree"):
                _witnesses(x, 1, (-1, 1), [items[0], later[:4] + (a, b)])


@pytest.mark.parametrize("fn, g", [(bound_clique, complete_bipartite(3, 4)), (bound_diameter, grid(4, 5))],
                         ids=["clique-K34", "diameter-grid4x5"])
def test_engine_shares_one_quotient_per_distinct_block_sums(fn, g):
    report = fn(g)
    by_value = {}
    for w in report.witnesses:
        by_value.setdefault(w.quotient, set()).add(id(w.quotient))
    assert all(len(ids) == 1 for ids in by_value.values())
    assert len(by_value) < len(report.witnesses)
    assert_quotients_match_general(g, report, KIND_DSL)


def test_witness_is_a_frozen_replaceable_dataclass():
    # the benchmark's self-check perturbs witnesses with dataclasses.replace
    w = bound_diameter(builtin("G1")).witnesses[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        w.quotient = None
    with pytest.raises(dataclasses.FrozenInstanceError):
        w.quotient.equitable = not w.quotient.equitable
    (b11, b12), row2 = w.quotient.entries
    q = dataclasses.replace(w.quotient, entries=((b11 + Fraction(1, 1000), b12), row2))
    assert q.entries[0][0] == b11 + Fraction(1, 1000) and q.block_sizes == w.quotient.block_sizes
    moved = dataclasses.replace(w, quotient=q)
    assert moved.quotient is q and moved != w
    assert dataclasses.replace(moved, quotient=w.quotient) == w
    assert pickle.loads(pickle.dumps(w)) == w
