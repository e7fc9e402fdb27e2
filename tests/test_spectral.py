import math

import numpy as np
import pytest

from spreadlab import (
    KIND_DISTANCE,
    KIND_DSL,
    SpreadlabError,
    all_pairs_distances,
    bound_bipartite_distance,
    bound_clique,
    bound_diameter,
    complete,
    complete_bipartite,
    kab_distance_spectrum,
    kab_q_spectrum,
    spread,
    star,
)
from spreadlab.spectral import distance_matrix

from .conftest import matrix_rows, random_connected_graph


def test_matrix_construction():
    g = complete_bipartite(2, 2)
    dist = all_pairs_distances(g)
    for kind in (KIND_DISTANCE, KIND_DSL):
        x = distance_matrix(dist, kind)
        assert x.dtype == np.int64 and not x.flags.writeable
        assert x.tolist() == matrix_rows(g, kind)
    assert distance_matrix(dist, KIND_DISTANCE) is dist
    with pytest.raises(ValueError):
        distance_matrix(dist, "laplacian")
    with pytest.raises(ValueError):
        spread(g, "laplacian")


def test_trace_identities(rng):
    # sum sigma(D) = 0 and sum sigma(Q) = trace(Q) = twice the Wiener index
    for _ in range(15):
        g = random_connected_graph(rng, rng.randint(2, 8))
        sd = spread(g, KIND_DISTANCE).spectrum
        sq = spread(g, KIND_DSL).spectrum
        assert abs(sum(sd.values)) < 1e-8
        assert abs(sum(sq.values) - all_pairs_distances(g).sum()) < 1e-8


def test_matrix_construction_on_a_stack(rng):
    # a (k, n, n) stack of distance arrays, as the conjecture search solves,
    # gives each member's own D(G) and Q(G)
    for n in (1, 2, 7):
        graphs = [complete(n), star(n)] + [random_connected_graph(rng, n) for _ in range(4)]
        stack = np.array([all_pairs_distances(g) for g in graphs])
        stack.setflags(write=False)
        for kind in (KIND_DISTANCE, KIND_DSL):
            x = distance_matrix(stack, kind)
            assert x.dtype == np.int64 and not x.flags.writeable and x.shape == stack.shape
            for g, member in zip(graphs, x):
                assert member.tolist() == matrix_rows(g, kind), (n, kind)
    # members of the empty graph have neither matrix, as the graph alone
    for dist in (np.zeros((0, 0), dtype=np.int64), np.zeros((3, 0, 0), dtype=np.int64)):
        with pytest.raises(SpreadlabError, match="empty graph"):
            distance_matrix(dist, KIND_DSL)


def test_spread_nonnegative_and_zero_only_for_k1(rng):
    assert spread(complete(1), KIND_DISTANCE).spread == 0.0
    assert spread(complete(1), KIND_DSL).spread == 0.0
    for _ in range(10):
        g = random_connected_graph(rng, rng.randint(2, 7))
        assert spread(g, KIND_DISTANCE).spread > 0
        assert spread(g, KIND_DSL).spread > 0


def test_kab_spectra_match_eigensolves():
    for a in range(1, 9):
        for b in range(a, 9):
            if a + b > 9:
                continue
            g = complete_bipartite(a, b)
            for kind, closed in (
                (KIND_DISTANCE, kab_distance_spectrum(a, b)),
                (KIND_DSL, kab_q_spectrum(a, b)),
            ):
                solved = spread(g, kind).spectrum
                assert len(closed.values) == len(solved.values)
                for x, y in zip(closed.values, solved.values):
                    assert abs(x - y) < 1e-8, (a, b, kind)


def test_kab_spectra_known_values():
    assert [round(v, 6) for v in kab_distance_spectrum(2, 2).values] == [4.0, 0.0, -2.0, -2.0]
    vals = kab_distance_spectrum(1, 3).values
    # {2 + sqrt(7), 2 - sqrt(7), (-2)^[2]}; note 2 - sqrt(7) > -2, so -2 is least
    assert abs(vals[0] - (2 + 7 ** 0.5)) < 1e-12
    assert any(abs(v - (2 - 7 ** 0.5)) < 1e-12 for v in vals)
    assert vals[-1] == pytest.approx(-2.0, abs=1e-12)
    assert [round(v, 6) for v in kab_distance_spectrum(1, 1).values] == [1.0, -1.0]
    assert [round(v, 6) for v in kab_q_spectrum(2, 2).values] == [8.0, 4.0, 2.0, 2.0]
    q = kab_q_spectrum(1, 3).values
    assert abs(q[0] - (6 + 2 * 3 ** 0.5)) < 1e-12
    assert abs(q[-1] - (6 - 2 * 3 ** 0.5)) < 1e-12
    assert abs(kab_q_spectrum(2, 3).values[0] - 11.372281) < 5e-7
    assert kab_q_spectrum(2, 3).values[-1] == pytest.approx(3.0, abs=1e-12)
    with pytest.raises(ValueError):
        kab_distance_spectrum(0, 3)


def test_kab_q_extremes():
    spec = kab_q_spectrum(2, 2)
    assert (spec.largest, spec.least, spec.spread) == (8.0, 2.0, 6.0)
    spec = kab_q_spectrum(2, 3)
    assert spec.largest == pytest.approx(11.372281, abs=5e-7)
    assert spec.least == 3.0 and spec.spread == pytest.approx(8.372281, abs=5e-7)
    assert kab_q_spectrum(1, 3).spread == pytest.approx(48 ** 0.5, abs=1e-12)
    # P_3: the leaf eigenvalue 1 lies below the smaller quotient root
    spec = kab_q_spectrum(1, 2)
    assert (spec.largest, spec.least, spec.spread) == pytest.approx(
        ((7 + 17 ** 0.5) / 2, 1.0, (5 + 17 ** 0.5) / 2), abs=1e-12)
    # a > 1 matches the eigensolver
    for n in range(4, 10):
        for a in range(2, n // 2 + 1):
            spec = kab_q_spectrum(a, n - a)
            rep = spread(complete_bipartite(a, n - a), KIND_DSL)
            assert spec.largest == pytest.approx(rep.rho_max, abs=1e-8)
            assert spec.least == pytest.approx(rep.rho_min, abs=1e-8)
            assert spec.spread == pytest.approx(rep.spread, abs=1e-8)


def test_star_distance_spread_is_the_closed_form_bit_for_bit():
    # the bipartite-distance bound reports this spread on every star, so
    # this pins its output there byte for byte
    assert kab_distance_spectrum(1, 1).spread == 2.0
    for n in range(3, 2001):
        assert kab_distance_spectrum(1, n - 1).spread == n + math.sqrt(n * n - 3 * n + 3), n


def test_star_distance_closed_form():
    assert bound_bipartite_distance(star(1)).bound == 0.0
    for n in range(3, 31):
        want = spread(star(n), KIND_DISTANCE).spread
        assert kab_distance_spectrum(1, n - 1).spread == pytest.approx(want, abs=1e-8)


def test_deltamax_dsl_closed_form():
    for n in range(4, 31):
        want = spread(star(n), KIND_DSL).spread
        assert kab_q_spectrum(1, n - 1).spread == pytest.approx(want, abs=1e-8)
    # at n = 3 the leaf eigenvalue 1 of Q(P_3) lies below the smaller quotient
    # root, so the spread is (5 + sqrt(17))/2; the bare sqrt(9n^2 - 32n + 32)
    # = sqrt(17) undershoots it there
    true3 = spread(star(3), KIND_DSL).spread
    assert kab_q_spectrum(1, 2).spread == pytest.approx((5 + 17 ** 0.5) / 2, abs=1e-12)
    assert kab_q_spectrum(1, 2).spread == pytest.approx(true3, abs=1e-8)
    assert math.sqrt(9 * 3 * 3 - 32 * 3 + 32) < true3 - 0.4


def test_complete_dsl_closed_form():
    assert spread(complete(1), KIND_DSL).spread == 0.0
    for n in range(2, 31):
        want = spread(complete(n), KIND_DSL).spread
        assert want == pytest.approx(n, abs=1e-8)
        assert bound_clique(complete(n)).bound == float(n)
        assert bound_diameter(complete(n)).bound == float(n)


def test_closed_form_errors():
    # K_{1,0} has no spectrum: the star bounds of K_1 never ask for it
    with pytest.raises(ValueError):
        kab_distance_spectrum(1, 0)
    with pytest.raises(ValueError):
        kab_q_spectrum(1, 0)


def test_spectra_match_numpy_oracle(rng):
    for _ in range(15):
        g = random_connected_graph(rng, rng.randint(2, 9))
        for kind in (KIND_DISTANCE, KIND_DSL):
            ref = sorted(np.linalg.eigvalsh(np.array(matrix_rows(g, kind), float)))
            mine = sorted(spread(g, kind).spectrum.values)
            for x, y in zip(mine, ref):
                assert abs(x - y) < 1e-8
