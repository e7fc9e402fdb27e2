import math

import numpy as np
import pytest

from spreadlab import (
    KIND_DISTANCE,
    KIND_DSL,
    all_pairs_distances,
    closed_form_spread,
    complete,
    complete_bipartite,
    kab_distance_spectrum,
    kab_q_extremes,
    kab_q_spectrum,
    spread,
    star,
)
from spreadlab.spectral import dsl_rows, matrix_of_kind

from .conftest import random_connected_graph


def test_matrix_construction():
    g = complete_bipartite(2, 2)
    d = matrix_of_kind(g, KIND_DISTANCE)
    q = matrix_of_kind(g, KIND_DSL)
    dd = all_pairs_distances(g)
    for i in range(4):
        assert q.array[i, i] == dd.trans[i]
        assert d.array[i, i] == 0
    rows = dsl_rows(g, dd)
    assert all(isinstance(x, int) for row in rows for x in row)
    with pytest.raises(ValueError):
        matrix_of_kind(g, "laplacian")


def test_trace_identities(rng):
    # sum sigma(D) = 0 and sum sigma(Q) = trace(Q) = twice the Wiener index
    for _ in range(15):
        g = random_connected_graph(rng, rng.randint(2, 8))
        dd = all_pairs_distances(g)
        sd = spread(g, KIND_DISTANCE).spectrum
        sq = spread(g, KIND_DSL).spectrum
        assert abs(sum(sd.values)) < 1e-8
        assert abs(sum(sq.values) - 2 * dd.wiener) < 1e-8


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
                assert closed.n == solved.n
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
    assert kab_q_extremes(2, 4) == (8.0, 2.0, 6.0)
    q, qmin, s = kab_q_extremes(2, 5)
    assert q == pytest.approx(11.372281, abs=5e-7)
    assert qmin == 3.0 and s == pytest.approx(8.372281, abs=5e-7)
    _, _, s4 = kab_q_extremes(1, 4)
    assert s4 == pytest.approx(48 ** 0.5, abs=1e-12)
    # P_3: the leaf eigenvalue 1 lies below the smaller quotient root
    assert kab_q_extremes(1, 3) == pytest.approx(((7 + 17 ** 0.5) / 2, 1.0, (5 + 17 ** 0.5) / 2), abs=1e-12)
    with pytest.raises(ValueError):
        kab_q_extremes(3, 5)
    # a > 1 matches the eigensolver everywhere it is defined
    for n in range(4, 10):
        for a in range(2, n // 2 + 1):
            q, qmin, s = kab_q_extremes(a, n)
            rep = spread(complete_bipartite(a, n - a), KIND_DSL)
            assert q == pytest.approx(rep.rho_max, abs=1e-8)
            assert qmin == pytest.approx(rep.rho_min, abs=1e-8)
            assert s == pytest.approx(rep.spread, abs=1e-8)


def test_star_distance_closed_form():
    assert closed_form_spread("star_distance", 1) == 0.0
    assert closed_form_spread("star_distance", 2) == 2.0
    for n in range(3, 31):
        want = spread(star(n), KIND_DISTANCE).spread
        assert closed_form_spread("star_distance", n) == pytest.approx(want, abs=1e-8)


def test_deltamax_dsl_closed_form():
    for n in range(4, 31):
        want = spread(star(n), KIND_DSL).spread
        assert closed_form_spread("deltamax_dsl", n) == pytest.approx(want, abs=1e-8)
    # at n = 3 the leaf eigenvalue 1 of Q(P_3) lies below the smaller quotient
    # root, so the spread is (5 + sqrt(17))/2; the bare sqrt(9n^2 - 32n + 32)
    # = sqrt(17) undershoots it there
    true3 = spread(star(3), KIND_DSL).spread
    assert closed_form_spread("deltamax_dsl", 3) == pytest.approx((5 + 17 ** 0.5) / 2, abs=1e-12)
    assert closed_form_spread("deltamax_dsl", 3) == pytest.approx(true3, abs=1e-8)
    assert math.sqrt(9 * 3 * 3 - 32 * 3 + 32) < true3 - 0.4


def test_complete_dsl_closed_form():
    assert closed_form_spread("complete_dsl", 1) == 0.0
    for n in range(2, 31):
        want = spread(complete(n), KIND_DSL).spread
        assert closed_form_spread("complete_dsl", n) == pytest.approx(want, abs=1e-8)
        assert closed_form_spread("complete_dsl", n) == float(n)


def test_closed_form_errors():
    from spreadlab.errors import SpreadlabError

    with pytest.raises(ValueError):
        closed_form_spread("star_distance", 0)
    with pytest.raises(ValueError):
        closed_form_spread("deltamax_dsl", 1)
    with pytest.raises(SpreadlabError):
        closed_form_spread("mystery", 5)


def test_spectra_match_numpy_oracle(rng):
    for _ in range(15):
        g = random_connected_graph(rng, rng.randint(2, 9))
        for kind, rows in ((KIND_DISTANCE, all_pairs_distances(g).dist), (KIND_DSL, dsl_rows(g))):
            ref = sorted(np.linalg.eigvalsh(np.array(rows, float)))
            mine = sorted(spread(g, kind).spectrum.values)
            for x, y in zip(mine, ref):
                assert abs(x - y) < 1e-8
