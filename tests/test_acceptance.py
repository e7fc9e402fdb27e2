"""Acceptance suite: every published reference value and stated property.

One test per criterion; each prints a single pass/fail line. Criteria that
assert misprinted reference values are left to fail honestly; the recomputed
values appear in the assertion diff and in the verify-tables CLI output.
"""

import random

import pytest

from spreadlab import (
    all_pairs_distances,
    bound_bipartite_distance,
    bound_bipartite_dsl,
    bound_cactus,
    bound_clique,
    bound_diameter,
    builtin,
    check_conjecture,
    complete,
    complete_bipartite,
    cycle,
    enumerate_connected_bipartite,
    kab_distance_spectrum,
    kab_q_spectrum,
    kite,
    legacy_2012_counterexample,
    path,
    spread,
    star,
)
from spreadlab.linalg import eigenvalues_symmetric
from spreadlab.spectral import KIND_DISTANCE, KIND_DSL

from .conftest import (
    around,
    cycle_internal_sum,
    eig2_real,
    interlaces,
    names_balanced_complete_bipartite,
    path_internal_sum,
    quotient_eigenvalues,
    random_cactus,
    random_connected_graph,
    random_symmetric,
    reference_quotient,
)

TOL_4DP = 5e-4
TOL_1DP = 0.05
TOL = 1e-8


def report(name, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    assert ok, name


def within(x, want, tol):
    return abs(x - want) <= tol


def test_criterion_01_bipartite_distance_table():
    checks = [
        within(bound_bipartite_distance(builtin("G1")).bound, 15.5960, TOL_4DP),
        within(spread(builtin("G1"), KIND_DISTANCE).spread, 17.6820, TOL_4DP),
        within(bound_bipartite_distance(builtin("G2")).bound, 19.0059, TOL_4DP),
        within(spread(builtin("G2"), KIND_DISTANCE).spread, 20.9674, TOL_4DP),
    ]
    report("criterion 1: bipartite distance bound/spread table (G1, G2)", all(checks))


def test_criterion_02_bipartite_dsl_table():
    checks = [
        within(bound_bipartite_dsl(builtin("G1")).bound, 15.6400, TOL_4DP),
        within(spread(builtin("G1"), KIND_DSL).spread, 18.6100, TOL_4DP),
        within(bound_bipartite_dsl(builtin("G2")).bound, 17.8520, TOL_4DP),
        within(spread(builtin("G2"), KIND_DSL).spread, 21.1870, TOL_4DP),
    ]
    report("criterion 2: bipartite dsl bound/spread table (G1, G2)", all(checks))


def test_criterion_03_four_vertex_dsl_table():
    rows = {
        "K22": (8.0, 2.0, 6.0, TOL),
        "P4": (10.6056, 2.0, 8.6056, TOL_4DP),
        "S4": (9.4641, 2.5359, 6.9282, TOL_4DP),
    }
    checks = []
    for name, (q, qmin, sq, tol) in rows.items():
        rep = spread(builtin(name), KIND_DSL)
        checks += [within(rep.rho_max, q, tol), within(rep.rho_min, qmin, tol), within(rep.spread, sq, tol)]
    report("criterion 3: four-vertex dsl table (K22, P4, S4)", all(checks))


def test_criterion_04_five_vertex_dsl_table():
    rows = {
        "K23": (11.3723, 3.0, 8.3723),
        "H1": (13.3441, 3.3113, 10.0328),
        "H2": (15.3119, 3.6075, 11.7044),
        "P5": (17.1152, 3.4385, 13.6767),
        "S5": (13.4244, 3.5756, 9.8488),
    }
    checks = []
    for name, (q, qmin, sq) in rows.items():
        rep = spread(builtin(name), KIND_DSL)
        checks += [
            within(rep.rho_max, q, TOL_4DP),
            within(rep.rho_min, qmin, TOL_4DP),
            within(rep.spread, sq, TOL_4DP),
        ]
    report("criterion 4: five-vertex dsl table (K23, H1, H2, P5, S5)", all(checks))


def test_criterion_05_clique_bound_kite():
    checks = [
        within(bound_clique(kite(5, 3)).bound, 10.6158, TOL_4DP),
        within(spread(kite(5, 3), KIND_DSL).spread, 11.3395, TOL_4DP),
    ]
    report("criterion 5: clique bound on the 5-vertex kite", all(checks))


def test_criterion_06_diameter_and_cactus_remarks():
    checks = [
        within(bound_diameter(builtin("G1")).bound, 12.1198, TOL_4DP),
        within(bound_cactus(builtin("G3")).bound, 11.5, TOL_1DP),
        within(spread(builtin("G3"), KIND_DSL).spread, 12.8, TOL_1DP),
        within(bound_cactus(builtin("G4")).bound, 13.4, TOL_1DP),
        within(spread(builtin("G4"), KIND_DSL).spread, 16.3, TOL_1DP),
    ]
    report("criterion 6: diameter remark (G1) and cactus remarks (G3, G4)", all(checks))


def test_criterion_07_legacy_quotient_counterexample():
    from fractions import Fraction

    cmp = legacy_2012_counterexample(builtin("G1"), 0)
    checks = [
        cmp.b1 == ((Fraction(18, 4), Fraction(19, 4)), (Fraction(19, 3), Fraction(28, 3))),
        cmp.b2.entries == ((Fraction(18, 4), Fraction(25, 4)), (Fraction(25, 3), Fraction(16, 3))),
        cmp.equal is False,
    ]
    report("criterion 7: 2012 quotient formula refuted in exact rationals", all(checks))


def test_criterion_08_closed_forms_vs_eigensolver():
    ok = True
    for a in range(1, 9):
        for b in range(a, 9):
            if a + b > 9:
                continue
            g = complete_bipartite(a, b)
            for closed, kind in (
                (kab_distance_spectrum(a, b), KIND_DISTANCE),
                (kab_q_spectrum(a, b), KIND_DSL),
            ):
                solved = spread(g, kind).spectrum
                ok = ok and all(abs(x - y) < TOL for x, y in zip(closed.values, solved.values))
    for n in range(3, 31):
        ok = ok and within(kab_distance_spectrum(1, n - 1).spread,
                           spread(star(n), KIND_DISTANCE).spread, TOL)
        ok = ok and within(kab_q_spectrum(1, n - 1).spread,
                           spread(star(n), KIND_DSL).spread, TOL)
    for n in range(2, 31):
        ok = ok and spread(complete(n), KIND_DSL).spread == pytest.approx(n, abs=TOL)
    report("criterion 8: closed forms match eigensolves (K_ab <= 9, stars/completes <= 30)", ok)


def test_criterion_09_property_suites():
    ok = True
    # soundness of the bipartite bounds over every connected bipartite n <= 7
    for n in range(2, 8):
        for g in enumerate_connected_bipartite(n):
            sd = spread(g, KIND_DISTANCE).spread
            sq = spread(g, KIND_DSL).spread
            ok = ok and bound_bipartite_distance(g).bound <= sd + TOL
            ok = ok and bound_bipartite_dsl(g).bound <= sq + TOL

    rng = random.Random(9)
    # clique and diameter bounds over 500 random connected graphs n <= 9
    count = 0
    while count < 500:
        g = random_connected_graph(rng, rng.randint(3, 9), extra_edge_prob=0.25)
        sq = spread(g, KIND_DSL).spread
        try:
            ok = ok and bound_clique(g).bound <= sq + TOL
            ok = ok and bound_diameter(g).bound <= sq + TOL
        except Exception:
            continue
        count += 1
    # cactus bound over random cacti
    count = 0
    while count < 100:
        g = random_cactus(rng, rng.randint(4, 12))
        try:
            r = bound_cactus(g)
        except Exception:
            continue
        ok = ok and r.bound <= spread(g, KIND_DSL).spread + TOL
        count += 1

    # interlacing over 200 randomized quotient cases
    for _ in range(200):
        n = rng.randint(3, 9)
        m = random_symmetric(rng, n)
        q = reference_quotient(m, around(rng.sample(range(n), rng.randint(1, n - 1)), n))
        ok = ok and bool(interlaces(eigenvalues_symmetric(m), quotient_eigenvalues(q)))

    # quotient consistency on every witness of the showcase graphs
    for r in (
        bound_bipartite_distance(builtin("G1")),
        bound_bipartite_dsl(builtin("G2")),
        bound_clique(kite(6, 3)),
        bound_diameter(builtin("G1")),
        bound_cactus(builtin("G3")),
        bound_cactus(builtin("G4")),
    ):
        for w in r.witnesses:
            hi, lo = eig2_real(w.quotient.entries)
            ok = ok and within(w.lam1, hi, TOL) and within(w.lam2, lo, TOL)
            ok = ok and within(w.bound_value, hi - lo, TOL)
    report("criterion 9: soundness, interlacing and quotient-consistency suites", ok)


def test_criterion_10_conjecture_and_monotonicity():
    ok = True
    for n in range(4, 9):
        rep = check_conjecture(n)
        ok = ok and rep.verdict == "holds"
        ok = ok and names_balanced_complete_bipartite(rep.minimizer_graph6)
    for n in range(4, 41):
        values = [kab_q_spectrum(a, n - a).spread for a in range(1, n // 2 + 1)]
        ok = ok and all(x > y for x, y in zip(values, values[1:]))
    report("criterion 10: conjecture holds for n = 4..8; spread chain decreasing to n = 40", ok)


def test_criterion_11_internal_distance_sums():
    ok = True
    for d in range(1, 13):
        ok = ok and path_internal_sum(d) == all_pairs_distances(path(d + 1)).sum()
    for l in range(3, 16):
        ok = ok and cycle_internal_sum(l) == all_pairs_distances(cycle(l))[0].sum()
    report("criterion 11: geodesic and cycle internal distance sums vs BFS", ok)
