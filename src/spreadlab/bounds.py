"""Quotient-matrix lower bounds on the distance and DSL spreads.

Each bound partitions the vertex set around a witness substructure (closed
neighbourhood of a max-degree vertex, maximum clique, diameter path or
longest cactus cycle), forms the 2x2 quotient of D(G) or Q(G), and reads the
spread bound off its characteristic polynomial. All five share one witness
engine over one analysis of the graph; it checks each method's published
coefficients a_i, b_i against the quotient's exact trace and determinant.
Everything is exact integer arithmetic up to the final square root. The
quarantined 2012 refutation forms its true quotient with the same routine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DegenerateBoundError, SpreadlabError
from .graph import Graph, all_pairs_distances, bipartition
from .quotient import QuotientMatrix
from .spectral import KIND_DISTANCE, KIND_DSL, distance_matrix, kab_distance_spectrum, kab_q_spectrum, matrix_spread
from .structures import WITNESS_CAP, cactus_longest_cycles, diameter_paths, maximum_cliques

METHOD_BIPARTITE_DISTANCE = "bipartite_distance"
METHOD_BIPARTITE_DSL = "bipartite_dsl"
METHOD_CLIQUE = "clique"
METHOD_DIAMETER = "diameter"
METHOD_CACTUS = "cactus"

# Matrix entries one numpy gather of witness rows may hold (8 MB of int64),
# so a bound's memory stays flat in its witness count.
GATHER_ENTRIES = 1 << 20


@dataclass(frozen=True, slots=True)
class Witness:
    """One evaluated witness of a bound: its coefficients, its quotient and
    the quotient's eigenvalue pair."""

    label: str
    vertices: tuple[int, ...]
    a: int
    b: int
    s_or_t: Fraction
    quotient: QuotientMatrix
    lam1: float
    lam2: float
    bound_value: float


@dataclass(frozen=True)
class BoundReport:
    method: str
    parameter_name: str
    parameter: int
    witnesses: tuple[Witness, ...]
    bound: float
    radius_lb: float
    min_ub: float
    true_spread: float
    closed_form: bool = False
    witnesses_truncated: bool = False


def _report(method, pname, param, true_report, witnesses=(), closed_value=None, truncated=False):
    """BoundReport over evaluated witnesses or, when closed_value is given, for
    an exact closed-form case whose extremes are the true ones."""
    closed = closed_value is not None
    return BoundReport(
        method=method,
        parameter_name=pname,
        parameter=param,
        witnesses=tuple(witnesses),
        bound=closed_value if closed else max(w.bound_value for w in witnesses),
        radius_lb=true_report.rho_max if closed else max(w.lam1 for w in witnesses),
        min_ub=true_report.rho_min if closed else min(w.lam2 for w in witnesses),
        true_spread=true_report.spread,
        closed_form=closed,
        witnesses_truncated=truncated,
    )


def _analyse(g: Graph, kind: str):
    """The one analysis behind a bound: the distance array, D(G) or Q(G) as
    a read-only int64 array, and its spread."""
    dist = all_pairs_distances(g)
    x = distance_matrix(dist, kind)
    return dist, x, matrix_spread(x, kind)


def _constant(a: np.ndarray) -> np.ndarray:
    """Per row of a 2-D array, whether all its entries are equal."""
    return (a == a[:, :1]).all(axis=1)


def _block_sums(x: np.ndarray, sets) -> list[tuple[int, int, int, bool]]:
    """Integer block sums of a symmetric int64 matrix around vertex sets.

    sets are vertex sets S without repeats, all of one size k < n, and each
    partition is {S, V\\S}. Returns, per set in order, (X11, X12, X22,
    equitable): the sums of x over S x S, S x V\\S and V\\S x V\\S, and
    whether the sums into each block are constant on S and on V\\S. The sets
    are gathered in blocks of at most GATHER_ENTRIES matrix entries: each
    block sums its sets' rows into `into` (row u of S summed into column u,
    as x is symmetric), so X11 is into summed over S and, with R the row sums
    over S, X12 = R - X11 and X22 = total - 2R + X11.

    The sums are exact in int64: none exceeds the sum of all entries of Q(G),
    2 * sum(trans) <= 2n^3, far below 2^63 for n <= MAX_VERTICES. They leave
    as Python ints.
    """
    n = len(x)
    k = len(sets[0])
    row_sums = x.sum(axis=1)
    total = row_sums.sum()
    sums = []
    step = max(1, GATHER_ENTRIES // (k * n))
    for lo in range(0, len(sets), step):
        inside = np.array(sets[lo:lo + step], dtype=np.intp)
        w = len(inside)
        into = x[inside].sum(axis=1)
        member = np.zeros((w, n), dtype=bool)
        member[np.arange(w)[:, None], inside] = True
        outside = np.nonzero(~member)[1].reshape(w, n - k)
        into_in = np.take_along_axis(into, inside, axis=1)
        into_out = np.take_along_axis(into, outside, axis=1)
        x11 = into_in.sum(axis=1)
        r = row_sums[inside].sum(axis=1)
        equitable = (_constant(into_in) & _constant(row_sums[inside] - into_in)
                     & _constant(into_out) & _constant(row_sums[outside] - into_out))
        sums += zip(x11.tolist(), (r - x11).tolist(), (total - 2 * r + x11).tolist(), equitable.tolist())
    return sums


def _quotient(k: int, n: int, x11: int, x12: int, x22: int, equitable: bool) -> QuotientMatrix:
    """The exact 2x2 quotient around a k-set S from its block sums."""
    return QuotientMatrix(
        entries=((Fraction(x11, k), Fraction(x12, k)),
                 (Fraction(x12, n - k), Fraction(x22, n - k))),
        block_sizes=(k, n - k),
        equitable=equitable,
    )


def _witnesses(x: np.ndarray, c: int, signs: tuple[int, int], items) -> list[Witness]:
    """Evaluate every witness of a bound on the int64 matrix x.

    Each item is (label, vertices, S, s_or_t, a, b), where S is the vertex
    set the partition {S, V\\S} is taken around and (a, b) are the paper's
    coefficients; every S of one bound has the same size k. With C =
    c*k*(n-k) and the block sums of _block_sums, the paper's closed form says
    C*trace = signs[0]*a and C*det = signs[1]*b; any mismatch raises. The
    eigenvalue pair is (A +- sqrt(A^2 - 4CB)) / 2C for A = C*trace,
    B = C*det, and the bound is its gap.

    Witnesses with equal block sums have equal quotients, so A, B, the
    quotient and its eigenvalue pair are computed once per distinct block
    sums and that one QuotientMatrix is shared; the (a, b) check still runs
    for every witness.
    """
    n = len(x)
    k = len(items[0][2])
    C = c * k * (n - k)
    evaluated = {}
    out = []
    for (label, vertices, _, s_or_t, a, b), key in zip(items, _block_sums(x, [item[2] for item in items])):
        if key not in evaluated:
            x11, x12, x22, _ = key
            A = c * (x11 * (n - k) + x22 * k)
            B = c * (x11 * x22 - x12 * x12)
            root = math.sqrt(A * A - 4 * C * B)
            evaluated[key] = (A, B, _quotient(k, n, *key), (A + root) / (2 * C), (A - root) / (2 * C), root / C)
        A, B, q, lam1, lam2, value = evaluated[key]
        if (A, B) != (signs[0] * a, signs[1] * b):
            raise SpreadlabError(
                f"witness {label}: paper coefficients (a, b) = ({a}, {b}) disagree with the exact "
                f"quotient, which gives ({signs[0] * A}, {signs[1] * B})")
        out.append(Witness(label, vertices, a, b, s_or_t, q, lam1, lam2, value))
    return out


def _set_witnesses(x: np.ndarray, dist: np.ndarray, c: int, signs: tuple[int, int], witness_set, label, coefficients):
    """One witness per member of witness_set, for a bound whose (a, b) =
    coefficients(s, W) depend only on s, the sum of the member's
    transmissions, and the Wiener index W, half the sum of them all (exact
    in int64, being below n^3). The sums take one gather, and Fraction(s)
    and (a, b) are formed once per distinct s. label is (open, separator,
    close) around the vertex names."""
    names = [f"v{v + 1}" for v in range(len(x))]
    members = witness_set.members
    trans = dist.sum(axis=1)
    W = int(trans.sum()) // 2
    sums = trans[np.array(members)].sum(axis=1).tolist()
    per_s = {s: (Fraction(s), *coefficients(s, W)) for s in set(sums)}
    start, sep, end = label
    items = [(start + sep.join(map(names.__getitem__, member)) + end, member, member, *per_s[s])
             for member, s in zip(members, sums)]
    return _witnesses(x, c, signs, items)


# ---------------------------------------------------------------------------
# bipartite bounds (max-degree neighbourhood partition)


def _bipartite_bound(g: Graph, kind: str) -> BoundReport:
    # the 2-colouring is read off the distances, so a graph that is not
    # bipartite is refused before the eigensolve
    dist = all_pairs_distances(g)
    bipartition(g, dist)
    x = distance_matrix(dist, kind)
    true_report = matrix_spread(x, kind)
    n = g.n
    delta = g.max_degree()
    method = METHOD_BIPARTITE_DISTANCE if kind == KIND_DISTANCE else METHOD_BIPARTITE_DSL
    if n == 1 or delta == n - 1:
        # nothing to bound, or bipartite with a universal vertex: the star; exact closed forms
        star = kab_distance_spectrum if kind == KIND_DISTANCE else kab_q_spectrum
        value = 0.0 if n == 1 else star(1, n - 1).spread
        return _report(method, "max_degree", delta, true_report, closed_value=value)

    trans = dist.sum(axis=1)
    S = int(trans.sum())
    W = S // 2
    tops = np.flatnonzero(g.adj.sum(axis=1) == delta)
    items = []
    # d_v is v's transmission and t_delta = t_v * Delta the sum of its neighbours'
    for v, d_v, t_delta in zip(tops.tolist(), trans[tops].tolist(), (g.adj[tops] @ trans).tolist()):
        if kind == KIND_DISTANCE:
            a = (delta + 1) * (S - 2 * d_v - 2 * t_delta) + 2 * n * delta * delta
            b = d_v * d_v - 2 * S * delta * delta + 2 * d_v * t_delta + t_delta * t_delta
        else:
            a = 4 * (W - d_v - t_delta) * (delta + 1) + 2 * n * delta * delta + n * d_v + n * t_delta
            b = (4 * d_v * d_v + 8 * d_v * t_delta + 4 * t_delta * t_delta
                 - 8 * W * delta * delta - 4 * W * d_v - 4 * W * t_delta)
        items.append((f"v{v + 1}", (v,), sorted({v, *g.adjacency[v]}), Fraction(t_delta, delta), a, b))
    return _report(method, "max_degree", delta, true_report, _witnesses(x, 1, (1, -1), items))


def bound_bipartite_distance(g: Graph) -> BoundReport:
    """Distance-spread lower bound from the closed neighbourhood of each
    maximum-degree vertex of a connected bipartite graph."""
    return _bipartite_bound(g, KIND_DISTANCE)


def bound_bipartite_dsl(g: Graph) -> BoundReport:
    """DSL-spread analogue of bound_bipartite_distance (Wiener-index form)."""
    return _bipartite_bound(g, KIND_DSL)


# ---------------------------------------------------------------------------
# clique bound


def bound_clique(g: Graph) -> BoundReport:
    """DSL-spread lower bound indexed by the maximum cliques."""
    dist, x, true_report = _analyse(g, KIND_DSL)
    n = g.n
    if n >= 2 and g.edge_count() == n * (n - 1) // 2:
        # K_n: omega = n leaves V\S empty, which the quotient cannot take,
        # and Q(K_n) = J + (n-2)I has eigenvalues 2n-2 and n-2, spread n
        return _report(METHOD_CLIQUE, "clique_number", n, true_report, closed_value=float(n))
    cliques = maximum_cliques(g)
    omega = cliques.parameter
    if omega < 2:
        raise SpreadlabError(f"clique bound needs omega >= 2, got omega={omega}")
    witnesses = _set_witnesses(x, dist, 1, (-1, 1), cliques, ("{", ",", "}"), lambda s, W: (
        n * omega * (1 - omega) + 4 * omega * (s - W) - n * s,
        4 * W * omega * (omega - 1) + 4 * s * (W - s)))
    return _report(METHOD_CLIQUE, "clique_number", omega, true_report, witnesses, truncated=cliques.truncated)


# ---------------------------------------------------------------------------
# diameter bound


def bound_diameter(g: Graph, cap: int = WITNESS_CAP) -> BoundReport:
    """DSL-spread lower bound indexed by the diameter paths, of which at most
    cap are kept."""
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    dist, x, true_report = _analyse(g, KIND_DSL)
    n = g.n
    d = int(dist.max())
    if d == 1:
        # Q(K_n) = J + (n-2)I: eigenvalues 2n-2 and n-2, spread n
        return _report(METHOD_DIAMETER, "diameter", d, true_report, closed_value=float(n))
    if d == n - 1:
        raise DegenerateBoundError(
            f"diameter {d} = n-1: the partition around a diameter path has an empty second block")
    paths = diameter_paths(g, dist, cap=cap)
    witnesses = _set_witnesses(x, dist, 3, (-1, 1), paths, ("", "-", ""), lambda s, W: (
        12 * (1 + d) * (s - W) - n * d * (d + 1) * (d + 2) - 3 * n * s,
        4 * d * (d + 1) * (d + 2) * W + 12 * s * (W - s)))
    return _report(METHOD_DIAMETER, "diameter", d, true_report, witnesses, truncated=paths.truncated)


# ---------------------------------------------------------------------------
# cactus bound


def bound_cactus(g: Graph) -> BoundReport:
    """DSL-spread lower bound for cacti, indexed by the longest cycles."""
    dist, x, true_report = _analyse(g, KIND_DSL)
    n = g.n
    cycles = cactus_longest_cycles(g)
    l = cycles.parameter
    if l == n:
        raise DegenerateBoundError(
            f"circumference {l} = n: the partition around the cycle has an empty second block")
    odd = l % 2  # the odd-l forms add -l*n to a and -4l*W to b
    witnesses = _set_witnesses(x, dist, 4, (1, 1), cycles, ("(", ",", ")"), lambda s, W: (
        l ** 3 * n + 4 * n * s - odd * l * n - 16 * l * (s - W),
        4 * (l ** 3 - odd * l) * W - 16 * s * (s - W)))
    return _report(METHOD_CACTUS, "circumference", l, true_report, witnesses)


# ---------------------------------------------------------------------------
# quarantined 2012 quotient formula and its refutation


@dataclass(frozen=True)
class LegacyComparison:
    """The erroneous published 2x2 quotient versus the true one, in exact
    rationals."""

    b1: tuple[tuple[Fraction, ...], ...]
    b2: QuotientMatrix
    equal: bool


def legacy_2012_counterexample(g: Graph, v: int) -> LegacyComparison:
    """Evaluate the incorrect published quotient formula B1 at a max-degree
    vertex and compare it with the true quotient B2 of D(G) in exact
    arithmetic. B2 is built by the engine's own block sums around the closed
    neighbourhood of v, so it is the bipartite-distance witness quotient at v.
    The two disagree on every valid input, which refutes the bound the
    formula supported. Never used by any other bound.
    """
    n = g.n
    if not 0 <= v < n:
        raise SpreadlabError(f"vertex index {v} is out of range for a graph on {n} vertices (0 <= v < n)")
    dist = all_pairs_distances(g)
    bipartition(g, dist)
    delta = g.max_degree()
    if g.degree(v) != delta:
        raise SpreadlabError(f"vertex {v + 1} has degree {g.degree(v)}, not the maximum degree {delta}")
    if delta > n - 2:
        raise SpreadlabError(f"legacy formula needs max degree <= n-2, got {delta} with n={n}")
    trans = dist.sum(axis=1)
    S = int(trans.sum())
    t_delta = int(g.adj[v] @ trans)  # t_v * Delta
    b1 = (
        (Fraction(2 * delta * delta, delta + 1),
         Fraction(t_delta + delta - 2 * delta * delta, delta + 1)),
        (Fraction(t_delta + delta - 2 * delta * delta, n - delta - 1),
         Fraction(S - 2 * t_delta + 2 * delta * (delta - 1), n - delta - 1)),
    )
    closed = sorted({v, *g.adjacency[v]})
    # D(G) is the distance array itself
    [sums] = _block_sums(dist, [closed])
    b2 = _quotient(len(closed), n, *sums)
    return LegacyComparison(b1=b1, b2=b2, equal=(b1 == b2.entries))
