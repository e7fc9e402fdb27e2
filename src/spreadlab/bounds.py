"""Quotient-matrix lower bounds on the distance and DSL spreads.

Each bound partitions the vertex set around a witness substructure (closed
neighbourhood of a max-degree vertex, maximum clique, diameter path or
longest cactus cycle), forms the 2x2 quotient of D(G) or Q(G), and reads the
spread bound off its characteristic polynomial. All five share one witness
engine over one analysis of the graph; it checks each method's published
coefficients a_i, b_i against the quotient's exact trace and determinant.
Everything is exact integer arithmetic up to the final square root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DegenerateBoundError, SpreadlabError
from .graph import Graph, all_pairs_distances, average_distance_degree, bipartition
from .linalg import SymMatrix
from .quotient import Partition, QuotientMatrix, quotient
from .spectral import KIND_DISTANCE, KIND_DSL, closed_form_spread, matrix_of_kind, matrix_spread
from .structures import DIAMETER_PATH_CAP, cactus_longest_cycles, diameter_paths, maximum_cliques

METHOD_BIPARTITE_DISTANCE = "bipartite_distance"
METHOD_BIPARTITE_DSL = "bipartite_dsl"
METHOD_CLIQUE = "clique"
METHOD_DIAMETER = "diameter"
METHOD_CACTUS = "cactus"
METHOD_LEGACY = "legacy_2012"


@dataclass(frozen=True)
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
    """The one analysis behind a bound: distances, D(G) or Q(G), its spread."""
    dd = all_pairs_distances(g)
    m = matrix_of_kind(g, kind, dd)
    return dd, m, matrix_spread(m, kind)


def _witnesses(m: SymMatrix, c: int, signs: tuple[int, int], items) -> list[Witness]:
    """Evaluate every witness of a bound on the matrix m.

    Each item is (label, vertices, S, s_or_t, a, b), where S is the vertex
    set the partition {S, V\\S} is taken around and (a, b) are the paper's
    coefficients. The 2x2 quotient comes from integer block sums: X11 over
    S x S, R the row sums over S, X12 = R - X11 and X22 = total - 2R + X11.
    With C = c|S||V\\S|, the paper's closed form says C*trace = signs[0]*a
    and C*det = signs[1]*b; any mismatch raises. The eigenvalue pair is
    (A +- sqrt(A^2 - 4CB)) / 2C for A = C*trace, B = C*det, and the bound is
    its gap.
    """
    rows = m.rows_exact
    n = len(rows)
    row_sums = [sum(row) for row in rows]
    total = sum(row_sums)
    out = []
    for label, vertices, inside, s_or_t, a, b in items:
        into = [sum(col) for col in zip(*(rows[v] for v in inside))]  # m is symmetric
        members = set(inside)
        outside = [u for u in range(n) if u not in members]
        k, k_out = len(inside), len(outside)
        x11 = sum(into[u] for u in inside)
        r = sum(row_sums[u] for u in inside)
        x12, x22 = r - x11, total - 2 * r + x11
        equitable = all(
            len({into[u] for u in block}) == 1 and len({row_sums[u] - into[u] for u in block}) == 1
            for block in (inside, outside)
        )
        C = c * k * k_out
        A = c * (x11 * k_out + x22 * k)
        B = c * (x11 * x22 - x12 * x12)
        if (A, B) != (signs[0] * a, signs[1] * b):
            raise SpreadlabError(
                f"witness {label}: paper coefficients (a, b) = ({a}, {b}) disagree with the exact "
                f"quotient, which gives ({signs[0] * A}, {signs[1] * B})")
        root = math.sqrt(A * A - 4 * C * B)
        out.append(Witness(
            label=label,
            vertices=vertices,
            a=a,
            b=b,
            s_or_t=s_or_t,
            quotient=QuotientMatrix(
                entries=((Fraction(x11, k), Fraction(x12, k)), (Fraction(x12, k_out), Fraction(x22, k_out))),
                block_sizes=(k, k_out),
                equitable=equitable,
            ),
            lam1=(A + root) / (2 * C),
            lam2=(A - root) / (2 * C),
            bound_value=root / C,
        ))
    return out


# ---------------------------------------------------------------------------
# bipartite bounds (max-degree neighbourhood partition)


def _bipartite_bound(g: Graph, kind: str) -> BoundReport:
    bipartition(g)
    dd, m, true_report = _analyse(g, kind)
    n = g.n
    delta = g.max_degree()
    method = METHOD_BIPARTITE_DISTANCE if kind == KIND_DISTANCE else METHOD_BIPARTITE_DSL
    if n <= 1 or delta == n - 1:
        # nothing to bound, or bipartite with a universal vertex: the star; exact closed forms
        value = 0.0 if n <= 1 else closed_form_spread("star_distance" if kind == KIND_DISTANCE else "deltamax_dsl", n)
        return _report(method, "max_degree", delta, true_report, closed_value=value)

    S = sum(dd.trans)
    W = S // 2
    items = []
    for v in range(n):
        if g.degree(v) != delta:
            continue
        d_v = dd.trans[v]
        t_v = average_distance_degree(g, dd, v)
        t_delta = int(t_v * delta)  # t_v * Delta, an integer
        if kind == KIND_DISTANCE:
            a = (delta + 1) * (S - 2 * d_v - 2 * t_delta) + 2 * n * delta * delta
            b = d_v * d_v - 2 * S * delta * delta + 2 * d_v * t_delta + t_delta * t_delta
        else:
            a = 4 * (W - d_v - t_delta) * (delta + 1) + 2 * n * delta * delta + n * d_v + n * t_delta
            b = (4 * d_v * d_v + 8 * d_v * t_delta + 4 * t_delta * t_delta
                 - 8 * W * delta * delta - 4 * W * d_v - 4 * W * t_delta)
        items.append((f"v{v + 1}", (v,), sorted({v, *g.adjacency[v]}), t_v, a, b))
    return _report(method, "max_degree", delta, true_report, _witnesses(m, 1, (1, -1), items))


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
    dd, m, true_report = _analyse(g, KIND_DSL)
    n = g.n
    cliques = maximum_cliques(g, dd)
    omega = cliques.parameter
    if omega < 2:
        raise SpreadlabError(f"clique bound needs omega >= 2, got omega={omega}")
    if omega == n:
        return _report(METHOD_CLIQUE, "clique_number", omega, true_report,
                       closed_value=closed_form_spread("complete_dsl", n))
    W = dd.wiener
    items = [
        ("{" + ",".join(f"v{v + 1}" for v in member) + "}", member, member, Fraction(s),
         n * omega * (1 - omega) + 4 * omega * (s - W) - n * s,
         4 * W * omega * (omega - 1) + 4 * s * (W - s))
        for member, s in zip(cliques.members, cliques.s_values)
    ]
    return _report(METHOD_CLIQUE, "clique_number", omega, true_report, _witnesses(m, 1, (-1, 1), items))


# ---------------------------------------------------------------------------
# diameter bound


def bound_diameter(g: Graph, cap: int = DIAMETER_PATH_CAP) -> BoundReport:
    """DSL-spread lower bound indexed by the diameter paths."""
    dd, m, true_report = _analyse(g, KIND_DSL)
    n = g.n
    d = dd.diameter
    if d == 1:
        return _report(METHOD_DIAMETER, "diameter", d, true_report,
                       closed_value=closed_form_spread("complete_dsl", n))
    if d == n - 1:
        raise DegenerateBoundError(
            f"diameter {d} = n-1: the partition around a diameter path has an empty second block")
    paths = diameter_paths(g, dd, cap=cap)
    W = dd.wiener
    items = [
        ("-".join(f"v{v + 1}" for v in member), member, member, Fraction(s),
         12 * (1 + d) * (s - W) - n * d * (d + 1) * (d + 2) - 3 * n * s,
         4 * d * (d + 1) * (d + 2) * W + 12 * s * (W - s))
        for member, s in zip(paths.members, paths.s_values)
    ]
    return _report(METHOD_DIAMETER, "diameter", d, true_report, _witnesses(m, 3, (-1, 1), items),
                   truncated=paths.truncated)


# ---------------------------------------------------------------------------
# cactus bound


def bound_cactus(g: Graph) -> BoundReport:
    """DSL-spread lower bound for cacti, indexed by the longest cycles."""
    dd, m, true_report = _analyse(g, KIND_DSL)
    n = g.n
    cycles = cactus_longest_cycles(g, dd)
    l = cycles.parameter
    if l == n:
        raise DegenerateBoundError(
            f"circumference {l} = n: the partition around the cycle has an empty second block")
    W = dd.wiener
    odd = l % 2  # the odd-l forms add -l*n to a and -4l*W to b
    items = [
        ("(" + ",".join(f"v{v + 1}" for v in member) + ")", member, member, Fraction(s),
         l ** 3 * n + 4 * n * s - odd * l * n - 16 * l * (s - W),
         4 * (l ** 3 - odd * l) * W - 16 * s * (s - W))
        for member, s in zip(cycles.members, cycles.s_values)
    ]
    return _report(METHOD_CACTUS, "circumference", l, true_report, _witnesses(m, 4, (1, 1), items))


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
    arithmetic. The two disagree on every valid input, which refutes the
    bound the formula supported. Never used by any other bound.
    """
    n = g.n
    if not 0 <= v < n:
        raise SpreadlabError(f"vertex index {v} is out of range for a graph on {n} vertices (0 <= v < n)")
    bipartition(g)
    delta = g.max_degree()
    if g.degree(v) != delta:
        raise SpreadlabError(f"vertex {v + 1} has degree {g.degree(v)}, not the maximum degree {delta}")
    if delta > n - 2:
        raise SpreadlabError(f"legacy formula needs max degree <= n-2, got {delta} with n={n}")
    dd = all_pairs_distances(g)
    S = sum(dd.trans)
    t_delta = int(average_distance_degree(g, dd, v) * delta)  # t_v * Delta
    b1 = (
        (Fraction(2 * delta * delta, delta + 1),
         Fraction(t_delta + delta - 2 * delta * delta, delta + 1)),
        (Fraction(t_delta + delta - 2 * delta * delta, n - delta - 1),
         Fraction(S - 2 * t_delta + 2 * delta * (delta - 1), n - delta - 1)),
    )
    b2 = quotient(dd.dist, Partition.around({v, *g.adjacency[v]}, n))
    return LegacyComparison(b1=b1, b2=b2, equal=(b1 == b2.entries))
