"""Distance and distance-signless-Laplacian matrices, spectra and spreads.

Also houses every closed-form spectrum/spread used by the bounds: the
complete-bipartite distance and DSL spectra, the star distance spread and
the maximum-degree DSL spread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import SpreadlabError
from .graph import DistanceData, Graph, all_pairs_distances
from .linalg import DEFAULT_TOL, Spectrum, SymMatrix, eigenvalues_symmetric

KIND_DISTANCE = "distance"
KIND_DSL = "dsl"


@dataclass(frozen=True)
class SpreadReport:
    """Extreme eigenvalues and their difference for D(G) or Q(G)."""

    kind: str
    rho_max: float
    rho_min: float
    spread: float
    spectrum: Spectrum


def dsl_rows(g: Graph, dd: DistanceData | None = None) -> tuple[tuple[int, ...], ...]:
    """Integer rows of Q(G) = Tr(G) + D(G)."""
    dd = dd or all_pairs_distances(g)
    return tuple(
        tuple(d + (dd.trans[i] if i == j else 0) for j, d in enumerate(row))
        for i, row in enumerate(dd.dist)
    )


def matrix_of_kind(g: Graph, kind: str, dd: DistanceData | None = None) -> SymMatrix:
    """D(G) for kind 'distance', Q(G) for kind 'dsl', with exact integer rows."""
    if kind not in (KIND_DISTANCE, KIND_DSL):
        raise ValueError(f"unknown matrix kind {kind!r}; expected 'distance' or 'dsl'")
    dd = dd or all_pairs_distances(g)
    return SymMatrix(dd.dist if kind == KIND_DISTANCE else dsl_rows(g, dd))


def spread(g: Graph, kind: str, tol: float = DEFAULT_TOL) -> SpreadReport:
    """Largest and least eigenvalue of D(G) or Q(G) and their difference."""
    return matrix_spread(matrix_of_kind(g, kind), kind, tol=tol)


def matrix_spread(m: SymMatrix, kind: str, tol: float = DEFAULT_TOL) -> SpreadReport:
    """spread() of an already built D(G) or Q(G)."""
    spec = eigenvalues_symmetric(m, tol=tol)
    return SpreadReport(
        kind=kind,
        rho_max=spec.largest,
        rho_min=spec.least,
        spread=spec.largest - spec.least,
        spectrum=spec,
    )


# ---------------------------------------------------------------------------
# closed forms for K_{a,b}


def kab_distance_spectrum(a: int, b: int) -> Spectrum:
    """Distance spectrum of K_{a,b}: (-2) with multiplicity n-2 plus
    n-2 +- sqrt(n^2 - 3ab)."""
    _positive(a, b)
    n = a + b
    root = math.sqrt(n * n - 3 * a * b)
    return Spectrum.from_values([n - 2 + root, n - 2 - root] + [-2.0] * (n - 2))


def kab_q_spectrum(a: int, b: int) -> Spectrum:
    """DSL spectrum of K_{a,b}: (2n-a-4)^[b-1], (2n-b-4)^[a-1] plus
    (5n-8 +- sqrt(9n^2 - 32ab)) / 2."""
    _positive(a, b)
    n = a + b
    root = math.sqrt(9 * n * n - 32 * a * b)
    values = [(5 * n - 8 + root) / 2, (5 * n - 8 - root) / 2]
    values += [float(2 * n - a - 4)] * (b - 1)
    values += [float(2 * n - b - 4)] * (a - 1)
    return Spectrum.from_values(values)


def kab_q_extremes(a: int, n: int) -> tuple[float, float, float]:
    """(q, q_min, spread) of Q(K_{a,n-a}) in closed form.

    Requires 1 <= a and 2a <= n. Both extremes are read off the whole
    spectrum (kab_q_spectrum): q is the larger quotient root, and q_min is
    n+a-4 for a > 1. For a = 1 (the star) q_min is the smaller quotient root,
    except at n = 3, where the leaf eigenvalue 2n-5 = 1 lies below it.
    """
    if not (1 <= a and 2 * a <= n):
        raise ValueError(f"need 1 <= a and 2a <= n, got (a={a}, n={n})")
    spec = kab_q_spectrum(a, n - a)
    return spec.largest, spec.least, spec.largest - spec.least


# ---------------------------------------------------------------------------
# closed-form spreads


def closed_form_spread(descriptor: str, n: int) -> float:
    """Closed-form spreads:

    - star_distance: distance spread of K_{1,n-1} (0 for n=1, 2 for n=2,
      n + sqrt(n^2 - 3n + 3) for n >= 3);
    - deltamax_dsl: DSL spread of a bipartite graph with a vertex adjacent to
      all others, i.e. of K_{1,n-1}, n >= 2. Its Q spectrum is the quotient
      pair (5n-8 +- r)/2 with r = sqrt(9n^2 - 32n + 32) and the leaf
      eigenvalue 2n-5 of multiplicity n-2. The spread is r for n = 2 and
      n >= 4, where (2n-7)(n-1) >= 0 puts 2n-5 above the smaller quotient
      root, and (5 + sqrt(17))/2 for n = 3, where 2n-5 = 1 is the least;
    - complete_dsl: DSL spread of K_n, which is n for n >= 2 (from q = 2n-2
      and q_min = n-2) and 0 for n = 1.
    """
    if descriptor == "star_distance":
        if n < 1:
            raise ValueError(f"star_distance needs n >= 1, got {n}")
        if n == 1:
            return 0.0
        if n == 2:
            return 2.0
        return n + math.sqrt(n * n - 3 * n + 3)
    if descriptor == "deltamax_dsl":
        if n < 2:
            raise ValueError(f"deltamax_dsl needs n >= 2, got {n}")
        return kab_q_extremes(1, n)[2]
    if descriptor == "complete_dsl":
        if n < 1:
            raise ValueError(f"complete_dsl needs n >= 1, got {n}")
        return float(n) if n >= 2 else 0.0
    raise SpreadlabError(f"unknown closed-form descriptor {descriptor!r}")


def _positive(a: int, b: int) -> None:
    if a < 1 or b < 1:
        raise ValueError(f"need a, b >= 1, got ({a}, {b})")
