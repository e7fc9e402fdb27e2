"""Distance and distance-signless-Laplacian matrices, spectra and spreads.

Each spread builds D(G) or Q(G) once, as a read-only int64 array, and takes
its spectrum from linalg.eigenvalues_symmetric on that array. Also houses
the closed-form distance and DSL spectra of K_{a,b}; the bounds read their
star cases off them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SpreadlabError
from .graph import DistanceData, Graph, all_pairs_distances
from .linalg import Spectrum, eigenvalues_symmetric

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


def distance_matrix(dd: DistanceData, kind: str) -> np.ndarray:
    """D(G) for kind 'distance', Q(G) = Tr(G) + D(G) for kind 'dsl', as a
    read-only int64 array, from the graph's all_pairs_distances.

    D(G) is dd.dist itself; Q(G) is one copy of it with the row sums on its
    zero diagonal. The empty graph has neither matrix and is refused here, so
    every spread and bound reports it the same way.
    """
    if kind not in (KIND_DISTANCE, KIND_DSL):
        raise ValueError(f"unknown matrix kind {kind!r}; expected 'distance' or 'dsl'")
    if not len(dd.dist):
        raise SpreadlabError("the empty graph (0 vertices) has no distance matrix")
    if kind == KIND_DISTANCE:
        return dd.dist
    x = dd.dist.copy()
    np.fill_diagonal(x, x.sum(axis=1))
    x.setflags(write=False)
    return x


def spread(g: Graph, kind: str) -> SpreadReport:
    """Largest and least eigenvalue of D(G) or Q(G) and their difference."""
    return matrix_spread(distance_matrix(all_pairs_distances(g), kind), kind)


def matrix_spread(x: np.ndarray, kind: str) -> SpreadReport:
    """spread() of an already built D(G) or Q(G), the int64 array of
    distance_matrix."""
    spec = eigenvalues_symmetric(x)
    return SpreadReport(
        kind=kind,
        rho_max=spec.largest,
        rho_min=spec.least,
        spread=spec.spread,
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


def _positive(a: int, b: int) -> None:
    if a < 1 or b < 1:
        raise ValueError(f"need a, b >= 1, got ({a}, {b})")
