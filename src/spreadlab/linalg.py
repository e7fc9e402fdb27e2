"""Spectra and the one eigensolver.

Every spread is the difference of the extreme eigenvalues of an integer
symmetric matrix, D(G) or Q(G), which spectral.distance_matrix builds as a
read-only int64 array. Its spectrum comes from LAPACK's symmetric solver
(?syevd, through numpy.linalg.eigvalsh) on that array as it is: the entries
are integers below 2^53, so numpy's float64 copy is the matrix exactly. A
stack of such matrices, as the conjecture search solves, goes through the
same call. The test suite checks the solver against an independent cyclic
Jacobi iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError

GROUP_TOL = 1e-8


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalue multiset, sorted descending."""

    values: tuple[float, ...]

    @property
    def largest(self) -> float:
        return self.values[0]

    @property
    def least(self) -> float:
        return self.values[-1]

    @property
    def spread(self) -> float:
        return self.values[0] - self.values[-1]

    def multiplicities(self) -> list[tuple[float, int]]:
        """Group eigenvalues less than GROUP_TOL apart; each group reports its
        mean value."""
        groups: list[tuple[float, int]] = []
        run: list[float] = []
        for v in self.values:
            if run and abs(run[-1] - v) > GROUP_TOL:
                groups.append((sum(run) / len(run), len(run)))
                run = []
            run.append(v)
        if run:
            groups.append((sum(run) / len(run), len(run)))
        return groups

    @staticmethod
    def from_values(values) -> "Spectrum":
        return Spectrum(tuple(sorted((float(v) for v in values), reverse=True)))


def eigenvalues_symmetric(x: np.ndarray) -> Spectrum:
    """All eigenvalues of a symmetric array, such as the int64 D(G) or Q(G)
    of spectral.distance_matrix, sorted descending.

    Raises NumericError when LAPACK does not converge.
    """
    return Spectrum.from_values(_eigvalsh(x))


def _eigvalsh(x: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a symmetric array, or of each matrix in a
    (..., n, n) stack; raises NumericError when LAPACK does not converge."""
    try:
        return np.linalg.eigvalsh(x)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"symmetric eigensolver failed: {exc}") from None
