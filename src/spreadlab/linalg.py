"""Dense real-symmetric matrices, spectra and the one eigensolver.

Every spread is the difference of the extreme eigenvalues of an integer
symmetric matrix, D(G) or Q(G). All of them, and the spectra of symmetrised
quotient matrices, come from LAPACK's symmetric solver (?syevd, through
numpy.linalg.eigvalsh). The test suite checks it against an independent
cyclic Jacobi iteration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NumericError

GROUP_TOL = 1e-8
SYMMETRY_TOL = 1e-9


class SymMatrix:
    """Real symmetric matrix, held as a read-only float array.

    Construction checks symmetry and symmetrises the input. Exact quotients
    are formed from the int64 D(G) or Q(G) the matrix was built from, not
    from it.
    """

    __slots__ = ("n", "array")

    def __init__(self, rows: Sequence[Sequence]):
        arr = np.array(rows, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {arr.shape}")
        # a non-finite entry, or one whose symmetrisation overflows, is
        # refused here: LAPACK would return NaNs for it without complaint.
        # inf - inf and the overflow itself are expected, so they do not warn.
        with np.errstate(invalid="ignore", over="ignore"):
            sym = (arr + arr.T) / 2.0
            skew = float(np.abs(arr - arr.T).max(initial=0.0))
        if not np.isfinite(sym).all():
            raise NumericError(f"matrix of order {arr.shape[0]} has a non-finite entry")
        if skew > SYMMETRY_TOL * max(1.0, float(np.abs(arr).max(initial=0.0))):
            raise ValueError("matrix is not symmetric")
        self.n = arr.shape[0]
        self.array = sym
        self.array.setflags(write=False)

    def __repr__(self):
        return f"SymMatrix(n={self.n})"


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalue multiset, sorted descending."""

    values: tuple[float, ...]

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def largest(self) -> float:
        return self.values[0]

    @property
    def least(self) -> float:
        return self.values[-1]

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


def eigenvalues_symmetric(m: SymMatrix) -> Spectrum:
    """All eigenvalues of a SymMatrix, sorted descending.

    Raises NumericError when LAPACK does not converge; a non-finite entry is
    already refused when the SymMatrix is built.
    """
    try:
        values = np.linalg.eigvalsh(m.array)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"symmetric eigensolver failed: {exc}") from None
    return Spectrum.from_values(values)
