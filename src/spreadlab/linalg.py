"""Dense real-symmetric eigensolver (cyclic Jacobi).

Matrix orders in this project are small (enumeration at n <= 10, CLI use up
to a few hundred vertices), so the plain cyclic Jacobi iteration is both
adequate and provably convergent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NumericError

DEFAULT_TOL = 1e-12
GROUP_TOL = 1e-8
MAX_SWEEPS = 100


class SymMatrix:
    """Real symmetric matrix.

    Construction symmetrises the input; an exact integer/rational backing is
    kept when the input entries are exact, so quotient matrices can be formed
    without floating-point noise.
    """

    __slots__ = ("n", "array", "rows_exact")

    def __init__(self, rows: Sequence[Sequence], _check_tol: float = 1e-9):
        arr = np.array(rows, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {arr.shape}")
        scale = max(1.0, float(np.abs(arr).max(initial=0.0)))
        if float(np.abs(arr - arr.T).max(initial=0.0)) > _check_tol * scale:
            raise ValueError("matrix is not symmetric")
        self.n = arr.shape[0]
        self.array = (arr + arr.T) / 2.0
        self.array.setflags(write=False)
        exact = all(isinstance(x, (int, np.integer)) or getattr(x, "denominator", None) is not None
                    for row in rows for x in row)
        self.rows_exact = tuple(tuple(row) for row in rows) if exact else None

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

    def multiplicities(self, tau: float = GROUP_TOL) -> list[tuple[float, int]]:
        """Group near-equal eigenvalues; each group reports its mean value."""
        groups: list[tuple[float, int]] = []
        run: list[float] = []
        for v in self.values:
            if run and abs(run[-1] - v) > tau:
                groups.append((sum(run) / len(run), len(run)))
                run = []
            run.append(v)
        if run:
            groups.append((sum(run) / len(run), len(run)))
        return groups

    @staticmethod
    def from_values(values) -> "Spectrum":
        return Spectrum(tuple(sorted((float(v) for v in values), reverse=True)))


def _off_norm(a: np.ndarray) -> float:
    # summing the squared off-diagonal entries directly avoids the
    # cancellation that |A|_F^2 - |diag|^2 suffers near convergence
    off = a.copy()
    np.fill_diagonal(off, 0.0)
    return float(np.linalg.norm(off))


def jacobi_eigenvalues(a: np.ndarray, tol: float = DEFAULT_TOL, max_sweeps: int = MAX_SWEEPS) -> np.ndarray:
    """Eigenvalues of a symmetric array by cyclic Jacobi rotations.

    Iterates full sweeps until the off-diagonal Frobenius norm drops below
    tol * ||A||_F.
    """
    a = np.array(a, dtype=float)
    n = a.shape[0]
    if n <= 1:
        return np.diag(a).copy() if n else np.array([])
    fro = float(np.linalg.norm(a))
    if fro == 0.0:
        return np.zeros(n)
    threshold = tol * fro
    for _ in range(max_sweeps):
        off = _off_norm(a)
        if off < threshold:
            return np.diag(a).copy()
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= threshold / (n * n):
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(1.0, theta))
                c = 1.0 / math.hypot(1.0, t)
                s = t * c
                rp = a[p, :].copy()
                rq = a[q, :].copy()
                a[p, :] = c * rp - s * rq
                a[q, :] = s * rp + c * rq
                cp = a[:, p].copy()
                cq = a[:, q].copy()
                a[:, p] = c * cp - s * cq
                a[:, q] = s * cp + c * cq
                a[p, q] = a[q, p] = 0.0
    off = _off_norm(a)
    if off < threshold:
        return np.diag(a).copy()
    raise NumericError(f"Jacobi iteration did not converge in {max_sweeps} sweeps (off-diagonal {off:.3e})")


def eigenvalues_symmetric(m: SymMatrix, tol: float = DEFAULT_TOL) -> Spectrum:
    """All eigenvalues of a SymMatrix, sorted descending."""
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    return Spectrum.from_values(jacobi_eigenvalues(m.array, tol=tol))
