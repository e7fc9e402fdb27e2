"""Quotient matrices and the interlacing check.

Every bound in the paper is read off a 2x2 quotient matrix around one witness
set; its eigenvalues interlace those of the whole matrix (Haemers, 1995),
which is what makes the quotient's spread a lower bound. The bound engine in
bounds.py forms each QuotientMatrix exactly from integer block sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .linalg import Spectrum

INTERLACING_TOL = 1e-8


@dataclass(frozen=True)
class QuotientMatrix:
    """Average-row-sum quotient of a partitioned matrix.

    entries[i][j] is the sum of the (i,j) block divided by the i-th block
    size; equitable is true when every block row sum is constant.
    """

    entries: tuple[tuple[Fraction, ...], ...]
    block_sizes: tuple[int, ...]
    equitable: bool


@dataclass(frozen=True)
class InterlacingResult:
    """Outcome of interlaces(); falsy on a violation, which it locates."""

    ok: bool
    index: int | None = None
    slack: float | None = None

    def __bool__(self) -> bool:
        return self.ok


def interlaces(outer: Spectrum, inner: Spectrum) -> InterlacingResult:
    """Check lambda_i + tol >= mu_i >= lambda_{n-m+i} - tol for all i, with
    tol = INTERLACING_TOL.

    This is the interlacing the paper's quotient bounds rest on: the
    eigenvalues mu of a quotient matrix (or of a principal submatrix)
    interlace the eigenvalues lambda of the matrix itself, so the extreme
    quotient eigenvalues bound the spread from below. Both spectra must be
    sorted descending with len(inner) < len(outer). On failure reports the
    first violating index (1-based) and the slack.
    """
    n, m = outer.n, inner.n
    if m >= n:
        raise ValueError(f"inner spectrum must be strictly smaller, got m={m} >= n={n}")
    for i in range(m):
        lam_hi = outer.values[i]
        lam_lo = outer.values[n - m + i]
        mu = inner.values[i]
        if mu > lam_hi + INTERLACING_TOL:
            return InterlacingResult(False, index=i + 1, slack=mu - lam_hi)
        if mu < lam_lo - INTERLACING_TOL:
            return InterlacingResult(False, index=i + 1, slack=lam_lo - mu)
    return InterlacingResult(True)
