"""Vertex partitions, quotient matrices and the interlacing check.

Quotient entries are exact rationals whenever the source matrix has exact
entries; eigenvalues of a (generally non-symmetric) quotient of a symmetric
matrix are obtained through the similarity transform
diag(sqrt(n_i)) B diag(1/sqrt(n_i)), which is symmetric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .linalg import Spectrum, SymMatrix, eigenvalues_symmetric


@dataclass(frozen=True)
class Partition:
    """Ordered list of disjoint nonempty vertex blocks covering 0..n-1."""

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        seen: set[int] = set()
        for block in self.blocks:
            if not block:
                raise ValueError("partition block is empty")
            for v in block:
                if v in seen:
                    raise ValueError(f"vertex {v} appears in two blocks")
                seen.add(v)
        if seen != set(range(len(seen))):
            raise ValueError("partition does not cover 0..n-1")

    @property
    def n(self) -> int:
        return sum(len(b) for b in self.blocks)

    @property
    def t(self) -> int:
        return len(self.blocks)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.blocks)

    @staticmethod
    def of(*blocks) -> "Partition":
        return Partition(tuple(tuple(sorted(b)) for b in blocks))

    @staticmethod
    def around(vertices, n: int) -> "Partition":
        """Two-block partition: the given vertex set, then the rest."""
        inside = tuple(sorted(vertices))
        members = set(inside)
        outside = tuple(v for v in range(n) if v not in members)
        return Partition((inside, outside))


@dataclass(frozen=True)
class QuotientMatrix:
    """Average-row-sum quotient of a partitioned matrix.

    entries[i][j] is the sum of the (i,j) block divided by the i-th block
    size; equitable is true when every block row sum is constant.
    """

    entries: tuple[tuple[Fraction, ...], ...]
    block_sizes: tuple[int, ...]
    equitable: bool

    @property
    def t(self) -> int:
        return len(self.block_sizes)

    def as_floats(self) -> list[list[float]]:
        return [[float(x) for x in row] for row in self.entries]

    def eigenvalues(self) -> Spectrum:
        """Eigenvalues via the symmetric similarity diag(sqrt(n_i)) scaling.

        Real whenever the source matrix was symmetric.
        """
        roots = [math.sqrt(s) for s in self.block_sizes]
        return eigenvalues_symmetric(SymMatrix([
            [float(self.entries[i][j]) * roots[i] / roots[j] for j in range(self.t)]
            for i in range(self.t)
        ]))


def _exact_rows(m) -> Sequence[Sequence]:
    if isinstance(m, SymMatrix):
        return m.rows_exact if m.rows_exact is not None else m.array.tolist()
    return m


def quotient(m, p: Partition) -> QuotientMatrix:
    """Quotient matrix of m (SymMatrix or row sequence) w.r.t. partition p."""
    rows = _exact_rows(m)
    n = len(rows)
    if p.n != n:
        raise ValueError(f"partition covers {p.n} indices but matrix has order {n}")
    entries = []
    equitable = True
    for bi in p.blocks:
        row_entries = []
        for bj in p.blocks:
            row_sums = [sum(rows[u][v] for v in bj) for u in bi]
            total = sum(row_sums)
            row_entries.append(Fraction(total, len(bi)) if isinstance(total, int) else Fraction(total) / len(bi))
            if any(rs != row_sums[0] for rs in row_sums[1:]):
                equitable = False
        entries.append(tuple(row_entries))
    return QuotientMatrix(entries=tuple(entries), block_sizes=p.sizes, equitable=equitable)


@dataclass(frozen=True)
class InterlacingResult:
    """Outcome of interlaces(); falsy on a violation, which it locates."""

    ok: bool
    index: int | None = None
    slack: float | None = None

    def __bool__(self) -> bool:
        return self.ok


def interlaces(outer: Spectrum, inner: Spectrum, tol: float = 1e-8) -> InterlacingResult:
    """Check lambda_i + tol >= mu_i >= lambda_{n-m+i} - tol for all i.

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
        if mu > lam_hi + tol:
            return InterlacingResult(False, index=i + 1, slack=mu - lam_hi)
        if mu < lam_lo - tol:
            return InterlacingResult(False, index=i + 1, slack=lam_lo - mu)
    return InterlacingResult(True)
