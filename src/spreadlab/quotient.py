"""Quotient matrices.

Every bound in the paper is read off a 2x2 quotient matrix around one witness
set; its eigenvalues interlace those of the whole matrix (Haemers, 1995),
which is what makes the quotient's spread a lower bound. The bound engine in
bounds.py forms each QuotientMatrix exactly from integer block sums. The
interlacing itself is checked by the test suite, not at run time.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class QuotientMatrix:
    """Average-row-sum quotient of a partitioned matrix.

    entries[i][j] is the sum of the (i,j) block divided by the i-th block
    size; equitable is true when every block row sum is constant.
    """

    entries: tuple[tuple[Fraction, ...], ...]
    block_sizes: tuple[int, ...]
    equitable: bool
