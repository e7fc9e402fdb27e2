import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import networkx as nx
import numpy as np
import pytest

from spreadlab import (
    KIND_DSL,
    Graph,
    NumericError,
    QuotientMatrix,
    Spectrum,
    all_pairs_distances,
    is_connected,
)
from spreadlab.linalg import eigenvalues_symmetric

JACOBI_TOL = 1e-12
MAX_SWEEPS = 100
INTERLACING_TOL = 1e-8


def random_connected_graph(rng: random.Random, n: int, extra_edge_prob: float = 0.3) -> Graph:
    """Random connected graph: a random spanning tree plus random extra edges."""
    edges = set()
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        u = order[i]
        v = order[rng.randrange(i)]
        edges.add((min(u, v), max(u, v)))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < extra_edge_prob:
                edges.add((u, v))
    g = Graph(n, edges)
    assert is_connected(g)
    return g


def edges_of(g: Graph) -> list[tuple[int, int]]:
    """The edges u < v of g in ascending order, read off its adjacency array."""
    return [tuple(e) for e in np.argwhere(np.triu(g.adj)).tolist()]


def random_symmetric(rnd: random.Random, n: int, scale: float = 5.0) -> np.ndarray:
    """Random real symmetric n x n array, entries uniform in [-scale, scale]."""
    a = np.array([[rnd.uniform(-scale, scale) for _ in range(n)] for _ in range(n)])
    return (a + a.T) / 2.0


def random_connected_bipartite(rng: random.Random, n: int) -> Graph:
    """Random connected bipartite graph on n >= 2 vertices."""
    while True:
        a = rng.randint(1, n - 1)
        b = n - a
        edges = {(i, a + rng.randrange(b)) for i in range(a)}
        for j in range(b):
            edges.add((rng.randrange(a), a + j))
        for i in range(a):
            for j in range(b):
                if rng.random() < 0.3:
                    edges.add((i, a + j))
        g = Graph(n, edges)
        if is_connected(g):
            return g


def names_balanced_complete_bipartite(g6: str) -> bool:
    """Whether a graph6 string names K_{floor(n/2), ceil(n/2)}: read by
    networkx and compared with its VF2 isomorphism test, which share no code
    with spreadlab."""
    g = nx.from_graph6_bytes(g6.encode())
    n = g.number_of_nodes()
    return nx.is_isomorphic(g, nx.complete_bipartite_graph(n // 2, n - n // 2))


def random_cactus(rng: random.Random, n: int) -> Graph:
    """Random cactus: repeatedly glue a pendant edge or a cycle at a vertex."""
    edges = []
    built = 1
    while built < n:
        attach = rng.randrange(built)
        room = n - built
        if room >= 2 and rng.random() < 0.6:
            length = rng.randint(3, min(room + 1, 6))
            prev = attach
            for _ in range(length - 1):
                edges.append((prev, built))
                prev = built
                built += 1
            edges.append((prev, attach))
        else:
            edges.append((attach, built))
            built += 1
    return Graph(n, edges)


def relabelled(rng: random.Random, g: Graph) -> Graph:
    """g with its vertices renamed by a random permutation."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in edges_of(g)])


def kite_by_lists(n: int, omega: int) -> Graph:
    """kite(n, omega) built edge by edge from Python lists, as an oracle for
    the array construction."""
    edges = [(u, v) for v in range(omega) for u in range(v)]
    prev = 0
    for v in range(omega, n):
        edges.append((prev, v))
        prev = v
    return Graph(n, edges)


def eig2_real(b: Sequence[Sequence[float]]) -> tuple[float, float]:
    """Roots of the characteristic polynomial of a 2x2 matrix, largest first.

    The matrix need not be symmetric, but its eigenvalues must be real
    (nonnegative discriminant).
    """
    (b11, b12), (b21, b22) = b
    tr = float(b11) + float(b22)
    det = float(b11) * float(b22) - float(b12) * float(b21)
    disc = tr * tr - 4.0 * det
    if disc < 0:
        if disc < -1e-12 * max(1.0, tr * tr):
            raise NumericError(f"2x2 matrix has complex eigenvalues (discriminant {disc:.3e})")
        disc = 0.0
    root = math.sqrt(disc)
    return (tr + root) / 2.0, (tr - root) / 2.0


def around(inside, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Two blocks of 0..n-1: the given vertex set sorted, then the rest."""
    inside = tuple(sorted(inside))
    return inside, tuple(v for v in range(n) if v not in inside)


def matrix_rows(g: Graph, kind: str) -> list[list[int]]:
    """Python-int rows of D(G) for kind 'distance' or Q(G) = Tr(G) + D(G) for
    kind 'dsl', with Tr(G) added outside numpy, for the references below."""
    dd = all_pairs_distances(g)
    return [[d + (dd.trans[i] if kind == KIND_DSL and i == j else 0) for j, d in enumerate(row)]
            for i, row in enumerate(dd.dist.tolist())]


def reference_quotient(rows, blocks: Sequence[Sequence[int]]) -> QuotientMatrix:
    """Average-row-sum quotient of a matrix over any number of blocks, in exact
    Fractions, with the equitable flag.

    The general t-block reference the engine's 2x2 quotients are checked
    against. It sums every block row entry by entry, where the engine works
    from the rows of one block and the row totals.
    """
    entries = []
    equitable = True
    for bi in blocks:
        row_entries = []
        for bj in blocks:
            row_sums = [sum(rows[u][v] for v in bj) for u in bi]
            row_entries.append(Fraction(sum(row_sums)) / len(bi))
            equitable = equitable and len(set(row_sums)) == 1
        entries.append(tuple(row_entries))
    return QuotientMatrix(tuple(entries), tuple(len(b) for b in blocks), equitable)


def quotient_eigenvalues(q: QuotientMatrix) -> Spectrum:
    """Eigenvalues of a quotient of a symmetric matrix, through the symmetric
    similarity diag(sqrt(n_i)) B diag(1/sqrt(n_i)); real whenever the source
    matrix was symmetric."""
    roots = [math.sqrt(s) for s in q.block_sizes]
    return eigenvalues_symmetric(np.array([
        [float(x) * roots[i] / roots[j] for j, x in enumerate(row)] for i, row in enumerate(q.entries)
    ]))


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
    n, m = len(outer.values), len(inner.values)
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


def cycle_internal_sum(l: int) -> int:
    """Distance sum from one vertex of C_l to the others: l^2/4 for even l,
    (l^2 - 1)/4 for odd l."""
    if l < 3:
        raise ValueError(f"cycle length must be >= 3, got {l}")
    return l * l // 4 if l % 2 == 0 else (l * l - 1) // 4


def path_internal_sum(d: int) -> int:
    """Ordered-pair distance sum over a geodesic with d edges:
    d(d+1)(d+2)/3."""
    if d < 1:
        raise ValueError(f"path length must be >= 1, got {d}")
    return d * (d + 1) * (d + 2) // 3


def _off_norm(a: np.ndarray) -> float:
    # summing the squared off-diagonal entries directly avoids the
    # cancellation that |A|_F^2 - |diag|^2 suffers near convergence
    off = a.copy()
    np.fill_diagonal(off, 0.0)
    return float(np.linalg.norm(off))


def jacobi_eigenvalues(a: np.ndarray, tol: float = JACOBI_TOL, max_sweeps: int = MAX_SWEEPS) -> np.ndarray:
    """Eigenvalues of a symmetric array by cyclic Jacobi rotations.

    An oracle that shares no code with LAPACK: it iterates full sweeps until
    the off-diagonal Frobenius norm drops below tol * ||A||_F.
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


@pytest.fixture
def rng():
    return random.Random(20260824)
