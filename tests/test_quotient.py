import random
from fractions import Fraction
from typing import Sequence

import numpy as np
import pytest

from spreadlab import (
    QuotientMatrix,
    Spectrum,
    all_pairs_distances,
    builtin,
    complete_bipartite,
    legacy_2012_counterexample,
    spread,
)
from spreadlab.linalg import eigenvalues_symmetric
from spreadlab.spectral import KIND_DSL

from .conftest import (
    InterlacingResult,
    around,
    interlaces,
    matrix_rows,
    quotient_eigenvalues,
    random_connected_graph,
    random_symmetric,
    reference_quotient,
)


def test_quotient_exact_rationals_on_showcase_graph():
    # the 2x2 distance quotient around the closed neighbourhood of v1, from
    # the reference and from the engine (as the legacy refutation's B2)
    g = builtin("G1")
    q = reference_quotient(all_pairs_distances(g).dist.tolist(), around([0, 1, 2, 3], 7))
    assert q.entries == (
        (Fraction(9, 2), Fraction(25, 4)),
        (Fraction(25, 3), Fraction(16, 3)),
    )
    assert not q.equitable
    assert legacy_2012_counterexample(g, 0).b2 == q


def test_quotient_row_sums_preserved(rng):
    # each quotient row sum equals the average row sum of its block
    for _ in range(10):
        g = random_connected_graph(rng, rng.randint(3, 8))
        rows = all_pairs_distances(g).dist.tolist()
        k = rng.randint(1, g.n - 1)
        blocks = around(rng.sample(range(g.n), k), g.n)
        q = reference_quotient(rows, blocks)
        for bi, row in zip(blocks, q.entries):
            want = Fraction(sum(sum(rows[u]) for u in bi), len(bi))
            assert sum(row) == want


def test_quotient_equitable_flag():
    # K_{2,2} with the bipartition blocks is an equitable partition of D
    g = complete_bipartite(2, 2)
    q = reference_quotient(all_pairs_distances(g).dist.tolist(), ([0, 1], [2, 3]))
    assert q.equitable
    ev = sorted(quotient_eigenvalues(q).values)
    # equitable quotient eigenvalues are a subset of the spectrum {4, 0, -2, -2}
    assert ev == pytest.approx([0.0, 4.0], abs=1e-9)


def test_quotient_eigenvalues_match_numpy(rng):
    for _ in range(20):
        g = random_connected_graph(rng, rng.randint(3, 9))
        rows = matrix_rows(g, KIND_DSL)
        k = rng.randint(1, g.n - 1)
        q = reference_quotient(rows, around(rng.sample(range(g.n), k), g.n))
        ref = sorted(np.linalg.eigvals(np.array(q.entries, dtype=float)).real)
        mine = sorted(quotient_eigenvalues(q).values)
        for x, y in zip(mine, ref):
            assert abs(x - y) < 1e-8


def test_interlacing_validation():
    s3 = Spectrum.from_values([3, 2, 1])
    with pytest.raises(ValueError):
        interlaces(s3, s3)


def test_interlacing_violation_reported():
    outer = Spectrum.from_values([3.0, 2.0, 1.0])
    inner = Spectrum.from_values([5.0])
    res = interlaces(outer, inner)
    assert isinstance(res, InterlacingResult)
    assert not res and res.index == 1 and res.slack == pytest.approx(2.0)


def test_quotient_interlacing_randomized(rng):
    # 100 quotient cases + 100 principal-submatrix (Cauchy) cases
    for _ in range(100):
        n = rng.randint(3, 9)
        a = random_symmetric(rng, n)
        k = rng.randint(1, n - 1)
        outer = eigenvalues_symmetric(a)
        inner = quotient_eigenvalues(reference_quotient(a, around(rng.sample(range(n), k), n)))
        assert interlaces(outer, inner)
    for _ in range(100):
        n = rng.randint(3, 9)
        a = random_symmetric(rng, n)
        keep = sorted(rng.sample(range(n), rng.randint(1, n - 1)))
        sub = a[np.ix_(keep, keep)]
        outer = eigenvalues_symmetric(a)
        inner = eigenvalues_symmetric(sub)
        assert interlaces(outer, inner)


def block_spectrum(blocks: Sequence[tuple[float, float, int]], off: Sequence[Sequence[float]]) -> Spectrum:
    """Spectrum of a block matrix with M_ii = l_i J + p_i I, M_ij = s_ij J.

    Equals the quotient spectrum joined with each p_i repeated n_i - 1 times.
    off must be symmetric; its diagonal is ignored.
    """
    t = len(blocks)
    if len(off) != t or any(len(row) != t for row in off):
        raise ValueError("off-block coefficient table has wrong shape")
    for i in range(t):
        for j in range(i + 1, t):
            if off[i][j] != off[j][i]:
                raise ValueError(f"off-block coefficients are not symmetric at ({i}, {j})")
    sizes = [ni for (_, _, ni) in blocks]
    if any(ni < 1 for ni in sizes):
        raise ValueError("block sizes must be >= 1")
    entries = tuple(
        tuple(
            Fraction(blocks[i][0]) * sizes[i] + Fraction(blocks[i][1]) if i == j else Fraction(off[i][j]) * sizes[j]
            for j in range(t)
        )
        for i in range(t)
    )
    q = QuotientMatrix(entries=entries, block_sizes=tuple(sizes), equitable=True)
    values = list(quotient_eigenvalues(q).values)
    for (_, p_i, n_i) in blocks:
        values.extend([float(p_i)] * (n_i - 1))
    return Spectrum.from_values(values)


def test_block_spectrum_vs_direct():
    # M_ii = l_i J + p_i I, M_ij = s_ij J; compare with a dense eigensolve
    blocks = [(2, 3, 3), (1, -1, 2)]
    off = [[0, 4], [4, 0]]
    sizes = [n for (_, _, n) in blocks]
    total = sum(sizes)
    m = np.zeros((total, total))
    starts = [0, sizes[0]]
    for i, (l, p, ni) in enumerate(blocks):
        si = starts[i]
        m[si:si + ni, si:si + ni] = l
        m[si:si + ni, si:si + ni] += p * np.eye(ni)
        for j in range(len(blocks)):
            if i != j:
                sj = starts[j]
                m[si:si + sizes[i], sj:sj + sizes[j]] = off[i][j]
    want = sorted(np.linalg.eigvalsh(m))
    got = sorted(block_spectrum(blocks, off).values)
    for x, y in zip(got, want):
        assert abs(x - y) < 1e-9


def test_block_spectrum_models_kab():
    # Q(K_{2,3}) is block-structured; the spec-side spectrum must match
    a, b = 2, 3
    got = block_spectrum(
        [(2, 2 * (a - 1) + b - 2, a), (2, 2 * (b - 1) + a - 2, b)],
        [[0, 1], [1, 0]],
    )
    want = spread(complete_bipartite(a, b), KIND_DSL).spectrum
    for x, y in zip(got.values, want.values):
        assert abs(x - y) < 1e-8


def test_block_spectrum_validation():
    with pytest.raises(ValueError, match="shape"):
        block_spectrum([(1, 1, 2)], [[0, 1], [1, 0]])
    with pytest.raises(ValueError, match="symmetric"):
        block_spectrum([(1, 1, 2), (1, 1, 2)], [[0, 1], [2, 0]])
    with pytest.raises(ValueError, match="sizes"):
        block_spectrum([(1, 1, 0), (1, 1, 2)], [[0, 1], [1, 0]])
