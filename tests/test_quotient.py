import random
from fractions import Fraction

import numpy as np
import pytest

from spreadlab import (
    InterlacingResult,
    Partition,
    Spectrum,
    SymMatrix,
    all_pairs_distances,
    block_spectrum,
    builtin,
    complete_bipartite,
    eigenvalues_symmetric,
    interlaces,
    quotient,
    spread,
)
from spreadlab.spectral import KIND_DSL, dsl_rows

from .conftest import random_connected_graph
from .test_linalg import random_symmetric


def test_partition_validation():
    with pytest.raises(ValueError, match="empty"):
        Partition(((0, 1), ()))
    with pytest.raises(ValueError, match="two blocks"):
        Partition(((0, 1), (1, 2)))
    with pytest.raises(ValueError, match="cover"):
        Partition(((0, 2),))
    p = Partition.around([1, 3], 5)
    assert p.blocks == ((1, 3), (0, 2, 4))
    assert p.sizes == (2, 3) and p.n == 5 and p.t == 2


def test_quotient_exact_rationals_on_showcase_graph():
    # the 2x2 distance quotient around the closed neighbourhood of v1
    g = builtin("G1")
    rows = all_pairs_distances(g).dist
    p = Partition.around([0, 1, 2, 3], 7)
    q = quotient(rows, p)
    assert q.entries == (
        (Fraction(9, 2), Fraction(25, 4)),
        (Fraction(25, 3), Fraction(16, 3)),
    )
    assert not q.equitable
    assert q.as_floats()[0][0] == 4.5


def test_quotient_row_sums_preserved(rng):
    # each quotient row sum equals the average row sum of its block
    for _ in range(10):
        g = random_connected_graph(rng, rng.randint(3, 8))
        rows = all_pairs_distances(g).dist
        k = rng.randint(1, g.n - 1)
        p = Partition.around(rng.sample(range(g.n), k), g.n)
        q = quotient(rows, p)
        for bi, row in zip(p.blocks, q.entries):
            want = Fraction(sum(sum(rows[u]) for u in bi), len(bi))
            assert sum(row) == want


def test_quotient_equitable_flag():
    # K_{2,2} with the bipartition blocks is an equitable partition of D
    g = complete_bipartite(2, 2)
    q = quotient(all_pairs_distances(g).dist, Partition.of([0, 1], [2, 3]))
    assert q.equitable
    ev = sorted(q.eigenvalues().values)
    # equitable quotient eigenvalues are a subset of the spectrum {4, 0, -2, -2}
    assert ev == pytest.approx([0.0, 4.0], abs=1e-9)


def test_quotient_size_mismatch():
    with pytest.raises(ValueError, match="order"):
        quotient(all_pairs_distances(builtin("G1")).dist, Partition.around([0], 5))


def test_quotient_eigenvalues_match_numpy(rng):
    for _ in range(20):
        g = random_connected_graph(rng, rng.randint(3, 9))
        rows = dsl_rows(g)
        k = rng.randint(1, g.n - 1)
        p = Partition.around(rng.sample(range(g.n), k), g.n)
        q = quotient(rows, p)
        ref = sorted(np.linalg.eigvals(np.array(q.as_floats())).real)
        mine = sorted(q.eigenvalues().values)
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
        m = SymMatrix(a.tolist())
        k = rng.randint(1, n - 1)
        p = Partition.around(rng.sample(range(n), k), n)
        outer = eigenvalues_symmetric(m)
        inner = quotient(m, p).eigenvalues()
        assert interlaces(outer, inner)
    for _ in range(100):
        n = rng.randint(3, 9)
        a = random_symmetric(rng, n)
        keep = sorted(rng.sample(range(n), rng.randint(1, n - 1)))
        sub = a[np.ix_(keep, keep)]
        outer = eigenvalues_symmetric(SymMatrix(a.tolist()))
        inner = eigenvalues_symmetric(SymMatrix(sub.tolist()))
        assert interlaces(outer, inner)


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
