import math
import random

import numpy as np
import pytest

from spreadlab import NumericError, Spectrum, SymMatrix, eigenvalues_symmetric, jacobi_eigenvalues
from spreadlab.linalg import eig2_real


def random_symmetric(rnd: random.Random, n: int, scale: float = 5.0) -> np.ndarray:
    a = np.array([[rnd.uniform(-scale, scale) for _ in range(n)] for _ in range(n)])
    return (a + a.T) / 2.0


def test_symmatrix_validation():
    with pytest.raises(ValueError, match="square"):
        SymMatrix([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError, match="symmetric"):
        SymMatrix([[0, 1], [5, 0]])


def test_symmatrix_exact_backing():
    m = SymMatrix([[0, 1], [1, 0]])
    assert m.rows_exact == ((0, 1), (1, 0))
    m = SymMatrix([[0.0, 1.5], [1.5, 0.0]])
    assert m.rows_exact is None


def test_jacobi_matches_numpy_oracle(rng):
    for _ in range(40):
        n = rng.randint(1, 12)
        a = random_symmetric(rng, n)
        mine = sorted(jacobi_eigenvalues(a))
        ref = sorted(np.linalg.eigvalsh(a))
        for x, y in zip(mine, ref):
            assert abs(x - y) <= 1e-9 * max(1.0, abs(y))


def test_jacobi_trivial_and_zero():
    assert list(jacobi_eigenvalues(np.zeros((3, 3)))) == [0.0, 0.0, 0.0]
    assert list(jacobi_eigenvalues(np.array([[4.0]]))) == [4.0]
    assert list(jacobi_eigenvalues(np.empty((0, 0)))) == []


def test_jacobi_distance_like_integer_matrices(rng):
    # integer matrices with repeated eigenvalues, the shape the library feeds it
    for _ in range(20):
        n = rng.randint(2, 10)
        a = np.array([[0 if i == j else rng.randint(1, 4) for j in range(n)] for i in range(n)], float)
        a = np.floor((a + a.T) / 2)
        mine = sorted(jacobi_eigenvalues(a))
        ref = sorted(np.linalg.eigvalsh(a))
        for x, y in zip(mine, ref):
            assert abs(x - y) <= 1e-8


def test_trace_and_frobenius_identities(rng):
    for _ in range(20):
        n = rng.randint(2, 9)
        a = random_symmetric(rng, n)
        ev = jacobi_eigenvalues(a)
        assert abs(sum(ev) - np.trace(a)) <= 1e-9 * max(1.0, abs(np.trace(a)))
        assert abs(math.sqrt(sum(v * v for v in ev)) - np.linalg.norm(a)) <= 1e-9 * np.linalg.norm(a)


def test_spectrum_ordering_and_multiplicities():
    s = Spectrum.from_values([1.0, 3.0, 3.0 + 1e-10, -2.0])
    assert s.values[0] >= s.values[-1]
    assert s.largest == max(s.values) and s.least == min(s.values)
    groups = s.multiplicities()
    assert [m for _, m in groups] == [2, 1, 1]


def test_eig2_real():
    hi, lo = eig2_real([[2.0, 1.0], [1.0, 2.0]])
    assert abs(hi - 3.0) < 1e-12 and abs(lo - 1.0) < 1e-12
    # non-symmetric but real-spectrum (a quotient-matrix shape)
    hi, lo = eig2_real([[4.5, 6.25], [25.0 / 3.0, 16.0 / 3.0]])
    a = np.array([[4.5, 6.25], [25.0 / 3.0, 16.0 / 3.0]])
    ref = sorted(np.linalg.eigvals(a).real)
    assert abs(lo - ref[0]) < 1e-9 and abs(hi - ref[1]) < 1e-9
    with pytest.raises(NumericError):
        eig2_real([[0.0, -1.0], [1.0, 0.0]])


def test_eig2_agrees_with_jacobi_on_symmetric(rng):
    for _ in range(50):
        m = random_symmetric(rng, 2)
        hi, lo = eig2_real(m.tolist())
        ev = sorted(jacobi_eigenvalues(m))
        assert abs(lo - ev[0]) < 1e-10 and abs(hi - ev[1]) < 1e-10


def test_identity_spectrum():
    s = eigenvalues_symmetric(SymMatrix(np.eye(4)))
    assert all(abs(v - 1.0) < 1e-12 for v in s.values)


def test_bad_tolerance_rejected():
    with pytest.raises(ValueError):
        eigenvalues_symmetric(SymMatrix(np.eye(2)), tol=0.0)
