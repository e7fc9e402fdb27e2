import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

import spreadlab
from spreadlab import NumericError, Spectrum, SymMatrix, eigenvalues_symmetric
from spreadlab.spectral import KIND_DISTANCE, KIND_DSL, matrix_of_kind

from .conftest import eig2_real, jacobi_eigenvalues, random_connected_graph


def random_symmetric(rnd: random.Random, n: int, scale: float = 5.0) -> np.ndarray:
    a = np.array([[rnd.uniform(-scale, scale) for _ in range(n)] for _ in range(n)])
    return (a + a.T) / 2.0


def test_symmatrix_validation():
    with pytest.raises(ValueError, match="square"):
        SymMatrix([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError, match="symmetric"):
        SymMatrix([[0, 1], [5, 0]])


BIG = 2 ** 70


@pytest.mark.parametrize("rows", [
    [[0, 1], [1, 0]],                                      # ints
    ((0, 2), (2, 5)),                                      # tuples of ints
    [[False, True], [True, False]],                        # bools
    np.array([[0, 3], [3, 1]], dtype=np.int64),            # numpy ints
    np.array([[0, 3], [3, 1]], dtype=np.uint8),            # numpy unsigned ints
    [[0.0, 1.5], [1.5, 0.0]],                              # floats
    [[0, 1.5], [1.5, 0]],                                  # mixed int/float
    [[Fraction(1, 2), 1], [1, Fraction(3)]],               # Fractions and ints
    [[Fraction(1, 2), 1.0], [1.0, 0]],                     # Fraction and float
    [[0, BIG], [BIG, 1]],                                  # ints beyond int64
])
def test_symmatrix_array_by_input_kind(rows):
    assert SymMatrix(rows).array.tolist() == [[float(x) for x in row] for row in rows]


def test_symmatrix_ragged_rejected():
    with pytest.raises(ValueError):
        SymMatrix([[0, 1], [1]])
    with pytest.raises(ValueError):
        SymMatrix([[0, Fraction(1)], [Fraction(1)]])


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


@pytest.mark.parametrize("rows", [
    pytest.param([[1.0, math.nan], [math.nan, 1.0]], id="nan"),
    pytest.param([[1, math.inf], [math.inf, 1]], id="inf"),
    pytest.param([[1, -math.inf], [-math.inf, 1]], id="-inf"),
    pytest.param([[1, math.inf], [-math.inf, 1]], id="inf-and-minus-inf"),
    # finite, but its symmetrisation overflows
    pytest.param([[1.0, 1.7e308], [1.7e308, 1.0]], id="overflow"),
])
def test_non_finite_matrix_raises_numeric_error(rows):
    # LAPACK returns NaN eigenvalues here without raising; the refusal
    # itself must not warn either
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="non-finite"):
            SymMatrix(rows)


def test_lapack_failure_becomes_numeric_error(monkeypatch):
    def fail(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    with pytest.raises(NumericError, match="did not converge"):
        eigenvalues_symmetric(SymMatrix(np.eye(3)))


def test_lapack_agrees_with_jacobi_on_distance_matrices(rng):
    # seeded D(G) and Q(G), sparse and dense, n up to 64
    for n in (2, 3, 5, 8, 13, 21, 34, 64):
        for density in (0.03, 0.3):
            g = random_connected_graph(rng, n, density)
            for kind in (KIND_DISTANCE, KIND_DSL):
                m = matrix_of_kind(g, kind)
                got = eigenvalues_symmetric(m).values
                want = sorted(jacobi_eigenvalues(m.array), reverse=True)
                scale = max(1.0, abs(want[0]), abs(want[-1]))
                assert len(got) == n
                for x, y in zip(got, want):
                    assert abs(x - y) <= 1e-9 * scale, (n, density, kind)


def test_test_only_helpers_not_exported():
    for module in (spreadlab, spreadlab.linalg, spreadlab.quotient):
        for name in ("jacobi_eigenvalues", "block_spectrum"):
            assert not hasattr(module, name), (module.__name__, name)
