import math

import numpy as np
import pytest

import spreadlab
from spreadlab import NumericError, Spectrum, all_pairs_distances
from spreadlab.linalg import eigenvalues_symmetric
from spreadlab.spectral import KIND_DISTANCE, KIND_DSL, distance_matrix

from .conftest import eig2_real, jacobi_eigenvalues, random_connected_graph, random_symmetric


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
    s = eigenvalues_symmetric(np.eye(4, dtype=np.int64))
    assert all(abs(v - 1.0) < 1e-12 for v in s.values)


def test_lapack_failure_becomes_numeric_error(monkeypatch):
    def fail(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    with pytest.raises(NumericError, match="did not converge"):
        eigenvalues_symmetric(np.eye(3, dtype=np.int64))


def test_lapack_agrees_with_jacobi_on_distance_matrices(rng):
    # seeded D(G) and Q(G), sparse and dense, n up to 64
    for n in (2, 3, 5, 8, 13, 21, 34, 64):
        for density in (0.03, 0.3):
            g = random_connected_graph(rng, n, density)
            for kind in (KIND_DISTANCE, KIND_DSL):
                m = distance_matrix(all_pairs_distances(g), kind)
                got = eigenvalues_symmetric(m).values
                want = sorted(jacobi_eigenvalues(m), reverse=True)
                scale = max(1.0, abs(want[0]), abs(want[-1]))
                assert len(got) == n
                for x, y in zip(got, want):
                    assert abs(x - y) <= 1e-9 * scale, (n, density, kind)


def test_test_only_helpers_not_exported():
    for module in (spreadlab, spreadlab.linalg, spreadlab.quotient):
        for name in ("jacobi_eigenvalues", "block_spectrum"):
            assert not hasattr(module, name), (module.__name__, name)
    # the general matrix layer is gone, and the interlacing check and the
    # internal distance sums are test oracles kept in tests/conftest.py
    removed = {
        spreadlab.linalg: ("SymMatrix", "SYMMETRY_TOL"),
        spreadlab.spectral: ("matrix_of_kind",),
        spreadlab.quotient: ("interlaces", "InterlacingResult", "INTERLACING_TOL"),
        spreadlab.structures: ("cycle_internal_sum", "path_internal_sum"),
    }
    for module, names in removed.items():
        for name in names:
            assert not hasattr(module, name), (module.__name__, name)
            assert not hasattr(spreadlab, name), name
    assert not hasattr(spreadlab, "eigenvalues_symmetric")
    assert not hasattr(Spectrum, "n")
