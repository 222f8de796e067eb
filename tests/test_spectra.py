import numpy as np
import pytest

from loopwalk.model import ConfigError, DeviceConfig, NumericError
from loopwalk.spectra import (
    build_circulant,
    build_tridiagonal,
    coupling_for,
    eigen_circulant,
    eigen_numeric,
    eigen_tridiagonal,
    eigensystem_for,
)

# Frozen small cases, worked by hand.
# Open chain N=3, g=1: lambda_j = 2 cos(j pi / 4) -> (sqrt 2, 0, -sqrt 2).
# Ring N=4, g=(0,1,0,1): lambda_j = 2 cos(pi (j-1) / 2) summed over both
# neighbours -> (2, 0, -2, 0).
# Ring N=3, g=(0,1,1): (2, -1, -1).

SQRT2 = np.sqrt(2.0)


def test_tridiagonal_three_modes():
    es = eigen_tridiagonal(3)
    assert np.allclose(es.eigenvalues, [SQRT2, 0.0, -SQRT2], atol=1e-14)


def test_tridiagonal_omega_shifts_spectrum():
    es = eigen_tridiagonal(5, omega=3.0)
    base = eigen_tridiagonal(5)
    assert np.allclose(es.eigenvalues, base.eigenvalues + 3.0, atol=1e-14)
    assert np.allclose(es.eigenvectors, base.eigenvectors)


def test_circulant_four_modes():
    es = eigen_circulant(4, (0.0, 1.0, 0.0, 1.0))
    assert np.allclose(es.eigenvalues, [2.0, 0.0, -2.0, 0.0], atol=1e-14)


def test_circulant_three_mode_ring():
    es = eigen_circulant(3, (0.0, 1.0, 1.0))
    assert np.allclose(es.eigenvalues, [2.0, -1.0, -1.0], atol=1e-14)


@pytest.mark.parametrize("n", [2, 3, 8, 21, 32])
def test_tridiagonal_reconstructs(n):
    es = eigen_tridiagonal(n, omega=0.7, g=1.3)
    cm = build_tridiagonal(n, omega=0.7, g=1.3)
    assert es.reconstruction_error(cm) < 1e-10


@pytest.mark.parametrize("n", [3, 4, 12, 21])
def test_circulant_reconstructs(n):
    rng = np.random.default_rng(n)
    g = np.zeros(n)
    g[0] = rng.normal()
    for j in range(1, n // 2 + 1):
        val = rng.normal()
        g[j] = val
        g[n - j] = val
    es = eigen_circulant(n, g)
    cm = build_circulant(n, g)
    assert es.reconstruction_error(cm) < 1e-10


def test_circulant_matrix_layout():
    cm = build_circulant(4, (0.0, 1.0, 0.5, 1.0))
    # row r is the generator right-shifted by r
    assert np.array_equal(cm.g[0], [0.0, 1.0, 0.5, 1.0])
    assert np.array_equal(cm.g[1], [1.0, 0.0, 1.0, 0.5])
    assert np.array_equal(cm.g, cm.g.T)


def test_circulant_rejects_asymmetric_generator():
    with pytest.raises(ConfigError, match="circulant symmetry"):
        build_circulant(4, (0.0, 1.0, 0.0, 2.0))
    with pytest.raises(ConfigError, match="circulant symmetry"):
        eigen_circulant(4, (0.0, 1.0, 0.0, 2.0))


# ---- numeric route vs closed forms ----------------------------------------


@pytest.mark.parametrize("n", [2, 5, 13, 32])
def test_jacobi_matches_tridiagonal(n):
    es_closed = eigen_tridiagonal(n)
    es_num = eigen_numeric(build_tridiagonal(n))
    assert np.allclose(
        np.sort(es_closed.eigenvalues), es_num.eigenvalues, atol=1e-10
    )
    assert es_num.reconstruction_error(build_tridiagonal(n)) < 1e-10


def test_jacobi_matches_circulant():
    g = (0.0, 1.0, 0.3, 0.0, 0.3, 1.0)
    es_closed = eigen_circulant(6, g)
    es_num = eigen_numeric(build_circulant(6, g))
    assert np.allclose(np.sort(es_closed.eigenvalues), es_num.eigenvalues, atol=1e-10)


def test_jacobi_random_matrices():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = int(rng.integers(2, 12))
        a = rng.normal(size=(n, n))
        g = a + a.T
        es = eigen_numeric(g)
        assert es.reconstruction_error(g) < 1e-10
        assert np.allclose(es.eigenvalues, np.linalg.eigvalsh(g), atol=1e-10)


def test_numeric_solver_failure_is_numeric_error(monkeypatch):
    def no_convergence(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", no_convergence)
    with pytest.raises(NumericError, match="did not converge"):
        eigen_numeric(build_tridiagonal(8))


def test_jacobi_requires_symmetry():
    with pytest.raises(ConfigError):
        eigen_numeric(np.array([[0.0, 1.0], [0.0, 0.0]]))


# ---- device dispatch ----------------------------------------------------------


def test_coupling_for_chain_topologies():
    for topo in ("cylinder", "moebius"):
        cfg = DeviceConfig(topology=topo, n_modes=4, theta=0.3, omega=0.5)
        g = coupling_for(cfg).g
        assert np.allclose(np.diag(g), 0.5)
        assert g[0, 1] == 1.0 and g[0, 2] == 0.0


def test_coupling_for_twisted_folds_omega():
    cfg = DeviceConfig(
        topology="twisted_circle",
        n_modes=4,
        theta=0.3,
        omega=2.0,
        shift_c=1,
        g_vector=(0.0, 1.0, 0.0, 1.0),
    )
    g = coupling_for(cfg).g
    assert np.allclose(np.diag(g), 2.0)
    es = eigensystem_for(cfg)
    assert np.allclose(np.sort(es.eigenvalues), np.sort(np.linalg.eigvalsh(g)), atol=1e-12)


def test_eigensystem_for_custom_uses_numeric_route():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(5, 5))
    g = a + a.T
    cfg = DeviceConfig(
        topology="custom",
        n_modes=5,
        theta=0.2,
        custom_g=g,
        custom_perm=(2, 3, 4, 5, 1),
    )
    es = eigensystem_for(cfg)
    assert es.reconstruction_error(g) < 1e-10


def test_tridiagonal_natural_order_is_descending():
    # j = 1..N gives cos arguments marching from near 0 to near pi
    es = eigen_tridiagonal(7)
    assert np.all(np.diff(es.eigenvalues) < 0)
    # middle mode of an odd chain sits exactly at omega
    assert abs(es.eigenvalues[3]) < 1e-12
