import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopwalk.model import Permutation
from loopwalk.propagate import compose, order, permute_modes, transfer_matrix
from loopwalk.spectra import eigen_circulant, eigen_tridiagonal


def test_transfer_is_unitary():
    es = eigen_tridiagonal(9)
    u = transfer_matrix(es, 1.7).u
    assert np.allclose(u.conj().T @ u, np.eye(9), atol=1e-12)


def test_transfer_group_property():
    es = eigen_tridiagonal(6, omega=0.4)
    u1 = transfer_matrix(es, 0.9).u
    u2 = transfer_matrix(es, 2.3).u
    u12 = transfer_matrix(es, 3.2).u
    assert np.allclose(u1 @ u2, u12, atol=1e-12)


def test_transfer_at_zero_time():
    es = eigen_circulant(5, (0.0, 1.0, 0.0, 0.0, 1.0))
    assert np.allclose(transfer_matrix(es, 0.0).u, np.eye(5), atol=1e-14)


def test_two_guide_coupler_identity():
    """A two-guide chain run for g t = pi/4 acts as a balanced splitter."""
    es = eigen_tridiagonal(2)
    u = transfer_matrix(es, np.pi / 4).u
    expected = np.array([[1.0, -1.0j], [-1.0j, 1.0]]) / np.sqrt(2.0)
    assert np.allclose(u, expected, atol=1e-14)


def test_transfer_matches_direct_exponential():
    rng = np.random.default_rng(5)
    from loopwalk.spectra import eigen_numeric

    a = rng.normal(size=(7, 7))
    g = a + a.T
    es = eigen_numeric(g)
    t = 0.83
    u = transfer_matrix(es, t).u
    # brute-force series of exp(-i g t)
    acc = np.eye(7, dtype=complex)
    term = np.eye(7, dtype=complex)
    for k in range(1, 60):
        term = term @ (-1j * t * g) / k
        acc += term
    assert np.allclose(u, acc, atol=1e-12)


# ---- permutation powers ------------------------------------------------


def test_compose_powers():
    p = Permutation.cyclic(6, 1)
    assert compose(p, 0).is_identity()
    assert compose(p, 6).is_identity()
    q = compose(p, 4)
    assert all(q(j) == Permutation.cyclic(6, 4)(j) for j in range(1, 7))


def test_compose_negative_power_is_inverse():
    p = Permutation.cyclic(7, 3)
    assert compose(p, -1).mapping == p.inverse().mapping
    assert compose(p, -2).mapping == compose(p.inverse(), 2).mapping


def _naive_compose(p, n):
    """p applied |n| times one step at a time (its inverse for n < 0)."""
    base = p if n >= 0 else p.inverse()
    out = list(range(1, p.n + 1))
    for _ in range(abs(n)):
        out = [base(j) for j in out]
    return tuple(out)


@st.composite
def _permutations(draw):
    size = draw(st.integers(min_value=1, max_value=40))
    return Permutation(tuple(draw(st.permutations(range(1, size + 1)))))


@settings(max_examples=200, deadline=None)
@given(p=_permutations(), n=st.integers(min_value=-60, max_value=60))
def test_compose_matches_repeated_application(p, n):
    assert compose(p, n).mapping == _naive_compose(p, n)


@settings(max_examples=200, deadline=None)
@given(p=_permutations(), n=st.integers(min_value=-(10**6), max_value=10**6))
def test_compose_depends_on_power_mod_order(p, n):
    m = order(p)
    assert compose(p, m).is_identity()
    assert all(not compose(p, d).is_identity() for d in range(1, m) if m % d == 0)
    assert compose(p, n).mapping == compose(p, n % m).mapping


def test_order_known_permutations():
    assert order(Permutation.identity(5)) == 1
    assert order(Permutation.mirror(9)) == 2
    assert order(Permutation.cyclic(12, 8)) == 3
    assert order(Permutation.cyclic(7, 3)) == 7


def test_compose_large_power():
    # cycles of lengths 1, 2, 3, 5 and 7, so p has order 210
    p = Permutation((1, 3, 2, 5, 6, 4, 8, 9, 10, 11, 7, 13, 14, 15, 16, 17, 18, 12))
    assert order(p) == 210
    for n in (10**6, -(10**6)):
        assert compose(p, n).mapping == _naive_compose(p, n % 210)


def test_mirror_squares_to_identity():
    p = Permutation.mirror(10)
    assert compose(p, 2).is_identity()
    assert not compose(p, 3).is_identity()


# ---- matrix relabelling ----------------------------------------------------


def test_permute_modes_both_sides():
    rng = np.random.default_rng(9)
    m = rng.normal(size=(5, 5))
    p = Permutation.cyclic(5, 2)
    out = permute_modes(m, p)
    pinv = p.inverse()
    for r in range(1, 6):
        for s in range(1, 6):
            assert out[r - 1, s - 1] == m[pinv(r) - 1, pinv(s) - 1]


def test_permute_modes_single_sides():
    rng = np.random.default_rng(10)
    m = rng.normal(size=(4, 4))
    p = Permutation.mirror(4)
    rows = permute_modes(m, p, side="rows")
    cols = permute_modes(m, p, side="cols")
    both = permute_modes(m, p, side="both")
    assert np.array_equal(permute_modes(rows, p, side="cols"), both)
    assert np.array_equal(permute_modes(cols, p, side="rows"), both)


def test_permute_modes_matches_matrix_conjugation():
    rng = np.random.default_rng(12)
    m = rng.normal(size=(6, 6))
    p = Permutation.cyclic(6, 5)
    pm = p.matrix()
    assert np.allclose(permute_modes(m, p), pm @ m @ pm.T, atol=1e-14)


def test_permute_modes_identity_is_noop():
    m = np.arange(9.0).reshape(3, 3)
    out = permute_modes(m, Permutation.identity(3))
    assert np.array_equal(out, m)


def test_permute_modes_bad_side():
    with pytest.raises(ValueError):
        permute_modes(np.eye(2), Permutation.identity(2), side="diag")
