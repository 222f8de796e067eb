import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from loopwalk.model import Permutation
from loopwalk.spectra import eigen_circulant, eigen_tridiagonal
from reference import transfer_matrix


def test_transfer_is_unitary():
    es = eigen_tridiagonal(9)
    u = transfer_matrix(es, 1.7)
    assert np.allclose(u.conj().T @ u, np.eye(9), atol=1e-12)


def test_transfer_group_property():
    es = eigen_tridiagonal(6, omega=0.4)
    u1 = transfer_matrix(es, 0.9)
    u2 = transfer_matrix(es, 2.3)
    u12 = transfer_matrix(es, 3.2)
    assert np.allclose(u1 @ u2, u12, atol=1e-12)


def test_transfer_at_zero_time():
    es = eigen_circulant(5, (0.0, 1.0, 0.0, 0.0, 1.0))
    assert np.allclose(transfer_matrix(es, 0.0), np.eye(5), atol=1e-14)


def test_two_guide_coupler_identity():
    """A two-guide chain run for g t = pi/4 acts as a balanced splitter."""
    es = eigen_tridiagonal(2)
    u = transfer_matrix(es, np.pi / 4)
    expected = np.array([[1.0, -1.0j], [-1.0j, 1.0]]) / np.sqrt(2.0)
    assert np.allclose(u, expected, atol=1e-14)


def test_transfer_matches_direct_exponential():
    rng = np.random.default_rng(5)
    from loopwalk.spectra import eigen_numeric

    a = rng.normal(size=(7, 7))
    g = a + a.T
    es = eigen_numeric(g)
    t = 0.83
    u = transfer_matrix(es, t)
    # brute-force series of exp(-i g t)
    acc = np.eye(7, dtype=complex)
    term = np.eye(7, dtype=complex)
    for k in range(1, 60):
        term = term @ (-1j * t * g) / k
        acc += term
    assert np.allclose(u, acc, atol=1e-12)


# ---- permutation powers ------------------------------------------------


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
@given(p=_permutations())
def test_order_is_the_smallest_identity_power(p):
    m, lengths = p.order(), p.cycle_lengths()
    out = list(range(1, p.n + 1))
    for power in range(1, m + 1):
        out = [p(j) for j in out]
        # guide j is back home exactly at the multiples of its cycle's length,
        # so every guide first is at m, the lcm of those lengths
        assert [o == j for j, o in enumerate(out, start=1)] == [power % n == 0 for n in lengths]
    assert Permutation(tuple(out)).is_identity()


def test_order_known_permutations():
    assert Permutation.identity(5).order() == 1
    assert Permutation.mirror(9).order() == 2
    assert Permutation.cyclic(12, 8).order() == 3
    assert Permutation.cyclic(7, 3).order() == 7


def test_order_of_coprime_cycles():
    # cycles of lengths 1, 2, 3, 5 and 7, so p has order 210
    p = Permutation((1, 3, 2, 5, 6, 4, 8, 9, 10, 11, 7, 13, 14, 15, 16, 17, 18, 12))
    assert p.cycle_lengths() == [1, 2, 2, 3, 3, 3] + [5] * 5 + [7] * 7
    assert p.order() == 210
    assert Permutation(_naive_compose(p, 210)).is_identity()


def test_mirror_squares_to_identity():
    p = Permutation.mirror(10)
    assert p.order() == 2
    assert Permutation(_naive_compose(p, 2)).is_identity()
    assert not Permutation(_naive_compose(p, 3)).is_identity()


# ---- matrix relabelling ----------------------------------------------------


def test_permute_modes_both_sides():
    rng = np.random.default_rng(9)
    m = rng.normal(size=(5, 5))
    p = Permutation.cyclic(5, 2)
    out = p.relabel(m)
    pinv = p.inverse()
    for r in range(1, 6):
        for s in range(1, 6):
            assert out[r - 1, s - 1] == m[pinv(r) - 1, pinv(s) - 1]


def test_permute_modes_matches_matrix_conjugation():
    rng = np.random.default_rng(12)
    m = rng.normal(size=(6, 6))
    p = Permutation.cyclic(6, 5)
    pm = p.matrix()
    assert np.allclose(p.relabel(m), pm @ m @ pm.T, atol=1e-14)


def test_permute_modes_identity_is_noop():
    m = np.arange(9.0).reshape(3, 3)
    out = Permutation.identity(3).relabel(m)
    assert np.array_equal(out, m)
