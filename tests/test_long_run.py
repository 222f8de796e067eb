"""Long-run accuracy of the closed form against a 50-digit reference.

The kernel's phases exp(-i lambda n tau) carry a rounding error of about
eps in the argument lambda n tau, so its error grows linearly in n.  The
reference evaluates the same rescaled closed form in 50-digit mpmath from
the analytic eigenpairs, with P^-n applied as an exact index permutation;
the kernel must stay within a small multiple of n eps max|lambda| tau + eps.
"""

import mpmath
import numpy as np
import pytest

from loopwalk.correlations import correlation_sweep
from loopwalk.model import Permutation
from loopwalk.spectra import eigen_circulant, eigen_tridiagonal
from test_propagate import _naive_compose

EPS = np.finfo(float).eps
STEPS = (4, 200, 10**4, 10**6)
N, TAU, J, K = 30, 1.0, 1, 7
# measured: <= 0.08 of the bound on the chain, 0.22-0.66 on the twisted circle
BOUND_MULTIPLE = 2.0


def _chain_modes(n):
    """lambda_i = 2 cos(i pi / (N+1)), v[r, i] = sqrt(2/(N+1)) sin(r i pi / (N+1))."""
    a = mpmath.pi / (n + 1)
    lam = [2 * mpmath.cos(i * a) for i in range(1, n + 1)]
    v = [[mpmath.sqrt(mpmath.mpf(2) / (n + 1)) * mpmath.sin(r * i * a) for i in range(1, n + 1)]
         for r in range(1, n + 1)]
    return lam, v


def _ring_modes(n):
    """Nearest-neighbour ring: lambda_i = 2 cos(2 pi (i-1) / N),
    v[r, i] = exp(-2 pi i (r-1)(i-1) / N) / sqrt(N)."""
    a = 2 * mpmath.pi / n
    lam = [2 * mpmath.cos(i * a) for i in range(n)]
    v = [[mpmath.expj(-r * i * a) / mpmath.sqrt(n) for i in range(n)] for r in range(n)]
    return lam, v


def _reference(modes, p, n):
    """The rescaled quantum cell for inputs (J, K) at step n, in 50 digits."""
    lam, v = modes
    phases = [mpmath.expj(-x * TAU * n) for x in lam]

    def row(g):  # row g of U(n tau)
        return [mpmath.fsum(v[g][i] * phases[i] * mpmath.conj(v[r][i]) for i in range(N))
                for r in range(N)]

    back = _naive_compose(p, -(n % p.order()))  # p^-n, as p has finite order
    a, b = row(J - 1), row(K - 1)
    a, b = [a[q - 1] for q in back], [b[q - 1] for q in back]
    return [[abs(a[r] * b[s] + a[s] * b[r]) ** 2 / (2 if r == s else 1) for s in range(N)]
            for r in range(N)]


DEVICES = {
    "cylinder": (eigen_tridiagonal(N), Permutation.identity(N), _chain_modes),
    "moebius": (eigen_tridiagonal(N), Permutation.mirror(N), _chain_modes),
    "twisted_circle": (
        eigen_circulant(N, (0.0, 1.0) + (0.0,) * (N - 3) + (1.0,)),
        Permutation.cyclic(N, 7),
        _ring_modes,
    ),
}


@pytest.mark.parametrize("device", sorted(DEVICES))
def test_kernel_error_grows_at_most_linearly_in_n(device):
    es, p, analytic = DEVICES[device]
    with mpmath.workdps(50):
        modes = analytic(N)
        sweep = correlation_sweep(es, p, 0.5, TAU, STEPS, J, K, rescaled=True)
        for cell in sweep:
            ref = _reference(modes, p, cell.step)
            err = max(float(abs(mpmath.mpf(cell.values[r, s]) - ref[r][s]))
                      for r in range(N) for s in range(N))
            bound = cell.step * EPS * float(np.max(np.abs(es.eigenvalues))) * TAU + EPS
            assert err <= BOUND_MULTIPLE * bound, (cell.step, err / bound)
