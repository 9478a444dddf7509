import numpy as np
import pytest

from mlstab import solver as slv
from mlstab import weights as wt


def _omega_form_run(problem, scheme_id: str, h: float, N: int) -> np.ndarray:
    """States of a scalar linear problem by the omega-form (integral) recurrence
    y_n = y_0 + h^alpha sum_{j=1}^{n} omega_{n-j} lambda y_j, written out here
    independently of the solver, which steps the mu form."""
    lam = complex(problem.A[0, 0])
    omega = wt.scheme_weights(scheme_id, problem.alpha, N + 1).omega
    ha = h ** problem.alpha
    y = np.empty(N + 1, dtype=complex)
    y[0] = problem.y0[0]
    for n in range(1, N + 1):
        y[n] = (y[0] + ha * lam * np.dot(omega[n - 1:0:-1], y[1:n])) / (1.0 - ha * omega[0] * lam)
    return y


@pytest.fixture
def omega_form_run():
    return _omega_form_run


def _mu_form_run(mu, A, alpha: float, h: float, N: int, y0, f=None, iv=None,
                 z0: bool = False, impulse: bool = False, guard: float | None = None):
    """States and blow-up step of the mu-form recurrence
    sum_{j=0}^{n} mu_j H_{n-j} = iv_n y0 + h^alpha (A y_n + F_n), with the
    whole history summed directly at every step (O(N^2)), written out here
    independently of the solver's block schedule.  H_j = y_j except
    H_0 = M^{-1} (y0 + h^alpha f(0, y0)) when z0 is set; impulse runs force
    F_1 = I.  The implicit solve is the solver's own (Newton for f)."""
    mu = np.asarray(mu[:N + 1], dtype=float)
    ha = h ** alpha
    eye = np.eye(A.shape[0], dtype=complex)
    step = slv._ImplicitStep(mu[0] * eye - ha * A, ha, f, A.shape[0])
    iv = np.cumsum(mu) if iv is None else iv
    H = np.empty((N + 1,) + y0.shape, dtype=complex)
    H[0] = step.Minv @ (y0 if f is None else y0 + ha * f(0.0, y0)) if z0 else y0
    Y = H.copy()
    Y[0] = y0
    for n in range(1, N + 1):
        rhs = iv[n] * y0 - np.tensordot(mu[n:0:-1], H[:n], axes=1)
        if impulse and n == 1:
            rhs = rhs + ha * eye
        Y[n] = H[n] = step.advance(rhs, n * h, Y[n - 1], n)
        if guard is not None and np.linalg.norm(Y[n]) > guard:
            return Y[:n + 1], n
    return Y, None


@pytest.fixture
def mu_form_run():
    return _mu_form_run
