import numpy as np
import pytest
from scipy.special import rgamma

from mlstab import weights as wt


def _fbdf1_recursion(alpha: float, n_terms: int) -> np.ndarray:
    """Binomial weights of (1-z)^alpha by the closed recursion
    mu_0 = 1, mu_j = (1 - (alpha+1)/j) mu_{j-1}, written out here
    independently of the Miller recursion the package builds them with."""
    mu = np.empty(n_terms)
    mu[0] = 1.0
    for j in range(1, n_terms):
        mu[j] = mu[j - 1] * (1.0 - (alpha + 1.0) / j)
    return mu


@pytest.fixture
def fbdf1_recursion():
    return _fbdf1_recursion


def _ml_asymptotic(z, alpha: float, beta: float = 1.0, n_terms: int = 8) -> complex:
    """Truncated large-|z| expansion -sum_{k=1}^{n_terms} z^{-k}/Gamma(beta - k alpha)
    of E_{alpha,beta}(z), term by term from scipy's rgamma (0 at the poles),
    independently of the package's coefficient tables.  Its error is
    O(|z|^{-n_terms-1}) in the sector alpha*pi/2 < |arg z| <= pi."""
    z = complex(z)
    return -sum(z ** -k * float(rgamma(beta - k * alpha)) for k in range(1, n_terms + 1))


@pytest.fixture
def ml_asymptotic():
    return _ml_asymptotic


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
    independently of the solver's block schedule and implicit step.  H_j = y_j
    except H_0 = M^{-1} (y0 + h^alpha f(0, y0)) when z0 is set; impulse runs
    force F_1 = I.  Each step solves M y_n = rhs + h^alpha f(t_n, y_n) with
    M = mu_0 I - h^alpha A directly (_newton for f)."""
    mu = np.asarray(mu[:N + 1], dtype=float)
    ha = h ** alpha
    eye = np.eye(A.shape[0], dtype=complex)
    M = mu[0] * eye - ha * A
    iv = np.cumsum(mu) if iv is None else iv
    H = np.empty((N + 1,) + y0.shape, dtype=complex)
    H[0] = np.linalg.solve(M, y0 if f is None else y0 + ha * f(0.0, y0)) if z0 else y0
    Y = H.copy()
    Y[0] = y0
    for n in range(1, N + 1):
        rhs = iv[n] * y0 - np.tensordot(mu[n:0:-1], H[:n], axes=1)
        if impulse and n == 1:
            rhs = rhs + ha * eye
        if f is None:
            Y[n] = H[n] = np.linalg.solve(M, rhs)
        else:
            Y[n] = H[n] = _newton(M, rhs, ha, f, n * h, Y[n - 1])
        if guard is not None and np.linalg.norm(Y[n]) > guard:
            return Y[:n + 1], n
    return Y, None


def _newton(M, rhs, cf: float, f, t: float, y):
    """The root of M y - rhs - cf f(t, y) by full Newton from y: a fresh
    forward-difference Jacobian (relative step 1e-7) at every iteration, and
    the solver's stop rule, 1e-12 + 1e-12 ||y||, within 50 iterations."""
    y = np.array(y, dtype=complex)
    for _ in range(50):
        fy = np.asarray(f(t, y))
        J = np.empty(M.shape, dtype=complex)
        for j in range(len(y)):
            dy = 1e-7 * max(abs(y[j]), 1.0)
            yp = y.copy()
            yp[j] += dy
            J[:, j] = (np.asarray(f(t, yp)) - fy) / dy
        delta = np.linalg.solve(M - cf * J, rhs + cf * fy - M @ y)
        y = y + delta
        if np.linalg.norm(delta) <= 1e-12 + 1e-12 * np.linalg.norm(y):
            return y
    raise AssertionError(f"reference Newton did not converge at t = {t}")


@pytest.fixture
def mu_form_run():
    return _mu_form_run
