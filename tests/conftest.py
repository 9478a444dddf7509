import numpy as np
import pytest

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
