"""Time-stepping engine for semi-linear Caputo fractional ODEs.

Advances D^alpha y = A y + f(t, y), y(0) = y0, on the uniform grid t_n = n h.
There are two entry points: `solve` runs any scheme by id (the convolution
schemes in integral or differential form), and `solve_alpha_diff` chooses the
alpha-difference variant.  One core (`_run`) steps every scheme; its three
formulations differ only in the weights, the initial-value term and what the
history H_j stores:

* integral form     y_n = y_0 + h^alpha sum_{j=1}^{n} omega_{n-j} H_j, H_j = A y_j + f_j
* differential      sum_{j=0}^{n} mu_j H_{n-j} = h^alpha (A y_n + f_n), H_j = y_j - y_0
* alpha-difference  sum_{j=0}^{n} mu_j H_{n-j} = h^alpha (A y_n + f_n), H_j = y_j
                    (the "poisson" variant seeds H_0 = z_0, see solve_alpha_diff)

with omega the convolution inverse of mu; the first two give the same
trajectory up to rounding.  Every step solves a linear system with the
constant matrix M = c0 I - h^alpha w A, whose inverse is formed once per run
from its LU factorization.  The nonlinear part is handled by Newton iteration
with a finite-difference Jacobian and a damped fixed-point fallback.  History
sums are direct O(N^2) convolutions, one BLAS product per step; N up to ~2e5
is the supported desk scale.  The same core steps the (d, d) matrix states of
the impulse resolvents (resolvent.impulse_resolvent).

All schemes are self-starting and no initial-layer correction terms are used;
the focus is long-time behavior, not accuracy near t = 0.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from . import weights as wt

__all__ = [
    "FOdeProblem",
    "Trajectory",
    "SolverError",
    "SingularStepError",
    "NonConvergenceError",
    "BLOWUP_FACTOR",
    "solve",
    "solve_alpha_diff",
]


class SolverError(RuntimeError):
    """Base class for stepping failures; carries the failing step index."""

    def __init__(self, msg: str, step: int | None = None):
        super().__init__(msg)
        self.step = step


class SingularStepError(SolverError):
    pass


class NonConvergenceError(SolverError):
    pass


#: a run truncates once ||y_n|| exceeds BLOWUP_FACTOR * max(||y0||, 1).
BLOWUP_FACTOR = 1e12

_NEWTON_ATOL = 1e-12
_NEWTON_RTOL = 1e-12
_NEWTON_MAXIT = 50
_FD_REL_STEP = 1e-7


@dataclass
class FOdeProblem:
    """A Caputo fractional ODE D^alpha y = A y + f(t, y), y(0) = y0.

    f is None for homogeneous (linear) problems, else a callable
    (t, y) -> vector.  States are complex throughout; A may carry complex
    entries (the scalar test problem uses a complex eigenvalue directly).
    For the stability experiments f(t, 0) = 0 is expected; a violation at
    t = 0 is flagged with a warning and recorded in `f_vanishes_at_zero`.
    """

    alpha: float
    A: np.ndarray
    y0: np.ndarray
    f: Callable[[float, np.ndarray], np.ndarray] | None = None
    lipschitz_bound: float | None = None
    f_vanishes_at_zero: bool = field(init=False, default=True)

    def __post_init__(self):
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        self.A = np.atleast_2d(np.asarray(self.A, dtype=complex))
        if self.A.shape[0] != self.A.shape[1]:
            raise ValueError("A must be square")
        self.y0 = np.atleast_1d(np.asarray(self.y0, dtype=complex))
        if self.y0.shape != (self.A.shape[0],):
            raise ValueError("y0 must match the dimension of A")
        for name in ("A", "y0"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite (no NaN or inf entries)")
        if self.f is not None:
            fz = np.asarray(self.f(0.0, np.zeros(self.dim, dtype=complex)))
            if fz.shape != (self.dim,):
                raise ValueError("f must return vectors of the problem dimension")
            self.f_vanishes_at_zero = bool(np.max(np.abs(fz)) < 1e-14)
            if not self.f_vanishes_at_zero:
                warnings.warn(
                    "f(0, 0) != 0: the origin is not an equilibrium; "
                    "decay diagnostics may be meaningless",
                    stacklevel=2,
                )

    @property
    def dim(self) -> int:
        return self.A.shape[0]


@dataclass
class Trajectory:
    """Solution samples y_0 ... y_N on the grid t_n = n h."""

    h: float
    states: np.ndarray  # (N+1, dim) complex
    scheme_id: str
    alpha: float
    truncated_at: int | None = None  # blow-up guard step index, if triggered

    @property
    def n_steps(self) -> int:
        return self.states.shape[0] - 1

    @property
    def times(self) -> np.ndarray:
        return self.h * np.arange(self.states.shape[0])

    def norms(self) -> np.ndarray:
        """Euclidean norm of each state."""
        return np.linalg.norm(self.states, axis=1)


class _ImplicitStep:
    """Solves M y = rhs + cf * f(t, y) with constant M, factored once.

    M = c0 I - h^alpha w A folds the linear part exactly; its inverse is
    formed once from the LU factors and serves every linear solve.  Newton
    handles f with a forward-difference Jacobian (relative step 1e-7),
    falling back to a damped fixed-point iteration if Newton stalls.
    """

    def __init__(self, M: np.ndarray, cf: float,
                 f: Callable | None, dim: int):
        self.M = M
        self.cf = cf
        self.f = f
        self.dim = dim
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # we detect singularity below
            lu = lu_factor(M)
        if not np.all(np.isfinite(lu[0])) or np.min(np.abs(np.diag(lu[0]))) == 0.0:
            raise SingularStepError("singular implicit step matrix")
        self.Minv = lu_solve(lu, np.eye(dim, dtype=complex))

    def advance(self, rhs: np.ndarray, t: float, guess: np.ndarray, step: int) -> np.ndarray:
        if self.f is None:
            return self.Minv @ rhs
        y = guess.copy()
        for _ in range(_NEWTON_MAXIT):
            fy = np.asarray(self.f(t, y))
            residual = self.M @ y - rhs - self.cf * fy
            J = self.M - self.cf * self._fd_jacobian(t, y, fy)
            try:
                delta = np.linalg.solve(J, -residual)
            except np.linalg.LinAlgError:
                break  # go to fixed-point fallback
            y = y + delta
            ny = np.linalg.norm(y)
            if math.isfinite(ny) and np.linalg.norm(delta) <= _NEWTON_ATOL + _NEWTON_RTOL * ny:
                return y
        return self._fixed_point(rhs, t, y, step)

    def _fd_jacobian(self, t: float, y: np.ndarray, fy: np.ndarray) -> np.ndarray:
        J = np.empty((self.dim, self.dim), dtype=complex)
        for j in range(self.dim):
            dy = _FD_REL_STEP * max(abs(y[j]), 1.0)
            yp = y.copy()
            yp[j] += dy
            J[:, j] = (np.asarray(self.f(t, yp)) - fy) / dy
        return J

    def _fixed_point(self, rhs: np.ndarray, t: float, y: np.ndarray, step: int) -> np.ndarray:
        damping = 0.5
        for _ in range(400):
            y_new = self.Minv @ (rhs + self.cf * np.asarray(self.f(t, y)))
            y_next = damping * y_new + (1.0 - damping) * y
            ny = np.linalg.norm(y_next)
            if math.isfinite(ny) and \
                    np.linalg.norm(y_next - y) <= _NEWTON_ATOL + _NEWTON_RTOL * ny:
                # one undamped polish so the step equation itself is tight
                return self.Minv @ (rhs + self.cf * np.asarray(self.f(t, y_next)))
            y = y_next
        raise NonConvergenceError(f"implicit solve did not converge at step {step}", step)


_INTEGRAL, _DIFFERENTIAL, _ALPHA_DIFF = "integral", "differential", "alpha_diff"


def _default_form(scheme_id: str) -> str:
    """The formulation a scheme runs in unless asked otherwise."""
    return _DIFFERENTIAL if scheme_id == wt.L1 else _INTEGRAL


def _run(kind: str, w: wt.SchemeWeights, A: np.ndarray, alpha: float, h: float,
         N: int, Y0: np.ndarray, f: Callable | None = None,
         kern: np.ndarray | None = None, impulse: bool = False,
         guard: float | None = None) -> tuple[np.ndarray, int | None]:
    """The stepping core shared by every scheme and by the impulse resolvents.

    Step n solves M Y_n = iv_n + s sum_{j=0}^{n-1} c_{n-j} H_j + cf F_n for
    states Y of shape (d,) or (d, d).  F_n = f(t_n, Y_n), or for impulse runs
    (f None) the unit impulse F_1 = I and F_n = 0 after.  With ha = h^alpha:

      kind          c      M              cf       s    iv_n   H_j, j >= 1   H_0
      integral      omega  I - ha c_0 A   ha c_0   ha   Y0     A Y_j + F_j   0
      differential  mu     c_0 I - ha A   ha       -1   c_0 Y0 Y_j - Y0      0
      alpha_diff    mu     c_0 I - ha A   ha       -1   0      Y_j           Y0

    Given kern (the alpha-difference "poisson" variant), iv_n = kern_n Y0 and
    H_0 = z_0 = M^{-1} (Y0 + ha f(0, Y0)).  w holds at least the N + 1
    weights c_0 .. c_N.  Returns the states and the step at which ||Y_n||
    first exceeds guard (the states end there), else None.
    """
    integral = kind == _INTEGRAL
    c = w.omega if integral else w.mu
    ha = h ** alpha
    d = A.shape[0]
    eye = np.eye(d, dtype=complex)
    cf = ha * c[0] if integral else ha
    M = eye - cf * A if integral else c[0] * eye - ha * A
    step = _ImplicitStep(M, cf, f, d)
    s = ha if integral else -1.0
    ivc = kern if kern is not None else np.full(
        N + 1, {_INTEGRAL: 1.0, _DIFFERENTIAL: c[0], _ALPHA_DIFF: 0.0}[kind])
    rev = np.ascontiguousarray(c[N:0:-1], dtype=complex)  # c_N .. c_1

    Y = np.empty((N + 1,) + Y0.shape, dtype=complex)
    H = np.zeros_like(Y)
    H2 = H.reshape(N + 1, -1)  # the history sum is one BLAS product on this view
    Y[0] = Y0
    if kern is not None:
        H[0] = step.Minv @ (Y0 if f is None else Y0 + ha * np.asarray(f(0.0, Y0)))
    elif kind == _ALPHA_DIFF:
        H[0] = Y0
    for n in range(1, N + 1):
        rhs = ivc[n] * Y0 + s * (rev[N - n:] @ H2[:n]).reshape(Y0.shape)
        if impulse and n == 1:
            rhs = rhs + cf * eye
        y = step.advance(rhs, n * h, Y[n - 1], n)
        Y[n] = y
        if integral:
            H[n] = A @ y
            if impulse and n == 1:
                H[n] += eye
            elif f is not None:
                H[n] += np.asarray(f(n * h, y))
        else:
            H[n] = y - Y0 if kind == _DIFFERENTIAL else y
        ny = np.linalg.norm(y)
        if not math.isfinite(ny) and not np.all(np.isfinite(y)):
            raise SolverError(f"non-finite state at step {n}", n)
        if guard is not None and ny > guard:
            return Y[:n + 1].copy(), n
    return Y, None


def _trajectory(kind: str, w: wt.SchemeWeights, problem: FOdeProblem, h: float,
                N: int, kern: np.ndarray | None = None) -> Trajectory:
    """Guarded run of `problem`, truncated (with a warning) at blow-up."""
    guard = BLOWUP_FACTOR * max(np.linalg.norm(problem.y0), 1.0)
    states, stop = _run(kind, w, problem.A, problem.alpha, h, N, problem.y0,
                        problem.f, kern=kern, guard=guard)
    if stop is not None:
        warnings.warn(f"blow-up guard triggered at step {stop}; trajectory truncated",
                      stacklevel=3)
    return Trajectory(h, states, w.scheme_id, problem.alpha, truncated_at=stop)


def solve_alpha_diff(problem: FOdeProblem, h: float, N: int,
                     variant: str = "difference") -> Trajectory:
    """alpha-difference scheme run.

    variant="difference" (default) steps the raw fractional-difference
    operator: sum_{j=0}^{n} mu_j y_{n-j} = h^alpha (A y_n + f_n) for n >= 1,
    where mu are the first differences of the fractional-sum kernel
    k^(1-alpha).  The initial value is damped through the convolution itself
    (for A = 0, f = 0 the trajectory follows k_n^alpha, not a constant), and
    linear trajectories decay like t^(-1-alpha).

    variant="poisson" corrects the initial-value term so that the discrete
    resolvent coincides exactly with the Poisson transform of the continuous
    one: y_n = Q_1^n y_0 + h sum_j Q_alpha^{n-j} f_j with
    Q_beta^n = integral of the Poisson kernel against t^{beta-1}
    E_{alpha,beta}(t^alpha A).  Here constants are preserved and linear
    trajectories decay like t^(-alpha).  Its convolution runs over z_0 =
    (I - h^alpha A)^{-1}(y_0 + h^alpha f(0, y_0)), y_1, y_2, ... and adds the
    initial-value term k_n^(1-alpha) y_0.
    """
    if variant not in ("difference", "poisson"):
        raise ValueError(f"unknown alpha-difference variant {variant!r}")
    if not (0.0 < problem.alpha < 1.0):
        raise ValueError("alpha-difference scheme requires alpha in (0, 1)")
    _check_grid(h, N)
    w = wt.alpha_diff_weights(problem.alpha, N + 1)
    kern = (wt.alpha_diff_kernel(1.0 - problem.alpha, N + 1)
            if variant == "poisson" else None)
    return _trajectory(_ALPHA_DIFF, w, problem, h, N, kern)


def solve(problem: FOdeProblem, scheme_id: str, h: float, N: int,
          form: str = "auto") -> Trajectory:
    """Run any scheme by id.

    form selects the formulation for the convolution schemes: "integral",
    "differential", or "auto" (integral for the F-LMMs, differential for L1).
    The weight table comes from weights.scheme_weights.  The alpha-difference
    scheme runs its "difference" variant, see solve_alpha_diff for the other.
    """
    scheme_id = wt.scheme_name(scheme_id)
    if scheme_id == wt.ALPHA_DIFF:
        return solve_alpha_diff(problem, h, N)
    if form == "auto":
        form = _default_form(scheme_id)
    if form not in (_INTEGRAL, _DIFFERENTIAL):
        raise ValueError(f"unknown form {form!r}")
    _check_grid(h, N)
    w = wt.scheme_weights(scheme_id, problem.alpha, N + 1)
    return _trajectory(form, w, problem, h, N)


def _check_grid(h: float, N: int = 1) -> None:
    if not (h > 0 and math.isfinite(h)):
        raise ValueError(f"step size must be positive, got {h}")
    if N < 1:
        raise ValueError(f"need at least one step, got N={N}")
