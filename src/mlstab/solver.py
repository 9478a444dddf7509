"""Time-stepping engine for semi-linear Caputo fractional ODEs.

Advances D^alpha y = A y + f(t, y), y(0) = y0, on the uniform grid t_n = n h.
There are two entry points: `solve` runs any scheme by id, and
`solve_alpha_diff` chooses the alpha-difference variant.  Every scheme is one
discrete convolution with the weights mu of its generating function F_mu, and
one core (`_run`) steps them all through the same equation

    sum_{j=0}^{n} mu_j y_{n-j} = iv_n y_0 + h^alpha (A y_n + f_n),   n >= 1,

where only the initial-value term iv differs: cumsum(mu) for L1 and the
F-LMMs, zero for the alpha-difference "difference" variant and k^(1-alpha)
for its "poisson" variant (which also replaces y_0 inside the sum by z_0, see
solve_alpha_diff).  Every step solves a linear system with the constant matrix
M = mu_0 I - h^alpha A, whose inverse is formed once per run from its LU
factorization.  The nonlinear part is handled by Newton iteration with a
finite-difference Jacobian; a step Newton cannot solve raises
NonConvergenceError.  The history sums follow the divide-and-conquer
schedule of Hairer, Lubich & Schlichte (1985, SIAM J. Sci. Stat. Comput.
6:532): direct sums inside blocks of at most 64 steps, one real FFT product
per pair of neighbouring half blocks, O(N log^2 N) in total and exact up to
rounding.  The same core steps the (d, d) matrix states of the impulse
resolvents (resolvent.impulse_resolvent).

All schemes are self-starting and no initial-layer correction terms are used;
the focus is long-time behavior, not accuracy near t = 0.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.fft as sfft
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
#: steps per leaf of the block history schedule (_blocks); leaves sum directly.
_LEAF = 64


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
    handles f with a forward-difference Jacobian (relative step 1e-7); a
    singular Jacobian, a non-finite iterate or 50 iterations without
    convergence raise NonConvergenceError.
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
                break
            y = y + delta
            ny = np.linalg.norm(y)
            if _non_finite(y, ny):  # no iteration recovers from a nan or inf iterate
                raise _no_convergence(step)
            if math.isfinite(ny) and np.linalg.norm(delta) <= _NEWTON_ATOL + _NEWTON_RTOL * ny:
                return y
        raise _no_convergence(step)

    def _fd_jacobian(self, t: float, y: np.ndarray, fy: np.ndarray) -> np.ndarray:
        J = np.empty((self.dim, self.dim), dtype=complex)
        for j in range(self.dim):
            dy = _FD_REL_STEP * max(abs(y[j]), 1.0)
            yp = y.copy()
            yp[j] += dy
            J[:, j] = (np.asarray(self.f(t, yp)) - fy) / dy
        return J


def _no_convergence(step: int) -> NonConvergenceError:
    return NonConvergenceError(f"implicit solve did not converge at step {step}", step)


def _non_finite(y: np.ndarray, ny: float) -> bool:
    """Whether y holds a nan or inf entry; its norm ny is the cheap first test."""
    return not math.isfinite(ny) and not np.all(np.isfinite(y))


def _blocks(lo: int, hi: int):
    """The divide-and-conquer schedule of steps [lo, hi).

    Yields (lo, None, hi) for a leaf of at most _LEAF steps, which run in
    order with direct history sums, and (lo, mid, hi) once steps [lo, mid)
    are done, for adding their share of the history sums to steps [mid, hi).
    Every pair of steps m < n in [lo, hi) either shares one leaf or is split
    by exactly one (lo, mid, hi).
    """
    if hi - lo <= _LEAF:
        yield lo, None, hi
        return
    mid = (lo + hi) // 2
    yield from _blocks(lo, mid)
    yield lo, mid, hi
    yield from _blocks(mid, hi)


def _run(w: wt.SchemeWeights, A: np.ndarray, alpha: float, h: float, N: int,
         Y0: np.ndarray, f: Callable | None = None, iv: np.ndarray | None = None,
         z0: bool = False, impulse: bool = False,
         guard: float | None = None) -> tuple[np.ndarray, int | None]:
    """The stepping core shared by every scheme and by the impulse resolvents.

    Step n solves sum_{j=0}^{n} mu_j H_{n-j} = iv_n Y0 + h^alpha (A Y_n + F_n)
    for states Y of shape (d,) or (d, d), i.e. M Y_n = iv_n Y0 - S_n +
    h^alpha F_n with M = mu_0 I - h^alpha A and the history sum
    S_n = sum_{m=0}^{n-1} mu_{n-m} H_m.  F_n = f(t_n, Y_n), or for impulse
    runs (f None) the unit impulse F_1 = I and F_n = 0 after.  The history is
    the states, H_m = Y_m, except H_0 = z_0 = M^{-1} (Y0 + h^alpha f(0, Y0))
    when z0 is set (the alpha-difference "poisson" variant).  iv defaults to
    cumsum(mu), the initial-value term of L1 and the F-LMMs.  w holds at
    least the N + 1 weights mu_0 .. mu_N.  Returns the states and the step at
    which ||Y_n|| first exceeds guard (the states end there), else None.

    Row n of the state array accumulates the right-hand side iv_n Y0 - S_n
    (with the impulse) until step n overwrites it with Y_n, so the history
    needs no array of its own.  The rows start at iv_n Y0 - mu_n H_0, and the
    steps follow _blocks: a finished half block's share of S reaches the next
    half through one real FFT product (mu is real, so the float view of the
    complex states is convolved and exact zeros stay zero).  The sums are
    exact up to rounding and cost O(N log^2 N).
    """
    mu = w.mu[:N + 1]
    ha = h ** alpha
    eye = np.eye(A.shape[0], dtype=complex)
    step = _ImplicitStep(mu[0] * eye - ha * A, ha, f, A.shape[0])
    if iv is None:
        iv = np.cumsum(mu)
    rev = np.ascontiguousarray(mu[:0:-1])  # mu_N .. mu_1
    mu_hat = {}  # rfft of mu per FFT length

    H0 = step.Minv @ (Y0 if f is None else Y0 + ha * np.asarray(f(0.0, Y0))) if z0 else Y0
    Y = np.empty((N + 1,) + Y0.shape, dtype=complex)
    Yf = Y.reshape(N + 1, -1).view(float)  # (N + 1, 2 d^k) real view of the states
    np.multiply.outer(iv[1:N + 1], Y0.ravel().view(float), out=Yf[1:])
    Yf[1:] -= np.multiply.outer(mu[1:], H0.ravel().view(float))
    if impulse:  # forced runs have N >= 1 steps
        Y[1] += ha * eye
    Y[0] = Y0
    with np.errstate(over="ignore", invalid="ignore"):  # the non-finite test names the step
        for lo, mid, hi in _blocks(1, N + 1):
            if mid is not None:
                P = sfft.next_fast_len(hi - lo, True)  # no wrap-around reaches rows mid..hi
                if P not in mu_hat:
                    mu_hat[P] = sfft.rfft(mu[:P], P)[:, None]
                spec = sfft.rfft(Yf[lo:mid], P, axis=0)
                spec *= mu_hat[P]
                Yf[mid:hi] -= sfft.irfft(spec, P, axis=0, overwrite_x=True)[mid - lo:hi - lo]
                continue
            for n in range(lo, hi):
                yf = Yf[n]
                yf -= rev[N - n + lo:] @ Yf[lo:n]
                Y[n] = y = step.advance(Y[n], n * h, Y[n - 1], n)
                ny = math.sqrt(yf @ yf)
                if _non_finite(y, ny):
                    raise SolverError(f"non-finite state at step {n}", n)
                if guard is not None and ny > guard:
                    return Y[:n + 1].copy(), n
    return Y, None


def _trajectory(w: wt.SchemeWeights, problem: FOdeProblem, h: float, N: int,
                iv: np.ndarray | None = None, z0: bool = False) -> Trajectory:
    """Guarded run of `problem`, truncated (with a warning) at blow-up."""
    guard = BLOWUP_FACTOR * max(np.linalg.norm(problem.y0), 1.0)
    states, stop = _run(w, problem.A, problem.alpha, h, N, problem.y0, problem.f,
                        iv=iv, z0=z0, guard=guard)
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
    if variant == "poisson":
        return _trajectory(w, problem, h, N, wt.alpha_diff_kernel(1.0 - problem.alpha, N + 1),
                           z0=True)
    return _trajectory(w, problem, h, N, np.zeros(N + 1))


def solve(problem: FOdeProblem, scheme_id: str, h: float, N: int) -> Trajectory:
    """Run any scheme by id.

    The weight table comes from weights.scheme_weights.  The alpha-difference
    scheme runs its "difference" variant, see solve_alpha_diff for the other.
    """
    scheme_id = wt.scheme_name(scheme_id)
    if scheme_id == wt.ALPHA_DIFF:
        return solve_alpha_diff(problem, h, N)
    _check_grid(h, N)
    return _trajectory(wt.scheme_weights(scheme_id, problem.alpha, N + 1), problem, h, N)


def _check_grid(h: float, N: int = 1) -> None:
    if not (h > 0 and math.isfinite(h)):
        raise ValueError(f"step size must be positive, got {h}")
    if N < 1:
        raise ValueError(f"need at least one step, got N={N}")
