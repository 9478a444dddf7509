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
M = mu_0 I - h^alpha A, whose inverse is formed once per run with
np.linalg.inv.  A run is real when f is None and A and y0 are real (the
impulse resolvents of a real A too): it steps d real rows.  Every other run
steps each complex row of its states as a pair of real rows (Re, Im), and its
complex matrices act through their real (2 d) x (2 d) forms, so every product
and FFT of the core is real; the complex states are returned as before.  The
nonlinear part is handled on complex vectors by the chord (simplified Newton)
iteration: one finite-difference Jacobian per step, formed again only after
an iterate that contracts by less than half or moves by more than a tenth of
the state; a step the iteration cannot solve raises NonConvergenceError.
The history sums follow the divide-and-conquer schedule of Hairer, Lubich &
Schlichte (1985, SIAM J. Sci. Stat. Comput. 6:532): direct sums inside
blocks of at most 64 steps, one real FFT product per pair of neighbouring
half blocks, O(N log^2 N) in total and exact up to rounding.  The products
go through numpy.fft (the same pocketfft as scipy.fft) at 5-smooth lengths
(_fast_len), so stepping loads no scipy.  A linear run
(f None) of small dimension (_LEAF d <= _LEAF_ROWS, i.e. d <= 4) solves each
leaf at once, with one product of the block Toeplitz matrix of its own
discrete resolvent, the coefficients of (M + sum_{j>=1} mu_j z^j)^{-1};
larger and nonlinear runs step the leaf one step at a time.  The same core
steps the (d, d) matrix states of the impulse resolvents
(resolvent.impulse_resolvent).

All schemes are self-starting and no initial-layer correction terms are used;
the focus is long-time behavior, not accuracy near t = 0.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

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
#: the chord iteration forms its Jacobian again after an iterate whose step
#: exceeds _CHORD_RATE times the step before it, or _CHORD_JUMP max(||y||, 1):
#: without the second test a step overshoots on a stale Jacobian and fails.
_CHORD_RATE = 0.5
_CHORD_JUMP = 0.1
#: steps per leaf of the block history schedule (_blocks); leaves sum directly.
_LEAF = 64
#: a linear run of dimension d solves its leaves by one product with the
#: (_LEAF d) x (_LEAF d) resolvent matrix when _LEAF * d <= _LEAF_ROWS.  On
#: F-BDF2 runs of 5000 steps (2-CPU Xeon) the product was 3x faster than
#: stepping the leaf at d = 1, 2x faster at d = 4 and 2x slower at d = 16.
_LEAF_ROWS = 256
#: the smallest norm whose square is a normal float.
_TINY_NORM = math.sqrt(np.finfo(float).tiny)


@dataclass
class FOdeProblem:
    """A Caputo fractional ODE D^alpha y = A y + f(t, y), y(0) = y0.

    f is None for homogeneous (linear) problems, else a callable
    (t, y) -> vector.  A and y0 are stored complex and trajectories are
    complex; A may carry complex entries (the scalar test problem uses a
    complex eigenvalue directly).  The solver steps a linear problem with
    real A and y0 in real arithmetic, and f on complex vectors.
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
        self.A = _check_matrix(self.A)
        self.y0 = np.atleast_1d(np.asarray(self.y0, dtype=complex))
        if self.y0.shape != (self.A.shape[0],):
            raise ValueError("y0 must match the dimension of A")
        if not np.all(np.isfinite(self.y0)):
            raise ValueError("y0 must be finite (no NaN or inf entries)")
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
        return _row_norms(self.states)


def _row_norms(X: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of X (of any trailing shape).  A finite row
    whose squares overflow, or underflow below the normal range, is scaled by
    its largest entry first: only a row with an inf entry, or a norm beyond
    the float range, has norm inf, and only a zero row has norm 0."""
    X = X.reshape(len(X), -1)
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(X, axis=1)
        rows = np.flatnonzero((norms == np.inf) | (norms < _TINY_NORM))
        if rows.size:
            m = np.max(np.abs(X[rows]), axis=1)
            keep = np.isfinite(m) & (m > 0.0)
            rows, m = rows[keep], m[keep]
            norms[rows] = m * np.linalg.norm(X[rows] / m[:, None], axis=1)
    return norms


class _ImplicitStep:
    """Solves M y = rhs + cf * f(t, y) with constant M, inverted once.

    M = c0 I - h^alpha w A folds the linear part exactly; its inverse is
    formed once by np.linalg.inv, as in the chord iteration (scipy's LU
    wakes the second thread of scipy's own BLAS, which then spins through
    the run); a singular or non-finite M raises SingularStepError.  A
    linear step (f None) is one real product Minv_r @ rhs with the real
    form Minv_r of M^{-1}: M^{-1} itself when M is real, else its (2 d) x
    (2 d) form acting on (re, im) row pairs (_real_matrix); rhs is a state
    in the same real rows, (r,) or (r, d).  f is handled on complex
    vectors by the chord (simplified Newton) iteration: the
    forward-difference Jacobian J = M - cf df/dy (relative step 1e-7) is
    formed and inverted at the step's first iterate and kept while the
    iteration contracts.  It is formed again after an iterate whose step
    ||delta_k|| exceeds half the step before it, or 0.1 max(||y_k||, 1),
    so that far from the root the iteration is full Newton.  The iteration
    stops once ||delta_k|| <= 1e-12 + 1e-12 ||y_k||; a singular Jacobian,
    a non-finite iterate or 50 iterations without convergence raise
    NonConvergenceError.
    """

    def __init__(self, M: np.ndarray, cf: float, f: Callable | None):
        self.M = M
        self.cf = cf
        self.f = f
        self.dim = M.shape[0]
        singular = SingularStepError("singular implicit step matrix")
        try:
            Minv = np.linalg.inv(M)
        except np.linalg.LinAlgError:
            raise singular from None
        if not (np.all(np.isfinite(M)) and np.all(np.isfinite(Minv))):
            raise singular
        self.Minv_r = Minv if M.dtype == float else _real_matrix(Minv)

    def advance(self, rhs: np.ndarray, t: float, guess: np.ndarray, step: int) -> np.ndarray:
        if self.f is None:
            return self.Minv_r @ rhs
        y = guess.copy()
        Jinv = None
        nd_prev = math.inf
        for _ in range(_NEWTON_MAXIT):
            fy = np.asarray(self.f(t, y))
            if Jinv is None:
                try:
                    Jinv = np.linalg.inv(self.M - self.cf * self._fd_jacobian(t, y, fy))
                except np.linalg.LinAlgError:
                    break
            delta = Jinv @ (self.M @ y - rhs - self.cf * fy)
            y = y - delta
            ny = _norm(y)
            if _non_finite(y, ny):  # no iteration recovers from a nan or inf iterate
                raise _no_convergence(step)
            nd = _norm(delta)
            if math.isfinite(ny) and nd <= _NEWTON_ATOL + _NEWTON_RTOL * ny:
                return y
            if nd > _CHORD_RATE * nd_prev or nd > _CHORD_JUMP * max(ny, 1.0):
                Jinv = None
            nd_prev = nd
        raise _no_convergence(step)

    def _fd_jacobian(self, t: float, y: np.ndarray, fy: np.ndarray) -> np.ndarray:
        J = np.empty((self.dim, self.dim), dtype=complex)
        for j in range(self.dim):
            dy = _FD_REL_STEP * max(abs(y[j]), 1.0)
            yp = y.copy()
            yp[j] += dy
            J[:, j] = (np.asarray(self.f(t, yp)) - fy) / dy
        return J


def _real_matrix(P: np.ndarray) -> np.ndarray:
    """The real (2 d) x (2 d) form of a complex d x d matrix P: it maps the
    (re, im) row pairs of Z to those of P Z, entry (i, j) becoming the block
    [[Re P_ij, -Im P_ij], [Im P_ij, Re P_ij]]."""
    d = P.shape[0]
    R = np.empty((d, 2, d, 2))
    R[:, 0, :, 0] = R[:, 1, :, 1] = P.real
    R[:, 0, :, 1] = -P.imag
    R[:, 1, :, 0] = P.imag
    return R.reshape(2 * d, 2 * d)


def _real_rows(Z: np.ndarray, real: bool) -> np.ndarray:
    """A complex state Z, (d,) or (d, d), in the real rows of a run: Z.real
    for a real run, else each row of Z as the pair of rows (Re, Im)."""
    if real:
        return Z.real
    R = np.empty((Z.shape[0], 2) + Z.shape[1:])
    R[:, 0], R[:, 1] = Z.real, Z.imag
    return R.reshape((-1,) + Z.shape[1:])


def _complex_states(X: np.ndarray, real: bool) -> np.ndarray:
    """The complex states of the real rows X, (n, r) or (n, r, d), of a run:
    a view for complex vectors, else one copy."""
    if real:
        return X.astype(complex)
    if X.ndim == 2:
        return X.view(complex)
    n, r, d = X.shape
    return np.ascontiguousarray(X.reshape(n, d, 2, d).swapaxes(2, 3)).view(complex)[..., 0]


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a vector, complex or its float view: the square root
    of a dot product, scaled (_row_norms) only when the squares overflow."""
    vf = v.view(float)
    nv = math.sqrt(vf @ vf)
    if nv == math.inf:  # an inf entry, or squares that overflow
        nv = _row_norms(vf[None])[0]
    return nv


def _no_convergence(step: int) -> NonConvergenceError:
    return NonConvergenceError(f"implicit solve did not converge at step {step}", step)


def _non_finite(y: np.ndarray, ny: float) -> bool:
    """Whether y holds a nan or inf entry; its norm ny is the cheap first test."""
    return not math.isfinite(ny) and not np.all(np.isfinite(y))


def _leaf_resolvent(Minv: np.ndarray, mu: np.ndarray, L: int) -> np.ndarray | None:
    """Block lower-triangular Toeplitz matrix of G_0 .. G_{L-1}, the run's
    discrete resolvent: the coefficients of (M + sum_{j>=1} mu_j z^j)^{-1},
    G_0 = M^{-1} and G_k = -M^{-1} sum_{j=1}^{k} mu_j G_{k-j}.  Minv is the
    real r x r form of M^{-1} (_ImplicitStep.Minv_r), so every G_k is the
    real form of its complex coefficient, and block (i, j) of the real
    (L r) x (L r) matrix is G_{i-j}, zero above the diagonal.  None when a
    G_k overflows: stepping then fails at the same step as without it.

    The recurrence runs in np.longdouble (80-bit on x86; plain double where
    the platform has no wider type): its sums cancel, and in double their
    rounding, carried through the leaf, reached 1.5e-12 of max ||y_n|| on
    an A = V B V^{-1} with cond(V) = 554 (F-BDF1, d = 4), where stepping the
    leaf with the same M^{-1} stays within 4.3e-13.
    """
    r = Minv.shape[0]
    G = np.zeros((L + 1, r, r), dtype=np.longdouble)  # G[L] stays zero
    G[0] = Minv
    mux = mu.astype(np.longdouble)
    for k in range(1, L):
        G[k] = -G[0] @ np.tensordot(mux[k:0:-1], G[:k], axes=1)
    G = G.astype(float)
    if not np.all(np.isfinite(G)):
        return None
    lag = np.subtract.outer(np.arange(L), np.arange(L))
    lag[lag < 0] = L
    return G[lag].transpose(0, 2, 1, 3).reshape(L * r, L * r)


@functools.lru_cache(maxsize=1024)  # a run merges blocks of about 2 log2 N sizes
def _fast_len(n: int) -> int:
    """The smallest 5-smooth integer >= n >= 1, the FFT length of a history
    merge (scipy.fft.next_fast_len(n, True)): pocketfft, under numpy.fft as
    under scipy.fft, factors such lengths into its fastest radices."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p2 = 1 << (-(-n // p35) - 1).bit_length()  # least power of 2 with p2 p35 >= n
            best = min(best, p2 * p35)
            p35 *= 3
        p5 *= 5
    return best


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
    least the N + 1 weights mu_0 .. mu_N.  Returns the complex states and the
    step at which ||Y_n|| first exceeds guard (the states end there), else
    None.

    The run is real when f is None and A and Y0 have no imaginary part: its
    states are r = d real rows.  Every other run keeps each complex row as
    the pair of real rows (Re, Im), r = 2 d, so that a complex vector state
    is the float view of its complex values (Newton works on that view) and
    the step and leaf products are real products of (2 d)-row matrices.
    Row n of the real state array, (N + 1, r) or (N + 1, r, d), accumulates
    the right-hand side iv_n Y0 - S_n (with the impulse) until step n
    overwrites it with Y_n, so the history needs no array of its own.  The
    rows start at iv_n Y0 - mu_n H_0, and the steps follow _blocks: a finished
    half block's share of S reaches the next half through one real FFT
    product (mu is real).  The sums are exact up to rounding and cost
    O(N log^2 N).

    When a leaf [lo, hi) starts, its rows R_n hold every history term from
    steps before lo.  A linear run with _LEAF d <= _LEAF_ROWS then solves the
    leaf at once, Y_{lo+i} = sum_{k<=i} G_k R_{lo+i-k} with the run's
    discrete resolvent G (_leaf_resolvent): one product of the resolvent
    matrix's top-left corner with the leaf's states stacked into L r rows.
    The leaf's first row with a non-finite entry, or with a norm above
    guard, ends the run as the same step would have.  Other runs step the
    leaf, adding the in-leaf history directly.
    """
    mu = w.mu[:N + 1]
    ha = h ** alpha
    d = A.shape[0]
    real = f is None and not np.any(A.imag) and not np.any(Y0.imag)
    step = _ImplicitStep(mu[0] * np.eye(d) - ha * (A.real if real else A), ha, f)
    G = None  # the resolvent matrix of a linear run's leaves
    if f is None and _LEAF * d <= _LEAF_ROWS:
        with np.errstate(over="ignore", invalid="ignore"):  # None if G overflows
            G = _leaf_resolvent(step.Minv_r, mu, min(_LEAF, N))
    if iv is None:
        iv = np.cumsum(mu)
    rev = np.ascontiguousarray(mu[:0:-1])  # mu_N .. mu_1
    mu_hat = {}  # rfft of mu per FFT length

    X0 = H0 = _real_rows(Y0, real)
    r = X0.shape[0]
    if z0:
        F0 = 0.0 if f is None else ha * np.asarray(f(0.0, Y0))
        H0 = step.Minv_r @ _real_rows(Y0 + F0, real)
    X = np.empty((N + 1,) + X0.shape)
    Xf = X.reshape(N + 1, -1)  # one real row per state
    np.multiply.outer(iv[1:N + 1], X0.ravel(), out=Xf[1:])
    Xf[1:] -= np.multiply.outer(mu[1:], H0.ravel())
    if impulse:  # forced runs have N >= 1 steps; the real rows of I
        X[1, ::r // d] += ha * np.eye(d)
    X[0] = X0
    S = X if f is None else Xf.view(complex)  # what step.advance reads and returns
    with np.errstate(over="ignore", invalid="ignore"):  # the non-finite test names the step
        for lo, mid, hi in _blocks(1, N + 1):
            if mid is not None:
                P = _fast_len(hi - lo)  # no wrap-around reaches rows mid..hi
                if P not in mu_hat:
                    mu_hat[P] = np.fft.rfft(mu[:P], P)[:, None]
                spec = np.fft.rfft(Xf[lo:mid], P, axis=0)
                spec *= mu_hat[P]
                Xf[mid:hi] -= np.fft.irfft(spec, P, axis=0)[mid - lo:hi - lo]
                continue
            if G is not None:
                L = hi - lo
                leaf = X[lo:hi].reshape(L * r, Xf.shape[1] // r)
                leaf[:] = G[:L * r, :L * r] @ leaf
                stop = ~np.isfinite(Xf[lo:hi]).all(axis=1)
                if guard is not None:
                    stop |= _row_norms(Xf[lo:hi]) > guard
                n = lo + int(np.argmax(stop)) if stop.any() else None
            else:
                n = None
                for m in range(lo, hi):
                    xf = Xf[m]
                    xf -= rev[N - m + lo:] @ Xf[lo:m]
                    S[m] = y = step.advance(S[m], m * h, S[m - 1], m)
                    ny = _norm(xf)
                    if _non_finite(y, ny) or (guard is not None and ny > guard):
                        n = m
                        break
            if n is not None:
                if not np.all(np.isfinite(Xf[n])):
                    raise SolverError(f"non-finite state at step {n}", n)
                return _complex_states(X[:n + 1].copy(), real), n
    return _complex_states(X, real), None


def _trajectory(w: wt.SchemeWeights, problem: FOdeProblem, h: float, N: int,
                iv: np.ndarray | None = None, z0: bool = False) -> Trajectory:
    """Guarded run of `problem`, truncated (with a warning) at blow-up."""
    guard = BLOWUP_FACTOR * max(_row_norms(problem.y0[None])[0], 1.0)
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


def _check_matrix(A) -> np.ndarray:
    """A as a complex matrix; ValueError unless it is square and finite."""
    A = np.atleast_2d(np.asarray(A, dtype=complex))
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("A must be square")
    if not np.all(np.isfinite(A)):
        raise ValueError("A must be finite (no NaN or inf entries)")
    return A


def _check_grid(h: float, N: int = 1) -> None:
    if not (h > 0 and math.isfinite(h)):
        raise ValueError(f"step size must be positive, got {h}")
    if N < 1:
        raise ValueError(f"need at least one step, got N={N}")
