"""Time-stepping engine for semi-linear Caputo fractional ODEs.

Advances D^alpha y = A y + f(t, y), y(0) = y0, on the uniform grid t_n = n h.
There are three entry points: `solve` runs any scheme by id,
`solve_alpha_diff` chooses the alpha-difference variant, and `solve_cells`
runs the (scheme, alpha) cells of one problem, those of a small problem
together as one batch.  Every scheme is one discrete convolution with the
weights mu of its generating function F_mu, and one core (`_run`) steps them
all, a batch of runs at a time (a batch of one for `solve`), through the same
equation

    sum_{j=0}^{n} mu_j y_{n-j} = iv_n y_0 + h^alpha (A y_n + f_n),   n >= 1,

where only the initial-value term iv differs: cumsum(mu) for L1 and the
F-LMMs, zero for the alpha-difference "difference" variant and k^(1-alpha)
for its "poisson" variant, whose history also starts at z_0 in place of y_0
(see solve_alpha_diff).  A run is the record (weights, iv, z0) of
_scheme_run, with h^alpha from weights.alpha, so each run of a batch has its
own.  Every step solves a linear system with the constant matrix
M = mu_0 I - h^alpha A, whose inverse is formed once per run with
np.linalg.inv (stacked over the runs of a batch).  A run is real when f is
None and A and y0 are real: it steps d real rows.  Every other run steps
each complex row of its states as a pair of real rows (Re, Im), and its
complex matrices act through their real (2 d) x (2 d) forms, so every
product and FFT of the core is real; the complex states are returned as
before.  A nonlinear step is solved on
complex vectors by the chord (simplified Newton) iteration, for each run of
a batch on its own: each step starts from the linear predictor
M^{-1} (rhs + h^alpha f_last), f_last the f value of the run's own last
iterate of the step or leaf before (y_0 at the first step), with one
finite-difference Jacobian per step, formed again only after an iterate that
contracts by less than half or moves by more than a tenth of the state; a
step the iteration cannot solve raises NonConvergenceError.  A batch of B > 1
runs hands f the (k, d) stack of states it needs, k = B for an iterate or
for one step of a leaf sweep (below) and k = B (d + 1) for an iterate with
its Jacobian's shifted states, and f returns their values row by row; a
single run hands it one (d,) vector at a time.  The history sums follow the
divide-and-conquer schedule
of Hairer, Lubich & Schlichte (1985, SIAM J. Sci. Stat. Comput. 6:532):
direct sums inside blocks of at most 64 steps, and one product per pair of
neighbouring half blocks, O(N log^2 N) in total and exact up to rounding.  A
pair spanning at most 256 steps (_DIRECT_MERGE) is one stacked product with
each run's Toeplitz matrix of mu; a larger one is a real FFT product (one FFT
for a whole batch, multiplied by each run's mu spectrum) through numpy.fft
(the same pocketfft as scipy.fft) at 5-smooth lengths (_fast_len), so
stepping loads no scipy.  A linear run (f None) of
small dimension (_stacked: _LEAF d <= _LEAF_ROWS, i.e. d <= 4) solves each
leaf at once, with one product of the block Toeplitz matrix of its own
discrete resolvent G, the coefficients of (M + sum_{j>=1} mu_j z^j)^{-1};
larger linear runs step the leaf one step at a time.  A nonlinear run of a
real A with d <= 4 solves each leaf after its first whole as well, by
fixed-point sweeps Y = G (R + h^alpha F(Y)) through its resolvent, R the
history the leaf holds and F f at every step of the leaf (the paper's
y_n = d_n y_0 + sum_k D_{n-k} f_k, restricted to a leaf); a run whose sweeps
stop contracting steps that leaf by the chord iteration, which also steps
every first leaf and every leaf of a complex A or of d > 4.  Before any run,
a real linear problem with d > 4 is stepped in the orthonormal real
eigenbasis of A when its y0 excites at most 4 rows of modes there (_modes):
the modes it drops carry coordinates at the rounding level and eigenvalues
the schemes keep bounded, so the reduced run, mapped back, agrees with the
stepped one to rounding (the 64-mode advection grids keep 2 rows).  The
same core steps (d, d) matrix states too: resolvent.impulse_resolvent runs
the homogeneous equation from I, with each of two initial-value terms, as
one batch.

All schemes are self-starting and no initial-layer correction terms are used;
the focus is long-time behavior, not accuracy near t = 0.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple, Sequence

import numpy as np

from . import weights as wt
from .special import _check_alpha, _check_matrix, _Spectrum

__all__ = [
    "FOdeProblem",
    "Trajectory",
    "SolverError",
    "SingularStepError",
    "NonConvergenceError",
    "BLOWUP_FACTOR",
    "solve",
    "solve_alpha_diff",
    "solve_cells",
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
#: (_LEAF d) x (_LEAF d) resolvent matrix when _LEAF * d <= _LEAF_ROWS
#: (_stacked), and solve_cells steps the cells of such a problem as one
#: batch.  On F-BDF2 runs of 5000 steps (2-CPU Xeon) the product was 3x
#: faster than stepping the leaf at d = 1, 2x faster at d = 4 and 2x slower
#: at d = 16.
_LEAF_ROWS = 256
#: a merge (lo, mid, hi) with hi - lo <= _DIRECT_MERGE is one direct Toeplitz
#: product, a larger one an FFT product.  Five scalar solves of 20005 steps
#: (2-CPU Xeon, in-process, best of 9) took 108-110 ms with FFT merges only,
#: 92-95 ms at a cutoff of 128, 86-87 at 256, 82-84 at 512 and 89-93 at 1024;
#: a batch of B runs reads B Toeplitz matrices a merge, and at 256 the
#: batched T4 and T6 grids (8 and 16 runs) measured up to 5% slower than
#: with FFT merges only, about the spread of the machine.
_DIRECT_MERGE = 256
#: a nonlinear run's leaf sweeps (_ImplicitStep.sweep) stop after this many,
#: and the run steps the leaf.  The T6 and T7 runs take 2 to 7; 16 cost
#: about what stepping the leaf does, at 3-9 us a step and sweep (a solo
#: Lorenz run to a batch of 16, 2-CPU Xeon) against 60-95 us a step for the
#: chord iteration.
_SWEEP_MAXIT = 16
#: the smallest norm whose square is a normal float.
_TINY_NORM = math.sqrt(np.finfo(float).tiny)


@dataclass
class FOdeProblem:
    """A Caputo fractional ODE D^alpha y = A y + f(t, y), y(0) = y0.

    f is None for homogeneous (linear) problems, else a callable
    (t, y) -> vector.  solve hands f one complex state vector y of shape
    (d,); solve_cells, when it steps the cells of a problem with d <= 4 as
    one batch, hands f a (k, d) stack of states (the cells' iterates, or
    their states at one step of a leaf sweep, and for a Jacobian their
    shifted states too) and expects the (k, d) stack of their values, row by
    row, so an f used there must act along the last axis.  f must be a pure
    function of (t, y): the solver calls it at iterates it discards, and a
    leaf sweep (_ImplicitStep.sweep) calls it once per step of the leaf and
    sweep.  A and y0 are stored complex and trajectories are complex; A may
    carry complex entries (the scalar test problem uses a complex
    eigenvalue directly).  The solver steps a linear problem with real A
    and y0 in real arithmetic, and f on complex vectors.
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
        _check_alpha(self.alpha)
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
    """Solves M_b y_b = rhs_b + cf_b f(t, y_b) for the runs b of a batch, with
    constant M_b, inverted once.

    M, (B, d, d), stacks the step matrices M_b = c0_b I - h^alpha_b w_b A,
    which fold the linear part exactly, and cf, (B,), their h^alpha_b; a
    linear step also takes a (d, d) M and states without the batch axis.
    The inverses are formed once by np.linalg.inv, as in the chord iteration
    (scipy's LU wakes the second thread of scipy's own BLAS, which then spins
    through the run); a singular or non-finite M_b raises SingularStepError.
    A linear step (f None) is one real product with Minv_r, which _run applies
    itself: Minv_r stacks the real forms of M_b^{-1}, M_b^{-1} itself when M
    is real, else its (2 d) x (2 d) form acting on (re, im) row pairs
    (_real_matrix), and the states sit in the same real rows, (B, r, 1) or
    (B, r, d).  f is handled on the complex
    (B, d) states by the chord (simplified Newton) iteration, each run on its
    own.  It starts from the linear predictor M_b^{-1} (rhs_b + cf_b f_b),
    f_b the f value of run b's own final iteration of the step before, kept
    per run so that a run of a batch steps as it would alone.  The
    forward-difference Jacobian J_b = M_b - cf_b df/dy (relative step 1e-7)
    is formed and inverted at the run's first iterate and kept while its
    iteration contracts.  It is formed again after an iterate whose
    step ||delta_k|| exceeds half the step before it, or 0.1 max(||y_k||, 1),
    so that far from the root the iteration is full Newton.  A run stops once
    ||delta_k|| <= 1e-12 + 1e-12 ||y_k||, and its state is frozen while the
    others iterate on; a singular Jacobian, a non-finite iterate or 50
    iterations without convergence of every run raise NonConvergenceError.
    f sees one (d,) vector per call when B = 1: the iterate, then each of
    the Jacobian's d shifted states.  A batch (B > 1) makes one call per
    iterate, on the (B, d) stack of states, or, when it forms a Jacobian, on
    the (B (d + 1), d) stack of states and shifted states; f returns the
    values row by row.
    """

    def __init__(self, M: np.ndarray, cf, f: Callable | None):
        self.M = M
        self.cf = np.asarray(cf)[..., None, None]  # broadcast over (B, d, 1) columns
        self.f = f
        singular = SingularStepError("singular implicit step matrix")
        try:
            Minv = np.linalg.inv(M)
        except np.linalg.LinAlgError:
            raise singular from None
        if not (np.all(np.isfinite(M)) and np.all(np.isfinite(Minv))):
            raise singular
        self.Minv_r = Minv if M.dtype == float else _real_matrix(Minv)
        if f is not None:
            self.Minv = Minv  # the predictor's
            # the iterate and its step, as (B, d, 1) columns, for advance
            self._work = np.empty((2,) + M.shape[:-1] + (1,), dtype=complex)
            self._work_rows = self._work.view(float).reshape(2 * len(M), -1)
            self._f_last = np.zeros(M.shape[:-1], dtype=complex)  # f of each run's last iterate

    def advance(self, rhs: np.ndarray, t: float, step: int, live: list[int],
                start: np.ndarray | None = None) -> np.ndarray:
        """The states of step `step` of a nonlinear batch from rhs; only the
        runs listed in `live` iterate, and only their rows of the result are
        states (the caller stores those).  The iteration starts from `start`
        when given (y_0 at the first step), else from the linear predictor
        M^{-1} (rhs + cf f_last), with f_last the f value of each run's own
        final iteration of the step or leaf before."""
        f, M, cf = self.f, self.M, self.cf
        y, delta = self._work
        B = len(y)
        one = B == 1  # f takes the (d,) vector of a single run
        rhs = rhs[..., None]
        runs = live  # the runs still iterating
        frozen = [b for b in range(B) if b not in runs] if len(runs) < B else []  # not iterating
        if start is not None:
            y[..., 0] = start
        else:
            np.matmul(self.Minv, rhs + cf * self._f_last[..., None], out=y)
        fresh = runs  # the runs whose Jacobian is formed at this iterate
        Jinv = None
        nd_prev = [math.inf] * B
        for _ in range(_NEWTON_MAXIT):
            if fresh:
                fy, dfdy = self._fd_jacobian(t, y[..., 0], one)
                J = M - cf * dfdy
                try:
                    if len(fresh) == B:
                        Jinv = np.linalg.inv(J)
                    else:
                        if Jinv is None:
                            Jinv = np.zeros(M.shape, dtype=complex)
                        Jinv[fresh] = np.linalg.inv(J[fresh])
                except np.linalg.LinAlgError:
                    break
            else:
                fy = np.asarray(f(t, y[0, :, 0] if one else y[..., 0])).reshape(B, -1)
            np.matmul(Jinv, M @ y - rhs - cf * fy[..., None], out=delta)
            if frozen:
                delta[frozen] = 0.0  # y - 0 is y
            y -= delta
            norms = _norms(self._work_rows)  # the iterates, then the steps
            going, fresh, done = [], [], []
            for b in runs:
                ny, nd = norms[b], norms[B + b]
                if not math.isfinite(ny):
                    if not np.all(np.isfinite(y[b])):  # no iteration recovers from it
                        raise _no_convergence(step)
                elif nd <= _NEWTON_ATOL + _NEWTON_RTOL * ny:
                    done.append(b)
                    continue
                going.append(b)
                if nd > _CHORD_RATE * nd_prev[b] or nd > _CHORD_JUMP * max(ny, 1.0):
                    fresh.append(b)
                nd_prev[b] = nd
            if done:
                self._f_last[done] = fy[done]
                frozen += done
            runs = going
            if not runs:
                return y[..., 0]  # a view of the work array: the caller stores it
        raise _no_convergence(step)

    def sweep(self, S: np.ndarray, lo: int, h: float, runs: list[int],
              spectra: tuple[np.ndarray, list[bool]]) -> list[int]:
        """Solve the leaf of steps lo .. lo + L - 1 of a nonlinear batch whole,
        for the runs listed, by fixed-point sweeps through each run's leaf
        resolvent; returns the runs left to step, whose rows are untouched.

        S, (L, B, d), are the leaf's complex rows: they hold R, every history
        term from the steps before lo.  A sweep forms Y = G (R + cf F) with
        the run's resolvent G (spectra, from _leaf_spectra) through the rfft
        at length 2 _LEAF, and F = f(t_n, Y_n) of the sweep before at every
        step n of the leaf; the first sweep starts from F = f_last.  f sees
        what advance hands it, one call per step and sweep.  A run stops
        once every step's change passes the chord test
        ||Y_n - Y_n^prev|| <= 1e-12 + 1e-12 ||Y_n||: its rows take Y and its
        f_last the F of its last step.  A run whose resolvent is not finite,
        whose largest change is not finite or above _CHORD_RATE times that of
        the sweep before, or that has not stopped after _SWEEP_MAXIT sweeps,
        is left to step.  Each run's sweeps read only that run's rows, so a
        run of a batch sweeps as it would alone."""
        G_hat, finite = spectra
        f, cf = self.f, self.cf[..., None]
        L, B, d = S.shape
        one = B == 1
        # R and the products run along the last axis, (B, d, 2, L): the
        # elementwise products over the spectra then have long inner loops
        R = np.ascontiguousarray(S.view(float).reshape(L, B, d, 2).transpose(1, 2, 3, 0))
        F = np.empty((L, B, d), dtype=complex)
        F[:] = self._f_last
        Fr = F.view(float).reshape(L, B, d, 2).transpose(1, 2, 3, 0)

        def solved() -> np.ndarray:
            """G (R + cf F) for every run, as (L, B, d, 2) rows."""
            spec = np.fft.rfft(R + cf * Fr, 2 * _LEAF, axis=-1)
            prod = G_hat[:, :, 0, None] * spec[:, None, 0]
            for j in range(1, d):
                prod += G_hat[:, :, j, None] * spec[:, None, j]
            return np.fft.irfft(prod, 2 * _LEAF, axis=-1)[..., :L].transpose(3, 0, 1, 2).copy()

        going = [b for b in runs if finite[b]]
        left = [b for b in runs if not finite[b]]
        prev = [math.inf] * B  # each run's largest change in its last sweep
        Y = solved()
        for _ in range(_SWEEP_MAXIT - 1):  # the sweeps after the first
            if not going:
                break
            Yc = Y.view(complex)[..., 0]
            for i in range(L):
                if one:
                    F[i, 0] = f((lo + i) * h, Yc[i, 0])
                else:
                    F[i] = f((lo + i) * h, Yc[i])
            Y_new = solved()
            delta = (Y_new - Y).reshape(L, B, 2 * d)
            rows = Y_new.reshape(L, B, 2 * d)
            nd = np.sqrt(np.einsum("nbk,nbk->nb", delta, delta))
            ny = np.sqrt(np.einsum("nbk,nbk->nb", rows, rows))
            done = (nd <= _NEWTON_ATOL + _NEWTON_RTOL * ny).all(axis=0).tolist()
            change = nd.max(axis=0).tolist()  # nan where a change is nan
            still = []
            for b in going:
                if done[b]:
                    S[:, b] = Y_new[:, b].view(complex)[..., 0]
                    self._f_last[b] = F[-1, b]
                elif math.isfinite(change[b]) and change[b] <= _CHORD_RATE * prev[b]:
                    prev[b] = change[b]
                    still.append(b)
                else:
                    left.append(b)
                    Y_new[:, b] = 0.0  # f sees no non-finite state
            going, Y = still, Y_new
        return sorted(left + going)

    def _fd_jacobian(self, t: float, y: np.ndarray, one: bool) -> tuple[np.ndarray, np.ndarray]:
        """f at the (B, d) states y, (B, d), and df/dy there, (B, d, d), by
        forward differences: column j from f at y + dy_j e_j.  A batch calls
        f once, on the (B (d + 1), d) stack of each y and its d shifts; a
        single run calls it d + 1 times, on (d,) vectors."""
        B, d = y.shape
        dy = _FD_REL_STEP * np.maximum(np.abs(y), 1.0)
        Y = np.empty((B, d + 1, d), dtype=y.dtype)  # Y[:, 0] = y, Y[:, 1 + j] = y + dy_j e_j
        Y[:] = y[:, None]
        Y.reshape(B, -1)[:, d::d + 1] += dy
        if one:
            F = np.empty_like(Y)
            for i, v in enumerate(Y[0]):
                F[0, i] = self.f(t, v)
        else:
            F = np.asarray(self.f(t, Y.reshape(-1, d))).reshape(Y.shape)
        fy = F[:, 0]
        return fy, (F[:, 1:] - fy[:, None]).swapaxes(1, 2) / dy[:, None, :]


def _real_matrix(P: np.ndarray) -> np.ndarray:
    """The real (2 d) x (2 d) form of a complex d x d matrix P, or of each of a
    stack (..., d, d): it maps the (re, im) row pairs of Z to those of P Z,
    entry (i, j) becoming the block [[Re P_ij, -Im P_ij], [Im P_ij, Re P_ij]]."""
    lead, d = P.shape[:-2], P.shape[-1]
    R = np.empty(lead + (d, 2, d, 2))
    R[..., :, 0, :, 0] = R[..., :, 1, :, 1] = P.real
    R[..., :, 0, :, 1] = -P.imag
    R[..., :, 1, :, 0] = P.imag
    return R.reshape(lead + (2 * d, 2 * d))


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


def _norms(V: np.ndarray) -> list[float]:
    """Euclidean norm of each row of the (B, k) float array V, the same value
    for the same row: the square root of its dot product, scaled
    (_row_norms) only where the squares overflow."""
    nv = np.sqrt(np.matmul(V[:, None], V[..., None]).ravel()).tolist()
    if math.inf in nv:
        nv = [_row_norms(V[b:b + 1])[0] if n == math.inf else n for b, n in enumerate(nv)]
    return nv


def _no_convergence(step: int) -> NonConvergenceError:
    return NonConvergenceError(f"implicit solve did not converge at step {step}", step)


def _resolvent_blocks(Minv: np.ndarray, mus: np.ndarray, L: int) -> np.ndarray:
    """G_0 .. G_{L-1}, (B, L, r, r), each run's discrete resolvent: the
    coefficients of (M + sum_{j>=1} mu_j z^j)^{-1}, G_0 = M^{-1} and
    G_k = -M^{-1} sum_{j=1}^{k} mu_j G_{k-j}, from the runs' (B, r, r) real
    M^{-1} and their weights mus, (B, >= L).  A G_k that overflows is not
    finite.

    The recurrence runs once for the batch, over (B, r, r) stacks, with one
    matmul over the lags per k; a stack's matmul is that of each run alone.
    It runs in np.longdouble (80-bit on x86; plain double where the platform
    has no wider type): its sums cancel, and in double their rounding,
    carried through the leaf, reached 1.5e-12 of max ||y_n|| on an
    A = V B V^{-1} with cond(V) = 554 (F-BDF1, d = 4), where stepping the
    leaf with the same M^{-1} stays within 4.3e-13.
    """
    B, r = Minv.shape[:2]
    G = np.empty((B, max(L, 1), r, r), dtype=np.longdouble)  # G_0 also for a run of no steps
    G[:, 0] = Minv
    lags = G.reshape(B, -1, r * r)
    mux = mus[:, None, :L].astype(np.longdouble)  # (B, 1, L)
    for k in range(1, L):
        G[:, k] = -G[:, 0] @ np.matmul(mux[..., k:0:-1], lags[:, :k]).reshape(B, r, r)
    return G.astype(float)


def _leaf_resolvents(Minv: np.ndarray, mus: np.ndarray, L: int) -> np.ndarray | None:
    """The block lower-triangular Toeplitz matrices of each run's G_0 .. G_{L-1}
    (_resolvent_blocks).  Minv, (B, r, r), stacks the real forms of the runs'
    M^{-1} (_ImplicitStep.Minv_r), so every G_k is the real form of its
    complex coefficient, and block (i, j) of run b's real (L r) x (L r)
    matrix is its G_{i-j}, zero above the diagonal: (B, L r, L r) in all.
    None when a G_k of any run overflows: the batch then steps its leaves,
    and fails where it would without them."""
    B, r = Minv.shape[:2]
    G = _resolvent_blocks(Minv, mus, L)
    if not np.all(np.isfinite(G)):
        return None
    T = np.zeros((B, L, r, L, r))  # T[:, i, :, j] = G_{i-j}
    for i in range(L):
        T[:, i, :, :i + 1] = G[:, i::-1].swapaxes(1, 2)
    return T.reshape(B, L * r, L * r)


def _leaf_spectra(Minv: np.ndarray, mus: np.ndarray) -> tuple[np.ndarray, list[bool]]:
    """The leaf resolvents of nonlinear runs with a real A, for their sweeps
    (_ImplicitStep.sweep): the rfft at length 2 _LEAF of each run's
    G_0 .. G_{_LEAF - 1} (_resolvent_blocks), (B, d, d, _LEAF + 1), from its
    real (B, d, d) M^{-1}, and whether each run's G_k are finite (a run
    whose are not steps every leaf, and its spectrum is zero)."""
    G = _resolvent_blocks(Minv, mus, _LEAF)
    finite = np.isfinite(G).all(axis=(1, 2, 3))
    G[~finite] = 0.0
    return np.fft.rfft(G.transpose(0, 2, 3, 1), 2 * _LEAF), finite.tolist()


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


def _stacked(d: int) -> bool:
    """Whether runs of dimension d are per-step overhead: a linear one solves
    its leaves with resolvent products, and solve_cells steps such cells as
    one batch."""
    return _LEAF * d <= _LEAF_ROWS


class _Run(NamedTuple):
    """One run of the core: its weights, whose alpha gives h^alpha, its
    initial-value term iv_0 .. iv_N (at least N + 1 values) and whether its
    history starts at z_0 (z0, the alpha-difference "poisson" variant)."""

    weights: wt.SchemeWeights
    iv: np.ndarray
    z0: bool = False


def _run(runs: Sequence[_Run], A: np.ndarray, h: float, N: int, Y0: np.ndarray,
         f: Callable | None = None, guard: float | None = None
         ) -> list[tuple[np.ndarray, int | None]]:
    """The stepping core shared by every scheme and by the impulse resolvents.

    Steps a batch of B runs (w_b, iv_b, z0_b) (_Run) that share A, Y0, f, h
    and N; each has its own weights mu_b, h^alpha_b from w_b.alpha,
    initial-value term iv_b and history start.  f receives what
    _ImplicitStep.advance hands it: one (d,) vector when B = 1, else a
    (k, d) stack of states, whose values it returns row by row.  Step n of
    run b solves sum_{j=0}^{n} mu_j H_{n-j} = iv_n Y0 + h^alpha (A Y_n + F_n) for
    states Y of shape (d,) or (d, d), i.e. M Y_n = iv_n Y0 - S_n +
    h^alpha F_n with M = mu_0 I - h^alpha A, the history sum
    S_n = sum_{m=0}^{n-1} mu_{n-m} H_m and F_n = f(t_n, Y_n), zero when f is
    None.  The history is the states, H_m = Y_m, except
    H_0 = z_0 = M^{-1} (Y0 + h^alpha f(0, Y0)) in a run with z0 set, each
    with its own M and h^alpha.  w_b holds at least the N + 1
    weights mu_0 .. mu_N.  Returns, per run, the complex states and the step
    at which ||Y_n|| first exceeds guard (the states end there), else None.
    Every run is checked against the guard on its own: a run that crosses it
    is frozen there (its rows are zeroed and it steps no further) and the
    others run on.  A step that fails in any run raises, as that run alone
    would.

    The runs are real when f is None and A and Y0 have no imaginary part:
    their states are r = d real rows.  Every other batch keeps each complex
    row as the pair of real rows (Re, Im), r = 2 d, so that a complex vector
    state is the float view of its complex values (Newton works on that
    view) and the step and leaf products are real products of (2 d)-row
    matrices.  The real states form one array, (N + 1, B, r, 1) (a vector
    state is one column) or (N + 1, B, r, d), whose row n, for every run,
    accumulates the right-hand side iv_n Y0 - S_n until
    step n overwrites it with Y_n, so the history needs no array of its own.
    The rows start at iv_n Y0 - mu_n H_0, and the steps follow _blocks: a
    finished half block's share of S reaches the next half by one of two
    products, each exact up to rounding.  A merge (lo, mid, hi) with
    hi - lo <= _DIRECT_MERGE is direct: rows mid..hi-1 of each run b lose
    T_b times its rows lo..mid-1, T_b[i, j] = mu_b[mid - lo + i - j], one
    stacked matmul whose C-ordered T (kept per (mid - lo, hi - mid) within
    the run) makes each run's product the BLAS product it makes alone.  A
    larger merge goes through one real FFT of the half block's rows,
    multiplied by the table of the runs' mu spectra (mu is real).  The sums
    cost O(N log^2 N); a run of 20005 steps makes 384 of its 511 merges
    direct.

    When a leaf [lo, hi) starts, its rows R_n hold every history term from
    steps before lo.  A linear batch with _stacked(d) then solves the leaf at
    once, Y_{lo+i} = sum_{k<=i} G_k R_{lo+i-k} with each run's discrete
    resolvent G (_leaf_resolvents): one product of the resolvent matrix's
    top-left corner with the leaf's states stacked into L r rows.  The
    solved leaf is tested whole first, as a step tests its state: the norm
    of all its rows, one dot product, within the guard's bound passes every
    row.  Only a leaf that fails it is tested row by row: a run's first row
    with a non-finite entry, or with a norm above guard, ends it as the same
    step would have, and a finite row whose squares overflow is scaled
    (_row_norms).  A nonlinear batch of a real A with _stacked(d) solves
    each leaf after its first by sweeps instead (_ImplicitStep.sweep, each
    run's G from _leaf_spectra), Y = G (R + h^alpha F(Y)) until every step
    of the leaf passes the chord test, and tests the solved leaf in the same
    way.  A run whose sweeps stop contracting keeps its rows R and steps the
    leaf, alone or with the others that do, while the solved runs keep
    theirs.  Other batches, and a linear batch in which a run's resolvent
    overflows, step the leaf, adding the in-leaf history directly.  The
    products of the batch are stacked matrix products, and the sweeps' FFTs
    and spectral products act on each run's rows alone, the same arithmetic
    for each run as for that run alone.
    """
    B = len(runs)
    mus = np.stack([run.weights.mu[:N + 1] for run in runs])
    ivs = np.stack([run.iv[:N + 1] for run in runs])
    has = np.array([h ** run.weights.alpha for run in runs])
    d = A.shape[0]
    real = f is None and not np.any(A.imag) and not np.any(Y0.imag)
    eye = np.eye(d)
    step = _ImplicitStep(mus[:, 0, None, None] * eye - has[:, None, None] * (A.real if real else A),
                         has, f)
    G = None  # the resolvent matrices of a linear batch's leaves
    if f is None and _stacked(d):
        with np.errstate(over="ignore", invalid="ignore"):  # None if a G overflows
            G = _leaf_resolvents(step.Minv_r, mus, min(_LEAF, N))
    spectra = None  # the leaf resolvents of a nonlinear batch's sweeps
    if f is not None and _stacked(d) and N > _LEAF and not np.any(A.imag):
        with np.errstate(over="ignore", invalid="ignore"):  # a run whose G overflows steps
            spectra = _leaf_spectra(step.Minv.real, mus)
    revs = np.ascontiguousarray(mus[:, None, :0:-1])  # mu_N .. mu_1 of each run, (B, 1, N)
    mu_hat = {}  # rfft of each run's mu per FFT length
    toeplitz = {}  # the direct merges' matrices per (mid - lo, hi - mid)

    X0 = _real_rows(Y0, real)
    r = X0.shape[0]
    if any(run.z0 for run in runs):
        F0 = 0.0 if f is None else np.asarray(f(0.0, Y0))
    H0 = np.stack([Minv @ _real_rows(Y0 + ha * F0, real) if run.z0 else X0
                   for run, Minv, ha in zip(runs, step.Minv_r, has)])
    X = np.empty((N + 1, B, r, Y0.size // d))  # a vector state is one column
    Xr = X[..., 0] if Y0.ndim == 1 else X  # the states in their own shape
    Xf = X.reshape(N + 1, B, -1)  # one real row per state
    Xs = Xf.swapaxes(0, 1)  # the rows of each run
    Xm = X.reshape(N + 1, B, 1, -1)  # each run's row as a 1-row matrix
    Xv = X.reshape(N + 1, -1)  # all runs' rows as one vector
    np.multiply(ivs.T[1:, :, None], X0.ravel(), out=Xf[1:])
    Xf[1:] -= mus.T[1:, :, None] * H0.reshape(B, Xf.shape[2])
    Xr[0] = X0
    S = None if f is None else Xf.view(complex)  # the complex vector states Newton works on
    Minv_r = step.Minv_r
    live = list(range(B))  # the runs not yet ended
    out: list = [None] * B
    # the batch's norm bounds each run's; a relative margin covers its rounding
    bound = np.finfo(float).max if guard is None else (1.0 - 1e-12) * guard

    def stop(b: int, n: int) -> None:
        """End run b at step n: raise if its state there is not finite."""
        if not np.all(np.isfinite(Xf[n, b])):
            raise SolverError(f"non-finite state at step {n}", n)
        out[b] = _complex_states(Xr[:n + 1, b].copy(), real), n
        X[:, b] = 0.0
        live.remove(b)

    def check(lo: int, hi: int) -> None:
        """Test the solved leaf [lo, hi) against the guard: the norm of all its
        rows first, as a step tests its state; only a leaf that fails it is
        tested row by row, and each run's first row that ends it stops it."""
        v = Xv[lo:hi].ravel()
        if math.sqrt(v @ v) <= bound:  # the leaf's norm bounds each row's, as in a step
            return
        rows = Xf[lo:hi].reshape((hi - lo) * B, Xf.shape[2])
        if guard is None:
            ends = ~np.isfinite(rows).all(axis=1)
        else:  # a norm that is nan, or inf, or above guard
            ends = ~(_row_norms(rows) <= guard)
        for i in np.flatnonzero(ends):  # in step order
            n, b = divmod(int(i), B)
            if b in live:
                stop(b, lo + n)

    with np.errstate(over="ignore", invalid="ignore"):  # the non-finite test names the step
        for lo, mid, hi in _blocks(1, N + 1):
            if mid is not None:
                if hi - lo <= _DIRECT_MERGE:
                    T = toeplitz.get((mid - lo, hi - mid))
                    if T is None:  # T[b, i, j] = mu_b[mid - lo + i - j], C-ordered
                        T = toeplitz[mid - lo, hi - mid] = np.ascontiguousarray(mus[
                            :, mid - lo + np.arange(hi - mid)[:, None] - np.arange(mid - lo)])
                    Xs[:, mid:hi] -= T @ Xs[:, lo:mid]
                    continue
                P = _fast_len(hi - lo)  # no wrap-around reaches rows mid..hi
                if P not in mu_hat:
                    mu_hat[P] = np.fft.rfft(mus[:, :P], P).T[:, :, None]
                spec = np.fft.rfft(Xf[lo:mid], P, axis=0)
                spec *= mu_hat[P]
                Xf[mid:hi] -= np.fft.irfft(spec, P, axis=0)[mid - lo:hi - lo]
                del spec  # not held through the steps and merges that follow
                continue
            if G is not None:
                L = hi - lo
                leaf = Xs[:, lo:hi].reshape(B, L * r, X.shape[3])
                Xs[:, lo:hi] = (G[:, :L * r, :L * r] @ leaf).reshape(B, L, Xf.shape[2])
                check(lo, hi)
            else:
                swept = spectra is not None and lo > 1
                # the runs that step the leaf: every live run, or those its sweeps leave
                steps = step.sweep(S[lo:hi], lo, h, live, spectra) if swept else live
                for m in range(lo, hi) if steps else ():
                    if swept:  # the solved runs keep their rows
                        Xm[m, steps] -= revs[steps, :, N - m + lo:] @ Xs[steps, lo:m]
                    else:  # ended runs' rows are zero and stay zero
                        Xm[m] -= revs[..., N - m + lo:] @ Xs[:, lo:m]
                    if f is None:
                        X[m] = Minv_r @ X[m]
                    else:
                        y = step.advance(S[m], m * h, m, steps, S[0] if m == 1 else None)
                        if len(steps) == B:
                            S[m] = y
                        else:
                            S[m, steps] = y[steps]
                    v = Xv[m]
                    if not math.sqrt(v @ v) <= bound:  # or the squares overflow: test each run
                        xf, ny = Xf[m], _norms(Xf[m])
                        for b in [b for b in steps if not (np.all(np.isfinite(xf[b])) and
                                                           (guard is None or ny[b] <= guard))]:
                            stop(b, m)
                            if swept:  # else steps is live, which stop updates
                                steps.remove(b)
                        if not steps:
                            break
                if swept:
                    check(lo, hi)
            if not live:
                return out
    return [(_complex_states(np.ascontiguousarray(Xr[:, b]), real), None) if o is None else o
            for b, o in enumerate(out)]


#: the real eigenbasis W of a linear problem is used only when
#: ||W^T W - I||_max stays within this (_modes).  The 64-mode advection
#: matrix reaches 7.0e-11: its conjugate pairs are near-degenerate.
_BASIS_TOL = 1e-8
#: the modes _modes drops carry coordinates whose norms sum to at most this
#: share of ||y0||, the rounding level of the stepped run.
_DROP_RTOL = 1e-12


def _modes(A: np.ndarray, y0: np.ndarray, alpha: float
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The few modes a real initial state y0 excites in the orthonormal real
    eigenbasis of a real A: (W, L, x), with W the (d, k) kept columns of the
    basis, L their real (k, k) eigenvalue blocks and x the coordinates of y0
    on them, or None when the problem must step as it is.

    From the eigenpairs of A's spectral record (special._Spectrum, one
    eigendecomposition in real arithmetic), each real eigenvalue lambda gives
    the column v, each conjugate pair with Im lambda > 0 the columns
    sqrt(2) Re v and sqrt(2) Im v, on which A acts as the block
    [[Re lambda, Im lambda], [-Im lambda, Re lambda]].  A normal A has such a
    W orthonormal; the basis is used only when ||W^T W - I||_max <= 1e-8.
    The coordinates of y0 are x = W^{-1} y0 (np.linalg.solve), formed, like
    the sizes below, on y0 scaled by the power of 2 that brings max |y0|
    into [1/2, 1), so a y0 of 1e160 or 1e-170 drops what y0 = 1 would.  A
    mode, one block of x, is dropped only when both hold:
    - its lambda lies strictly inside the sector |arg lambda| > alpha pi/2
      at the largest alpha of the runs, or within the record's zero floor,
      the one analysis.classify_problem applies (_Spectrum.sectors);
    - the norms of all dropped blocks sum to at most 1e-12 ||y0||
      (the smallest droppable blocks go first).
    None when the eigendecomposition raises, the basis fails the test, or
    more than 4 rows (_stacked) or no row would be kept.

    Why a dropped mode stays at the rounding level: each block steps as its
    own scalar equation D^alpha u = lambda u, whose discrete solution u_n is
    that of the scheme at h^alpha lambda.  The image of the closed unit disk
    under every scheme's F_mu lies in the closed sector
    |arg z| <= alpha pi/2 (L1 and the F-LMMs are strongly A-stable; the
    alpha-difference scheme has the F-BDF1 mu), so for a lambda strictly
    outside it u_n is bounded and decays like t^-alpha (t^(-1-alpha) under
    the alpha-difference "difference" variant): the paper's theorem.  For a
    zero lambda u_n is constant, or decays under the "difference" variant.
    The dropped part of every state is therefore at most
    1e-12 ||y0|| max_{j,n} |u_n(lambda_j) / u_0|, the size of the rounding
    the stepped run makes.  A mode outside the sector, or on its edge, is
    kept whatever its coordinate: rounding there can grow.
    """
    d = len(y0)
    try:
        spectrum = _Spectrum(A)
    except np.linalg.LinAlgError:
        return None
    w, V = spectrum.values, spectrum.vectors
    upper = w.imag >= 0  # a real eigenvalue, or the first of its conjugate pair
    lams, cols, block = w[upper], [], []
    for j, (lam, v) in enumerate(zip(lams, V[:, upper].T)):
        cols += [math.sqrt(2.0) * v.real, math.sqrt(2.0) * v.imag] if lam.imag else [v.real]
        block += [j] * (2 if lam.imag else 1)
    W = np.column_stack(cols)
    if W.shape != (d, d) or not np.max(np.abs(W.T @ W - np.eye(d))) <= _BASIS_TOL:
        return None
    e = int(np.frexp(np.max(np.abs(y0)))[1])
    y0 = np.ldexp(y0, -e)  # max |y0| in [1/2, 1): the squares below neither overflow nor underflow
    x = np.linalg.solve(W, y0)
    block = np.array(block)
    size = np.sqrt(np.bincount(block, weights=x * x))
    sectors = [s for s, up in zip(spectrum.sectors(alpha), upper) if up]
    # in the sector, or within the zero floor (margin nan)
    free = [j for j, s in enumerate(sectors) if s.in_sector or math.isnan(s.margin)]
    free.sort(key=lambda j: size[j])
    tol = _DROP_RTOL * np.linalg.norm(y0)
    dropped = np.zeros(len(lams), dtype=bool)
    dropped[[j for j, total in zip(free, np.cumsum(size[free])) if total <= tol]] = True
    keep = np.flatnonzero(~dropped[block])
    if not (keep.size and _stacked(keep.size)):
        return None
    L = np.zeros((keep.size, keep.size))
    i = 0
    for lam in lams[~dropped]:
        if lam.imag:
            L[i:i + 2, i:i + 2] = [[lam.real, lam.imag], [-lam.imag, lam.real]]
        else:
            L[i, i] = lam.real
        i += 2 if lam.imag else 1
    return W[:, keep], L, np.ldexp(x[keep], e)


def _states(runs: Sequence[_Run], problem: FOdeProblem, h: float, N: int, guard: float):
    """Yields (run, (states, stop)) for each run of `problem` in run order,
    as _run gives them; _trajectories drops each before the next is formed.

    The runs of a small problem (_stacked(d)) step as one batch, those of a
    larger one one after another.  A real linear problem with d > 4 whose y0
    excites few modes (_modes) steps them instead: the runs step its k <= 4
    kept rows as one batch, and each run's states are mapped back as
    X W^T, real, with states[0] = y0 exactly.  A run whose modes cross the
    blow-up guard, or whose mapped-back states do, steps again as it is, so
    it truncates where it would have."""
    A, y0, f, d = problem.A, problem.y0, problem.f, problem.dim
    modes = None
    if f is None and not _stacked(d) and not (np.any(A.imag) or np.any(y0.imag)):
        modes = _modes(A.real, y0.real, max(run.weights.alpha for run in runs))
    if modes is None:
        for batch in [runs] if _stacked(d) else [[run] for run in runs]:
            yield from zip(batch, _run(batch, A, h, N, y0, f, guard=guard))
        return
    W, L, x0 = modes
    C = np.linalg.cholesky(W.T @ W)  # ||W x|| = ||C^T x||
    for run, (X, stop) in zip(runs, _run(runs, L, h, N, x0, guard=guard)):
        if stop is None and np.all(_row_norms(X.real @ C) <= guard):
            states = np.zeros((N + 1, d), dtype=complex)
            np.matmul(X.real, W.T, out=states.real)  # no real copy beside the states
            states[0] = y0
            yield run, (states, None)
            del states  # before the next run's states are formed
        else:
            yield from zip([run], _run([run], A, h, N, y0, guard=guard))


def _trajectories(runs: Sequence[_Run], problem: FOdeProblem, h: float, N: int,
                  reduce: Callable[[Trajectory], Any] | None = None) -> list:
    """Guarded runs of `problem` (_states), each truncated (with a warning) at
    blow-up, in run order: the trajectories, or reduce(trajectory) of each
    when reduce is given, made before the next run's states are formed."""
    guard = BLOWUP_FACTOR * max(_row_norms(problem.y0[None])[0], 1.0)
    out = []
    for (w, _, _), (states, stop) in _states(runs, problem, h, N, guard):
        if stop is not None:
            warnings.warn(f"blow-up guard triggered at step {stop}; trajectory truncated",
                          stacklevel=3)
        traj = Trajectory(h, states, w.scheme_id, w.alpha, truncated_at=stop)
        out.append(traj if reduce is None else reduce(traj))
        del states, traj
    return out


def _scheme_run(scheme_id: str, alpha: float, N: int, variant: str = "difference") -> _Run:
    """The _Run of any scheme by id over N steps, with iv = cumsum(mu) for L1
    and the F-LMMs; the alpha-difference scheme runs `variant`."""
    w = wt.scheme_weights(scheme_id, alpha, N + 1)
    if scheme_id != wt.ALPHA_DIFF:
        return _Run(w, np.cumsum(w.mu))
    if variant == "poisson":
        return _Run(w, wt.alpha_diff_kernel(1.0 - alpha, N + 1), z0=True)
    return _Run(w, np.zeros(N + 1))


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
    _check_grid(h, N)
    return _trajectories([_scheme_run(wt.ALPHA_DIFF, problem.alpha, N, variant)],
                         problem, h, N)[0]


def solve(problem: FOdeProblem, scheme_id: str, h: float, N: int) -> Trajectory:
    """Run any scheme by id.

    The weight table comes from weights.scheme_weights.  The alpha-difference
    scheme runs its "difference" variant, see solve_alpha_diff for the other.
    """
    scheme_id = wt.scheme_name(scheme_id)
    _check_grid(h, N)
    return _trajectories([_scheme_run(scheme_id, problem.alpha, N)], problem, h, N)[0]


def solve_cells(problem: FOdeProblem, cells: Sequence[tuple[str, float]], h: float, N: int,
                reduce: Callable[[Trajectory], Any] | None = None) -> list:
    """Run each (scheme_id, alpha) cell on problem's A, y0 and f; problem.alpha
    is not used.

    Returns the trajectories in cell order, or reduce(trajectory) of each
    when reduce is given.  Trajectory i is that of solve(problem with
    alpha_i, scheme_i, h, N), the alpha-difference scheme in its
    "difference" variant: the same steps and the same products, so the
    states agree to rounding (bit for bit on the reference tables, whose
    states are real).  Every cell is checked, and its weights are built,
    before any runs.  Batching follows the dimension that is stepped.  When
    _stacked(problem.dim), i.e. d <= 4, the cells step together as one
    batch of the core (_run), which costs about one run's Python overhead
    instead of one per cell: f then receives a (k, d) stack of states, the
    cells' iterates (k = B) or, for a Jacobian, those and their shifted
    states (k = B (d + 1)), and must return the stack of their values row by
    row (the built-in problems index the last axis).  A real linear problem with
    d > 4 whose y0 excites at most 4 rows of modes in the orthonormal
    eigenbasis of A steps those rows, the cells as one batch, and each
    trajectory is mapped back on its own (_states; T4 and T5 keep 2 rows of
    their 64).  Other larger problems run their cells one after another.
    With reduce, only one trajectory of a problem with d > 4 is held at a
    time.  A cell that crosses the blow-up guard is truncated with a
    warning, as alone, and the others run on; a cell whose run fails raises
    the same SolverError at the same step.
    """
    _check_grid(h, N)
    runs = [_scheme_run(wt.scheme_name(scheme_id), alpha, N) for scheme_id, alpha in cells]
    return _trajectories(runs, problem, h, N, reduce=reduce) if runs else []


def _check_grid(h: float, N: int = 1) -> None:
    if not (h > 0 and math.isfinite(h)):
        raise ValueError(f"step size must be positive, got {h}")
    if N < 1:
        raise ValueError(f"need at least one step, got N={N}")
