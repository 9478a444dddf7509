"""Discrete fractional resolvent sequences and their decay.

For a scheme applied to D^alpha y = A y + f the solution admits the discrete
variation-of-constants form

    y_n = d_n y_0 + sum_{k=1}^{n} D_{n-k} f_k ,

where (d_n, D_n) are matrix sequences playing the role of the continuous
resolvents E_alpha(t^alpha A) and t^(alpha-1) E_{alpha,alpha}(t^alpha A).
They are extracted here by impulse responses, for all five schemes, which
is equivalent to their contour-integral definition at the sequence level and
numerically robust.  d_n is the matrix-valued homogeneous run from d_0 = I.
D_n is the run forced by a unit impulse at step 1, shifted by one step: a
homogeneous run with a zero initial-value term started from
D_0 = h^alpha M^{-1}, M = mu_0 I - h^alpha A.  That equation is linear from the right, so
D_n = Z_n D_0, with Z the same run started from I.  d and Z differ only in
the initial-value term, so they step as one batch of the solver's core with
(d, d) states: a resolvent steps exactly like a trajectory, with the same
step equation in the mu weights and the same factored-once step matrix, from
one mu table (no omega table is built) and without a blow-up guard.

For the alpha-difference scheme the Poisson transform links the discrete and
continuous resolvents directly:

    Q_beta^n = int_0^inf rho_n^h(t) t^(beta-1) E_{alpha,beta}(t^alpha A) dt,
    rho_n^h(t) = e^(-t/h) (t/h)^n / (h n!),

computed per eigenvalue lam over a window of +-12 standard deviations of the
Poisson density (mean n h, std sqrt(n) h) plus padding, stretched by
1/(1 - c) when E grows like e^(c t/h) (|arg lam| < alpha pi, c =
Re((h^alpha lam)^(1/alpha)) > 0), since the integrand is then about a Gamma
density of rate (1 - c)/h.  One integrand serves
every n and both betas: in u = s^alpha, s = t/h, the integrand

    h^(beta-1)/alpha exp(-s + (n+beta-alpha) ln s - ln n!) E_{alpha,beta}(h^alpha u lam)

is bounded at u = 0 for beta in {alpha, 1}, and at lam = 0 (E = 1, beta = 1)
it integrates the density's mass.  Only the Poisson weight depends on n, so
one adaptive Gauss-Kronrod (G10/K21) quadrature serves a whole sweep of n:
its panels cover the union of their windows, each new panel's E values come
from one array mittag_leffler call, and each n keeps its own error test.  A
value that cannot meet its test raises AccuracyError.  impulse_resolvent
returns the "poisson" solver variant's pair for this scheme: d_n = Q_1^n
for n >= 1 (d_0 = I), and D_n = h Q_alpha^n, which either variant's forced
impulse equals.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import weights as wt
from .solver import _check_grid, _run, _scheme_run
from .special import AccuracyError, _check_matrix, matrix_function, mittag_leffler

__all__ = [
    "ResolventSequence",
    "ResolventDecayReport",
    "InsufficientRangeError",
    "impulse_resolvent",
    "d0_closed_form",
    "poisson_resolvent",
    "poisson_mass",
    "variation_of_constants",
    "verify_resolvent_decay",
    "operator_norms",
    "fit_final_decade",
    "power_law_tail",
]

#: relative tolerances of the Poisson quadrature and of the Mittag-Leffler
#: values inside its integrand.
_Q_EPSREL = 1e-8
_Q_ML_RTOL = 3e-9


class InsufficientRangeError(ValueError):
    """The resolvent range does not span enough decades for a decay fit."""


@dataclass
class ResolventSequence:
    """d_0..d_n_max and D_0..D_n_max for one (scheme, A, h) triple."""

    scheme_id: str
    alpha: float
    h: float
    n_max: int
    d: np.ndarray  # (n_max+1, dim, dim)
    D: np.ndarray  # (n_max+1, dim, dim)

    @property
    def dim(self) -> int:
        return self.d.shape[1]

    @property
    def times(self) -> np.ndarray:
        return self.h * np.arange(self.n_max + 1)

    @cached_property
    def norm_d(self) -> np.ndarray:
        """||d_n|| for n = 0..n_max (operator_norms), computed on first read."""
        return operator_norms(self.d)

    @cached_property
    def norm_D(self) -> np.ndarray:
        """||D_n|| for n = 0..n_max (operator_norms), computed on first read."""
        return operator_norms(self.D)


def impulse_resolvent(scheme_id: str, A, alpha: float, h: float, n_max: int) -> ResolventSequence:
    """Extract (d_n, D_n) for any of the five schemes by impulse responses.

    Column i of d_n is the homogeneous solve started from the basis vector
    e_i; column i of D_m is y_{m+1} of the solve with y_0 = 0 and forcing
    f_k = delta_{k,1} e_i.  By construction d_0 = I.  That forced solve,
    shifted by one step, is sum_{j=0}^{m} mu_j D_{m-j} = h^alpha A D_m for
    m >= 1 from D_0 = h^alpha M^{-1}, M = mu_0 I - h^alpha A: the homogeneous
    equation with a zero initial-value term, linear from the right, so
    D_m = Z_m D_0 for its run Z from Z_0 = I.  d and Z step all basis
    columns at once as matrix states, one batch of two runs through the
    solver's core and its one step equation, which reads only the mu table.
    The alpha-difference scheme runs its "poisson" variant: d_n = Q_1^n for
    n >= 1, while Q_1^0 = (I - h^alpha A)^{-1} is only the start z_0 of its
    history, and Z, with a zero initial-value term and a history from Z_0,
    is F-BDF1's, so D_n = h Q_alpha^n.  No blow-up guard applies.  A that is
    not square or not finite raises ValueError, and a singular step matrix
    raises SingularStepError.
    """
    scheme_id = wt.scheme_name(scheme_id)
    _check_grid(h)
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    A = _check_matrix(A)
    eye = np.eye(A.shape[0], dtype=complex)
    run = _scheme_run(scheme_id, alpha, n_max, "poisson")  # d's; Z's has a zero iv
    [(dn, _), (Z, _)] = _run([run, run._replace(iv=np.zeros(n_max + 1), z0=False)],
                             A, h, n_max, eye)
    ha = h ** alpha
    return ResolventSequence(scheme_id, alpha, h, n_max, dn,
                             Z @ (ha * np.linalg.inv(run.weights.mu[0] * eye - ha * A)))


def d0_closed_form(scheme_id: str, A, alpha: float, h: float) -> np.ndarray:
    """Closed form of D_0: h^alpha w0 (I - h^alpha w0 A)^{-1} with w0 = F_omega(0)
    from weights.leading_omega; equivalently D_0 = ((h^alpha w0)^{-1} I - A)^{-1}.
    ValueError unless A is square and finite."""
    A = _check_matrix(A)
    c = h ** alpha * wt.leading_omega(scheme_id, alpha)
    return np.linalg.inv(np.eye(A.shape[0], dtype=complex) / c - A)


def _poisson_window(n: int) -> tuple[float, float]:
    """Integration window in s = t/h: +-12 standard deviations of the Poisson
    density around its mean n, padded by 30 on the right."""
    spread = 12.0 * math.sqrt(n + 1.0)
    return max(0.0, n - spread), n + spread + 30.0


def _check_index(n) -> None:
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise ValueError(f"n must be a non-negative integer, got {n!r}")


def poisson_mass(n: int) -> float:
    """Quadrature of the Poisson density over the working window (exactly 1):
    Q_1^n at lam = 0, where E = 1."""
    _check_index(n)
    return _poisson_scalar(0j, 1.0, 1.0, [n], 1.0)[0].real


# Gauss-Kronrod G10/K21 (QUADPACK qk21): the 11 non-negative Kronrod nodes,
# their weights and the 10-point Gauss weights on the same nodes (0 at the
# Kronrod-only ones), mirrored below to the 21 nodes on [-1, 1].
_XK = np.array([0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
                0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
                0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
                0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
                0.294392862701460198131126603103866, 0.148874338981631210884826001129720, 0.0])
_WK = np.array([0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
                0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
                0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
                0.123491976262065851077600525010800, 0.134709217311473325928054001771707,
                0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
                0.149445554002916905664936468389821])
_WG = np.array([0.0, 0.066671344308688137593568809893332, 0.0, 0.149451349150580593145776339657697,
                0.0, 0.219086362515982043995534934228163, 0.0, 0.269266719309996355091226921569469,
                0.0, 0.295524224714752870173892994651338, 0.0])
_GK_X = np.concatenate((-_XK[:-1], _XK[::-1]))
_GK_WK = np.concatenate((_WK[:-1], _WK[::-1]))
_GK_WG = np.concatenate((_WG[:-1], _WG[::-1]))
#: panels the quadrature may use per n before it gives up.
_Q_PANELS = 300
#: most (panel, node, n) entries the quadrature forms at once.
_Q_BLOCK = 2 ** 17
#: rounding floor of a panel's error estimate, in units of eps times the
#: integral of |integrand| over it: below it, bisection gains nothing.
#: QUADPACK's 50 would refuse Q_1^30 at lam = 1+11i, alpha = 1, h = 0.1
#: (integrand mass 26, value 1.8e-5), which this rule serves within 3.5e-9.
_Q_ROUNDING = 10.0


def _poisson_scalar(lam: complex, alpha: float, h: float, ns, beta: float) -> np.ndarray:
    """Q_beta^n for a scalar eigenvalue and each n of `ns`: the module
    docstring's integrand in u = s^alpha, integrated over the image of each
    n's window by one adaptive G10/K21 quadrature whose panels all n share.

    A panel's error estimate is QUADPACK's: |K21 - G10| scaled by the panel's
    integral of |f - mean|, floored at the rounding level.  While some n
    misses max(1e-14, _Q_EPSREL |Q|), the panels that carry the most of its
    error are bisected.  Every new node's E goes through one array
    mittag_leffler call, shared by all n.  AccuracyError names lam and the
    first n left unmet when only rounding-level error remains or the budget of
    _Q_PANELS panels per n runs out.
    """
    # E grows like exp(c s) along the path, so the integrand is about a Gamma
    # density of rate 1 - c in s: its window is the Poisson one over 1 - c
    c = 0.0
    if abs(cmath.phase(lam)) < alpha * math.pi:
        c = max(0.0, ((h ** alpha * lam) ** (1.0 / alpha)).real)
    if c >= 1:
        raise ValueError(f"the Poisson transform diverges for eigenvalue {lam:.6g} "
                         f"at alpha = {alpha:g}, h = {h:g}")
    ns = np.asarray(ns, dtype=int)
    if ns.size == 0:
        return np.zeros(0, dtype=complex)
    lo, hi = np.array([_poisson_window(n) for n in ns.tolist()]).T / (1.0 - c)
    a, b = lo ** alpha, hi ** alpha  # each n's window in u
    scale = h ** (beta - 1.0) / alpha
    expo, log_fact = ns + beta - alpha, np.array([math.lgamma(n + 1.0) for n in ns.tolist()])
    real_line = lam.imag == 0.0  # then E stays real along the path

    def panels(left: np.ndarray, right: np.ndarray):
        """Kronrod value, error estimate and rounding floor per (panel, n)."""
        half = 0.5 * (right - left)
        u = 0.5 * (left + right)[:, None] + half[:, None] * _GK_X  # (p, 21)
        s = u ** (1.0 / alpha)
        # each n integrates over its own window, a union of panels; E is
        # needed only on panels inside some window
        inside = (left[:, None] >= a) & (right[:, None] <= b)  # (p, m)
        used = inside.any(axis=1)
        e = np.zeros(u.shape, dtype=float if real_line else complex)
        if used.any():
            ml = mittag_leffler(h ** alpha * u[used] * lam, alpha, beta, _Q_ML_RTOL)
            e[used] = ml.real if real_line else ml
        val = np.zeros((left.size, ns.size), dtype=e.dtype)
        err, floor = np.zeros(val.shape), np.zeros(val.shape)
        step = max(1, _Q_BLOCK // (_GK_X.size * ns.size))
        for i in range(0, left.size, step):
            rows = slice(i, i + step)
            # the G10/K21 nodes are interior to their panel, so u > 0 and s > 0:
            # expo log(s) needs no xlogy convention for s = 0
            lw = expo * np.log(s[rows, :, None]) - s[rows, :, None] - log_fact  # (k, 21, m)
            f = scale * np.exp(lw) * e[rows, :, None] * inside[rows, None, :]
            kron = np.einsum("k,pkm->pm", _GK_WK, f)
            hr = half[rows, None]
            val[rows] = kron * hr
            gap = np.abs(kron - np.einsum("k,pkm->pm", _GK_WG, f)) * hr
            spread = np.einsum("k,pkm->pm", _GK_WK, np.abs(f - 0.5 * kron[:, None])) * hr
            mass = np.einsum("k,pkm->pm", _GK_WK, np.abs(f)) * hr
            floor[rows] = _Q_ROUNDING * np.finfo(float).eps * mass
            with np.errstate(divide="ignore", invalid="ignore"):
                err[rows] = np.where((spread > 0) & (gap > 0),
                                     spread * np.minimum(1.0, (200.0 * gap / spread) ** 1.5), gap)
        return val, np.maximum(err, floor), floor

    # the panels start at every window end, so no panel straddles one
    edges = np.unique(np.concatenate((a, b)))
    left, right = edges[:-1], edges[1:]
    val, err, floor = panels(left, right)
    while True:
        q, est = val.sum(axis=0), err.sum(axis=0)
        tol = np.maximum(1e-14, _Q_EPSREL * np.abs(q))
        failing = np.flatnonzero(est > tol)
        if failing.size == 0:
            return q.astype(complex)
        # per failing n, the panels whose error bisection can still reduce,
        # largest first, until what is left meets the tolerance
        gain = np.where(err > floor, err, 0.0)[:, failing]
        order = np.argsort(-gain, axis=0, kind="stable")
        gain = np.take_along_axis(gain, order, axis=0)
        need = (est[failing] - np.cumsum(gain, axis=0) > tol[failing]).sum(axis=0) + 1
        split = np.zeros(left.size, dtype=bool)
        split[order[(np.arange(left.size)[:, None] < need) & (gain > 0.0)]] = True
        stuck = np.where(err > floor, 0.0, err)[:, failing].sum(axis=0)
        if np.any(stuck > tol[failing]) or not split.any():
            reason = "the rest of its error is at the rounding level"
        elif left.size + np.count_nonzero(split) > _Q_PANELS * ns.size:
            reason = f"the budget of {_Q_PANELS} panels per n is spent"
        else:
            mid = 0.5 * (left[split] + right[split])
            left = np.concatenate((left[~split], left[split], mid))
            right = np.concatenate((right[~split], mid, right[split]))
            new = panels(left[-2 * mid.size:], right[-2 * mid.size:])
            val, err, floor = (np.concatenate((old[~split], add)) for old, add in
                               zip((val, err, floor), new))
            continue
        j = failing[0]
        raise AccuracyError(f"Poisson quadrature for eigenvalue {lam:.6g}, n = {ns[j]}: error "
                            f"estimate {est[j]:.3g} exceeds the tolerance {tol[j]:.3g}; {reason}")


def poisson_resolvent(A, alpha: float, h: float, n, beta: float) -> np.ndarray:
    """Q_beta^n = int rho_n^h(t) t^{beta-1} E_{alpha,beta}(t^alpha A) dt.

    beta is 1 (initial-value resolvent) or alpha (forcing resolvent, whose
    h-multiple is the scheme's D_n).  n is a non-negative int, giving a (d, d)
    matrix, or a sequence of them, giving an (m, d, d) stack.  A must be
    diagonalizable; per eigenvalue one adaptive quadrature serves every n, and
    the values are recomposed through the eigenbasis.  A value whose error
    estimate misses the tolerance raises AccuracyError, naming the eigenvalue
    and n.  The transform diverges, and ValueError names the eigenvalue, when
    |arg lam| < alpha pi and Re((h^alpha lam)^(1/alpha)) >= 1: E then grows
    like exp(t lam^(1/alpha)), no slower than the density's e^(-t/h) decays.
    """
    if beta not in (1.0, alpha):
        raise ValueError("beta must be 1 or alpha")
    _check_grid(h)
    ns = [n] if np.ndim(n) == 0 else list(n)
    for k in ns:
        _check_index(k)
    q = matrix_function(A, lambda lam: _poisson_scalar(lam, alpha, h, ns, beta))
    return q[0] if np.ndim(n) == 0 else q


def variation_of_constants(r: ResolventSequence, y0, f_values) -> np.ndarray:
    """Reconstruct y_n = d_n y_0 + sum_{k=1}^n D_{n-k} f_k from a resolvent pair.

    f_values[k] is f(t_k, y_k) for k = 0..N (entry 0 is ignored); returns the
    reconstructed states (N+1, dim).
    """
    y0 = np.atleast_1d(np.asarray(y0, dtype=complex))
    f_values = np.asarray(f_values, dtype=complex)
    N = f_values.shape[0] - 1
    if N > r.n_max:
        raise ValueError("resolvent range too short for the requested reconstruction")
    out = np.empty((N + 1, r.dim), dtype=complex)
    out[0] = y0
    for n in range(1, N + 1):
        forced = np.einsum("kij,kj->i", r.D[0:n], f_values[n:0:-1])
        out[n] = r.d[n] @ y0 + forced
    return out


def operator_norms(mats: np.ndarray) -> np.ndarray:
    """Spectral norm of each matrix in a stacked (n, d, d) array."""
    if mats.shape[1] == 1:
        return np.abs(mats[:, 0, 0])
    return np.linalg.norm(mats, ord=2, axis=(1, 2))


@dataclass
class ResolventDecayReport:
    """Log-log decay fit of ||d_n|| and ||D_n|| over the last decade of t_n."""

    scheme_id: str
    alpha: float
    h: float
    slope_d: float
    slope_D: float
    sup_t_alpha_d: float       # sup over the fit window of t^alpha ||d_n||
    sup_t_alpha1_D: float      # sup over the fit window of t^(alpha+1) ||D_n||
    sum_D: float               # sum_{k=1}^{n_max} ||D_k||
    sum_D_tail: float          # power-law extrapolation of the dropped tail
    cauchy_gap: float          # growth of the partial sums over the last decade
    applicable: bool = True    # False when the norms carry no decay (e.g. A = 0)


def verify_resolvent_decay(r: ResolventSequence) -> ResolventDecayReport:
    """Fit the decay exponents of a resolvent pair.

    Requires the time range to span at least two decades past t = 1
    (t_max >= 100).  For stable eigenvalues the fitted slopes approach
    -alpha for d_n and -(alpha+1) for D_n.
    """
    t = r.times
    if t[-1] < 100.0:
        raise InsufficientRangeError(
            f"t_max = {t[-1]:g} < 100: need two decades past t = 1 for the fit")
    nd, nD = r.norm_d, r.norm_D
    sel, slope_d, _ = fit_final_decade(t, nd, where=nD > 0)
    _, slope_D, log_c = fit_final_decade(t, nD, where=nd > 0)
    flat = np.ptp(nd[sel]) <= 1e-12 * np.max(nd[sel])
    if flat:
        slope_d, slope_D = 0.0, (slope_D if np.ptp(nD[sel]) > 0 else 0.0)
    partial = np.cumsum(nD[1:])
    tail_sel = t[1:] >= t[-1] / 10.0
    cauchy_gap = float(partial[-1] - partial[tail_sel][0]) if tail_sel.any() else math.inf

    return ResolventDecayReport(
        scheme_id=r.scheme_id, alpha=r.alpha, h=r.h,
        slope_d=slope_d, slope_D=slope_D,
        sup_t_alpha_d=float(np.max(t[sel] ** r.alpha * nd[sel])),
        sup_t_alpha1_D=float(np.max(t[sel] ** (r.alpha + 1.0) * nD[sel])),
        sum_D=float(np.sum(nD[1:])), cauchy_gap=cauchy_gap,
        sum_D_tail=power_law_tail(log_c, slope_D, r.h, t[-1]), applicable=not flat,
    )


def fit_final_decade(t: np.ndarray, norms: np.ndarray, where: np.ndarray | None = None):
    """(window, slope, log_c) of norms ~ exp(log_c) t^slope, least squares in log-log.

    The window is t > 1, t >= t[-1]/10, norms > 0 and `where`; slope and log_c
    are nan below two samples.  Callers judge flat windows by their own rule.
    """
    sel = (t > 1.0) & (t >= t[-1] / 10.0) & (norms > 0.0)
    if where is not None:
        sel &= where
    if np.count_nonzero(sel) < 2:
        return sel, math.nan, math.nan
    slope, log_c = np.polyfit(np.log(t[sel]), np.log(norms[sel]), 1)
    return sel, float(slope), float(log_c)


def power_law_tail(log_c: float, slope: float, h: float, t_end: float) -> float:
    """Integral bound c/h t_end^(s+1)/(-s-1) on sum_{t_k > t_end} c t_k^s, t_k = k h,
    with c = exp(log_c) and s = slope; inf unless s < -1."""
    if not slope < -1.0:
        return math.inf
    return math.exp(log_c) / h * t_end ** (slope + 1.0) / (-slope - 1.0)
