"""Discrete fractional resolvent sequences and their decay.

For a scheme applied to D^alpha y = A y + f the solution admits the discrete
variation-of-constants form

    y_n = d_n y_0 + sum_{k=1}^{n} D_{n-k} f_k ,

where (d_n, D_n) are matrix sequences playing the role of the continuous
resolvents E_alpha(t^alpha A) and t^(alpha-1) E_{alpha,alpha}(t^alpha A).
They are extracted here by impulse responses (one matrix-valued homogeneous
run and one run forced by a unit impulse at step 1), which is equivalent to
their contour-integral definition at the sequence level and numerically
robust.  Both runs go through the solver's stepping core with (d, d) states,
so a resolvent steps exactly like a trajectory, with the same step equation
in the mu weights and the same factored-once step matrix; they share one mu
table (no omega table is built) and carry no blow-up guard.

For the alpha-difference scheme the Poisson transform links the discrete and
continuous resolvents directly:

    Q_beta^n = int_0^inf rho_n^h(t) t^(beta-1) E_{alpha,beta}(t^alpha A) dt,
    rho_n^h(t) = e^(-t/h) (t/h)^n / (h n!),

computed by adaptive quadrature over a window of +-12 standard deviations of
the Poisson density (mean n h, std sqrt(n) h) plus padding.  One integrand
serves every n and both betas: in u = s^alpha, s = t/h, the integrand

    h^(beta-1)/alpha exp(-s + (n+beta-alpha) ln s - ln n!) E_{alpha,beta}(h^alpha u lam)

is bounded at u = 0 for beta in {alpha, 1}, and at lam = 0 (E = 1, beta = 1)
it integrates the density's mass.  The homogeneous impulse of the "poisson"
solver variant equals Q_1^n, and the forced impulse of either variant equals
h Q_alpha^n.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.special import gammaln, xlogy

from . import weights as wt
from .solver import _check_grid, _run
from .special import matrix_function, mittag_leffler

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


def impulse_resolvent(scheme_id: str, A, alpha: float, h: float, n_max: int) -> ResolventSequence:
    """Extract (d_n, D_n) for an F-LMM or L1 scheme by impulse responses.

    Column i of d_n is the homogeneous solve started from the basis vector
    e_i; column i of D_m is y_{m+1} of the solve with y_0 = 0 and forcing
    f_k = delta_{k,1} e_i.  By construction d_0 = I.  Both runs step all
    basis columns at once as matrix states through the solver's core and its
    one step equation, which reads only the mu table; a singular step matrix
    raises SingularStepError.
    """
    scheme_id = wt.scheme_name(scheme_id)
    if scheme_id == wt.ALPHA_DIFF:
        raise ValueError(f"impulse_resolvent supports the F-LMM/L1 schemes, not {scheme_id!r}")
    _check_grid(h)
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    A = np.atleast_2d(np.asarray(A, dtype=complex))
    d = A.shape[0]
    w = wt.scheme_weights(scheme_id, alpha, n_max + 2)
    dn, _ = _run(w, A, alpha, h, n_max, np.eye(d, dtype=complex))
    forced, _ = _run(w, A, alpha, h, n_max + 1, np.zeros((d, d), dtype=complex), impulse=True)
    return ResolventSequence(scheme_id, alpha, h, n_max, dn, forced[1:])


def d0_closed_form(scheme_id: str, A, alpha: float, h: float) -> np.ndarray:
    """Closed form of D_0: h^alpha w0 (I - h^alpha w0 A)^{-1} with w0 = F_omega(0)
    from weights.leading_omega; equivalently D_0 = ((h^alpha w0)^{-1} I - A)^{-1}."""
    A = np.atleast_2d(np.asarray(A, dtype=complex))
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
    return _poisson_scalar(0j, 1.0, 1.0, n, 1.0).real


def _poisson_scalar(lam: complex, alpha: float, h: float, n: int, beta: float) -> complex:
    """Q_beta^n for a scalar eigenvalue: the module docstring's integrand in
    u = s^alpha over the window's image."""
    if abs(cmath.phase(lam)) < alpha * math.pi and ((h ** alpha * lam) ** (1.0 / alpha)).real >= 1:
        raise ValueError(f"the Poisson transform diverges for eigenvalue {lam:.6g} "
                         f"at alpha = {alpha:g}, h = {h:g}")
    lo, hi = _poisson_window(n)
    scale = h ** (beta - 1.0) / alpha
    expo, log_fact = n + beta - alpha, float(gammaln(n + 1))
    real_line = lam.imag == 0.0  # then E stays real along the path

    @functools.cache  # the imaginary-part quadrature revisits the real part's nodes
    def integrand(u: float) -> complex:
        s = u ** (1.0 / alpha)
        lw = float(xlogy(expo, s)) - s - log_fact
        if lw < -745.0:
            return 0j
        return scale * math.exp(lw) * mittag_leffler(h ** alpha * u * lam, alpha, beta, _Q_ML_RTOL)

    a, b = lo ** alpha, hi ** alpha
    re, _ = integrate.quad(lambda u: integrand(u).real, a, b,
                           epsabs=1e-14, epsrel=_Q_EPSREL, limit=300)
    if real_line:
        return complex(re)
    im, _ = integrate.quad(lambda u: integrand(u).imag, a, b,
                           epsabs=1e-14, epsrel=_Q_EPSREL, limit=300)
    return complex(re, im)


def poisson_resolvent(A, alpha: float, h: float, n: int, beta: float) -> np.ndarray:
    """Q_beta^n = int rho_n^h(t) t^{beta-1} E_{alpha,beta}(t^alpha A) dt.

    beta is 1 (initial-value resolvent) or alpha (forcing resolvent, whose
    h-multiple is the scheme's D_n).  A must be diagonalizable; the scalar
    quadrature runs per eigenvalue and is recomposed through the eigenbasis.
    The transform diverges, and ValueError names the eigenvalue, when
    |arg lam| < alpha pi and Re((h^alpha lam)^(1/alpha)) >= 1: E then grows
    like exp(t lam^(1/alpha)), no slower than the density's e^(-t/h) decays.
    """
    if beta not in (1.0, alpha):
        raise ValueError("beta must be 1 or alpha")
    _check_grid(h)
    _check_index(n)
    return matrix_function(A, lambda lam: _poisson_scalar(lam, alpha, h, n, beta))


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
    nd = operator_norms(r.d)
    nD = operator_norms(r.D)
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
