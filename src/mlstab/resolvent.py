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
so a resolvent steps exactly like a trajectory, with the same factored-once
step matrix; they share one weight table and carry no blow-up guard.

For the alpha-difference scheme the Poisson transform links the discrete and
continuous resolvents directly:

    Q_beta^n = int_0^inf rho_n^h(t) t^(beta-1) E_{alpha,beta}(t^alpha A) dt,
    rho_n^h(t) = e^(-t/h) (t/h)^n / (h n!),

computed by adaptive quadrature over a window of +-12 standard deviations of
the Poisson density (mean n h, std sqrt(n) h) plus padding.  The homogeneous
impulse of the "poisson" solver variant equals Q_1^n, and the forced impulse
of either variant equals h Q_alpha^n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.special import gammaln

from . import weights as wt
from .solver import _default_form, _run
from .special import mittag_leffler

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
]


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
    basis columns at once as matrix states through the solver's core, in the
    scheme's own formulation (integral form for the F-LMMs, differential form
    for L1); a singular step matrix raises SingularStepError.
    """
    scheme_id = scheme_id.replace("-", "_").lower()
    if scheme_id not in (wt.FBDF1, wt.FBDF2, wt.FADAMS2, wt.L1):
        raise ValueError(f"impulse_resolvent supports the F-LMM/L1 schemes, not {scheme_id!r}")
    A = np.atleast_2d(np.asarray(A, dtype=complex))
    d = A.shape[0]
    kind = _default_form(scheme_id)
    w = wt.scheme_weights(scheme_id, alpha, n_max + 2)
    dn, _ = _run(kind, w, A, alpha, h, n_max, np.eye(d, dtype=complex))
    forced, _ = _run(kind, w, A, alpha, h, n_max + 1,
                     np.zeros((d, d), dtype=complex), impulse=True)
    return ResolventSequence(scheme_id, alpha, h, n_max, dn, forced[1:])


def d0_closed_form(scheme_id: str, A, alpha: float, h: float) -> np.ndarray:
    """Closed form of D_0: h^alpha w0 (I - h^alpha w0 A)^{-1} with w0 = F_omega(0).

    Per scheme: w0 = 1 (F-BDF1), (2/3)^alpha (F-BDF2), 1 - alpha/2
    (F-Adams2), Gamma(2-alpha) (L1); equivalently
    D_0 = ((h^alpha w0)^{-1} I - A)^{-1}.
    """
    A = np.atleast_2d(np.asarray(A, dtype=complex))
    w0 = wt.leading_omega(scheme_id, alpha)
    c = h ** alpha * w0
    return np.linalg.inv(np.eye(A.shape[0], dtype=complex) / c - A)


def _poisson_log_weight(s: float, n: int) -> float:
    if s <= 0.0:
        return -math.inf if n > 0 else -s
    return n * math.log(s) - s - float(gammaln(n + 1))


def poisson_mass(n: int, window: float = 12.0, pad: float = 30.0,
                 epsrel: float = 1e-11) -> float:
    """Quadrature of the Poisson density over the working window (exactly 1)."""
    lo = max(0.0, n - window * math.sqrt(n + 1.0))
    hi = n + window * math.sqrt(n + 1.0) + pad
    val, _ = integrate.quad(lambda s: math.exp(_poisson_log_weight(s, n)),
                            lo, hi, epsabs=1e-14, epsrel=epsrel, limit=300)
    return val


def _poisson_scalar(lam: complex, alpha: float, h: float, n: int, beta: float,
                    epsrel: float, ml_rtol: float) -> complex:
    """Q_beta^n for a scalar eigenvalue: Poisson average of t^{beta-1} E."""
    window = n + 12.0 * math.sqrt(n + 1.0)
    lo = max(0.0, n - 12.0 * math.sqrt(n + 1.0))
    hi = window + 30.0
    real_line = lam.imag == 0.0  # then E stays real along the path
    cache: dict[tuple[int, float], complex] = {}

    def integrand(s: float) -> complex:
        key = (0, s)
        if key in cache:
            return cache[key]
        lw = _poisson_log_weight(s, n)
        if lw < -745.0:
            val = 0j
        else:
            hs = h * s
            val = (math.exp(lw) * hs ** (beta - 1.0)
                   * mittag_leffler(hs ** alpha * lam, alpha, beta, ml_rtol))
        cache[key] = val
        return val

    pieces = []
    if beta < 1.0 and lo == 0.0:
        # remove the s^(beta-1) endpoint singularity with u = s^alpha
        s1 = min(1.0, hi / 2.0)

        def integrand_u(u: float) -> complex:
            key = (1, u)
            if key in cache:
                return cache[key]
            if u <= 0.0:
                val = 0j
            else:
                s = u ** (1.0 / alpha)
                expo = (n + beta - alpha) / alpha
                val = (math.exp(-s - float(gammaln(n + 1))) * u ** expo / alpha
                       * h ** (beta - 1.0)
                       * mittag_leffler(h ** alpha * u * lam, alpha, beta, ml_rtol))
            cache[key] = val
            return val

        pieces.append((integrand_u, 0.0, s1 ** alpha))
        pieces.append((integrand, s1, hi))
    else:
        pieces.append((integrand, lo, hi))

    total = 0j
    for func, a, b in pieces:
        re, _ = integrate.quad(lambda s: func(s).real, a, b,
                               epsabs=1e-14, epsrel=epsrel, limit=300)
        if real_line:
            total += re
            continue
        im, _ = integrate.quad(lambda s: func(s).imag, a, b,
                               epsabs=1e-14, epsrel=epsrel, limit=300)
        total += re + 1j * im
    return total


def poisson_resolvent(A, alpha: float, h: float, n: int, beta: float,
                      epsrel: float = 1e-8, cond_cap: float = 1e8,
                      ml_rtol: float = 3e-9) -> np.ndarray:
    """Q_beta^n = int rho_n^h(t) t^{beta-1} E_{alpha,beta}(t^alpha A) dt.

    beta is 1 (initial-value resolvent) or alpha (forcing resolvent, whose
    h-multiple is the scheme's D_n).  A must be diagonalizable; the scalar
    quadrature runs per eigenvalue and is recomposed through the eigenbasis.
    """
    if beta not in (1.0, alpha):
        raise ValueError("beta must be 1 or alpha")
    A = np.atleast_2d(np.asarray(A, dtype=complex))
    d = A.shape[0]
    if d == 1:
        return np.array([[_poisson_scalar(A[0, 0], alpha, h, n, beta, epsrel, ml_rtol)]])
    evals, V = np.linalg.eig(A)
    cond = np.linalg.cond(V)
    if not np.isfinite(cond) or cond > cond_cap:
        raise np.linalg.LinAlgError(
            f"eigenbasis condition number {cond:.3g} exceeds cap {cond_cap:g}")
    q = np.array([_poisson_scalar(lam, alpha, h, n, beta, epsrel, ml_rtol)
                  for lam in evals])
    return (V * q) @ np.linalg.inv(V)


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
    sel = (t >= t[-1] / 10.0) & (t > 1.0) & (nd > 0) & (nD > 0)
    logt = np.log(t[sel])

    flat = np.ptp(nd[sel]) <= 1e-12 * np.max(nd[sel])
    if flat:
        slope_d = 0.0
        slope_D = float(np.polyfit(logt, np.log(nD[sel]), 1)[0]) if np.ptp(nD[sel]) > 0 else 0.0
    else:
        slope_d = float(np.polyfit(logt, np.log(nd[sel]), 1)[0])
        slope_D = float(np.polyfit(logt, np.log(nD[sel]), 1)[0])

    sum_D = float(np.sum(nD[1:]))
    # tail of sum ||D_k|| from the fitted power law, as an integral beyond t_max
    if slope_D < -1.0:
        c = math.exp(float(np.polyfit(logt, np.log(nD[sel]), 1)[1]))
        sum_D_tail = c / r.h * t[-1] ** (slope_D + 1.0) / (-slope_D - 1.0)
    else:
        sum_D_tail = math.inf
    partial = np.cumsum(nD[1:])
    tail_sel = t[1:] >= t[-1] / 10.0
    cauchy_gap = float(partial[-1] - partial[tail_sel][0]) if tail_sel.any() else math.inf

    return ResolventDecayReport(
        scheme_id=r.scheme_id, alpha=r.alpha, h=r.h,
        slope_d=slope_d, slope_D=slope_D,
        sup_t_alpha_d=float(np.max(t[sel] ** r.alpha * nd[sel])),
        sup_t_alpha1_D=float(np.max(t[sel] ** (r.alpha + 1.0) * nD[sel])),
        sum_D=sum_D, sum_D_tail=sum_D_tail, cauchy_gap=cauchy_gap,
        applicable=not flat,
    )
