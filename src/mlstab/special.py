"""Scalar and small-matrix special functions.

1/Gamma, the two-parameter Mittag-Leffler function E_{alpha,beta}, the
three-parameter (Prabhakar) generalization for integer third parameter,
the continuous fractional resolvent t^{beta-1} E_{alpha,beta}(t^alpha A),
and the stability-sector test |arg(lambda)| > alpha*pi/2.  As the lowest layer
it also holds the alpha and matrix checks and the spectral record of A
(_Spectrum) that the other modules share.

Evaluation strategy for E_{alpha,beta}(z), 0 < alpha <= 1, on a scalar or an
array of z.  Two branches are tried in this order, the second on the z the
first left; each returns its values together with their own error estimates,
and a value is accepted only when its estimate meets `rtol` relative to it.
Both branches work row by row: a z gets the same value, bit for bit, alone or
among any other z, and a scalar is the one-element case.

1. Large-|z| expansion for |z| >= ASYMPTOTIC_MIN:

      E_{alpha,beta}(z) = [exp-term] - sum_{k=1}^{K} z^{-k}/Gamma(beta-k*alpha)
                          + O(|z|^{-K-1}),

   truncated at its smallest term, where the exponential term
   (1/alpha) z^{(1-beta)/alpha} exp(z^{1/alpha}) is present for
   |arg z| <= alpha*pi and absent in the decay sector |arg z| > alpha*pi.
   The estimate is the first omitted term.

2. Contour integral in double precision, any z: the
   inverse Laplace transform of s^(alpha-beta) / (s^alpha - z) at t = 1 by
   the trapezoidal rule on a parabola, plus the residue of the pole
   z^(1/alpha) when it lies to the right of the parabola (Garrappa 2015,
   SIAM J. Numer. Anal. 53:1350).  The estimate is the gap between the rule
   and its half-step refinement plus the rounding floor of the sum, which
   grows like e^mu / |E| (mu the parabola's vertex).  The rule is tried with
   at most 64 nodes per half, and the z it fails again with at most 256,
   which admits smaller vertices mu and so a lower floor.  Each z takes the
   node count its own step needs.

When beta is 0 or a negative integer, 1/Gamma(beta) = 0 and E is about
z/Gamma(alpha+beta) near 0, too small for the contour's rounding floor; for
|z| < 1 the value is z E_{alpha,alpha+beta}(z), an exact identity.

If no branch meets `rtol` for some z, AccuracyError is raised, naming the
first such z: the documented accuracy gap.  At rtol 1e-13 it holds small
values in the decay sector, values near the zeros of E on the negative real
axis such as E_{0.6,0.5}(-3.0107), and huge values at alpha <= 0.15 (90 of
109,725 probed points, see the README); rtol 1e-11 serves them.  Far
outside the decay sector exp(z^(1/alpha)) exceeds the double range, which
raises AccuracyError too.

All functions here are pure; the module's only state is a cache of the
expansion's 1/Gamma rows per (alpha, beta), read-only arrays.  Blocks of
expansion terms or contour nodes hold at most _BLOCK entries, so a long array
of z is evaluated a block of rows at a time.  Gamma values come from
math.gamma (reciprocal_gamma); like the rest of mlstab, the module runs on
numpy and the standard library alone.
"""

from __future__ import annotations

import cmath
import functools
import math
from typing import NamedTuple

import numpy as np

__all__ = [
    "AccuracyError",
    "EigenbasisError",
    "SectorResult",
    "ASYMPTOTIC_MIN",
    "COND_CAP",
    "reciprocal_gamma",
    "mittag_leffler",
    "prabhakar",
    "resolvent_matrix",
    "matrix_function",
    "in_stable_sector",
]


class AccuracyError(ArithmeticError):
    """No available representation of E_{alpha,beta} meets the tolerance."""


class EigenbasisError(np.linalg.LinAlgError):
    """Matrix is not diagonalizable with a well-conditioned eigenbasis."""


#: smallest |z| at which the large-z expansion is attempted at all.
ASYMPTOTIC_MIN = 3.5
#: largest eigenbasis condition number a matrix function accepts.
COND_CAP = 1e8

_LN_OVERFLOW = 690.0  # ~ log(DBL_MAX)
_EPS = 2.220446049250313e-16


def reciprocal_gamma(x: float) -> float:
    """1/Gamma(x) for real x: exactly 0 at the poles and where Gamma(x)
    overflows (x > 171.6), +-inf where 1/Gamma(x) overflows, nan for nan and
    -inf."""
    try:
        g = math.gamma(x)
    except ValueError:  # a pole, or -inf
        return math.nan if x == -math.inf else 0.0
    except OverflowError:  # x > 171.6, or |x| so small that 1/Gamma(x) = x
        return 0.0 if x > 1.0 else x
    return 1.0 / g if g else math.copysign(math.inf, g)


def _check_alpha(alpha: float) -> None:
    """ValueError unless alpha lies in (0, 1], every scheme's range."""
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")


def _check_alpha_diff(alpha: float) -> None:
    """ValueError unless alpha lies in (0, 1), the alpha-difference range."""
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha-difference scheme requires alpha in (0, 1), got {alpha}")


def _check_matrix(A) -> np.ndarray:
    """A as a complex matrix; ValueError unless it is square and finite."""
    A = np.atleast_2d(np.asarray(A, dtype=complex))
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("A must be square")
    if not np.all(np.isfinite(A)):
        raise ValueError("A must be finite (no NaN or inf entries)")
    return A


#: most entries in one block of expansion terms or contour nodes; longer row sets
#: are evaluated a block of rows at a time.
_BLOCK = 2 ** 17


def _blocks(rows: np.ndarray, width: int):
    """Consecutive slices of `rows` with at most _BLOCK // width rows each."""
    step = max(1, _BLOCK // width)
    return (rows[i:i + step] for i in range(0, rows.size, step))


def _exponential_term(z: complex, alpha: float, beta: float) -> complex:
    """(1/alpha) z^{(1-beta)/alpha} exp(z^{1/alpha}), raising on overflow."""
    w = cmath.exp(cmath.log(z) / alpha)
    if w.real > _LN_OVERFLOW:
        raise AccuracyError(
            f"exp(z^(1/alpha)) overflows a double for z={z}, alpha={alpha}"
        )
    power = cmath.exp(cmath.log(z) * (1.0 - beta) / alpha)
    return power * cmath.exp(w) / alpha


@functools.lru_cache(maxsize=256)
def _expansion_coefs(alpha: float, beta: float, n_max: int) -> np.ndarray:
    """1/Gamma(beta - k alpha), k = 1..n_max, 0 at the poles: the large-|z|
    expansion's coefficients, read-only and kept per (alpha, beta, n_max)."""
    coef = np.array(list(map(reciprocal_gamma, (beta - alpha * np.arange(1, n_max + 1)).tolist())))
    coef.setflags(write=False)
    return coef


def _asymptotic(z: np.ndarray, alpha: float, beta: float, rtol: float, n_max: int = 160):
    """Large-|z| expansion on a 1-D array of z (nonzero), each truncated at
    its smallest term, from the terms z^{-k}/Gamma(beta - k alpha),
    k = 1..n_max.  Returns (values, ok)."""
    val, est = np.zeros(z.size, dtype=complex), np.zeros(z.size)
    zl = z.tolist()
    k = np.arange(1, n_max + 1)
    j = np.arange(n_max)
    coef = _expansion_coefs(float(alpha), float(beta), n_max)
    for rows in _blocks(np.arange(z.size), n_max):
        logz = np.array([cmath.log(zl[i]) for i in rows])
        terms = np.exp(-k * logz[:, None]) * coef
        mags = np.abs(terms)
        nonzero = mags != 0.0
        # the smallest nonzero term, and the first nonzero one after it (or
        # the last nonzero one) as the estimate
        j_star = np.where(nonzero, mags, np.inf).argmin(axis=1)[:, None]
        later = nonzero & (j > j_star)
        last = n_max - 1 - nonzero[:, ::-1].argmax(axis=1)
        at = np.where(later.any(axis=1), later.argmax(axis=1), last)
        some = nonzero.any(axis=1)
        val[rows] = np.where(some, -np.where(j <= j_star, terms, 0.0).sum(axis=1), 0.0)
        est[rows] = np.where(some, mags[np.arange(rows.size), at], 0.0)
    for i, zi in enumerate(zl):
        if abs(math.atan2(zi.imag, zi.real)) <= alpha * math.pi + 1e-15:
            val[i] += _exponential_term(zi, alpha, beta)
    return val, est <= rtol * np.maximum(np.abs(val), 1e-290)


#: aimed error (log) of the coarse contour rule; its refinement is far below.
_CONTOUR_LOG_TARGET = math.log(1e-17)
#: candidate parabola vertices mu, from the pole-free optimum -log_target/8 of
#: Weideman & Trefethen (2007, Math. Comp. 76:1341) down; the smallest
#: feasible one is used, since the rounding floor grows like e^mu.
_CONTOUR_MU = -_CONTOUR_LOG_TARGET / 8.0 * 2.0 ** (-0.5 * np.arange(9))
#: most nodes per half of the coarse rule: the first cap, then the second for
#: the z the first fails (more nodes admit smaller mu and so a lower floor).
_CONTOUR_N_MAX = (64, 256)
#: the pole may not lie between the parabolas of vertex mu/g^2 and mu g^2.
_CONTOUR_POLE_GAP = 1.5


def _contour(z: np.ndarray, alpha: float, beta: float, rtol: float):
    """E_{alpha,beta} on an array of z by the contour rule of _contour_rule,
    under each node cap of _CONTOUR_N_MAX in turn for the z not yet served.
    Returns (values, ok), ok where the estimate meets rtol."""
    z = np.asarray(z, dtype=complex).ravel()
    val, ok = np.zeros(z.size, dtype=complex), np.zeros(z.size, dtype=bool)
    for n_max in _CONTOUR_N_MAX:
        todo = ~ok
        if todo.any():
            val[todo], ok[todo] = _contour_rule(z[todo], alpha, beta, rtol, n_max)
    return val, ok


def _contour_rule(z: np.ndarray, alpha: float, beta: float, rtol: float, n_max: int):
    """E_{alpha,beta} on an array of z by inverting its Laplace transform.

    E_{alpha,beta}(z) = (1/2 pi i) int e^s s^(alpha-beta) / (s^alpha - z) ds
    over the parabola s(u) = mu (1 + i u)^2, u real, plus the residue
    (1/alpha) s0^(1-beta) e^s0 of the pole s0 = |z|^(1/alpha) e^(i arg(z)/alpha)
    (present for |arg z| < alpha pi) when it lies to the right of the parabola,
    that is when mu < phi(s0) = (|s0| + Re s0)/2.

    In u the integrand is analytic in a strip bounded by the branch point at
    Im u = 1 and by the pole at Im u = 1 - sqrt(phi(s0)/mu).  Per z, the step
    h and the half-length L = n h follow from the strip widths so that
    discretization and truncation errors stay below e^_CONTOUR_LOG_TARGET,
    for the smallest candidate mu that keeps the pole clear and needs at most
    n_max nodes.  The value is the rule at step h/2; the estimate is its gap
    to the rule at step h plus the rounding floor.  Returns (values, ok), ok
    where the estimate meets rtol relative to the value.
    """
    ell = _CONTOUR_LOG_TARGET
    with np.errstate(all="ignore"):
        arg = np.angle(z)
        pole = np.abs(arg) < alpha * math.pi
        s0 = np.where(pole, np.abs(z) ** (1.0 / alpha) * np.exp(1j * arg / alpha), 0.0)
        phi = (0.5 * (np.abs(s0) + s0.real))[:, None]
        mu = _CONTOUR_MU[None, :]
        L = np.sqrt(1.0 - ell / mu)
        rho = np.sqrt(phi / mu)  # > 1: the pole lies to the right
        h_lower = np.pi / (mu * (1.0 + L))  # pole-free lower strip, optimal width
        h = np.where(
            rho > 1.0,
            np.minimum(2.0 * np.pi / -ell,
                       np.where(L <= rho - 1.0, h_lower,
                                2.0 * np.pi * (rho - 1.0) / (phi - ell))),
            np.minimum(h_lower, 2.0 * np.pi * (1.0 - rho) / (phi - ell)))
        n_nodes = np.ceil(L / h)
        clear = (rho >= _CONTOUR_POLE_GAP) | (rho <= 1.0 / _CONTOUR_POLE_GAP)  # rho = 0: no pole
        feasible = clear & (n_nodes <= n_max)
        # the smallest feasible mu per z (candidates are in decreasing order)
        pick = mu.shape[1] - 1 - np.argmax(feasible[:, ::-1], axis=1)
        rows = np.arange(z.size)
        found = feasible[rows, pick]
        mu, h, right = _CONTOUR_MU[pick], h[rows, pick], rho[rows, pick] > 1.0
        # each z takes its own node count, so its value does not depend on
        # the z beside it
        n_row = np.where(found, n_nodes[rows, pick], 1.0).astype(int)
        fine, coarse = np.empty(z.size, dtype=complex), np.empty(z.size, dtype=complex)
        spread = np.empty(z.size)
        for n in np.unique(n_row).tolist():
            u = np.arange(-2 * n, 2 * n + 1)
            for sel in _blocks(np.flatnonzero(n_row == n), u.size):
                w = 1.0 + 1j * (0.5 * h[sel])[:, None] * u
                s = mu[sel, None] * w * w
                terms = (np.exp(s) * s ** (alpha - beta) / (s ** alpha - z[sel, None])
                         * (mu[sel, None] * w) * (0.5 * h[sel] / math.pi)[:, None])  # ds/(2 pi i)
                fine[sel] = terms.sum(axis=1)
                coarse[sel] = 2.0 * terms[:, ::2].sum(axis=1)
                spread[sel] = (np.abs(terms) * (1.0 + np.abs(s))).sum(axis=1)
        residue = np.where(right, s0 ** (1.0 - beta) * np.exp(s0) / alpha, 0.0)
        val = fine + residue
        # every term carries a relative error of about eps |s| through exp(s)
        floor = _EPS * (spread + (1.0 + np.abs(s0)) * np.abs(residue))
        val = np.where(z.imag == 0.0, val.real, val)
        ok = found & np.isfinite(val) & (np.abs(fine - coarse) + floor <= rtol * np.abs(val))
    return val, ok


def mittag_leffler(z, alpha: float, beta: float = 1.0, rtol: float = 1e-13):
    """E_{alpha,beta}(z) = sum_k z^k / Gamma(alpha k + beta) for alpha in (0, 1].

    z is a scalar, giving a complex, or an array, giving a complex array of
    its shape; a scalar is the one-element case, and each value is the same
    bit for bit whatever else the array holds.  beta may be any real number
    (terms with Gamma evaluated at a pole vanish).  The two double-precision
    branches (large-z expansion, contour integral) are tried in the order of
    the module docstring, the second on the z the first left.
    Raises AccuracyError, naming the first such z, on the documented gap,
    where none of them attains `rtol`: small values in the decay sector,
    values near the zeros of E on the negative real axis, huge values at
    alpha <= 0.15, and z whose exp(z^(1/alpha)) overflows.
    """
    _check_alpha(alpha)
    if not math.isfinite(beta):
        raise ValueError("beta must be finite")
    z = np.asarray(z, dtype=complex)
    if not np.isfinite(z).all():
        raise ValueError("z must be finite")
    flat = z.ravel()
    val = np.zeros(flat.size, dtype=complex)
    todo = flat != 0
    if not todo.all():
        val[~todo] = reciprocal_gamma(beta)
    az = np.abs(flat)
    if beta <= 0.0 and beta == int(beta):
        # 1/Gamma(beta) = 0, so E is about z/Gamma(alpha+beta) near 0, below
        # the contour's rounding floor; there E_{alpha,beta}(z) = z E_{alpha,alpha+beta}(z)
        rows = np.flatnonzero(todo & (az < 1.0))
        if rows.size:
            val[rows] = flat[rows] * mittag_leffler(flat[rows], alpha, alpha + beta, rtol)
            todo[rows] = False
    for branch, near in ((_asymptotic, az >= ASYMPTOTIC_MIN),
                         (_contour, True)):
        rows = np.flatnonzero(todo & near)
        if rows.size:
            got, ok = branch(flat[rows], alpha, beta, rtol)
            val[rows[ok]] = got[ok]
            todo[rows[ok]] = False
    if todo.any():
        bad = complex(flat[todo][0])
        raise AccuracyError(f"E_alpha,beta(z) at z={bad}, alpha={alpha}, beta={beta}: no double-"
                            f"precision branch meets rtol={rtol:g} (documented accuracy gap)")
    return complex(val[0]) if z.ndim == 0 else val.reshape(z.shape)


def prabhakar(z, alpha: float, beta: float, gamma_order: int = 1) -> complex:
    """Three-parameter Mittag-Leffler function E^{gamma}_{alpha,beta}(z).

    Supports gamma_order in {1, 2}.  gamma_order=1 is E_{alpha,beta}; the
    second order is evaluated through the reduction formula

        E^2_{alpha,beta}(z) = [E_{alpha,beta-1}(z)
                               + (1 - beta + alpha) E_{alpha,beta}(z)] / alpha.
    """
    if gamma_order != int(gamma_order) or not 1 <= int(gamma_order) <= 2:
        raise ValueError(f"gamma_order must be 1 or 2, got {gamma_order!r}")
    if int(gamma_order) == 1:
        return mittag_leffler(z, alpha, beta)
    e1 = mittag_leffler(z, alpha, beta - 1.0)
    e2 = mittag_leffler(z, alpha, beta)
    return (e1 + (1.0 - beta + alpha) * e2) / alpha


def resolvent_matrix(A, alpha: float, beta: float, t: float) -> np.ndarray:
    """t^{beta-1} E_{alpha,beta}(t^alpha A) through an eigendecomposition.

    R_{alpha,1}(t) = E_alpha(t^alpha A) and
    R_{alpha,alpha}(t) = t^{alpha-1} E_{alpha,alpha}(t^alpha A) are the
    fractional resolvent operators of D^alpha y = A y.

    Requires A square, finite and diagonalizable with cond(V) below COND_CAP;
    raises ValueError or EigenbasisError otherwise (no Schur-Parlett fallback).
    """
    if t <= 0:
        raise ValueError("t must be positive")
    ta = t ** alpha
    prefac = t ** (beta - 1.0)
    return matrix_function(
        A, lambda lam: prefac * mittag_leffler(ta * lam, alpha, beta))


def matrix_function(A, fn) -> np.ndarray:
    """fn(A) = V diag(fn(lambda_i)) V^{-1}, fn applied per eigenvalue of A's
    spectral record (_Spectrum: A checked, a real A decomposed in real
    arithmetic); EigenbasisError if cond(V) is not finite or exceeds COND_CAP.
    An fn that returns m values per eigenvalue gives the (m, d, d) stack."""
    spectrum = _Spectrum(A)
    V = spectrum.vectors
    cond = np.linalg.cond(V)
    if not np.isfinite(cond) or cond > COND_CAP:
        raise EigenbasisError(f"eigenbasis condition number {cond:.3g} exceeds cap {COND_CAP:g}")
    vals = np.array([fn(lam) for lam in spectrum.values])  # (d,) or (d, m)
    return (V * vals.T[..., None, :]) @ np.linalg.inv(V)


class _Spectrum:
    """The spectral record of A that matrix_function, analysis.classify_problem
    and solver._modes read: A checked by _check_matrix (kept real when it has
    no imaginary part), the complex eigenvalues and the eigenvectors of one
    eigendecomposition (in real arithmetic for a real A), and the sector
    verdict of each eigenvalue (`sectors`).  An eigenvalue within the zero
    floor 1e-9 max(1, ||A||_2) counts as zero: the dense eigensolver cannot
    place an exact zero mode better than about 1e-12 ||A||, and for a
    non-normal A its error scales with ||A||_2, not max |lambda|."""

    def __init__(self, A):
        A = _check_matrix(A)
        self.A = A if np.any(A.imag) else A.real
        values, self.vectors = np.linalg.eig(self.A)
        self.values = values.astype(complex)

    def sectors(self, alpha: float) -> list[SectorResult]:
        """in_stable_sector of each eigenvalue at alpha, one within the zero
        floor taken as 0: critical, not in the sector, margin nan."""
        floor = 1e-9 * max(1.0, float(np.linalg.norm(self.A, 2)))
        return [in_stable_sector(0.0 if abs(lam) <= floor else lam, alpha)
                for lam in self.values.tolist()]


class SectorResult(NamedTuple):
    """Outcome of the stability-sector test."""

    in_sector: bool
    margin: float  # |arg(lambda)| - alpha*pi/2, NaN for lambda = 0
    critical: bool  # on the sector boundary (or lambda = 0), treated unstable


#: |margin| below which an eigenvalue counts as sitting on the sector boundary.
SECTOR_BOUNDARY_TOL = 1e-12


def in_stable_sector(lam, alpha: float) -> SectorResult:
    """Test lambda against the stability sector {z != 0 : |arg z| > alpha*pi/2}
    for alpha in (0, 1]; at alpha = 1 it is the open left half-plane.

    The boundary case |arg(lambda)| = alpha*pi/2 (within SECTOR_BOUNDARY_TOL)
    and lambda = 0 are flagged critical and reported as not in the sector.
    """
    _check_alpha(alpha)
    lam = complex(lam)
    if lam == 0:
        return SectorResult(False, float("nan"), True)
    # atan2, not cmath.phase: phase raises OverflowError on a subnormal part
    margin = abs(math.atan2(lam.imag, lam.real)) - alpha * math.pi / 2.0
    critical = abs(margin) <= SECTOR_BOUNDARY_TOL
    return SectorResult(margin > 0 and not critical, margin, critical)
