"""Long-time diagnostics.

* decay-rate index  p(t_n) = -ln(||y_{n+m}|| / ||y_n||) / ln(t_{n+m} / t_n),
  a numerical observation of the exponent in ||y_n|| = O(t_n^-p);
* stability-region boundary sampling 1 / (h^alpha F_omega(e^{i theta})), with
  F_omega evaluated in closed form on the unit circle only;
* sector classification of the eigenvalues of a problem's linear part;
* the perturbation-smallness check for semi-linear decay,
  1 - ||D_0|| L0 > 0 and
  (1 - ||D_0|| L0)^{-1} lim_n sum_k ||D_{n-k}|| L(t_k) <= rho0 < 1.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import weights as wt
from .resolvent import ResolventSequence, fit_final_decade, power_law_tail
from .solver import FOdeProblem, Trajectory, _check_grid, _row_norms
from .special import SectorResult, _check_alpha, _Spectrum

__all__ = [
    "DECAYS",
    "GROWS",
    "INCONCLUSIVE",
    "DecayReport",
    "p_index",
    "p_at_checkpoints",
    "RegionSample",
    "region_boundary",
    "ProblemClassification",
    "classify_problem",
    "PerturbationCheck",
    "UnreliableTailError",
    "perturbation_check",
]

DECAYS = "DECAYS"
GROWS = "GROWS"
INCONCLUSIVE = "INCONCLUSIVE"

#: fitted decay exponents within +-VERDICT_BAND of zero are inconclusive.
VERDICT_BAND = 0.05


@dataclass
class DecayReport:
    """p samples plus a log-log fit of the trajectory norm's final decade.

    fitted_slope uses the decay-positive convention of the index itself
    (||y|| ~ fitted_constant * t^(-fitted_slope)), so DECAYS means
    fitted_slope > VERDICT_BAND.
    """

    m: int
    times: np.ndarray
    p: np.ndarray
    fitted_slope: float
    fitted_constant: float
    verdict: str
    n_skipped: int = 0


def p_index(traj: Trajectory, m: int = 5) -> DecayReport:
    """Decay-rate index of a trajectory, sampled wherever t_n > 1.

    Zero-norm states are skipped and counted in n_skipped.  The verdict comes
    from the fitted slope: DECAYS above +VERDICT_BAND, GROWS below
    -VERDICT_BAND, else INCONCLUSIVE.
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    t = traj.times
    norms = traj.norms()
    N = traj.n_steps
    if N < m + 2:
        raise ValueError("trajectory too short for the requested offset")
    n_idx = np.arange(1, N - m + 1)
    n_idx = n_idx[t[n_idx] > 1.0]
    good = (norms[n_idx] > 0.0) & (norms[n_idx + m] > 0.0)
    skipped = int(np.count_nonzero(~good))
    if skipped:
        warnings.warn(f"skipped {skipped} zero-norm samples in p_index", stacklevel=2)
    n_idx = n_idx[good]
    p = -np.log(norms[n_idx + m] / norms[n_idx]) / np.log(t[n_idx + m] / t[n_idx])
    sel, fit, log_c = fit_final_decade(t, norms)
    if np.count_nonzero(sel) < 2:
        slope, const = 0.0, float(norms[-1])
    elif np.ptp(norms[sel]) <= 1e-14 * np.max(norms[sel]):
        slope, const = 0.0, float(np.mean(norms[sel]))
    else:
        slope, const = -fit, math.exp(log_c)
    if slope > VERDICT_BAND:
        verdict = DECAYS
    elif slope < -VERDICT_BAND:
        verdict = GROWS
    else:
        verdict = INCONCLUSIVE
    return DecayReport(m, t[n_idx], p, slope, const, verdict, skipped)


def _checkpoint_index(tc: float, h: float, n_steps: int, m: int = 5,
                      index_offset: int = 0) -> int:
    """The grid index n of checkpoint tc = n h, for a run of n_steps steps
    whose p at tc reads the states n + index_offset and n + index_offset + m.
    Raises ValueError if tc is not finite, not on the grid (within 1e-9
    relative) or not in the range of the run."""
    if not math.isfinite(tc):
        raise ValueError(f"checkpoint {tc} is not finite")
    n = int(round(tc / h))
    if abs(n * h - tc) > 1e-9 * max(tc, 1.0):
        raise ValueError(f"checkpoint {tc} is not on the grid (h = {h})")
    first, last = 1 - index_offset, n_steps - m - index_offset
    if not first <= n <= last:
        raise ValueError(f"checkpoint {tc} outside the computed range "
                         f"(t = {first * h:g} to {last * h:g})")
    return n


def p_at_checkpoints(traj: Trajectory, checkpoints, m: int = 5,
                     index_offset: int = 0) -> list[tuple[float, float]]:
    """p at exact grid checkpoints t (requires t/h integral within rounding).

    A window touching a zero-norm state gives p = nan and one warning for the
    call (p_index skips such samples the same way).

    index_offset shifts the sample index relative to the checkpoint label;
    the published reference grids this package reproduces were sampled one
    index early (offset -1), which changes p by about alpha*h/t.
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    ns = [(tc, _checkpoint_index(tc, traj.h, traj.n_steps, m, index_offset))
          for tc in checkpoints]
    if not ns:
        return []
    # the norms of the window ends only, each as Trajectory.norms forms it
    rows = np.array([n + index_offset + k for _, n in ns for k in (0, m)], dtype=int)
    ends = _row_norms(traj.states[rows]).reshape(-1, 2)
    out = []
    skipped = 0
    for (tc, n), (a, b) in zip(ns, ends):
        zero = not (a > 0.0 and b > 0.0)
        skipped += zero
        out.append((tc, math.nan if zero else -math.log(b / a) / math.log((n + m) / n)))
    if skipped:
        warnings.warn(f"{skipped} checkpoints hit zero-norm samples; p is nan there",
                      stacklevel=2)
    return out


#: terms of the Bose-Einstein series of _polylog: on |z| = 1, |log z| <= pi,
#: so its terms shrink like 0.5^k.
_BE_TERMS = 60
#: Euler-Maclaurin cut-off of _zeta_1p, and its corrections B_2k / (2k)!,
#: k = 1..10: the first omitted one is below 1e-19 relative for every t >= 0.
_EM_N = 10
_EM_BERNOULLI = np.array([b / math.factorial(2 * k) for k, b in enumerate(
    (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510,
     43867 / 798, -174611 / 330), 1)])


def _zeta_1p(t: np.ndarray) -> np.ndarray:
    """zeta(1 + t) on an array of t > 0, by Euler-Maclaurin summation at
    N = _EM_N.  The pole term N^-t / t takes t itself, not (1 + t) - 1, so
    its digits survive t -> 0."""
    sigma = 1.0 + t
    total = (np.arange(1.0, _EM_N)[:, None] ** -sigma).sum(axis=0)
    total += float(_EM_N) ** -t / t + 0.5 * float(_EM_N) ** -sigma
    rising = sigma * float(_EM_N) ** (-sigma - 1.0)  # sigma (sigma+1)..(sigma+2k-2) N^(-sigma-2k+1)
    for k, b in enumerate(_EM_BERNOULLI):
        total += b * rising
        rising *= (sigma + 2 * k + 1) * (sigma + 2 * k + 2) / _EM_N ** 2
    return total


def _bose_einstein_coefficients(s: float) -> np.ndarray:
    """zeta(s - j) / j! for j < _BE_TERMS and real s in (-1, 0], from the
    functional equation with t = j - s:

        zeta(s - j) = ((2 pi)^(s-j) / pi) sin(pi (s - j) / 2) Gamma(1 + t) zeta(1 + t).

    The sine is sin or cos of pi s / 2 by j mod 4, and Gamma(1 + t) / j! a
    running product from Gamma(1 - s).  At s = 0 (alpha = 1) the value is
    exact: zeta(0) = -1/2, and the sine vanishes at the trivial zeros.
    """
    j = np.arange(_BE_TERMS)
    t = j - s
    a = 0.5 * math.pi * s
    trig = np.array([math.sin(a), -math.cos(a), -math.sin(a), math.cos(a)])[j % 4]
    ratio = math.gamma(1.0 - s) * np.cumprod(np.concatenate(([1.0], t[1:] / j[1:])))
    coef = (2.0 * math.pi) ** (s - j) / math.pi * trig * ratio
    if s == 0.0:
        return np.concatenate(([-0.5], coef[1:] * _zeta_1p(t[1:])))
    return coef * _zeta_1p(t)


def _polylog(s: float, z: np.ndarray) -> np.ndarray:
    """Li_s(z) for real s in (-1, 0] on an array with |z| = 1, z != 1, in
    doubles.

    The Bose-Einstein series in mu = log z (Wood 1992, "The computation of
    polylogarithms", Univ. Kent TR 15-92), convergent for |mu| < 2 pi:

        Li_s(e^mu) = Gamma(1-s) (-mu)^(s-1) + sum_{k>=0} zeta(s-k) mu^k / k!.
    """
    mu = np.log(z)
    coef = _bose_einstein_coefficients(s)
    j = np.arange(_BE_TERMS)
    return math.gamma(1.0 - s) * (-mu) ** (s - 1.0) + (mu[:, None] ** j * coef).sum(axis=1)


def _f_omega(scheme_id: str, alpha: float, z: np.ndarray) -> np.ndarray:
    """F_omega (principal branches) on an array of z with |z| = 1, z != 1.

    An F-LMM's F_omega is p(z)^(-alpha) q(z) with the scheme's pair (p, q)
    from weights.generating_pair.  The L1 generating function goes through
    the polylogarithm, F_mu(z) = (1/Gamma(2-alpha)) ((1-z)^2 / z) Li_{alpha-1}(z).
    """
    if scheme_id == wt.L1:
        return math.gamma(2.0 - alpha) * z / ((1.0 - z) ** 2 * _polylog(alpha - 1.0, z))
    p, q = wt.generating_pair(scheme_id, alpha)  # ValueError for alpha_diff
    return np.polyval(p[::-1], z) ** (-alpha) * np.polyval(q[::-1], z)


@dataclass
class RegionSample:
    """Sampled boundary of the numerical stability region.

    The stability region is the complement of
    {1/(h^alpha F_omega(z)) : |z| <= 1}; boundary holds the images of the
    unit circle on an even theta grid, offset by half a cell so theta = 0
    (where F_omega diverges) is excluded.
    """

    scheme_id: str
    alpha: float
    h: float
    theta: np.ndarray
    boundary: np.ndarray


def region_boundary(scheme_id: str, alpha: float, h: float,
                    n_theta: int = 2048) -> RegionSample:
    """Sample the numerical stability-region boundary
    1/(h^alpha F_omega(e^{i theta})) on an even theta grid."""
    _check_alpha(alpha)
    if n_theta < 8 or n_theta % 2:
        raise ValueError(f"n_theta must be even and at least 8, got {n_theta}")
    _check_grid(h)
    scheme_id = wt.scheme_name(scheme_id)
    j = np.arange(n_theta)
    theta = -math.pi + 2.0 * math.pi * (j + 0.5) / n_theta
    vals = 1.0 / (h ** alpha * _f_omega(scheme_id, alpha, np.exp(1j * theta)))
    return RegionSample(scheme_id, alpha, h, theta, vals)


@dataclass
class ProblemClassification:
    """Sector placement of each eigenvalue of the linear part."""

    alpha: float
    eigenvalues: np.ndarray
    sectors: list[SectorResult]
    verdict: str  # "stable" / "critical" / "unstable"


def classify_problem(problem: FOdeProblem) -> ProblemClassification:
    """Eigenvalues of A against the stability sector at the problem's alpha.

    Both come from A's spectral record (special._Spectrum), whose zero floor
    1e-9 max(1, ||A||_2) the solver's mode reduction shares: an eigenvalue
    within it is flagged critical, as the sector excludes zero and the dense
    eigensolver cannot place an exact zero mode better than ~1e-12 ||A||.
    """
    spectrum = _Spectrum(problem.A)
    sectors = spectrum.sectors(problem.alpha)
    if any((not s.in_sector) and (not s.critical) for s in sectors):
        verdict = "unstable"
    elif any(s.critical for s in sectors):
        verdict = "critical"
    else:
        verdict = "stable"
    return ProblemClassification(problem.alpha, spectrum.values, sectors, verdict)


class UnreliableTailError(ArithmeticError):
    """The fitted decay of ||D_n|| cannot bound the series tail."""


@dataclass
class PerturbationCheck:
    """Evaluation of the perturbation-smallness condition.

    rho0 is the decisive quantity
    (1 - ||D_0|| L0)^{-1} (lim_n sum_k ||D_{n-k}|| L(t_k) + tail bound);
    the limit is approximated at n = n_max and also as a supremum over the
    computed range (rho0 takes the larger), with the dropped tail bounded
    through the fitted power-law decay of ||D_n||.
    """

    D0_norm: float
    L0: float
    S0: float          # sum_{k>=1} ||D_k|| including the tail bound
    S0_tail: float
    condition1: bool   # 1 - ||D_0|| L0 > 0
    rho0_limit: float
    rho0_sup: float
    rho0: float
    passed: bool


def perturbation_check(problem: FOdeProblem, r: ResolventSequence,
                       L: Callable[[float], float] | None = None) -> PerturbationCheck:
    """Check the smallness condition of the Lipschitz envelope L(t).

    L defaults to the constant problem.lipschitz_bound; for constant L the
    condition reduces to L0 < 1/(||D_0|| + S0).  Raises UnreliableTailError
    when ||D_n|| shows no summable decay over the computed range.
    """
    if L is None:
        if problem.lipschitz_bound is None:
            raise ValueError("no Lipschitz envelope: pass L or set problem.lipschitz_bound")
        const = float(problem.lipschitz_bound)
        L = lambda t: const  # noqa: E731
    t = r.times
    nD = r.norm_D
    Lvals = np.array([float(L(tk)) for tk in t])
    if not np.all(Lvals >= 0.0):  # nan fails this too
        raise ValueError("L(t) must be nonnegative")
    L0 = float(np.max(Lvals))
    D0 = float(nD[0])

    sel, slope, log_c = fit_final_decade(t, nD)
    if np.count_nonzero(sel) < 2 or np.ptp(nD[sel]) <= 1e-14 * np.max(nD[sel]):
        raise UnreliableTailError("||D_n|| carries no decay over the fit window")
    if slope >= -1.0:
        raise UnreliableTailError(
            f"fitted ||D_n|| ~ t^{slope:.3f} is not summable; tail bound unavailable")
    tail = power_law_tail(log_c, slope, r.h, t[-1])

    S0 = float(np.sum(nD[1:])) + tail
    conv = np.convolve(nD[1:], Lvals)[: r.n_max]  # entry n-1 = sum_{k=0}^{n-1} ||D_{n-k}|| L(t_k)
    denom = 1.0 - D0 * L0
    condition1 = denom > 0.0
    limit_term = float(conv[-1]) + L0 * tail
    sup_term = float(np.max(conv)) + L0 * tail
    rho0_limit = limit_term / denom if condition1 else math.inf
    rho0_sup = sup_term / denom if condition1 else math.inf
    rho0 = max(rho0_limit, rho0_sup)
    return PerturbationCheck(
        D0_norm=D0, L0=L0, S0=S0, S0_tail=tail, condition1=condition1,
        rho0_limit=rho0_limit, rho0_sup=rho0_sup, rho0=rho0,
        passed=condition1 and rho0 < 1.0,
    )
