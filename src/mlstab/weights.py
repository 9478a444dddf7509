"""Convolution weight sequences for the five schemes.

Every scheme on a uniform grid is a discrete convolution; this module builds
its weight tables, which do not depend on the step size h.  `scheme_weights`
is the one builder by scheme id.  Two equivalent sequences describe each
scheme:

* mu    - the convolution weights the solver steps, generating function F_mu(z);
* omega - their convolution inverse, built only when read (SchemeWeights.omega).

A fractional linear multistep method (F-LMM) is the polynomial pair (p, q) of
`generating_pair`, F_omega = p^(-alpha) q and F_mu = p^alpha / q:

    F-BDF1    p = 1 - z              q = 1
    F-BDF2    p = 3/2 - 2z + z^2/2   q = 1
    F-Adams2  p = 1 - z              q = (1 - alpha/2) + (alpha/2) z

Its tables come from first-order factors in O(N), with no Python loop over
the terms.  (1 - z)^(+-alpha) is one cumulative product (the Miller
recursion of miller_power at degree 1).  F-BDF2's p = (3/2)(1 - z)(1 - z/3)
adds a convolution with the first 64 terms of (3/2)^alpha (1 - z/3)^alpha,
which fall like 3^-k.  F-Adams2's division by q = q_0 (1 + (q_1/q_0) z) is
the recurrence y_n = x_n - (q_1/q_0) y_{n-1}, run as log2 N doubling passes.
L1 has mu_j = second differences of j^(1-alpha) / Gamma(2-alpha) and omega its
O(N^2) convolution inverse.  The alpha-difference scheme has the F-BDF1 mu
and no omega.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .special import _check_alpha, _check_alpha_diff

__all__ = [
    "FBDF1",
    "FBDF2",
    "FADAMS2",
    "L1",
    "ALPHA_DIFF",
    "SCHEMES",
    "SchemeWeights",
    "miller_power",
    "conv_inverse",
    "scheme_name",
    "generating_pair",
    "l1_weights",
    "alpha_diff_kernel",
    "alpha_diff_weights",
    "scheme_weights",
    "leading_omega",
]

FBDF1 = "fbdf1"
FBDF2 = "fbdf2"
FADAMS2 = "fadams2"
L1 = "l1"
ALPHA_DIFF = "alpha_diff"
SCHEMES = (FBDF1, FBDF2, FADAMS2, L1, ALPHA_DIFF)


@dataclass(frozen=True)
class SchemeWeights:
    """Weight tables of one scheme at one alpha.

    mu holds the first n_terms convolution weights, the only table the solver
    reads.  sigma holds the L1 initial-value weights
    sigma_n = (n^(1-alpha) - (n-1)^(1-alpha)) / Gamma(2-alpha) with
    sigma[0] = 0, length n_terms + 1, so that sum(mu[:n+1]) == sigma[n+1].
    """

    scheme_id: str
    alpha: float
    n_terms: int
    mu: np.ndarray
    sigma: np.ndarray | None = None

    def __post_init__(self):
        for arr in (self.mu, self.sigma):
            if arr is not None:
                arr.setflags(write=False)

    @functools.cached_property
    def omega(self) -> np.ndarray | None:
        """The first n_terms weights of F_omega = 1/F_mu, built on first read:
        p^(-alpha) q from the first-order factors of the pair for an F-LMM
        (O(N)), by conv_inverse for L1 (O(N^2)); None for the alpha-difference
        scheme."""
        if self.scheme_id == ALPHA_DIFF:
            return None
        if self.scheme_id == L1:
            omega = conv_inverse(self.mu, self.n_terms)
        else:
            _, q = generating_pair(self.scheme_id, self.alpha)
            omega = np.convolve(_p_power(self.scheme_id, -self.alpha, self.n_terms),
                                q)[:self.n_terms]
        omega.setflags(write=False)
        return omega


def miller_power(f, alpha: float, n_terms: int) -> np.ndarray:
    """First n_terms coefficients of (sum_k f_k z^k)^alpha as a formal series.

    Miller recursion: g_0 = f_0^alpha and
        g_n = (1/(n f_0)) sum_{k=1}^{n} (k (1+alpha) - n) f_k g_{n-k}.
    Requires f_0 != 0.  alpha may be any real (negative powers give the
    series of the reciprocal root).  O(n_terms * deg f): one cumulative
    product for deg f = 1, a Python loop for higher degrees.
    """
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    f = np.asarray(f)
    if f.ndim != 1 or f.size < 1:
        raise ValueError("f must be a non-empty 1-d coefficient array")
    if f[0] == 0:
        raise ValueError("leading coefficient f[0] must be nonzero")
    dtype = np.result_type(f.dtype, np.float64)
    f = f.astype(dtype)
    g = np.zeros(n_terms, dtype=dtype)
    g[0] = f[0] ** alpha
    if f.size == 1:
        return g
    n = np.arange(1.0, n_terms)
    a = np.zeros((f.size - 1, n_terms), dtype=dtype)  # a[k-1, n] g_{n-k}: the terms
    np.subtract(np.arange(1, f.size)[:, None] * (1.0 + alpha), n, out=a[:, 1:])
    a[:, 1:] *= f[1:, None] / f[0]  # in place: temporaries would double the time
    a[:, 1:] /= n
    a[:, 0] = g[0]
    # first order, g_n = a_n g_{n-1}, is a cumulative product
    return np.cumprod(a[0], out=a[0]) if f.size == 2 else _recurrence(g, a)


def _recurrence(y: np.ndarray, a: np.ndarray) -> np.ndarray:
    """y_n += sum_k a[k-1, n] y_{n-k}, n >= 1 in order: miller_power at degree
    >= 2, which no scheme table uses; Python scalars beat numpy 7x here."""
    ys, cols = y.tolist(), a.tolist()
    for n in range(1, len(ys)):
        s = ys[n]
        for k in range(min(n, len(cols))):
            s += cols[k][n] * ys[n - 1 - k]
        ys[n] = s
    return np.array(ys, dtype=y.dtype)


#: terms of F-BDF2's (1 - z/3)^alpha factor (_p_power): the k-th is at most
#: 3^-k in size for |alpha| <= 1, and 3^-64 < 3e-31.
_THIRD_TERMS = 64


def _p_power(scheme_id: str, alpha: float, n_terms: int) -> np.ndarray:
    """The first n_terms coefficients of p^alpha, p of an F-LMM's pair, from
    its first-order factors, each the cumulative product of miller_power:
    (1 - z)^alpha, and for F-BDF2, p = (3/2)(1 - z)(1 - z/3), its convolution
    with the first _THIRD_TERMS coefficients of (3/2)^alpha (1 - z/3)^alpha."""
    g = miller_power(np.array([1.0, -1.0]), alpha, n_terms)
    if scheme_id != FBDF2:
        return g
    third = miller_power(np.array([1.0, -1.0 / 3.0]), alpha, min(n_terms, _THIRD_TERMS))
    return np.convolve(g, 1.5 ** alpha * third)[:n_terms]


def _divide_first_order(x: np.ndarray, c: float) -> np.ndarray:
    """The series x / (1 + c z): y_n = x_n - c y_{n-1}, by doubling.  After the
    pass of shift s, y_n = sum_{k<2s} (-c)^k x_{n-k}; log2 N passes of one
    shifted multiply-add each."""
    y, a, s = x.copy(), -c, 1
    while s < y.size:
        y[s:] = y[s:] + a * y[:-s]  # the right side is formed first: the old y
        a, s = a * a, 2 * s
    return y


def conv_inverse(u, n_terms: int) -> np.ndarray:
    """Sequence v with (u * v)_n = delta_{n,0} for n < n_terms.

    Forward substitution: v_0 = 1/u_0, v_n = -(1/u_0) sum_{j>=1} u_j v_{n-j}.
    """
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    u = np.asarray(u)
    if u.size < 1 or u[0] == 0:
        raise ValueError("leading coefficient u[0] must be nonzero")
    dtype = np.result_type(u.dtype, np.float64)
    u = u.astype(dtype)
    v = np.zeros(n_terms, dtype=dtype)
    v[0] = 1.0 / u[0]
    kmax = u.size - 1
    for n in range(1, n_terms):
        m = min(n, kmax)
        v[n] = -np.dot(u[1:m + 1], v[n - 1::-1][:m]) / u[0]
    return v


def scheme_name(scheme_id: str) -> str:
    """Canonical scheme id ("ALPHA-DIFF" gives "alpha_diff"); ValueError if unknown."""
    name = scheme_id.replace("-", "_").lower()
    if name not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme_id!r}; expected one of {SCHEMES}")
    return name


def generating_pair(scheme_id: str, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Polynomials (p, q) of an F-LMM, F_omega(z) = p(z)^(-alpha) q(z), in
    increasing powers of z.  ValueError for L1 and alpha_diff (no F-LMMs)."""
    name = scheme_name(scheme_id)
    if name == FBDF1:
        return np.array([1.0, -1.0]), np.array([1.0])
    if name == FBDF2:
        return np.array([1.5, -2.0, 0.5]), np.array([1.0])
    if name == FADAMS2:
        return np.array([1.0, -1.0]), np.array([1.0 - alpha / 2.0, alpha / 2.0])
    raise ValueError(f"{name} is not an F-LMM: no generating pair (p, q)")


def _flmm_weights(scheme_id: str, alpha: float, n_terms: int) -> SchemeWeights:
    """mu = p^alpha / q from the first-order factors of the scheme's pair, in O(N)."""
    _check_alpha(alpha)
    mu = _p_power(scheme_id, alpha, n_terms)
    _, q = generating_pair(scheme_id, alpha)
    if q.size > 1:  # F-Adams2: q = q_0 (1 + (q_1/q_0) z)
        mu = _divide_first_order(mu / q[0], q[1] / q[0])
    return SchemeWeights(scheme_id, alpha, n_terms, mu)


def l1_weights(alpha: float, n_terms: int) -> SchemeWeights:
    """Weights of the L1 scheme.

    mu_0 = 1/Gamma(2-alpha),
    mu_j = ((j+1)^(1-alpha) - 2 j^(1-alpha) + (j-1)^(1-alpha)) / Gamma(2-alpha),
    sigma_n = (n^(1-alpha) - (n-1)^(1-alpha)) / Gamma(2-alpha).
    """
    _check_alpha(alpha)
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    g = math.gamma(2.0 - alpha)
    n = np.arange(n_terms + 1, dtype=float)
    pw = n ** (1.0 - alpha)
    pw[0] = 0.0  # numpy's 0.0 ** 0.0 is 1, which breaks the alpha = 1 limit
    sigma = np.zeros(n_terms + 1)
    sigma[1:] = (pw[1:] - pw[:-1]) / g
    mu = np.empty(n_terms)
    mu[0] = 1.0 / g
    if n_terms > 1:
        mu[1:] = (sigma[2:] - sigma[1:-1])  # second differences, telescoped
    return SchemeWeights(L1, alpha, n_terms, mu, sigma)


def alpha_diff_kernel(beta: float, n_terms: int) -> np.ndarray:
    """Fractional-sum kernel k_n^beta = Gamma(beta+n)/(Gamma(beta) Gamma(1+n)).

    The (1-z)^(-beta) series, k_n = k_{n-1} (beta + n - 1)/n by the Miller
    recursion.  Accepts any beta in (0, 1]; the alpha-difference scheme uses
    beta = 1-alpha.
    """
    if not (0.0 < beta <= 1.0):
        raise ValueError(f"kernel order must lie in (0, 1], got {beta}")
    p, _ = generating_pair(FBDF1, 1.0 - beta)  # p = 1 - z
    return miller_power(p, -beta, n_terms)


def alpha_diff_weights(alpha: float, n_terms: int) -> SchemeWeights:
    """Differential-form weights of the alpha-difference scheme.

    The operator is the first difference of the fractional sum with kernel
    k^(1-alpha), so its convolution weights mu_j = k_j^(1-alpha) - k_{j-1}^(1-alpha)
    are the (1-z)^alpha binomials: the F-BDF1 mu, built by the F-BDF1
    builder.  The schemes differ only in how the initial value enters the
    step equation (see solver.solve_alpha_diff).  Its omega is None.
    """
    _check_alpha_diff(alpha)
    return replace(_flmm_weights(FBDF1, alpha, n_terms), scheme_id=ALPHA_DIFF)


def scheme_weights(scheme_id: str, alpha: float, n_terms: int) -> SchemeWeights:
    """Weight table for any scheme id: the one builder the solver and the
    impulse resolvents use."""
    scheme_id = scheme_name(scheme_id)
    if scheme_id == L1:
        return l1_weights(alpha, n_terms)
    if scheme_id == ALPHA_DIFF:
        return alpha_diff_weights(alpha, n_terms)
    return _flmm_weights(scheme_id, alpha, n_terms)


def leading_omega(scheme_id: str, alpha: float) -> float:
    """omega_0 = F_omega(0) = p_0^(-alpha) q_0, the implicit step coefficient.

    Gamma(2-alpha) for L1; the alpha-difference scheme has the F-BDF1 value 1.
    """
    scheme_id = scheme_name(scheme_id)
    _check_alpha(alpha)
    if scheme_id == L1:
        return math.gamma(2.0 - alpha)
    p, q = generating_pair(FBDF1 if scheme_id == ALPHA_DIFF else scheme_id, alpha)
    return float(p[0] ** -alpha * q[0])
