import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlstab import weights as wt


def binomial_series_oracle(power, n_terms, dps=40):
    """Coefficients of (1-z)^power via mpmath binomials."""
    with mpmath.workdps(dps):
        return [complex(mpmath.binomial(power, k)) * (-1) ** k for k in range(n_terms)]


class TestMillerPower:
    def test_square_root_of_one_minus_z(self):
        g = wt.miller_power([1.0, -1.0], 0.5, 3)
        assert np.allclose(g, [1.0, -0.5, -0.125], atol=1e-15)

    def test_integer_power(self):
        g = wt.miller_power([1.0, -1.0], 1.0, 6)
        assert np.allclose(g, [1.0, -1.0, 0, 0, 0, 0], atol=1e-15)

    def test_general_polynomial_against_binomial_product(self):
        # (1.5 - 2z + 0.5 z^2)^0.7 = 1.5^0.7 (1-z)^0.7 (1-z/3)^0.7
        n = 6
        g = wt.miller_power([1.5, -2.0, 0.5], 0.7, n)
        b1 = binomial_series_oracle(0.7, n)
        b2 = [c * (1.0 / 3.0) ** k for k, c in enumerate(binomial_series_oracle(0.7, n))]
        ref = 1.5 ** 0.7 * np.convolve(b1, b2)[:n]
        assert np.allclose(g, ref.real, rtol=1e-13, atol=1e-15)

    def test_zero_leading_coefficient(self):
        with pytest.raises(ValueError):
            wt.miller_power([0.0, 1.0], 0.5, 4)

    def test_complex_coefficients(self):
        # (1 - i z)^0.5 (degree 1) and its square (degree 2) against mpmath binomials
        n = 8
        ref = [c * (1j) ** k for k, c in enumerate(binomial_series_oracle(0.5, n))]
        assert np.allclose(wt.miller_power([1.0, -1j], 0.5, n), ref, rtol=1e-14, atol=1e-15)
        got2 = wt.miller_power([1.0, -2j, -1.0], 0.25, n)
        assert np.allclose(got2, ref, rtol=1e-14, atol=1e-15)

    def test_degree_zero(self):
        assert np.allclose(wt.miller_power([4.0], 0.5, 3), [2.0, 0.0, 0.0])


class TestConvInverse:
    def test_geometric(self):
        v = wt.conv_inverse([1.0, -1.0], 5)
        assert np.allclose(v, np.ones(5), atol=1e-15)

    def test_scalar(self):
        assert np.allclose(wt.conv_inverse([2.0], 4), [0.5, 0, 0, 0], atol=1e-16)

    def test_fbdf1_inverse_is_negative_power(self, fbdf1_recursion):
        mu = fbdf1_recursion(0.5, 400)
        omega = wt.conv_inverse(mu, 400)
        ref = wt.miller_power([1.0, -1.0], -0.5, 400)
        assert np.max(np.abs(omega - ref)) < 1e-13

    def test_zero_leading_coefficient(self):
        with pytest.raises(ValueError):
            wt.conv_inverse([0.0, 2.0], 3)

    @settings(max_examples=40, deadline=None)
    @given(rest=st.lists(st.floats(min_value=-3, max_value=3), min_size=0, max_size=6),
           lead=st.floats(min_value=0.25, max_value=4.0))
    def test_roundtrip(self, rest, lead):
        # dominant head keeps the intermediate inverse bounded; otherwise the
        # inverse grows geometrically and floating-point roundtrip error with it
        rest = np.asarray(rest)
        total = np.sum(np.abs(rest))
        if total > 0.8 * lead:
            rest = rest * (0.8 * lead / total)
        u = np.concatenate([[lead], rest])
        n = 24
        back = wt.conv_inverse(wt.conv_inverse(u, n), n)
        padded = np.zeros(n)
        padded[: u.size] = u
        assert np.max(np.abs(back - padded)) < 1e-12 * max(1.0, np.max(np.abs(u)))


class TestFbdfWeights:
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7, 0.9])
    def test_fbdf2_closed_forms(self, alpha):
        w = wt.scheme_weights(wt.FBDF2, alpha, 5)
        c = 1.5 ** alpha
        expected = [c,
                    -c * 4.0 * alpha / 3.0,
                    c * alpha * (8 * alpha - 5) / 9.0,
                    c * 4 * alpha * (alpha - 1) * (7 - 8 * alpha) / 81.0]
        assert np.allclose(w.mu[:4], expected, rtol=1e-13)

    def test_fbdf2_classical_limit(self):
        w = wt.scheme_weights(wt.FBDF2, 1.0, 6)
        assert np.allclose(w.mu, [1.5, -2.0, 0.5, 0, 0, 0], atol=1e-14)

    def test_fbdf1_values(self):
        w = wt.scheme_weights(wt.FBDF1, 0.5, 4)
        assert np.allclose(w.mu, [1.0, -0.5, -0.125, -0.0625], atol=1e-15)

    def test_miller_matches_recursion(self, fbdf1_recursion):
        for alpha in (0.3, 0.5, 0.9):
            w = wt.scheme_weights(wt.FBDF1, alpha, 1000)
            rec = fbdf1_recursion(alpha, 1000)
            assert np.max(np.abs(w.mu - rec)) < 1e-13

    def test_fbdf1_sign_pattern(self):
        w = wt.scheme_weights(wt.FBDF1, 0.4, 512)
        assert w.mu[0] == 1.0
        assert np.all(w.mu[1:] < 0.0)
        partial = np.cumsum(w.mu)
        assert np.all(partial > 0.0)
        assert np.all(np.diff(partial) < 0.0)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
    def test_fbdf2_sign_pattern_and_partial_sums(self, alpha):
        w = wt.scheme_weights(wt.FBDF2, alpha, 10_000)
        assert w.mu[0] > 0 > w.mu[1]
        assert np.all(w.mu[4:] < 0.0)
        partial = np.cumsum(w.mu)
        # partial sums decrease in magnitude past j = 4 and drain to zero
        assert np.all(np.diff(np.abs(partial[4:])) < 0.0)
        if alpha >= 0.5:
            assert abs(partial[-1]) < 1e-2

    def test_fbdf1_omega_asymptotics(self):
        # omega_n ~ n^(alpha-1)/Gamma(alpha) within 1% at n = 1e4
        alpha = 0.6
        w = wt.scheme_weights(wt.FBDF1, alpha, 10_001)
        n = 10_000
        ref = n ** (alpha - 1.0) / math.gamma(alpha)
        assert abs(w.omega[n] / ref - 1.0) < 0.01


def _binomial_window(alpha, j0: int, j1: int) -> list:
    """(-1)^j binom(alpha, j), the (1-z)^alpha coefficients, for j0 <= j < j1 in
    the current mpmath precision: one mpmath binomial, then its recurrence."""
    b = (-1) ** j0 * mpmath.binomial(alpha, j0)
    out = [b]
    for j in range(j0 + 1, j1):
        b = b * (j - 1 - alpha) / j
        out.append(b)
    return out


def _flmm_mu_oracle(scheme: str, alpha: float, n: int):
    """mu_n of F-BDF2, (3/2)^alpha (1-z)^alpha (1-z/3)^alpha, or of F-Adams2,
    (1-z)^alpha / (q_0 + q_1 z), at 40 digits, from binomial sums cut where
    their terms fall below 1e-45 (3^-k, (q_1/q_0)^k); at alpha = 1, where
    q_1/q_0 = 1, the F-Adams2 sum runs over every term."""
    with mpmath.workdps(40):
        a = mpmath.mpf(alpha)
        if scheme == wt.FBDF2:
            K = min(n, 100)
            c = _binomial_window(a, 0, K + 1)
            g = _binomial_window(a, n - K, n + 1)  # g[i]: the coefficient of z^(n-K+i)
            return mpmath.mpf(1.5) ** a * sum(c[k] * mpmath.mpf(3) ** -k * g[K - k]
                                               for k in range(K + 1))
        q0, ratio = 1 - a / 2, (a / 2) / (1 - a / 2)
        K = n if ratio == 1 else min(n, int(45 * mpmath.log(10) / -mpmath.log(ratio)) + 1)
        g = _binomial_window(a, n - K, n + 1)
        return sum((-ratio) ** k * g[K - k] for k in range(K + 1)) / q0


class TestFactoredTables:
    # F-BDF2 and F-Adams2 mu from first-order factors against 40-digit
    # coefficients; the bounds are about three times the largest relative
    # error measured on x86 (1.6e-15, 2.6e-14 and 1.23e-12 at the three n)
    BOUND = {10: 4e-15, 1000: 8e-14, 50_000: 4e-12}

    @pytest.mark.parametrize("scheme", [wt.FBDF2, wt.FADAMS2])
    @pytest.mark.parametrize("n", [10, 1000, 50_000])
    def test_tables_against_mpmath(self, scheme, n):
        for alpha in (0.1, 0.5, 0.9, 1.0):
            got = wt.scheme_weights(scheme, alpha, n + 1).mu[n]
            ref = _flmm_mu_oracle(scheme, alpha, n)
            if alpha == 1.0:  # the classical tables are exact
                assert got == ref, (alpha, got, ref)
            else:
                assert abs((got - ref) / ref) <= self.BOUND[n], alpha

    @pytest.mark.parametrize("n", [10, 1000, 50_000])
    def test_fbdf2_is_no_further_off_than_miller(self, n):
        # the Miller recursion for the degree-2 p of F-BDF2, the table before
        # it was factored: at each n the factored table's worst relative
        # error over alpha is no larger (measured 9.1e-16 against 1.3e-15,
        # 2.6e-14 against 1.2e-13, 1.2e-12 against 6.1e-12)
        worst = {"factored": 0.0, "miller": 0.0}
        for alpha in (0.1, 0.5, 0.9):
            ref = _flmm_mu_oracle(wt.FBDF2, alpha, n)
            for name, table in (("factored", wt.scheme_weights(wt.FBDF2, alpha, n + 1).mu),
                                ("miller", wt.miller_power([1.5, -2.0, 0.5], alpha, n + 1))):
                worst[name] = max(worst[name], float(abs((table[n] - ref) / ref)))
        assert worst["factored"] <= worst["miller"], worst


class TestFadams2Weights:
    def test_leading_weight(self):
        for alpha in (0.2, 0.5, 0.8):
            assert wt.scheme_weights(wt.FADAMS2, alpha, 4).omega[0] == pytest.approx(1 - alpha / 2)

    def test_trapezoidal_limit(self):
        w = wt.scheme_weights(wt.FADAMS2, 1.0, 6)
        assert np.allclose(w.omega, [0.5, 1, 1, 1, 1, 1], atol=1e-14)

    def test_omega1_against_binomial_product(self):
        alpha = 0.5
        w = wt.scheme_weights(wt.FADAMS2, alpha, 8)
        base = binomial_series_oracle(-alpha, 8)
        ref = [(1 - alpha / 2) * base[k].real
               + (alpha / 2) * (base[k - 1].real if k else 0.0) for k in range(8)]
        assert np.allclose(w.omega, ref, rtol=1e-13)
        assert w.omega[1] == pytest.approx(0.625)


class TestL1Weights:
    def test_leading_weight(self):
        w = wt.l1_weights(0.5, 4)
        assert w.mu[0] == pytest.approx(1.0 / math.gamma(1.5))
        assert w.mu[0] == pytest.approx(1.1283791671, abs=1e-10)

    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8])
    def test_telescoping(self, alpha):
        w = wt.l1_weights(alpha, 300)
        partial = np.cumsum(w.mu)
        assert np.max(np.abs(partial - w.sigma[1:]) / np.abs(w.sigma[1:])) < 1e-12

    def test_classical_limit(self):
        # alpha = 1 is the backward difference y_n - y_{n-1}, the alpha -> 1 limit
        w = wt.l1_weights(1.0, 6)
        assert np.array_equal(w.mu, [1.0, -1.0, 0.0, 0.0, 0.0, 0.0])
        assert np.array_equal(np.cumsum(w.mu), w.sigma[1:])
        assert wt.l1_weights(0.999, 6).mu[1] == pytest.approx(-0.99988, abs=1e-5)


class TestAlphaDiffKernel:
    def test_leading_entry(self):
        for beta in (0.1, 0.5, 0.9):
            assert wt.alpha_diff_kernel(beta, 3)[0] == 1.0

    def test_order_one(self):
        assert np.allclose(wt.alpha_diff_kernel(1.0, 8), np.ones(8))

    def test_stirling_ratio(self):
        k = wt.alpha_diff_kernel(0.5, 10_001)
        n = 10_000
        ref = n ** -0.5 / math.gamma(0.5)
        assert abs(k[n] / ref - 1.0) < 0.01

    def test_matches_gamma_formula(self):
        beta = 0.35
        k = wt.alpha_diff_kernel(beta, 12)
        ref = [math.gamma(beta + n) / (math.gamma(beta) * math.gamma(1 + n))
               for n in range(12)]
        assert np.allclose(k, ref, rtol=1e-13)

    def test_alpha_diff_weights_match_fbdf1(self, fbdf1_recursion):
        # the kernel differences are the (1-z)^alpha binomials
        w = wt.alpha_diff_weights(0.4, 200)
        assert np.max(np.abs(w.mu - fbdf1_recursion(0.4, 200))) < 1e-13
        assert w.omega is None


class TestSchemeTables:
    @pytest.mark.parametrize("scheme", wt.SCHEMES)
    def test_prefix_stability(self, scheme):
        # weights are exact sequence values: a longer table extends, never changes
        a = wt.scheme_weights(scheme, 0.45, 100)
        b = wt.scheme_weights(scheme, 0.45, 200)
        assert np.array_equal(a.mu, b.mu[:100])
        if a.omega is not None:
            assert np.max(np.abs(a.omega - b.omega[:100])) < 1e-14

    @pytest.mark.parametrize("scheme", [wt.FBDF1, wt.FBDF2, wt.FADAMS2, wt.L1])
    def test_mu_omega_are_mutual_inverses(self, scheme):
        # alpha = 1 makes the F-Adams2 division by q marginal (q_1/q_0 = 1)
        for alpha, n in ((0.6, 128), (1.0, 128), (0.6, 5000), (1.0, 5000)):
            w = wt.scheme_weights(scheme, alpha, n)
            conv = np.convolve(w.mu, w.omega)[:n]
            delta = np.zeros(n)
            delta[0] = 1.0
            assert np.max(np.abs(conv - delta)) < 1e-12, (alpha, n)

    @pytest.mark.parametrize("alpha", [0.3, 0.6, 1.0])
    def test_fadams2_mu_against_conv_inverse(self, alpha):
        w = wt.scheme_weights(wt.FADAMS2, alpha, 5000)
        assert np.max(np.abs(w.mu - wt.conv_inverse(w.omega, 5000))) < 1e-12

    @pytest.mark.parametrize("scheme", [wt.FBDF1, wt.FBDF2, wt.FADAMS2])
    def test_leading_omega_is_generating_pair_at_zero(self, scheme):
        p, q = wt.generating_pair(scheme, 0.37)
        assert wt.leading_omega(scheme, 0.37) == p[0] ** -0.37 * q[0]

    def test_leading_omega_closed_forms(self):
        alpha = 0.37
        for scheme in (wt.FBDF1, wt.FBDF2, wt.FADAMS2, wt.L1):
            w = wt.scheme_weights(scheme, alpha, 4)
            assert w.omega[0] == pytest.approx(wt.leading_omega(scheme, alpha), rel=1e-13)

    @pytest.mark.parametrize("scheme, alpha", [(wt.FBDF2, 1.7), (wt.L1, 3.0), (wt.FADAMS2, -0.5)])
    def test_leading_omega_checks_alpha(self, scheme, alpha):
        # without the check these gave a value, or "math domain error" for L1
        with pytest.raises(ValueError, match="alpha must lie in"):
            wt.leading_omega(scheme, alpha)

    def test_weights_are_read_only(self):
        w = wt.scheme_weights(wt.FBDF1, 0.5, 8)
        with pytest.raises(ValueError):
            w.mu[0] = 2.0

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            wt.scheme_weights("bdf7", 0.5, 4)

    def test_scheme_name(self):
        assert wt.scheme_name("ALPHA-DIFF") == wt.ALPHA_DIFF
        assert wt.scheme_name("FBDF2") == wt.FBDF2
        with pytest.raises(ValueError, match="unknown scheme"):
            wt.scheme_name("bdf7")

    @pytest.mark.parametrize("scheme", [wt.L1, wt.ALPHA_DIFF])
    def test_no_generating_pair(self, scheme):
        with pytest.raises(ValueError, match="not an F-LMM"):
            wt.generating_pair(scheme, 0.5)

