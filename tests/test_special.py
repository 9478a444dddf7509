import cmath
import math
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlstab import problems, resolvent, special
from mlstab import weights as wt
from mlstab.analysis import classify_problem
from mlstab.solver import FOdeProblem, solve
from mlstab.special import (
    AccuracyError,
    EigenbasisError,
    in_stable_sector,
    matrix_function,
    mittag_leffler,
    prabhakar,
    reciprocal_gamma,
    resolvent_matrix,
)


def ml_series_oracle(z, alpha, beta, dps=None):
    """Independent reference: mpmath Taylor sum with exact argument arithmetic."""
    az = abs(complex(z))
    if dps is None:
        dps = int(60 + 0.9 * az ** (1.0 / alpha))  # headroom for tiny values
    with mpmath.workdps(dps):
        am, bm = mpmath.mpf(alpha), mpmath.mpf(beta)
        zm = mpmath.mpc(z)
        s = mpmath.mpc(0)
        zk = mpmath.mpc(1)
        k = 0
        kmin = az ** (1.0 / alpha) / alpha + 10
        while True:
            s += zk * mpmath.rgamma(am * k + bm)
            zk *= zm
            k += 1
            if k > kmin and abs(zk) * abs(mpmath.rgamma(am * k + bm)) \
                    < mpmath.mpf(10) ** (-dps + 5) * (1 + abs(s)):
                return complex(s)


class TestGamma:
    # 1/Gamma, the package's one Gamma evaluator
    def test_known_values(self):
        assert reciprocal_gamma(1) == pytest.approx(1.0)
        assert reciprocal_gamma(5) == pytest.approx(1.0 / 24.0)
        assert abs(reciprocal_gamma(0.5) - 1.0 / math.sqrt(math.pi)) < 1e-14

    def test_relative_accuracy_real_axis(self):
        xs = [1e-3, 0.1, 0.5, 2.5, 17.0, 95.5, 170.0]
        for x in xs:
            ref = float(mpmath.rgamma(x))
            assert abs(reciprocal_gamma(x) - ref) <= 1e-13 * abs(ref)

    @pytest.mark.parametrize("x", [0, -1, -2.0, -17])
    def test_poles_raise(self, x):
        # poles raise nothing: 1/Gamma is exactly 0 there
        assert reciprocal_gamma(x) == 0.0

    def test_reciprocal_gamma_zero_at_poles(self):
        assert reciprocal_gamma(0.0) == 0.0
        assert reciprocal_gamma(-3.0) == 0.0
        assert reciprocal_gamma(1.5) == pytest.approx(1.0 / math.gamma(1.5))

    def test_reciprocal_gamma_over_the_double_range(self):
        # against mpmath on [-200.5, 200]: 1e-13 relative where 1/Gamma is a
        # normal double, 0 at the poles, within the smallest normal double
        # where it underflows (x > 171), +-inf below -171 where |1/Gamma|
        # exceeds the largest double
        rng = np.random.default_rng(3)
        xs = np.concatenate((np.arange(-200.5, 200.01, 0.125), rng.uniform(-200.5, 200.0, 300)))
        big, tiny = sys.float_info.max, sys.float_info.min
        for x in xs.tolist():
            got, ref = reciprocal_gamma(x), mpmath.rgamma(mpmath.mpf(x))
            if ref == 0:
                assert got == 0.0, x
            elif abs(ref) > big:
                assert got == math.copysign(math.inf, ref), x
            elif abs(ref) < tiny:
                assert abs(got - float(ref)) < tiny, x
            else:
                assert abs(got - float(ref)) <= 1e-13 * abs(float(ref)), x

    def test_reciprocal_gamma_special_arguments(self):
        assert reciprocal_gamma(math.inf) == 0.0
        assert math.isnan(reciprocal_gamma(math.nan))
        assert math.isnan(reciprocal_gamma(-math.inf))
        assert reciprocal_gamma(-1e20) == 0.0  # a pole, as every double this large is an integer
        # Gamma(x) overflows, and 1/Gamma(x) = x in doubles
        assert reciprocal_gamma(1e-320) == 1e-320 and reciprocal_gamma(-1e-320) == -1e-320

    def test_mittag_leffler_at_zero_underflows(self):
        # E_{alpha,beta}(0) = 1/Gamma(beta), below the double range at beta = 200
        assert mittag_leffler(0.0, 0.5, 200.0) == 0.0


class TestMittagLeffler:
    def test_exponential_case(self):
        assert abs(mittag_leffler(1.0, 1.0) - math.e) < 1e-13 * math.e

    def test_at_zero(self):
        assert mittag_leffler(0.0, 0.5) == pytest.approx(1.0)

    def test_exp_identity_on_disk(self):
        # E_{1,1} = exp to 1e-12 relative for |z| <= 20, all directions
        for r in (0.5, 5.0, 12.0, 20.0):
            for th in (0.0, 0.5, math.pi / 2, 2.5, math.pi):
                z = r * cmath.exp(1j * th)
                assert abs(mittag_leffler(z, 1.0) - cmath.exp(z)) \
                    <= 1e-12 * abs(cmath.exp(z))

    def test_half_alpha_erfc_identity(self):
        # E_{1/2,1}(-x) = exp(x^2) erfc(x), an independent closed form
        from scipy.special import erfcx
        for x in (0.5, 3.0, 7.0, 18.0, 39.0):
            assert abs(mittag_leffler(-x, 0.5) - erfcx(x)) <= 1e-12 * erfcx(x)

    def test_large_negative_argument_both_branches(self, ml_asymptotic):
        # exact value via 1/sqrt(pi) + z e^{z^2} erfc(-z) at z = -100
        with mpmath.workdps(50):
            ref = complex(1 / mpmath.sqrt(mpmath.pi)
                          - 100 * mpmath.exp(10000) * mpmath.erfc(100))
        val = mittag_leffler(-100.0, 0.5, 0.5)
        assert abs(val - ref) <= 1e-12 * abs(ref)
        # the large-z expansion alone agrees: k=1 term vanishes (Gamma(0) pole),
        # the k=2 term -z^{-2}/Gamma(-1/2) carries the value
        asym = ml_asymptotic(-100.0, 0.5, 0.5, n_terms=8)
        assert abs(asym - ref) <= 1e-10 * abs(ref)
        assert ml_asymptotic(-100.0, 0.5, 0.5, n_terms=1) == 0.0

    def test_decay_on_sector_ray(self):
        # |E_{1/2}(z)| <= C/|z| on the ray arg z = 3*pi/4
        z = 50.0 * cmath.exp(3j * math.pi / 4)
        val = mittag_leffler(z, 0.5)
        bound = abs(1.0 / (z * math.gamma(0.5)))
        assert abs(val) <= 2.0 * bound

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
    @pytest.mark.parametrize("beta", [0.5, 1.0, 1.5])
    def test_against_series_oracle_midrange(self, alpha, beta):
        # the awkward band where the large-z expansion starts to apply; radii
        # where the reference sum itself stays affordable (< ~200 digits)
        for r in (4.0, 6.5, 9.5):
            if 0.9 * r ** (1.0 / alpha) > 150.0:
                continue
            for th in (2 * math.pi / 3, math.pi):
                z = r * cmath.exp(1j * th)
                ref = ml_series_oracle(z, alpha, beta)
                val = mittag_leffler(z, alpha, beta)
                assert abs(val - ref) <= 1e-11 * max(abs(ref), 1e-30)

    def test_saturation_band_routed_to_extended_precision(self):
        # at |z| = 10, alpha = 0.7 the large-z expansion saturates above
        # tolerance; the first-omitted-term check must reject it there, so
        # that the contour integral serves the point
        z = 10.0 * cmath.exp(2.4j)
        ref = ml_series_oracle(z, 0.7, 0.4)
        val = mittag_leffler(z, 0.7, 0.4)
        assert abs(val - ref) <= 1e-11 * abs(ref)

    def test_sector_bound_t_alpha_scaled(self):
        # for lambda in the sector, t^alpha |E_alpha(lambda t^alpha)| stays bounded
        lam = 1 + 11j
        alpha = 0.5
        const = abs(1.0 / (lam * math.gamma(1 - alpha)))
        vals = []
        for t in np.logspace(1, 6, 26):
            vals.append(t ** alpha * abs(mittag_leffler(lam * t ** alpha, alpha)))
        assert max(vals) <= 10.0 * const
        assert abs(vals[-1] - const) <= 0.1 * const

    def test_validation(self):
        with pytest.raises(ValueError):
            mittag_leffler(1.0, 1.5)
        with pytest.raises(ValueError):
            mittag_leffler(complex("inf"), 0.5)

    @pytest.mark.parametrize("alpha, beta, z", [
        (0.5333, 1.0, 1.0353 + 3.8637j),
        (1.0, 0.5, -21.65 + 12.5j),
        (0.8833, 0.8833, -10.607 + 10.607j),
    ])
    def test_points_past_the_first_node_cap(self, alpha, beta, z):
        # points the 64-node contour rule misses at rtol 1e-13; the retry
        # with up to 256 nodes serves them
        assert not special._contour_rule(np.array([z]), alpha, beta, 1e-13, 64)[1][0]
        ref = ml_series_oracle(z, alpha, beta)
        assert abs(mittag_leffler(z, alpha, beta) - ref) <= 1e-13 * abs(ref)

    def test_gap_near_a_real_zero(self):
        # E_{0.6,0.5} has a zero near -3.01: at rtol 1e-13 no double branch
        # may claim the value, at 1e-11 the value is served and correct
        z, alpha, beta = -3.0107, 0.6, 0.5
        ref = ml_series_oracle(z, alpha, beta)
        try:
            val = mittag_leffler(z, alpha, beta)
        except AccuracyError as exc:
            assert "rtol=1e-13" in str(exc)
        else:
            assert abs(val - ref) <= 1e-13 * abs(ref)
        assert abs(mittag_leffler(z, alpha, beta, rtol=1e-11) - ref) <= 1e-11 * abs(ref)

    @pytest.mark.parametrize("alpha", [0.5, 0.9, 1.0])
    @pytest.mark.parametrize("beta", [0.0, -1.0, -2.0])
    def test_pole_beta_near_zero(self, alpha, beta):
        # 1/Gamma(beta) = 0, so E ~ z/Gamma(alpha+beta) sits below the
        # contour's rounding floor near 0: served through z E_{alpha,alpha+beta}
        for r in (1e-6, 1e-3, 0.5, 0.99):
            z = r * cmath.exp(2.1j)
            ref = ml_series_oracle(z, alpha, beta)
            assert abs(mittag_leffler(z, alpha, beta) - ref) <= 1e-13 * abs(ref)

    @pytest.mark.parametrize("alpha", [1.0, 0.5])
    def test_complex_plane_against_closed_forms(self, alpha):
        # E_{1,1}(z) = exp(z) and E_{1/2,1}(z) = erfcx(-z) over the upper half
        # plane, |z| from 0.01 to 25: both branches, one array call each
        from scipy.special import erfcx
        z = (np.geomspace(0.01, 25.0, 15)[:, None]
             * np.exp(1j * np.linspace(0.0, math.pi, 17))).ravel()
        z = z[(z ** (1.0 / alpha)).real < 600.0]
        ref = np.exp(z) if alpha == 1.0 else erfcx(-z)
        val = mittag_leffler(z, alpha, 1.0, rtol=1e-11)
        assert np.all(np.abs(val - ref) <= 1e-11 * np.abs(ref))

    def test_overflow_gap_raises(self):
        # far outside the decay sector exp(z^(1/alpha)) exceeds double range
        with pytest.raises(AccuracyError):
            mittag_leffler(1e4, 0.5)


class TestArrayArgument:
    # z from both branches at alpha = 0.8, beta = 0.5: the large-z expansion,
    # and the contour below its radius and past it (where the expansion
    # misses rtol), plus z = 0
    ALPHA, BETA = 0.8, 0.5
    SMALL, ASYMPTOTIC, CONTOUR = 1.0 + 1.0j, -30.0, 9.5 * cmath.exp(2j * math.pi / 3)

    def test_rows_come_from_every_branch(self):
        a, b = self.ALPHA, self.BETA
        assert abs(self.SMALL) < special.ASYMPTOTIC_MIN
        assert special._contour(np.array([self.SMALL]), a, b, 1e-13)[1][0]
        assert special._asymptotic(np.array([self.ASYMPTOTIC + 0j]), a, b, 1e-13)[1][0]
        assert not special._asymptotic(np.array([self.CONTOUR]), a, b, 1e-13)[1][0]
        assert special._contour(np.array([self.CONTOUR]), a, b, 1e-13)[1][0]

    def test_rows_equal_their_one_element_calls(self):
        rng = np.random.default_rng(7)
        base = [self.SMALL, self.ASYMPTOTIC, self.CONTOUR, 0.0]
        zs = np.array(base + [r * cmath.exp(1j * t) for r, t in
                              zip(rng.uniform(0.01, 60.0, 60), rng.uniform(-math.pi, math.pi, 60))])
        for rtol in (1e-13, 3e-9):
            one = np.array([mittag_leffler(z, self.ALPHA, self.BETA, rtol) for z in zs])
            assert one[3] == reciprocal_gamma(self.BETA)
            for perm in (np.arange(zs.size), rng.permutation(zs.size), np.arange(zs.size)[::-1]):
                got = mittag_leffler(zs[perm], self.ALPHA, self.BETA, rtol)
                assert got.dtype == complex and np.array_equal(got, one[perm])
            grid = mittag_leffler(zs[4:].reshape(6, 10), self.ALPHA, self.BETA, rtol)
            assert grid.shape == (6, 10) and np.array_equal(grid.ravel(), one[4:])

    def test_scalar_is_complex(self):
        assert type(mittag_leffler(self.SMALL, self.ALPHA, self.BETA)) is complex
        assert type(mittag_leffler(np.float64(-1.0), 0.5)) is complex

    def test_one_unserved_row_raises(self):
        # E_{0.6,0.5} has a zero near -3.0107, where no branch meets 1e-13
        zs = np.array([0.5, -3.0107, 4.0 + 4.0j])
        with pytest.raises(AccuracyError, match=r"z=\(-3\.0107\+0j\)"):
            mittag_leffler(zs, 0.6, 0.5)
        assert np.all(np.isfinite(mittag_leffler(zs[[0, 2]], 0.6, 0.5)))

    def test_non_finite_row_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            mittag_leffler(np.array([0.5, np.nan]), 0.5)


def test_runtime_path_never_loads_mpmath():
    # mpmath is a test oracle only: the package, its CLI, the L1 region, the
    # Lorenz Poisson sweep and the points past the first contour node cap run
    # in a fresh interpreter without ever importing it
    script = """
import cmath, math, sys
import mlstab, mlstab.cli
from mlstab import problems, weights
from mlstab.analysis import region_boundary
from mlstab.resolvent import poisson_resolvent
from mlstab.special import mittag_leffler
region_boundary(weights.L1, 0.5, 0.1)
for n in (10, 100, 200):
    poisson_resolvent(problems.lorenz_controlled(alpha=0.5).A, 0.5, 0.1, n, 1.0)
for beta in (0.5, 1.0):
    mittag_leffler(9.5 * cmath.exp(2j * math.pi / 3), 0.8, beta)
assert "mpmath" not in sys.modules, "mpmath was imported"
"""
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr


class TestContourBranch:
    # the mid-range band 9 < |z| < 40, at radii where the series oracle stays
    # affordable; on the ray arg z = 2 pi/3 at alpha = 0.8 the pole z^(1/alpha)
    # lies to the right of the chosen parabola for |z| >= 20 (residue added)
    CASES = {
        "real-negative-0.5": (0.5, [-9.5, -12.0, -15.0]),
        "real-negative-0.8": (0.8, [-12.0, -25.0, -39.0]),
        "pole-right-0.8": (0.8, [r * cmath.exp(2j * math.pi / 3) for r in (20.0, 25.0, 30.0, 39.0)]),
    }

    @pytest.mark.parametrize("case", list(CASES))
    @pytest.mark.parametrize("beta", ["one", "alpha", "half"])
    def test_against_series_oracle(self, case, beta):
        alpha, zs = self.CASES[case]
        beta = {"one": 1.0, "alpha": alpha, "half": 0.5}[beta]
        ref = np.array([ml_series_oracle(z, alpha, beta) for z in zs])
        for rtol in (1e-13, 1e-11):
            val, ok = special._contour(np.array(zs), alpha, beta, rtol)
            err = np.abs(val - ref) / np.abs(ref)
            assert np.all(err[ok] <= rtol)
        assert ok.all()  # every point is served at 1e-11

    def test_real_argument_gives_real_value(self):
        val, ok = special._contour(np.array([-20.0]), 0.7, 1.0, 1e-13)
        assert ok[0] and val[0].imag == 0.0

    def test_second_cap_only_for_points_the_first_misses(self):
        # a point the 64-node rule serves keeps exactly its value: the
        # 256-node rule would pick another mu and change it at rounding level
        zs = [r * cmath.exp(1j * th) for r in (4.0, 9.5, 15.0, 25.0) for th in (0.3, 2.1, 2.8)]
        for alpha, beta in ((0.5333, 1.0), (0.8, 0.5), (0.95, 0.95)):
            for z in zs:
                first, ok = special._contour_rule(np.array([z]), alpha, beta, 1e-13, 64)
                if ok[0]:
                    assert special._contour(np.array([z]), alpha, beta, 1e-13)[0][0] == first[0]


class TestPrabhakar:
    def test_order_one_reduces(self):
        z = -2.3 + 0.7j
        assert prabhakar(z, 0.5, 1.0, 1) == mittag_leffler(z, 0.5, 1.0)

    def test_at_zero(self):
        assert abs(prabhakar(0.0, 0.5, 0.5, 2) - 1.0 / math.gamma(0.5)) < 1e-14

    def prabhakar_series_oracle(self, z, alpha, beta, g, terms=None, dps=None):
        peak = abs(complex(z)) ** (1.0 / alpha)
        if terms is None:
            terms = int(3.5 * peak / alpha + 15 * math.sqrt(peak / alpha + 4) + 80)
        if dps is None:
            dps = int(50 + 0.9 * peak)
        with mpmath.workdps(dps):
            am, bm = mpmath.mpf(alpha), mpmath.mpf(beta)
            zm = mpmath.mpc(z)
            s = mpmath.mpc(0)
            for k in range(terms):
                poch = mpmath.gamma(g + k) / mpmath.gamma(g)
                s += poch * zm ** k / mpmath.factorial(k) * mpmath.rgamma(am * k + bm)
            return complex(s)

    def test_near_zero_takes_a_pole_beta(self):
        # order 2 at beta = 1 reads E_{1/2,0}, whose 1/Gamma(0) term vanishes
        ref = self.prabhakar_series_oracle(1e-4, 0.5, 1.0, 2)
        assert abs(prabhakar(1e-4, 0.5, 1.0, 2) - ref) <= 1e-13 * abs(ref)

    def test_reduction_vs_series_negative_beta(self):
        ref = self.prabhakar_series_oracle(-4.0, 0.5, -0.5, 2)
        val = prabhakar(-4.0, 0.5, -0.5, 2)
        assert abs(val - ref) <= 1e-10 * max(abs(ref), 1.0)

    @pytest.mark.parametrize("z", [-10.0, -3.0, 1.5, 2j, -5 + 4j])
    def test_reduction_matches_series_on_disk(self, z):
        ref = self.prabhakar_series_oracle(z, 0.5, 1.0, 2)
        val = prabhakar(z, 0.5, 1.0, 2)
        assert abs(val - ref) <= 1e-10 * max(abs(ref), 1e-6)

    @pytest.mark.parametrize("g", [3, 0, 2.5, -1])
    def test_unsupported_orders(self, g):
        with pytest.raises(ValueError):
            prabhakar(1.0, 0.5, 1.0, g)


class TestResolventMatrix:
    def test_zero_matrix_is_identity(self):
        R = resolvent_matrix(np.zeros((3, 3)), 0.7, 1.0, 2.5)
        assert np.allclose(R, np.eye(3), atol=1e-14)

    def test_matrix_exponential_case(self):
        R = resolvent_matrix(np.diag([-1.0, -2.0]), 1.0, 1.0, 1.0)
        assert np.allclose(np.diag(R), [math.exp(-1), math.exp(-2)], rtol=1e-12)

    def test_scalar_path_matches_scalar_function(self):
        lam, alpha, beta, t = 0.3 - 2.0j, 0.6, 0.6, 3.7
        R = resolvent_matrix(np.array([[lam]]), alpha, beta, t)
        assert R[0, 0] == t ** (beta - 1) * mittag_leffler(t ** alpha * lam, alpha, beta)

    def test_longtime_decay_against_expansion(self, ml_asymptotic):
        lam, alpha, t = 1 + 11j, 0.5, 1e4
        R = resolvent_matrix(np.array([[lam]]), alpha, 1.0, t)
        leading = -1.0 / (lam * math.gamma(1 - alpha)) * t ** -alpha
        ratio1 = abs(R[0, 0] / leading - 1.0)
        assert abs(R[0, 0]) <= 2.0 * abs(leading)
        assert ratio1 <= 0.05
        refined = t ** 0.0 * ml_asymptotic(lam * t ** alpha, alpha, 1.0, n_terms=3)
        assert abs(R[0, 0] / refined - 1.0) <= ratio1

    def test_defective_matrix_rejected(self):
        J = np.array([[1.0, 1.0], [0.0, 1.0]])  # Jordan block
        with pytest.raises(EigenbasisError):
            resolvent_matrix(J, 0.5, 1.0, 1.0)

    def test_matrix_function_polynomial(self):
        A = np.array([[1.0, 2.0], [0.5, -3.0]])
        got = matrix_function(A, lambda lam: lam ** 2 + 1.0)
        assert np.allclose(got, A @ A + np.eye(2), atol=1e-13)
        assert matrix_function([[2.0]], lambda lam: 3 * lam)[0, 0] == 6.0


class TestStableSector:
    def test_reference_eigenvalue(self):
        res = in_stable_sector(1 + 11j, 0.5)
        assert res.in_sector
        assert res.margin == pytest.approx(math.atan2(11, 1) - math.pi / 4)

    def test_outside(self):
        assert not in_stable_sector(1 + 0.9j, 0.5).in_sector

    def test_negative_real_axis(self):
        for alpha in (0.1, 0.5, 0.9):
            res = in_stable_sector(-1.0, alpha)
            assert res.in_sector
            assert res.margin == pytest.approx(math.pi - alpha * math.pi / 2)

    def test_alpha_one_is_the_left_half_plane(self):
        assert not in_stable_sector(1 + 11j, 1.0).in_sector
        res = in_stable_sector(-1.0, 1.0)
        assert res.in_sector and res.margin == pytest.approx(math.pi / 2)
        for alpha in (0.0, 1.5):
            with pytest.raises(ValueError, match="alpha"):
                in_stable_sector(-1.0, alpha)

    def test_zero_is_critical(self):
        res = in_stable_sector(0.0, 0.5)
        assert not res.in_sector and res.critical

    def test_subnormal_imaginary_part(self):
        # cmath.phase raises OverflowError on 2 + 5e-324j
        res = in_stable_sector(complex(2.0, 5e-324), 0.5)
        assert not res.in_sector and res.margin == pytest.approx(-math.pi / 4)

    def test_boundary_is_critical(self):
        res = in_stable_sector(1 + 1j, 0.5)
        assert res.critical and not res.in_sector

    @settings(max_examples=50, deadline=None)
    @given(scale=st.floats(min_value=1e-6, max_value=1e6),
           re=st.floats(min_value=-10, max_value=10),
           im=st.floats(min_value=-10, max_value=10),
           alpha=st.floats(min_value=0.05, max_value=0.95))
    def test_invariant_under_positive_scaling(self, scale, re, im, alpha):
        lam = complex(re, im)
        if lam == 0:
            return
        a = in_stable_sector(lam, alpha)
        b = in_stable_sector(scale * lam, alpha)
        assert a.in_sector == b.in_sector
        assert a.margin == pytest.approx(b.margin, abs=1e-9)


_BAD_MATRICES = [
    ([[1.0, np.nan], [0.0, 1.0]], "A must be finite"),
    ([[1.0, 0.0], [np.inf, 1.0]], "A must be finite"),
    ([[np.inf]], "A must be finite"),
    ([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], "A must be square"),
    (np.ones((2, 2, 2)), "A must be square"),
]


@pytest.mark.parametrize("entry", [
    lambda A: resolvent.poisson_resolvent(A, 0.5, 0.1, 5, 1.0),
    lambda A: resolvent_matrix(A, 0.5, 1.0, 1.0),
    lambda A: matrix_function(A, lambda lam: lam),
    lambda A: resolvent.d0_closed_form(wt.FBDF1, A, 0.5, 0.1),
], ids=["poisson_resolvent", "resolvent_matrix", "matrix_function", "d0_closed_form"])
@pytest.mark.parametrize("A, message", _BAD_MATRICES,
                         ids=["nan", "inf", "inf-1x1", "2x3", "2x2x2"])
def test_bad_matrix_fails_early(entry, A, message):
    # numpy raised LinAlgError, an ambiguous truth value or a RuntimeWarning
    # here, or returned nans
    with pytest.raises(ValueError, match=message):
        entry(np.array(A))


class TestSpectralRecord:
    """special._Spectrum: the one eigendecomposition and zero floor of A that
    classify_problem, the solver's mode reduction and matrix_function read."""

    @staticmethod
    def _count_eig(monkeypatch):
        calls = []
        eig = np.linalg.eig

        def counted(a):
            calls.append(np.shape(a))
            return eig(a)

        def no_eigvals(a):
            raise AssertionError("eigvals called")

        monkeypatch.setattr(np.linalg, "eig", counted)
        monkeypatch.setattr(np.linalg, "eigvals", no_eigvals)
        return calls

    def test_one_eigendecomposition_per_call(self, monkeypatch):
        adv = problems.advection_diffusion(alpha=0.5)
        lorenz = problems.lorenz_controlled(alpha=0.5).A
        calls = self._count_eig(monkeypatch)
        assert classify_problem(adv).verdict == "critical"
        assert calls == [(64, 64)]
        solve(adv, wt.FBDF1, 0.01, 200)
        assert calls == [(64, 64)] * 2
        resolvent.poisson_resolvent(lorenz, 0.5, 0.1, [1, 10], 1.0)
        assert calls == [(64, 64)] * 2 + [(3, 3)]

    def test_real_matrix_decomposed_in_real_arithmetic(self):
        spectrum = special._Spectrum(problems.advection_diffusion(alpha=0.5).A)
        assert spectrum.A.dtype == float and spectrum.values.dtype == complex
        assert special._Spectrum([[1j]]).A.dtype == complex

    def test_floor_scales_with_the_spectral_norm(self):
        # non-normal: ||A||_2 ~ 1e6 puts the floor at 1e-3, so the eigenvalue
        # 1e-5 is critical; the floor 1e-9 max(1, max |lambda|) = 1e-9 would
        # leave it as it is, outside the sector: unstable
        A = np.array([[1e-5, 1e6], [0.0, -1.0]])
        assert classify_problem(FOdeProblem(0.5, A, [1.0, 0.0])).verdict == "critical"
        unfloored = in_stable_sector(1e-5, 0.5)
        assert not unfloored.in_sector and not unfloored.critical
