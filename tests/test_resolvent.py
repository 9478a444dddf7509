import math

import numpy as np
import pytest

from mlstab import problems, special
from mlstab import weights as wt
from mlstab.resolvent import (
    InsufficientRangeError,
    d0_closed_form,
    impulse_resolvent,
    operator_norms,
    poisson_mass,
    poisson_resolvent,
    variation_of_constants,
    verify_resolvent_decay,
)
from mlstab.solver import FOdeProblem, SingularStepError, SolverError, solve, solve_alpha_diff
from mlstab.special import EigenbasisError

SCHEMES = (wt.FBDF1, wt.FBDF2, wt.FADAMS2, wt.L1)
LAM = np.array([[1 + 11j]])


class TestImpulseExtraction:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_d0_is_identity(self, scheme):
        r = impulse_resolvent(scheme, LAM, 0.5, 0.1, 10)
        assert np.array_equal(r.d[0], np.eye(1))

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("alpha", [0.4, 0.8])
    def test_D0_matches_closed_form_scalar(self, scheme, alpha):
        r = impulse_resolvent(scheme, LAM, alpha, 0.1, 4)
        ref = d0_closed_form(scheme, LAM, alpha, 0.1)
        assert np.max(np.abs(r.D[0] - ref)) < 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_D0_matches_closed_form_matrix(self, scheme):
        A = problems.lorenz_controlled().A
        r = impulse_resolvent(scheme, A, 0.5, 0.1, 4)
        ref = d0_closed_form(scheme, A, 0.5, 0.1)
        assert np.max(np.abs(r.D[0] - ref)) < 1e-12

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_decoupled_zero_matrix(self, scheme):
        # A = 0: d_n = I, D_n = h^alpha omega_n I, so the mu-form steps are
        # checked against the independently built omega table
        h, alpha, n_max = 0.2, 0.6, 30
        r = impulse_resolvent(scheme, np.zeros((2, 2)), alpha, h, n_max)
        assert np.allclose(r.d, np.eye(2), atol=1e-14)
        w = wt.scheme_weights(scheme, alpha, n_max + 1)
        for n in (0, 3, 30):
            assert np.allclose(r.D[n], h ** alpha * w.omega[n] * np.eye(2), atol=1e-14)

    @pytest.mark.parametrize("scheme", [wt.FBDF1, wt.L1])
    def test_singular_step_matrix(self, scheme):
        # at h = 1 the step matrix is 1 - omega_0 lambda (F-BDF1, omega_0 = 1)
        # or mu_0 - lambda (L1): lambda = mu_0 makes it exactly zero
        lam = wt.scheme_weights(scheme, 0.5, 1).mu[0]
        with pytest.raises(SingularStepError):
            impulse_resolvent(scheme, np.array([[lam]]), 0.5, 1.0, 5)

    def test_alpha_diff_not_supported(self):
        with pytest.raises(ValueError):
            impulse_resolvent(wt.ALPHA_DIFF, LAM, 0.5, 0.1, 4)

    @pytest.mark.parametrize("n_max", [-1, -2])
    def test_negative_range_rejected(self, n_max):
        with pytest.raises(ValueError, match="n_max must be >= 0"):
            impulse_resolvent(wt.FBDF1, LAM, 0.5, 0.1, n_max)

    def test_l1_builds_no_omega(self, monkeypatch):
        # the O(N^2) conv_inverse serves only readers of the L1 omega table,
        # and neither a solve nor an impulse resolvent reads it
        def no_inverse(*args, **kwargs):
            raise AssertionError("conv_inverse called")

        monkeypatch.setattr(wt, "conv_inverse", no_inverse)
        traj = solve(FOdeProblem(0.5, LAM, np.array([5.0])), wt.L1, 0.1, 50)
        r = impulse_resolvent(wt.L1, LAM, 0.5, 0.1, 50)
        assert np.all(np.isfinite(traj.states)) and np.all(np.isfinite(r.D))

    def test_zero_range(self):
        r = impulse_resolvent(wt.FBDF1, LAM, 0.5, 0.1, 0)
        assert r.d.shape == r.D.shape == (1, 1, 1)
        assert r.d[0, 0, 0] == 1.0


class TestOverflow:
    # the unstable uncontrolled Lorenz mode +11.83: at alpha = 0.5, h = 0.01 the
    # homogeneous F-BDF1 run first overflows at step 772
    def test_overflow_names_the_first_non_finite_step(self):
        A = problems.lorenz_controlled(False).A
        with np.errstate(over="ignore", invalid="ignore"):
            r = impulse_resolvent(wt.FBDF1, A, 0.5, 0.01, 771)
            assert np.all(np.isfinite(r.d)) and np.all(np.isfinite(r.D))
            with pytest.raises(SolverError, match="non-finite state at step 772") as info:
                impulse_resolvent(wt.FBDF1, A, 0.5, 0.01, 772)
        assert info.value.step == 772


class TestVariationOfConstants:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_reconstructs_nonlinear_trajectory(self, scheme):
        # the strong cross-module identity y_n = d_n y0 + sum D_{n-k} f_k
        p = problems.lorenz_controlled(alpha=0.5)
        N = 200
        traj = solve(p, scheme, 0.1, N)
        r = impulse_resolvent(scheme, p.A, 0.5, 0.1, N)
        f_vals = np.array([p.f(0.1 * k, traj.states[k]) for k in range(N + 1)])
        rec = variation_of_constants(r, p.y0, f_vals)
        assert np.max(np.abs(rec - traj.states)) < 1e-9

    def test_range_check(self):
        r = impulse_resolvent(wt.FBDF1, LAM, 0.5, 0.1, 5)
        with pytest.raises(ValueError):
            variation_of_constants(r, np.array([1.0]), np.zeros((8, 1)))


class TestPoisson:
    @pytest.mark.parametrize("n", [0, 10, 100, 1000])
    def test_mass(self, n):
        assert abs(poisson_mass(n) - 1.0) < 1e-9

    def test_zero_matrix_q1_is_identity(self):
        q = poisson_resolvent(np.zeros((2, 2)), 0.5, 0.1, 7, 1.0)
        assert np.allclose(q, np.eye(2), atol=1e-9)

    def test_q1_matches_poisson_variant_impulse(self):
        A = problems.lorenz_controlled().A
        alpha, h = 0.5, 0.1
        eye = np.eye(3, dtype=complex)
        cols = [solve_alpha_diff(FOdeProblem(alpha, A, eye[:, i]), h, 60,
                                 variant="poisson").states for i in range(3)]
        for n in (1, 3, 20, 60):
            dn = np.stack([c[n] for c in cols], axis=1)
            q = poisson_resolvent(A, alpha, h, n, 1.0)
            assert np.max(np.abs(q - dn)) < 1e-6

    def test_h_qalpha_matches_forced_impulse(self):
        # D_n of the alpha-difference scheme (= F-BDF1's D_n) equals h Q_alpha^n
        lam, alpha, h = -2.5, 0.5, 0.1
        r = impulse_resolvent(wt.FBDF1, np.array([[lam]]), alpha, h, 20)
        for n in (0, 4, 20):
            q = poisson_resolvent(np.array([[lam]]), alpha, h, n, alpha)[0, 0]
            assert abs(h * q - r.D[n, 0, 0]) < 1e-6

    def test_fbdf1_shift_identity(self):
        # Q_1^n equals the F-BDF1 homogeneous impulse shifted by one step
        lam, alpha, h = 1 + 11j, 0.5, 0.1
        r = impulse_resolvent(wt.FBDF1, np.array([[lam]]), alpha, h, 31)
        q = poisson_resolvent(np.array([[lam]]), alpha, h, 30, 1.0)[0, 0]
        assert abs(q - r.d[31, 0, 0]) < 1e-8

    def test_defective_matrix_rejected(self):
        J = np.array([[-1.0, 1.0], [0.0, -1.0]])  # Jordan block
        with pytest.raises(EigenbasisError):
            poisson_resolvent(J, 0.5, 0.1, 5, 1.0)

    @pytest.mark.parametrize("h", [0.0, -0.1, math.nan, math.inf])
    def test_bad_step_size_rejected(self, h):
        with pytest.raises(ValueError, match="step size"):
            poisson_resolvent(LAM, 0.5, h, 5, 1.0)
        with pytest.raises(ValueError, match="step size"):
            impulse_resolvent(wt.FBDF1, LAM, 0.5, h, 5)

    @pytest.mark.parametrize("n", [10, 100, 200])
    def test_no_extended_precision(self, n, monkeypatch):
        # every Mittag-Leffler value of the Lorenz Poisson sweep is served in doubles
        calls = []
        orig = special._taylor_extended
        monkeypatch.setattr(special, "_taylor_extended",
                            lambda *a: calls.append(a) or orig(*a))
        poisson_resolvent(problems.lorenz_controlled(alpha=0.5).A, 0.5, 0.1, n, 1.0)
        assert calls == []

    def test_beta_validation(self):
        with pytest.raises(ValueError):
            poisson_resolvent(LAM, 0.5, 0.1, 3, 0.7)

    @pytest.mark.parametrize("n", [-1, 2.5])
    def test_bad_order_rejected(self, n):
        with pytest.raises(ValueError, match="non-negative integer"):
            poisson_resolvent(np.array([[-1.0]]), 0.5, 0.1, n, 1.0)
        with pytest.raises(ValueError, match="non-negative integer"):
            poisson_mass(n)

    @pytest.mark.parametrize("lam", [-2.0, -11.0, 1 + 11j])
    @pytest.mark.parametrize("n", [0, 1, 10])
    def test_alpha_one_closed_form(self, lam, n):
        # E_{1,1} = exp, so Q_1^n(lam) = int rho_n^h(t) e^(t lam) dt = (1 - h lam)^-(n+1)
        h = 0.1
        q = poisson_resolvent(np.array([[lam]]), 1.0, h, n, 1.0)[0, 0]
        assert q == pytest.approx((1.0 - h * lam) ** -(n + 1), rel=1e-8)

    def test_divergent_transform_rejected(self):
        # the uncontrolled Lorenz eigenvalue +11.83 has (h^alpha lam)^(1/alpha) = 1.18 at h = 0.1
        A = problems.lorenz_controlled(False).A
        with pytest.raises(ValueError, match=r"diverges for eigenvalue 11\.8277"):
            poisson_resolvent(A, 0.5, 0.1, 1, 1.0)


class TestDecayReport:
    def test_scalar_slopes(self):
        r = impulse_resolvent(wt.FBDF1, LAM, 0.5, 0.1, 2000)
        rep = verify_resolvent_decay(r)
        assert rep.applicable
        assert rep.slope_d == pytest.approx(-0.5, abs=0.02)
        assert rep.slope_D == pytest.approx(-1.5, abs=0.05)
        assert math.isfinite(rep.sup_t_alpha_d)
        assert math.isfinite(rep.sup_t_alpha1_D)

    def test_sup_scalings_bounded(self):
        # Mittag-Leffler stability: t^alpha ||d_n|| stays bounded;
        # the partial sums of ||D_n|| go Cauchy over the last decade
        r = impulse_resolvent(wt.L1, LAM, 0.5, 0.1, 2000)
        rep = verify_resolvent_decay(r)
        t = r.times
        nd = operator_norms(r.d)
        sel = t > 1.0
        assert np.max(t[sel] ** 0.5 * nd[sel]) <= 2.0 * rep.sup_t_alpha_d
        assert rep.cauchy_gap < 1e-2
        assert math.isfinite(rep.sum_D_tail)

    def test_flat_case_not_applicable(self):
        r = impulse_resolvent(wt.FBDF1, np.zeros((1, 1)), 0.5, 0.1, 1500)
        rep = verify_resolvent_decay(r)
        assert not rep.applicable
        assert rep.slope_d == 0.0

    def test_insufficient_range(self):
        r = impulse_resolvent(wt.FBDF1, LAM, 0.5, 0.1, 100)
        with pytest.raises(InsufficientRangeError):
            verify_resolvent_decay(r)


class TestOperatorNorms:
    def test_matches_spectral_norm(self):
        rng = np.random.default_rng(7)
        mats = rng.normal(size=(5, 3, 3)) + 1j * rng.normal(size=(5, 3, 3))
        norms = operator_norms(mats)
        for i in range(5):
            assert norms[i] == pytest.approx(np.linalg.norm(mats[i], 2))
