import math

import numpy as np
import pytest

from mlstab import problems
from mlstab import weights as wt
from mlstab.analysis import DECAYS, p_index
from mlstab.solver import NonConvergenceError, solve


class TestScalarTest:
    @pytest.mark.parametrize("b,lam", [(10.0, 1 + 11j), (-1.0, 1 + 0j), (0.0, 1 + 1j)])
    def test_eigenvalue(self, b, lam):
        p = problems.scalar_test(b)
        assert p.A[0, 0] == lam
        assert p.y0[0] == 5.0
        assert p.f is None

    def test_custom_initial_value(self):
        assert problems.scalar_test(10.0, y0=2.5).y0[0] == 2.5

    @pytest.mark.parametrize("b", [math.inf, -math.inf, math.nan])
    def test_non_finite_b_rejected(self, b):
        with pytest.raises(ValueError, match="scalar-test parameter b must be finite"):
            problems.scalar_test(b)


class TestAdvectionDiffusion:
    def test_matrices_are_circulant(self):
        B, A2 = problems.circulant_matrices(8)
        for M in (B, A2):
            for j in range(1, 8):
                assert np.array_equal(M[j], np.roll(M[j - 1], 1))

    def test_stencils(self):
        B, A2 = problems.circulant_matrices(6)
        u = np.arange(6.0)
        assert np.array_equal(B @ u, np.roll(u, -1) - np.roll(u, 1))
        assert np.array_equal(A2 @ u, np.roll(u, -1) - 2 * u + np.roll(u, 1))

    def test_eigenvalues_match_fourier_closed_form(self):
        a, D, n_x = 0.1, 5.0, 64
        p = problems.advection_diffusion(a, D, n_x)
        computed = list(np.linalg.eigvals(p.A))
        expected = problems.fourier_eigenvalues(a, D, n_x)
        scale = 1.0 + np.max(np.abs(expected))
        # multiset match: greedily pair each predicted eigenvalue with the
        # nearest computed one (conjugate pairs defeat a lexicographic sort)
        for lam in expected:
            i = int(np.argmin(np.abs(np.asarray(computed) - lam)))
            assert abs(computed[i] - lam) < 1e-9 * scale
            computed.pop(i)
        assert not computed

    def test_pure_diffusion_spectrum_real(self):
        lam = problems.fourier_eigenvalues(0.0, 2.0, 16)
        assert np.max(np.abs(lam.imag)) == 0.0
        assert np.max(lam.real) <= 0.0

    def test_constant_mode_is_zero(self):
        lam = problems.fourier_eigenvalues(0.1, 5.0, 32)
        assert abs(lam[-1]) < 1e-12

    def test_initial_profile_zero_mean(self):
        p = problems.advection_diffusion(n_x=64)
        assert abs(np.sum(p.y0)) < 1e-10
        x = np.arange(1, 65) / 64.0
        assert np.allclose(p.y0.real, 10.0 * np.sin(4 * np.pi * x))

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            problems.advection_diffusion(n_x=3)
        with pytest.raises(ValueError):
            problems.advection_diffusion(n_x=10, D=-1.0)

    @pytest.mark.parametrize("a, D, name", [
        (math.inf, 5.0, "advection speed a"), (math.nan, 5.0, "advection speed a"),
        (0.1, math.inf, "diffusion coefficient D"), (0.1, math.nan, "diffusion coefficient D"),
        (0.1, 0.0, "diffusion coefficient D")])
    def test_non_finite_coefficients_rejected(self, a, D, name):
        with pytest.raises(ValueError, match=name):
            problems.advection_diffusion(a, D, n_x=8)


class TestLorenz:
    def test_nonlinearity_vanishes_at_origin(self):
        p = problems.lorenz_controlled()
        assert np.all(p.f(0.0, np.zeros(3, dtype=complex)) == 0.0)

    def test_stack_of_states(self):
        # f maps each row of a (B, 3) stack as it maps that state alone: bit
        # for bit on real states, to rounding on complex ones (numpy's array
        # and scalar complex products may round differently)
        f = problems.lorenz_controlled().f
        Y = np.random.default_rng(3).standard_normal((5, 3)) * (1 + 2j)
        for stack in (Y.real.astype(complex), Y):
            F = f(0.0, stack)
            assert F.shape == (5, 3) and F.dtype == complex
            for b in range(5):
                np.testing.assert_allclose(F[b], f(0.0, stack[b]), rtol=1e-15, atol=0.0)
        assert all(np.array_equal(f(0.0, Y.real)[b], f(0.0, Y.real[b])) for b in range(5))

    def test_quadratic_terms(self):
        p = problems.lorenz_controlled()
        y = np.array([2.0, 3.0, 4.0], dtype=complex)
        assert np.array_equal(p.f(0.0, y), np.array([0.0, -8.0, 6.0]))

    def test_feedback_eigenvalues_char_poly_oracle(self):
        p = problems.lorenz_controlled()
        coeffs = np.poly(p.A)  # characteristic polynomial
        roots = np.sort(np.roots(coeffs).real)
        assert np.allclose(roots, [-11.0, -10.0, -8.0 / 3.0], atol=1e-9)
        assert np.max(np.abs(np.roots(coeffs).imag)) < 1e-9

    def test_feedback_matrix_assembly(self):
        p = problems.lorenz_controlled()
        assert np.array_equal(
            p.A.real, problems.LORENZ_A + problems.LORENZ_B @ problems.LORENZ_K)

    def test_uncontrolled_matrix(self):
        p = problems.lorenz_controlled(with_control=False)
        assert np.array_equal(p.A.real, problems.LORENZ_A)

    # the step-size band of the uncontrolled docstring: F-BDF1, alpha = 0.5, N = 50
    def test_uncontrolled_small_step_grows(self):
        traj = solve(problems.lorenz_controlled(False, alpha=0.5), wt.FBDF1, 0.01, 50)
        assert traj.truncated_at is None
        assert traj.norms()[-1] > traj.norms()[0]

    def test_uncontrolled_middle_step_fails_at_step_one(self):
        with pytest.raises(NonConvergenceError, match="at step 1$"):
            solve(problems.lorenz_controlled(False, alpha=0.5), wt.FBDF1, 0.02, 50)

    # the edges between the first two bands, which Newton moves when it keeps
    # a stale Jacobian after an overshoot
    def test_uncontrolled_growth_band_edge(self):
        traj = solve(problems.lorenz_controlled(False, alpha=0.5), wt.FBDF1, 0.011, 50)
        assert traj.truncated_at is None
        assert traj.norms()[-1] > traj.norms()[0]

    def test_uncontrolled_failure_band_edge(self):
        with pytest.raises(NonConvergenceError, match="at step 1$"):
            solve(problems.lorenz_controlled(False, alpha=0.5), wt.FBDF1, 0.012, 50)

    def test_uncontrolled_large_step_decays(self):
        traj = solve(problems.lorenz_controlled(False, alpha=0.5), wt.FBDF1, 0.1, 50)
        assert p_index(traj).verdict == DECAYS


class TestByName:
    def test_dispatch(self):
        assert problems.by_name("scalar", 0.5, b=0.0).A[0, 0] == 1 + 1j
        assert problems.by_name("advection", 0.5, nx=8).dim == 8
        assert problems.by_name("lorenz", 0.5).dim == 3

    def test_unknown(self):
        with pytest.raises(ValueError):
            problems.by_name("sirs", 0.5)
