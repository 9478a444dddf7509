import math
import warnings

import numpy as np
import pytest

from mlstab import problems
from mlstab import weights as wt
from mlstab.resolvent import impulse_resolvent, poisson_resolvent
from mlstab.solver import (
    _LEAF,
    BLOWUP_FACTOR,
    FOdeProblem,
    NonConvergenceError,
    SingularStepError,
    SolverError,
    _blocks,
    solve,
    solve_alpha_diff,
)

SCHEMES = (wt.FBDF1, wt.FBDF2, wt.FADAMS2, wt.L1)


def scalar_problem(lam=1 + 11j, alpha=0.5, y0=5.0):
    return FOdeProblem(alpha=alpha, A=np.array([[lam]]), y0=np.array([y0]))


class TestProblemValidation:
    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            FOdeProblem(0.5, np.eye(2), np.array([1.0]))

    def test_alpha_range(self):
        with pytest.raises(ValueError):
            FOdeProblem(1.2, np.eye(1), np.array([1.0]))

    @pytest.mark.parametrize("field, A, y0", [
        ("A", [[np.nan]], [1.0]),
        ("A", [[1.0, 0.0], [np.inf, 1.0]], [1.0, 2.0]),
        ("y0", [[1.0]], [np.nan]),
        ("y0", [[1.0]], [complex(1.0, -np.inf)]),
    ])
    def test_non_finite_input(self, field, A, y0):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            FOdeProblem(0.5, np.array(A), np.array(y0))

    def test_nonvanishing_f_flagged(self):
        with pytest.warns(UserWarning, match="equilibrium"):
            p = FOdeProblem(0.5, np.eye(1), np.array([1.0]),
                            f=lambda t, y: y + 1.0)
        assert not p.f_vanishes_at_zero

    def test_quadratic_f_ok(self):
        p = problems.lorenz_controlled()
        assert p.f_vanishes_at_zero


class TestLinearRuns:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_equilibrium(self, scheme):
        p = FOdeProblem(0.5, np.zeros((2, 2)), np.array([1.0, -2.0]))
        traj = solve(p, scheme, 0.1, 40)
        assert np.allclose(traj.states, p.y0, atol=1e-14)

    @pytest.mark.parametrize("scheme", [wt.FBDF1, wt.L1])
    def test_backward_euler_limit(self, scheme):
        # alpha = 1 turns the 1-step schemes into backward Euler: y' = -y
        p = FOdeProblem(1.0, np.array([[-1.0]]), np.array([1.0]))
        traj = solve(p, scheme, 0.1, 100)
        ref = 1.1 ** -np.arange(101)
        assert np.max(np.abs(traj.states[:, 0] - ref)) < 1e-13

    def test_step_equation_residual(self):
        # with f = 0 each step solves its linear equation to machine precision
        p = scalar_problem()
        w = wt.scheme_weights(wt.FBDF1, 0.5, 101)
        traj = solve(p, wt.FBDF1, 0.1, 100)
        ha = 0.1 ** 0.5
        lam = 1 + 11j
        g = lam * traj.states[:, 0]
        for n in (1, 17, 100):
            conv = np.dot(w.omega[:n], g[n:0:-1])  # sum_{j=1}^n omega_{n-j} g_j
            rhs = p.y0[0] + ha * conv
            assert abs(traj.states[n, 0] - rhs) <= 1e-12 * abs(traj.states[n, 0])

    def test_singular_step_matrix(self):
        lam = 1.0 / (0.1 ** 0.5)  # makes I - h^alpha w0 A exactly singular
        p = FOdeProblem(0.5, np.array([[lam]]), np.array([1.0]))
        with pytest.raises(SingularStepError):
            solve(p, wt.FBDF1, 0.1, 5)


class TestFormEquivalence:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_integral_vs_differential(self, scheme, omega_form_run):
        # the solver's mu-form steps against the omega-form recurrence
        p = scalar_problem()
        N = 1000
        traj = solve(p, scheme, 0.1, N)
        assert np.max(np.abs(traj.states[:, 0] - omega_form_run(p, scheme, 0.1, N))) < 1e-10


class TestLongTimeAsymptotics:
    def test_scalar_constant(self):
        # y_n ~ -y0 / (lambda Gamma(1-alpha)) t^-alpha
        p = scalar_problem()
        traj = solve(p, wt.FBDF1, 0.1, 10_000)
        lam = 1 + 11j
        pred = -5.0 / (lam * math.gamma(0.5)) * 1000.0 ** -0.5
        assert abs(traj.states[-1, 0] / pred - 1.0) < 0.02

    def test_matrix_constant(self):
        A = np.diag([-1.0, -2.0])
        p = FOdeProblem(0.5, A, np.array([1.0, 1.0]))
        traj = solve(p, wt.FBDF1, 0.1, 10_000)
        pred = -np.linalg.inv(A) @ p.y0 * 1000.0 ** -0.5 / math.gamma(0.5)
        assert np.max(np.abs(traj.states[-1] / pred - 1.0)) < 0.05

    def test_decay_reference_cell(self):
        # observed index at t = 500 approaches alpha from above
        p = scalar_problem()
        traj = solve(p, wt.FBDF1, 0.1, 5010)
        n, m = 5000, 5
        norms = traj.norms()
        pval = -math.log(norms[n + m] / norms[n]) / math.log((n + m) / n)
        assert pval == pytest.approx(0.5002, abs=5e-4)


class TestAlphaDifference:
    def test_poisson_variant_preserves_constants(self):
        p = FOdeProblem(0.5, np.zeros((1, 1)), np.array([2.0]))
        traj = solve_alpha_diff(p, 0.1, 30, variant="poisson")
        assert np.allclose(traj.states, 2.0, atol=1e-14)

    def test_difference_variant_damps_initial_value(self):
        # with A = 0 the raw operator relaxes along the fractional-sum kernel
        p = FOdeProblem(0.5, np.zeros((1, 1)), np.array([2.0]))
        traj = solve_alpha_diff(p, 0.1, 30, variant="difference")
        ref = 2.0 * wt.alpha_diff_kernel(0.5, 31)
        assert np.max(np.abs(traj.states[:, 0] - ref)) < 1e-14

    def test_poisson_variant_matches_quadrature(self):
        lam, alpha, h = -2.0, 0.5, 0.1
        p = FOdeProblem(alpha, np.array([[lam]]), np.array([1.0]))
        traj = solve_alpha_diff(p, h, 40, variant="poisson")
        for n in (1, 7, 40):
            q = poisson_resolvent(np.array([[lam]]), alpha, h, n, 1.0)[0, 0]
            assert abs(traj.states[n, 0] - q) < 1e-6

    def test_variant_validation(self):
        p = scalar_problem()
        with pytest.raises(ValueError):
            solve_alpha_diff(p, 0.1, 5, variant="legacy")
        with pytest.raises(ValueError):
            solve_alpha_diff(scalar_problem(alpha=1.0), 0.1, 5)


class TestNonlinear:
    def test_lorenz_newton_converges_and_decays(self):
        p = problems.lorenz_controlled(alpha=0.5)
        traj = solve(p, wt.L1, 0.1, 300)
        norms = traj.norms()
        assert norms[-1] < norms[0]
        assert traj.truncated_at is None

    def test_nonlinear_step_residual(self):
        # the implicit equation holds to tolerance at a sampled step
        p = problems.lorenz_controlled(alpha=0.5)
        N = 50
        w = wt.scheme_weights(wt.FBDF1, 0.5, N + 1)
        traj = solve(p, wt.FBDF1, 0.1, N)
        ha = 0.1 ** 0.5
        g = np.array([p.A @ traj.states[j] + p.f(0.1 * j, traj.states[j])
                      for j in range(N + 1)])
        n = N
        rhs = p.y0 + ha * np.einsum("i,ij->j", w.omega[1:n][::-1], g[1:n])
        lhs = traj.states[n] - ha * w.omega[0] * g[n]
        assert np.max(np.abs(lhs - rhs)) < 1e-10 * max(1.0, np.linalg.norm(traj.states[n]))


class TestNonFiniteState:
    # uncontrolled Lorenz at h = 0.02: Newton diverges at the first step
    @pytest.mark.parametrize("N", [1, 3])
    def test_diverging_newton_fails_at_its_step(self, N):
        p = problems.lorenz_controlled(False, alpha=0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the overflow itself
            with pytest.raises(SolverError, match="at step 1$") as info:
                solve(p, wt.FBDF1, 0.02, N)
        assert info.value.step == 1

    def test_newton_gives_up_after_its_iterations(self):
        # Newton's 50 iterates stay finite here (1 + d = 4 f calls each) and
        # none converges: the step fails there, with no further iteration
        p = problems.lorenz_controlled(False, alpha=0.5)
        calls = _count_f_calls(p)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(NonConvergenceError, match="at step 1$"):
                solve(p, wt.FBDF1, 0.02, 1)
        assert calls[0] == 200

    def test_newton_stops_at_first_non_finite_iterate(self):
        # f is nan off the origin: the first Newton iterate (1 + d calls) is nan
        p = FOdeProblem(0.5, -np.eye(2), np.array([1.0, 1.0]),
                        f=lambda t, y: np.where(y == 0, 0.0, np.nan))
        calls = _count_f_calls(p)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(NonConvergenceError, match="at step 1$") as info:
                solve(p, wt.FBDF1, 0.1, 5)
        assert info.value.step == 1
        assert calls[0] == 3


def _count_f_calls(p: FOdeProblem) -> list[int]:
    """Wrap p.f in place; the returned one-element list counts its calls."""
    calls, f = [0], p.f

    def counted(t, y):
        calls[0] += 1
        return f(t, y)

    p.f = counted
    return calls


class TestBlowupGuard:
    def test_unstable_run_truncates(self):
        # b = -1 gives lambda = 1 (positive real axis): explosive growth
        p = problems.scalar_test(b=-1.0, alpha=0.5)
        with pytest.warns(UserWarning, match="blow-up"):
            traj = solve(p, wt.FBDF1, 0.1, 2000)
        assert traj.truncated_at is not None
        assert traj.states.shape[0] == traj.truncated_at + 1
        assert traj.norms()[-1] > BLOWUP_FACTOR * 5.0


def _assert_close(got, ref):
    """Within 1e-12 max ||y|| of the direct-sum reference."""
    assert got.shape == ref.shape
    scale = np.max(np.linalg.norm(ref.reshape(len(ref), -1), axis=1))
    assert np.max(np.abs(got - ref)) <= 1e-12 * scale


class TestBlockHistory:
    # the block FFT history sums against the direct per-step sums of
    # conftest's mu_form_run; every N here spans at least three block levels

    @pytest.mark.parametrize("lo, hi", [(1, 1), (1, 2), (1, _LEAF + 1), (1, _LEAF + 2),
                                        (1, 1001), (7, 300)])
    def test_schedule_adds_every_pair_once(self, lo, hi):
        added = np.zeros((hi, hi), dtype=int)  # added[n, m]: H_m counted in S_n
        done = lo
        for a, mid, b in _blocks(lo, hi):
            if mid is None:  # a leaf: its steps run in order, next after the last
                assert a == done and b - a <= _LEAF
                for n in range(a, b):
                    added[n, a:n] += 1
                done = b
            else:  # the left half is stepped, no step of the right half yet
                assert done == mid
                added[mid:b, a:mid] += 1
        expected = np.tril(np.ones((hi, hi), dtype=int), -1)
        expected[:lo] = 0
        expected[:, :lo] = 0
        assert done == hi and np.array_equal(added, expected)

    def test_advection_states_stay_real(self, mu_form_run):
        p = problems.advection_diffusion(n_x=64, alpha=0.7)
        traj = solve(p, wt.FBDF1, 0.01, 1000)
        ref, _ = mu_form_run(wt.scheme_weights(wt.FBDF1, 0.7, 1001).mu, p.A, 0.7, 0.01,
                             1000, p.y0)
        _assert_close(traj.states, ref)
        assert np.all(traj.states.imag == 0.0)

    def test_lorenz_impulse_resolvent(self, mu_form_run):
        A = problems.lorenz_controlled().A
        r = impulse_resolvent(wt.FBDF2, A, 0.5, 0.1, 500)
        mu = wt.scheme_weights(wt.FBDF2, 0.5, 502).mu
        d, _ = mu_form_run(mu, A, 0.5, 0.1, 500, np.eye(3, dtype=complex))
        forced, _ = mu_form_run(mu, A, 0.5, 0.1, 501, np.zeros((3, 3), dtype=complex),
                                impulse=True)
        _assert_close(r.d, d)
        _assert_close(r.D, forced[1:])

    def test_poisson_variant_seed(self, mu_form_run):
        p = problems.lorenz_controlled(alpha=0.5)
        traj = solve_alpha_diff(p, 0.1, 500, "poisson")
        ref, _ = mu_form_run(wt.alpha_diff_weights(0.5, 501).mu, p.A, 0.5, 0.1, 500, p.y0, p.f,
                             iv=wt.alpha_diff_kernel(0.5, 501), z0=True)
        _assert_close(traj.states, ref)

    def test_lorenz_newton(self, mu_form_run):
        p = problems.lorenz_controlled(alpha=0.5)
        traj = solve(p, wt.FBDF2, 0.1, 300)
        ref, _ = mu_form_run(wt.scheme_weights(wt.FBDF2, 0.5, 301).mu, p.A, 0.5, 0.1, 300,
                             p.y0, p.f)
        _assert_close(traj.states, ref)

    def test_guard_truncates_inside_a_leaf(self, mu_form_run):
        # lambda = 1.2 grows past the guard at step 174, inside the leaf
        # [151, 188), which starts after the update of steps [151, 301) by [1, 151)
        p = scalar_problem(lam=1.2, y0=1.0)
        with pytest.warns(UserWarning, match="blow-up"):
            traj = solve(p, wt.FBDF1, 0.1, 600)
        ref, stop = mu_form_run(wt.scheme_weights(wt.FBDF1, 0.5, 601).mu, p.A, 0.5, 0.1, 600,
                                p.y0, guard=BLOWUP_FACTOR)
        assert traj.truncated_at == stop == 174
        assert (151, None, 188) in _blocks(1, 601) and (1, 151, 301) in _blocks(1, 601)
        _assert_close(traj.states, ref)


class TestTrajectory:
    def test_grid_and_norms(self):
        p = scalar_problem()
        traj = solve(p, wt.FBDF1, 0.25, 8)
        assert traj.n_steps == 8
        assert np.allclose(traj.times, 0.25 * np.arange(9))
        assert np.allclose(traj.norms(), np.abs(traj.states[:, 0]))

    def test_bad_grid(self):
        with pytest.raises(ValueError):
            solve(scalar_problem(), wt.FBDF1, -0.1, 5)
        with pytest.raises(ValueError):
            solve(scalar_problem(), wt.FBDF1, 0.1, 0)
