import dataclasses
import math
import warnings

import numpy as np
import pytest
from conftest import _mu_form_run
from hypothesis import given, settings
from hypothesis import strategies as st

from mlstab import problems, tables
from mlstab import solver as slv
from mlstab import weights as wt
from mlstab.analysis import classify_problem
from mlstab.resolvent import impulse_resolvent, poisson_resolvent
from mlstab.solver import (
    _LEAF,
    _LEAF_ROWS,
    BLOWUP_FACTOR,
    FOdeProblem,
    NonConvergenceError,
    SingularStepError,
    SolverError,
    _blocks,
    solve,
    solve_alpha_diff,
    solve_cells,
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


# controlled Lorenz states at t = 20, 40, ..., 100 (h = 0.1, N = 1005) as
# stepped by full Newton, with a fresh FD Jacobian at every iteration
LORENZ_PINS = {
    (wt.FBDF1, 0.3): [
        [0.030650852474657563, -0.15116609153833427, 1.4856204965692856],
        [0.02499643694792733, -0.12236753714592415, 1.2255214672730212],
        [0.022179283021357403, -0.10816854220932025, 1.09357011147564],
        [0.02037269256812384, -0.0991159563759442, 1.0081245041544513],
        [0.019072071120309154, -0.09262456624947787, 0.9462092698817278],
    ],
    (wt.FBDF1, 0.9): [
        [0.0007203457326389741, -0.003385341473124763, 0.03841065473492224],
        [0.00038314444858417624, -0.0018055680409443853, 0.020088113252027303],
        [0.00026531474428903557, -0.0012514933102537975, 0.01383081364817642],
        [0.00020452412152696816, -0.0009652204125948552, 0.010630662368218389],
        [0.00016717697900916234, -0.0007892063727717932, 0.008673941415081378],
    ],
    (wt.FBDF2, 0.3): [
        [0.03064439870505035, -0.15113263677778457, 1.485378243152115],
        [0.024993777625609743, -0.12235399395594716, 1.2254153663625738],
        [0.022177700898174467, -0.10816055808634437, 1.0935051140718757],
        [0.02037159845832005, -0.09911046780659542, 1.0080787218250646],
        [0.019071249409108024, -0.09262046203125679, 0.9461744344080804],
    ],
    (wt.FBDF2, 0.9): [
        [0.0007188211868132276, -0.003378571495051154, 0.038322476801874256],
        [0.0003827474555331738, -0.0018037836218084188, 0.02006669012894323],
        [0.00026513279763546826, -0.001250672048978258, 0.013821221838019357],
        [0.00020441931711422324, -0.0009647463289730894, 0.010625202590972748],
        [0.00016710860057772675, -0.0007888966520544053, 0.008670404965099692],
    ],
    (wt.FADAMS2, 0.3): [
        [0.030644412176189264, -0.15113277319811458, 1.4853794772960929],
        [0.02499378039797972, -0.12235403488295823, 1.225415792459482],
        [0.02217770199814202, -0.1081605794267952, 1.0935053502529426],
        [0.020371599029098443, -0.099110481523015, 1.0080788790351403],
        [0.019071249752199263, -0.09262047186163214, 0.9461745496958441],
    ],
    (wt.FADAMS2, 0.9): [
        [0.0007188282740466482, -0.0033786254996296507, 0.03832183249841362],
        [0.000382748365296496, -0.0018037937627943354, 0.02006646500898456],
        [0.0002651330742491688, -0.0012506760947503472, 0.01382111119751504],
        [0.0002044194363162311, -0.000964748485779066, 0.010625136841800414],
        [0.00016710866270028957, -0.0007888979912229765, 0.008670361305251294],
    ],
    (wt.L1, 0.3): [
        [0.03064446696678005, -0.15113289018935605, 1.4853821063161396],
        [0.024993791723782844, -0.12235403155793065, 1.2254160452899139],
        [0.022177706496974155, -0.1081605675283989, 1.0935053248459394],
        [0.020371601364610352, -0.0991104699314076, 1.008078798461449],
        [0.019071251156339612, -0.09262046166350649, 0.9461744600878635],
    ],
    (wt.L1, 0.9): [
        [0.0007188562461108653, -0.0033784662577233436, 0.03832695638760931],
        [0.00038275200238734573, -0.001803742938936623, 0.02006701526853099],
        [0.00026513418496024616, -0.0012506513318979646, 0.013821254812775362],
        [0.00020441991602409136, -0.0009647337936864738, 0.010625189426094164],
        [0.0001671089130397797, -0.0007888882367251694, 0.008670384047045584],
    ],
    (wt.ALPHA_DIFF, 0.3): [
        [5.383020515941085e-05, -0.00023595643836222448, 0.0035752151311271305],
        [2.205130000480517e-05, -9.605523470936012e-05, 0.0015036386885946059],
        [1.3073722052567163e-05, -5.677334950695248e-05, 0.0009031425693324076],
        [9.019669138915636e-06, -3.909126655866332e-05, 0.0006282762344462279],
        [6.762093813376418e-06, -2.9265496929949777e-05, 0.00047383311984961976],
    ],
    (wt.ALPHA_DIFF, 0.9): [
        [5.8833545642351535e-06, -2.1155501395044075e-05, 0.0007602340669691512],
        [1.5562553287125465e-06, -5.641537596848601e-06, 0.0001947067305185604],
        [7.170943023872543e-07, -2.606808055115314e-06, 8.874572603623469e-05],
        [4.1419270357546957e-07, -1.5078582569780105e-06, 5.0976065837550893e-05],
        [2.706871702913418e-07, -9.863006629813424e-07, 3.3201927847912356e-05],
    ],
}


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

    @pytest.mark.parametrize("scheme, alpha", LORENZ_PINS)
    def test_lorenz_pins(self, scheme, alpha):
        traj = solve(problems.lorenz_controlled(alpha=alpha), scheme, 0.1, 1005)
        assert traj.truncated_at is None
        pinned = np.array(LORENZ_PINS[scheme, alpha])
        assert np.max(np.abs(traj.states[200:1001:200] - pinned)) <= 1e-12 * np.max(traj.norms())

    def test_newton_reuses_its_jacobian(self):
        # one FD Jacobian (d = 3 f calls) per step while the iterates contract:
        # this run made 12064 f calls with a fresh Jacobian at every iteration
        p = problems.lorenz_controlled(alpha=0.5)
        calls = _count_f_calls(p)
        solve(p, wt.FBDF1, 0.1, 1005)
        assert calls[0] <= 7000


class TestLinearStep:
    # the constant step matrix of a linear run of dimension d > 4, which steps
    # its leaves, against a direct solve: M^{-1} is d x d in M's own dtype,
    # float for a real run and complex for a complex one
    @pytest.mark.parametrize("d", [5, 8])
    @pytest.mark.parametrize("shape", ["vector", "matrix"])
    def test_step_is_exact(self, d, shape):
        rng = np.random.default_rng(d)
        dims = (d,) if shape == "vector" else (d, d)
        mu0 = wt.scheme_weights(wt.FBDF1, 0.5, 1).mu[0]
        for field in (float, complex):
            V = np.eye(d) + 0.3 * rng.standard_normal((d, d))
            lam = rng.uniform(-5.0, -0.1, d)
            rhs = rng.standard_normal(dims)
            if field is complex:
                V = V + 0.3j * rng.standard_normal((d, d))
                lam = lam + 5j * rng.uniform(-1.0, 1.0, d)
                rhs = rhs + 1j * rng.standard_normal(dims)
            A = V @ np.diag(lam) @ np.linalg.inv(V)
            M = mu0 * np.eye(d) - 0.1 ** 0.5 * A
            if field is float:
                M = M.real
            step = slv._ImplicitStep(M, 0.1 ** 0.5, None)
            ref = np.linalg.solve(M, rhs)
            got = step.Minv @ rhs
            assert step.Minv.shape == (d, d) and step.Minv.dtype == field
            assert got.shape == ref.shape and got.dtype == ref.dtype
            assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)


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

    def test_large_initial_value_keeps_the_guard(self):
        # squares of states near 1e160 overflow: the norms, and so the guard
        # 1e12 * ||y0||, are scaled; linearity keeps step 174 of y0 = 1
        # (test_guard_truncates_inside_a_leaf)
        p = scalar_problem(lam=1.2, y0=1e160)
        with pytest.warns(UserWarning, match="blow-up"):
            traj = solve(p, wt.FBDF1, 0.1, 600)
        assert traj.truncated_at == 174
        assert np.all(np.isfinite(traj.norms()))


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

    def test_fast_len_matches_scipy(self):
        # the numpy.fft merges run at scipy's real-input next_fast_len lengths
        from scipy.fft import next_fast_len

        ns = [*range(1, 20001), *range(20001, 400001, 3989), 2 ** 18 + 1, 3 ** 11 + 1, 400000]
        assert [slv._fast_len(n) for n in ns] == [next_fast_len(n, True) for n in ns]

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


class TestMerges:
    # merges of at most _DIRECT_MERGE steps are direct Toeplitz products,
    # larger ones FFT products; conftest's mu_form_run sums every history
    # term directly

    @pytest.mark.parametrize("shape", ["vector", "matrix"])
    def test_batched_runs_are_exact(self, shape):
        # three runs of different schemes and alpha, one starting its history
        # at z_0, as one batch: a real vector state, or complex (2, 2) states
        N = 1100
        merges = {hi - lo for lo, mid, hi in _blocks(1, N + 1) if mid is not None}
        assert len([m for m in merges if m <= slv._DIRECT_MERGE]) >= 2
        assert len([m for m in merges if m > slv._DIRECT_MERGE]) >= 2
        A = np.array([[-1.0, 2.0], [-2.0, -1.0]], dtype=complex)  # eigenvalues -1 +- 2i
        if shape == "vector":
            Y0 = np.array([1.0, -0.5], dtype=complex)
        else:
            A = A + 0.5j * np.eye(2)
            Y0 = np.eye(2, dtype=complex)
        runs = [slv._scheme_run(wt.FBDF2, 0.4, N), slv._scheme_run(wt.FADAMS2, 0.7, N),
                slv._scheme_run(wt.ALPHA_DIFF, 0.55, N, "poisson")]
        for run, (states, stop) in zip(runs, slv._run(runs, A, 0.05, N, Y0)):
            ref, _ = _mu_form_run(run.weights.mu, A, run.weights.alpha, 0.05, N, Y0,
                                  iv=run.iv, z0=run.z0)
            assert stop is None
            _assert_close(states, ref)

    def test_leaf_pretest_fails_through_one_run(self):
        # lambda = 1 + i grows for alpha > 1/2 and decays for alpha < 1/2: the
        # growing cell fails the whole-leaf norm test, and only it stops, at
        # the step where it stops alone and where the direct sums do
        p = FOdeProblem(0.5, np.array([[1 + 1j]]), np.array([1.0]))
        cells = [(wt.FBDF1, 0.3), (wt.FBDF1, 0.7)]
        with pytest.warns(UserWarning, match="blow-up"):
            batch = solve_cells(p, cells, 0.1, 600)
            solo = solve(dataclasses.replace(p, alpha=0.7), wt.FBDF1, 0.1, 600)
        ref, stop = _mu_form_run(wt.scheme_weights(wt.FBDF1, 0.7, 601).mu, p.A, 0.7, 0.1, 600,
                                 p.y0, guard=BLOWUP_FACTOR)
        assert batch[0].truncated_at is None and batch[0].n_steps == 600
        assert batch[1].truncated_at == solo.truncated_at == stop is not None
        assert any(lo < stop < hi for lo, mid, hi in _blocks(1, 601) if mid is None)
        _assert_close(batch[1].states, ref)
        assert np.array_equal(batch[0].states,
                              solve(dataclasses.replace(p, alpha=0.3), wt.FBDF1, 0.1, 600).states)

    def test_overflowing_squares_do_not_end_an_unguarded_run(self):
        # states near 2^530, whose squares overflow, fail the whole-leaf test;
        # without a guard only a non-finite state ends a run, and scaling by a
        # power of 2 is exact, so the states are those from y0 = 1 scaled
        A = np.array([[-1.0 + 2.0j]])
        run = slv._scheme_run(wt.FBDF1, 0.5, 300)
        big, stop = slv._run([run], A, 0.1, 300, np.array([2.0 ** 530 + 0j]))[0]
        unit, _ = slv._run([run], A, 0.1, 300, np.array([1.0 + 0j]))[0]
        assert stop is None and np.all(np.isfinite(big))
        assert np.array_equal(big, unit * 2.0 ** 530)


class TestLeafProducts:
    # linear runs of dimension d <= 4 solve each leaf with one product of the
    # run's discrete resolvent; the direct per-step sums of conftest's
    # mu_form_run are the reference

    @pytest.mark.parametrize("d, batched", [(1, True), (4, True), (5, False), (64, False)])
    def test_path_rule(self, d, batched, monkeypatch):
        built, spectra = [], []
        leaf_resolvent, leaf_spectra = slv._leaf_resolvents, slv._leaf_spectra
        monkeypatch.setattr(slv, "_leaf_resolvents", lambda *a: built.append(a) or
                            leaf_resolvent(*a))
        monkeypatch.setattr(slv, "_leaf_spectra", lambda *a: spectra.append(a) or
                            leaf_spectra(*a))
        solve(FOdeProblem(0.5, -np.eye(d), np.ones(d)), wt.FBDF1, 0.1, 100)
        assert _LEAF * 4 <= _LEAF_ROWS < _LEAF * 5
        assert bool(built) == batched and not spectra
        built.clear()
        # nonlinear runs of a real A with d <= 4 sweep their leaves after the
        # first; those of a complex A, of d > 4 or of a single leaf step them
        f = lambda t, y: -y ** 3  # noqa: E731
        solve(FOdeProblem(0.5, -np.eye(d), np.ones(d), f=f), wt.FBDF1, 0.1, 100)
        assert not built and bool(spectra) == batched
        spectra.clear()
        solve(FOdeProblem(0.5, (-1 + 1j) * np.eye(d), np.ones(d), f=f), wt.FBDF1, 0.1, 100)
        solve(problems.lorenz_controlled(alpha=0.5), wt.FBDF1, 0.1, _LEAF)
        assert not built and not spectra

    def test_overflowing_resolvent_steps_the_leaves(self):
        # h^alpha lambda = 1 - 1e-8 makes M nearly singular: G_k ~ 1e8^k
        # overflows inside the first leaf while y_n, from y0 = 1e-300, is still
        # below the guard, so the run steps its leaves and truncates there
        p = FOdeProblem(0.5, np.array([[(1 - 1e-8) / 0.1 ** 0.5]]), np.array([1e-300]))
        with pytest.warns(UserWarning, match="blow-up"):
            traj = solve(p, wt.FBDF1, 0.1, 100)
        ref, stop = _mu_form_run(wt.scheme_weights(wt.FBDF1, 0.5, 101).mu, p.A, 0.5, 0.1, 100,
                                 p.y0, guard=BLOWUP_FACTOR)
        assert traj.truncated_at == stop == 41
        _assert_close(traj.states, ref)

    @pytest.mark.parametrize("r, field", [pytest.param(1, float, id="1"),
                                          pytest.param(2, float, id="2"),
                                          pytest.param(2, complex, id="2-complex")])
    def test_batched_builder_is_the_per_run_recurrence(self, r, field):
        # the resolvents of a batch of 8 runs, built in one recurrence,
        # against each run's own in np.longdouble (np.clongdouble for a
        # complex M^{-1}), bit for bit
        rng = np.random.default_rng(r)
        Minv = rng.standard_normal((8, r, r))
        if field is complex:
            Minv = Minv + 1j * rng.standard_normal((8, r, r))
        wide = np.clongdouble if field is complex else np.longdouble
        mus = np.stack([wt.scheme_weights(s, a, 100).mu for s in SCHEMES for a in (0.3, 0.7)])
        L = _LEAF
        G = slv._leaf_resolvents(Minv, mus, L)
        assert G.shape == (8, L * r, L * r) and G.dtype == field
        for b in range(8):
            mu = mus[b].astype(np.longdouble)
            Gk = [Minv[b].astype(wide)]
            for k in range(1, L):
                Gk.append(-Gk[0] @ np.tensordot(mu[k:0:-1], np.stack(Gk), axes=1))
            zero = np.zeros((r, r), dtype=field)
            ref = np.block([[Gk[i - j].astype(field) if j <= i else zero for j in range(L)]
                            for i in range(L)])
            assert np.array_equal(G[b], ref)

    def test_overflowing_run_steps_the_whole_batch(self, monkeypatch):
        # the resolvent of the alpha = 0.5 cell overflows (as above), that of
        # the alpha = 0.3 cell alone would not: the batch steps every leaf,
        # and each cell stops where its direct-sum run does
        built = []
        leaf_resolvents = slv._leaf_resolvents
        monkeypatch.setattr(slv, "_leaf_resolvents", lambda *a: built.append(leaf_resolvents(*a))
                            or built[-1])
        p = FOdeProblem(0.5, np.array([[(1 - 1e-8) / 0.1 ** 0.5]]), np.array([1e-300]))
        with pytest.warns(UserWarning, match="blow-up"):
            alone = solve(dataclasses.replace(p, alpha=0.3), wt.FBDF1, 0.1, 100)
            assert built[-1] is not None
            cells = solve_cells(p, [(wt.FBDF1, 0.5), (wt.FBDF1, 0.3)], 0.1, 100)
        assert built[-1] is None
        # the alpha = 0.3 cell decays from 1e-300, where squares underflow
        for traj, alpha, scale in zip(cells, (0.5, 0.3), (1.0, 2.0 ** 996)):
            ref, stop = _mu_form_run(wt.scheme_weights(wt.FBDF1, alpha, 101).mu, p.A, alpha,
                                     0.1, 100, p.y0, guard=BLOWUP_FACTOR)
            assert traj.truncated_at == stop
            _assert_close(traj.states * scale, ref * scale)
        assert cells[1].truncated_at == alone.truncated_at

    @pytest.mark.parametrize("case, rows", [("real", 1), ("complex A", 2), ("complex y0", 2),
                                            ("nonlinear", 2), ("impulse", 1)])
    @pytest.mark.parametrize("d", [1, 3, 5])
    def test_step_matrix_form(self, case, rows, d, monkeypatch):
        # a real linear run steps float states with a float M^{-1}, any other
        # run complex states with a complex one, whose entries the
        # mu-products read as rows = 2 floats each
        field = float if rows == 1 else complex
        steps = []
        init = slv._ImplicitStep.__init__
        monkeypatch.setattr(slv._ImplicitStep, "__init__",
                            lambda self, *a: steps.append(self) or init(self, *a))
        A, y0 = -np.eye(d) + 0.1 * np.eye(d, k=1), np.ones(d)
        if case == "impulse":
            impulse_resolvent(wt.FBDF1, A, 0.5, 0.1, 10)
        else:
            f = (lambda t, y: -y ** 3) if case == "nonlinear" else None
            p = FOdeProblem(0.5, A + 1j * (case == "complex A"), y0 + 1j * (case == "complex y0"),
                            f=f)
            traj = solve(p, wt.FBDF1, 0.1, 10)
            assert traj.states.dtype == complex
            if field is float:
                assert not traj.states.imag.any()
        # a single run is a batch of one: its inverses stack to (1, d, d); the
        # impulse resolvents step (d_n, Z_n) as one batch of two
        B = 2 if case == "impulse" else 1
        assert steps and all(s.Minv.shape == (B, d, d) for s in steps)
        assert all(s.Minv.dtype == field for s in steps)

    @settings(max_examples=80, deadline=None)
    @given(d=st.integers(1, 4), case=st.sampled_from(
               [wt.FBDF1, wt.FBDF2, wt.FADAMS2, wt.L1, "difference", "poisson"]),
           alpha=st.floats(0.3, 0.9), h=st.floats(0.01, 0.1), N=st.integers(257, 400),
           n_unstable=st.integers(0, 4), form=st.sampled_from(
               ["complex", "real", "real A, complex y0", "complex A, real y0"]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_linear_runs_are_exact(self, d, case, alpha, h, N, n_unstable, form, seed):
        # A with eigenvalues on both sides of the imaginary axis, complex or
        # real (then in conjugate pairs), and a complex or real y0; N spans at
        # least three block levels
        rng = np.random.default_rng(seed)
        re = rng.uniform(-5.0, -0.1, d)
        re[:n_unstable] = rng.uniform(0.05, 3.0, d)[:n_unstable]
        im = rng.uniform(-1.0, 1.0, d) * np.where(re < 0, 5.0, 1.0)
        V = np.eye(d) + 0.3 * rng.standard_normal((d, d))
        y0 = rng.standard_normal(d)
        if form in ("real", "real A, complex y0"):  # 2 x 2 blocks [[re, im], [-im, re]]
            B = np.diag(re)
            for i in range(0, d - 1, 2):
                B[i + 1, i + 1], B[i, i + 1], B[i + 1, i] = re[i], im[i], -im[i]
        else:
            V = V + 0.3j * rng.standard_normal((d, d))
            B = np.diag(re + 1j * im)
        if form in ("complex", "real A, complex y0"):
            y0 = y0 + 1j * rng.standard_normal(d)
        A = V @ B @ np.linalg.inv(V)
        p = FOdeProblem(alpha, A, y0)
        guard = BLOWUP_FACTOR * max(np.linalg.norm(p.y0), 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # the blow-up guard's
            if case in ("difference", "poisson"):
                traj = solve_alpha_diff(p, h, N, case)
            else:
                traj = solve(p, case, h, N)
        if case in ("difference", "poisson"):
            mu = wt.alpha_diff_weights(alpha, N + 1).mu
            iv = (np.zeros(N + 1) if case == "difference"
                  else wt.alpha_diff_kernel(1.0 - alpha, N + 1))
        else:
            mu, iv = wt.scheme_weights(case, alpha, N + 1).mu, None
        ref, stop = _mu_form_run(mu, p.A, alpha, h, N, p.y0, iv=iv, z0=case == "poisson",
                                 guard=guard)
        assert traj.truncated_at == stop
        _assert_close(traj.states, ref)
        if form == "real":
            assert not traj.states.imag.any()

    @settings(max_examples=20, deadline=None)
    @given(scheme=st.sampled_from(SCHEMES), alpha=st.floats(0.3, 0.9),
           n_max=st.integers(257, 400), real=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    def test_impulse_runs_are_exact(self, scheme, alpha, n_max, real, seed):
        # the (3, 3) matrix states of both impulse runs, as for Lorenz above,
        # of a complex A or of a real one with the eigenvalues -2 +- 3i, 0.5
        rng = np.random.default_rng(seed)
        s = rng.uniform(0.5, 1.5, 3)
        V = np.eye(3) + 0.3 * rng.standard_normal((3, 3))
        if real:
            B = np.array([[-2.0, 3.0, 0.0], [-3.0, -2.0, 0.0], [0.0, 0.0, 0.5]]) * s[:, None]
        else:
            V = V + 0.3j * rng.standard_normal((3, 3))
            B = np.diag(np.array([-2.0 + 3j, -0.5 - 1j, 0.5 + 0.5j]) * s)
        A = V @ B @ np.linalg.inv(V)
        r = impulse_resolvent(scheme, A, alpha, 0.05, n_max)
        mu = wt.scheme_weights(scheme, alpha, n_max + 2).mu
        d, _ = _mu_form_run(mu, A, alpha, 0.05, n_max, np.eye(3, dtype=complex))
        forced, _ = _mu_form_run(mu, A, alpha, 0.05, n_max + 1,
                                 np.zeros((3, 3), dtype=complex), impulse=True)
        _assert_close(r.d, d)
        _assert_close(r.D, forced[1:])
        if real:
            assert not r.d.imag.any() and not r.D.imag.any()


class TestCells:
    # solve_cells steps the cells of a problem with d <= 4 as one batch; each
    # cell must come out as its own solve would have it

    @staticmethod
    def _solo(problem, cells, h, N):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # the blow-up guard's
            return [solve(dataclasses.replace(problem, alpha=a), s, h, N) for s, a in cells]

    @pytest.mark.parametrize("f", [None, lambda t, y: 1e-3 * y], ids=["linear", "nonlinear"])
    def test_truncating_cells_stop_at_their_solo_step(self, f):
        # lambda = 1 + i lies in the sector only for alpha < 1/2: the cells
        # with alpha > 1/2 grow past the guard, each at its own step, and the
        # others run to N; linear cells solve their leaves by products,
        # nonlinear ones step them
        p = FOdeProblem(0.5, np.array([[1 + 1j]]), np.array([5.0]), f=f)
        cells = [(wt.FBDF1, 0.3), (wt.FBDF1, 0.6), (wt.L1, 0.9), (wt.FBDF2, 0.4),
                 (wt.ALPHA_DIFF, 0.7), (wt.FADAMS2, 0.3)]
        solo = self._solo(p, cells, 0.1, 1500)
        with pytest.warns(UserWarning, match="blow-up") as record:
            batch = solve_cells(p, cells, 0.1, 1500)
        stops = [t.truncated_at for t in solo]
        assert stops[0] is stops[3] is stops[5] is None and None not in stops[1:3] + stops[4:5]
        assert [t.truncated_at for t in batch] == stops
        assert sorted(str(w.message) for w in record) == sorted(
            f"blow-up guard triggered at step {n}; trajectory truncated" for n in stops if n)
        for got, ref in zip(batch, solo):
            assert got.states.shape == ref.states.shape
            assert np.max(np.abs(got.states - ref.states)) <= 1e-12 * np.max(ref.norms())

    def test_failing_cell_fails_the_batch_at_its_step(self):
        # uncontrolled Lorenz at h = 0.012: F-BDF1 fails at step 1 alone
        # (problems.lorenz_controlled), the other two cells run through
        p = problems.lorenz_controlled(False)
        cells = [(wt.FBDF2, 0.5), (wt.FBDF1, 0.5), (wt.L1, 0.3)]
        solo = self._solo(p, cells[::2], 0.012, 50)
        assert all(t.truncated_at is None for t in solo)
        with pytest.raises(NonConvergenceError, match="at step 1$"):
            self._solo(p, cells[1:2], 0.012, 50)
        with pytest.raises(NonConvergenceError, match="at step 1$") as info:
            solve_cells(p, cells, 0.012, 50)
        assert info.value.step == 1

    def test_vector_f_runs_alone(self):
        # an f written for (d,) vectors: solve hands it one state, and so
        # does solve_cells for a single cell or for d > 4
        def vector_only(f):
            def g(t, y):
                assert y.ndim == 1
                return f(t, y)
            return g

        p = problems.lorenz_controlled(alpha=0.5)
        q = dataclasses.replace(p, f=vector_only(p.f))
        ref = solve(p, wt.FBDF2, 0.1, 200)
        assert np.array_equal(solve(q, wt.FBDF2, 0.1, 200).states, ref.states)
        assert np.array_equal(solve_cells(q, [(wt.FBDF2, 0.5)], 0.1, 200)[0].states, ref.states)
        wide = FOdeProblem(0.5, -np.eye(5), np.ones(5), f=vector_only(lambda t, y: -y ** 3))
        cells = [(wt.FBDF1, 0.5), (wt.L1, 0.7)]
        for got, ref in zip(solve_cells(wide, cells, 0.1, 100), self._solo(wide, cells, 0.1, 100)):
            assert np.array_equal(got.states, ref.states)

    def test_lorenz_cells_are_their_solo_solves(self):
        # the 20 controlled-Lorenz cells of T6 and T7: each chord iteration
        # starts from the predictor of its own run's last f value, so every
        # cell of the batch is its solo solve bit for bit
        p = problems.lorenz_controlled(alpha=0.5)
        cells = [(s, a) for s in (*SCHEMES, wt.ALPHA_DIFF) for a in (0.3, 0.5, 0.7, 0.9)]
        for got, ref in zip(solve_cells(p, cells, 0.1, 1005), self._solo(p, cells, 0.1, 1005)):
            assert got.truncated_at is ref.truncated_at is None
            assert np.array_equal(got.states, ref.states)

    def test_batch_calls_f_once_per_jacobian(self):
        # the 16 T6 cells as one batch over one leaf, which the chord
        # iteration steps: one f call per iterate, on the (16, 3) stack of
        # iterates or, with the FD Jacobian, on the (64, 3) stack of iterates
        # and shifted states (130 calls here)
        spec = tables._SPECS["T6"]
        p, shapes = spec.problem(), []
        f = p.f
        p.f = lambda t, y: shapes.append(y.shape) or f(t, y)
        solve_cells(p, [(s, a) for s in spec.schemes for a in spec.alphas], spec.h, _LEAF)
        assert len(shapes) <= 160 and set(shapes) == {(16, 3), (64, 3)}

    def test_batch_calls_f_once_per_step_and_sweep(self, monkeypatch):
        # every T6 leaf after the first is swept whole: one f call on the
        # (16, 3) stack per step of the leaf and sweep; 4715 calls in all
        spec = tables._SPECS["T6"]
        p, shapes, sweeps = spec.problem(), [], []
        f, sweep = p.f, slv._ImplicitStep.sweep
        p.f = lambda t, y: shapes.append(y.shape) or f(t, y)

        def counted(self, S, *args):
            n = len(shapes)
            left = sweep(self, S, *args)
            sweeps.append((len(S), len(shapes) - n, left))
            return left

        monkeypatch.setattr(slv._ImplicitStep, "sweep", counted)
        N = tables._steps(spec, 5)
        solve_cells(p, [(s, a) for s in spec.schemes for a in spec.alphas], spec.h, N)
        assert len(sweeps) == len([leaf for leaf in _blocks(1, N + 1) if leaf[1] is None]) - 1
        for L, calls, left in sweeps:
            assert not left and calls % L == 0 and L <= calls <= (slv._SWEEP_MAXIT - 1) * L
        assert set(shapes[-sum(calls for _, calls, _ in sweeps):]) == {(16, 3)}
        assert len(shapes) <= 5000

    @pytest.mark.parametrize("cell, message", [
        ((wt.FBDF1, 1.5), "alpha must lie in"), ((wt.ALPHA_DIFF, 1.0), "requires alpha in"),
        (("bdf9", 0.5), "unknown scheme")])
    def test_cells_checked_before_any_run(self, monkeypatch, cell, message):
        def no_run(*args, **kwargs):
            raise AssertionError("a cell ran before the cells were checked")

        monkeypatch.setattr(slv, "_run", no_run)
        with pytest.raises(ValueError, match=message):
            solve_cells(problems.scalar_test(10.0), [(wt.L1, 0.5), cell], 0.1, 100)

    def test_no_cells(self):
        assert solve_cells(problems.lorenz_controlled(), [], 0.1, 10) == []

    @pytest.mark.parametrize("problem", [
        problems.scalar_test(10.0), FOdeProblem(0.5, np.array([[-2.0]]), np.array([1.0])),
        problems.lorenz_controlled()], ids=["complex scalar", "real scalar", "lorenz"])
    def test_runs_of_a_batch_start_their_own_histories(self, problem):
        # a "poisson" run, whose history starts at z_0, in one batch with two
        # runs whose history starts at y_0: each is its solo run bit for bit
        N = 700
        runs = [slv._scheme_run(wt.ALPHA_DIFF, 0.5, N, "poisson"),
                slv._scheme_run(wt.ALPHA_DIFF, 0.7, N), slv._scheme_run(wt.FBDF1, 0.3, N)]
        guard = BLOWUP_FACTOR * max(np.linalg.norm(problem.y0), 1.0)
        args = problem.A, 0.1, N, problem.y0, problem.f, guard
        for run, (states, stop) in zip(runs, slv._run(runs, *args)):
            solo, solo_stop = slv._run([run], *args)[0]
            assert stop == solo_stop and np.array_equal(states, solo)


def _normal_matrix(eigenvalues, seed=0):
    """A real symmetric matrix Q diag(eigenvalues) Q^T and its orthogonal Q."""
    d = len(eigenvalues)
    Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((d, d)))
    return Q @ np.diag(eigenvalues) @ Q.T, Q


class TestLeafSweeps:
    # a nonlinear run of a real A with d <= 4 solves each leaf after its
    # first by fixed-point sweeps through its leaf resolvent; a run whose
    # sweeps stop contracting steps that leaf with the chord iteration, the
    # path every leaf takes with _leaf_spectra switched off

    @staticmethod
    def _record(monkeypatch) -> list:
        """(runs, runs left to step) of every sweep call from now on."""
        calls, sweep = [], slv._ImplicitStep.sweep

        def recorded(self, S, lo, h, runs, spectra):
            left = sweep(self, S, lo, h, runs, spectra)
            calls.append((list(runs), left))
            return left

        monkeypatch.setattr(slv._ImplicitStep, "sweep", recorded)
        return calls

    @staticmethod
    def _step_every_leaf(monkeypatch) -> None:
        monkeypatch.setattr(slv, "_leaf_spectra", lambda *args: None)

    @pytest.mark.parametrize("table", ["T6", "T7"])
    def test_table_cells_are_the_stepped_runs(self, table, monkeypatch):
        # every leaf after the first contracts in each of the 20 T6 and T7
        # cells, and the swept runs agree with the stepped ones to rounding
        spec = tables._SPECS[table]
        cells = [(s, a) for s in spec.schemes for a in spec.alphas]
        N = tables._steps(spec, 5)
        calls = self._record(monkeypatch)
        swept = solve_cells(spec.problem(), cells, spec.h, N)
        assert calls and all(not left for _, left in calls)
        self._step_every_leaf(monkeypatch)
        for got, ref in zip(swept, solve_cells(spec.problem(), cells, spec.h, N)):
            assert got.truncated_at is ref.truncated_at is None
            assert np.max(np.abs(got.states - ref.states)) <= 1e-13 * np.max(ref.norms())

    def test_chaotic_run_falls_back_to_stepping(self, monkeypatch):
        # the uncontrolled Lorenz run at h = 0.01 stays on the attractor,
        # where the sweeps do not contract: each leaf is stepped, as it is
        # with the sweeps switched off
        p = problems.lorenz_controlled(False, alpha=0.5)
        calls = self._record(monkeypatch)
        swept = solve(p, wt.FBDF1, 0.01, 3005)
        assert calls and all(left == [0] for _, left in calls)
        self._step_every_leaf(monkeypatch)
        stepped = solve(p, wt.FBDF1, 0.01, 3005)
        assert swept.truncated_at is stepped.truncated_at is None
        assert np.array_equal(swept.states, stepped.states)

    def test_runs_past_the_sweep_cap_step_the_leaf(self, monkeypatch):
        # the T6 runs take 4 to 7 sweeps a leaf: capped at 3, every leaf is
        # stepped, as with the sweeps switched off
        p = problems.lorenz_controlled(alpha=0.5)
        monkeypatch.setattr(slv, "_SWEEP_MAXIT", 3)
        calls = self._record(monkeypatch)
        capped = solve_cells(p, [(wt.FBDF1, 0.5), (wt.L1, 0.3)], 0.1, 300)
        assert calls and all(left == [0, 1] for _, left in calls)
        self._step_every_leaf(monkeypatch)
        for got, ref in zip(capped, solve_cells(p, [(wt.FBDF1, 0.5), (wt.L1, 0.3)], 0.1, 300)):
            assert np.array_equal(got.states, ref.states)

    @pytest.mark.parametrize("batched", [False, True])
    def test_f_turning_nan_fails_at_the_stepped_step(self, batched, monkeypatch):
        # f is nan for t > 10, from step 101 on, inside a swept leaf:
        # its sweeps turn non-finite, and the chord iteration fails at the
        # step where the stepped run fails
        p = problems.lorenz_controlled(alpha=0.5)
        f = p.f
        p.f = lambda t, y: f(t, y) * (np.nan if t > 10 else 1.0)

        def failing_step() -> int:
            with pytest.raises(NonConvergenceError) as info:
                if batched:
                    solve_cells(p, [(wt.FBDF2, 0.5), (wt.L1, 0.7)], 0.1, 300)
                else:
                    solve(p, wt.FBDF2, 0.1, 300)
            return info.value.step

        calls = self._record(monkeypatch)
        swept = failing_step()
        assert any(left for _, left in calls)
        self._step_every_leaf(monkeypatch)
        assert swept == failing_step() == 101

    def test_growing_run_truncates_at_the_stepped_step(self, monkeypatch):
        # lambda = 1 lies outside the sector: the run grows like exp(t) and
        # crosses the guard inside a swept leaf
        p = FOdeProblem(0.5, np.array([[1.0]]), np.array([1.0]), f=lambda t, y: 0.1 * np.sin(y))
        calls = self._record(monkeypatch)
        with pytest.warns(UserWarning, match="blow-up"):
            swept = solve(p, wt.FBDF1, 0.1, 600)
        assert calls and not any(left for _, left in calls)
        self._step_every_leaf(monkeypatch)
        with pytest.warns(UserWarning, match="blow-up"):
            stepped = solve(p, wt.FBDF1, 0.1, 600)
        assert swept.truncated_at == stepped.truncated_at == 256
        _assert_close(swept.states, stepped.states)

    def test_cells_taking_different_paths_are_their_solo_solves(self, monkeypatch):
        # -y^3 from y0 = (2, 2): while the states are large, the sweeps of the
        # small-alpha cells stop contracting and step their leaves, those of
        # the others solve them; each cell is its solo solve bit for bit
        p = FOdeProblem(0.5, np.array([[-1.0, 0.5], [-0.5, -1.0]]), np.array([2.0, 2.0]),
                        f=lambda t, y: -y ** 3)
        cells = [(wt.FBDF1, 0.3), (wt.FBDF1, 0.9), (wt.L1, 0.6), (wt.FBDF2, 0.5)]
        calls = self._record(monkeypatch)
        batch = solve_cells(p, cells, 0.1, 600)
        assert any(0 < len(left) < len(runs) for runs, left in calls)
        for got, (scheme, alpha) in zip(batch, cells):
            ref = solve(dataclasses.replace(p, alpha=alpha), scheme, 0.1, 600)
            assert got.truncated_at is ref.truncated_at is None
            assert np.array_equal(got.states, ref.states)


class TestModes:
    # a real linear problem with d > 4 steps the few modes its y0 excites in
    # the orthonormal eigenbasis of A (slv._modes), else the problem as it is

    @staticmethod
    def _stepped(problem, run, h, N):
        """The states and stop of one run of the core on the problem as it is."""
        guard = BLOWUP_FACTOR * max(slv._row_norms(problem.y0[None])[0], 1.0)
        return slv._run([run], problem.A, h, N, problem.y0, guard=guard)[0]

    @pytest.mark.parametrize("table", ["T4", "T5"])
    def test_table_cells_agree_with_the_stepped_core(self, table):
        spec = tables._SPECS[table]
        p = spec.problem()
        N = tables._steps(spec, 5)
        assert slv._modes(p.A.real, p.y0.real, max(spec.alphas))[1].shape == (2, 2)
        cells = [(s, a) for s in spec.schemes for a in spec.alphas]
        for (s, a), traj in zip(cells, solve_cells(p, cells, spec.h, N)):
            ref, stop = self._stepped(p, slv._scheme_run(s, a, N), spec.h, N)
            assert stop is None and traj.truncated_at is None
            _assert_close(traj.states, ref)
            assert np.all(traj.states.imag == 0.0) and np.array_equal(traj.states[0], p.y0)

    def test_advection_solves_agree_with_the_stepped_core(self):
        N, h = 5005, 0.01
        p = problems.advection_diffusion(alpha=0.7)
        ref, _ = self._stepped(p, slv._scheme_run(wt.FBDF1, 0.7, N), h, N)
        _assert_close(solve(p, wt.FBDF1, h, N).states, ref)
        ref, _ = self._stepped(p, slv._scheme_run(wt.ALPHA_DIFF, 0.7, N), h, N)
        _assert_close(solve_alpha_diff(p, h, N, "difference").states, ref)
        ref, _ = self._stepped(p, slv._scheme_run(wt.ALPHA_DIFF, 0.7, N, "poisson"), h, N)
        _assert_close(solve_alpha_diff(p, h, N, "poisson").states, ref)

    def test_problems_it_cannot_reduce_step_as_they_are(self):
        # a random y0 excites all 64 modes; a non-normal perturbation of the
        # advection matrix fails the basis test (||W^T W - I|| = 1.5e-4),
        # although its y0, on one conjugate pair, would keep 2 rows
        rng = np.random.default_rng(7)
        adv = problems.advection_diffusion(alpha=0.5)
        noisy = dataclasses.replace(adv, y0=rng.standard_normal(64))
        A = adv.A.real + 1e-4 * np.triu(rng.standard_normal((64, 64)))
        w, V = np.linalg.eig(A)
        skew = dataclasses.replace(adv, A=A, y0=10.0 * V[:, np.argmax(w.imag)].real)
        assert slv._modes(adv.A.real, adv.y0.real, 0.5) is not None
        for p in (noisy, skew):
            assert slv._modes(p.A.real, p.y0.real, 0.5) is None
            ref, _ = self._stepped(p, slv._scheme_run(wt.FBDF2, 0.5, 1000), 0.01, 1000)
            assert np.array_equal(solve(p, wt.FBDF2, 0.01, 1000).states, ref)

    def test_mode_outside_the_sector_is_kept(self):
        # y0 puts 5e-13 on the eigenvalue 0.5: inside the sector that mode
        # would be dropped, outside it is kept, and by t = 20 it has grown
        # past 1e-10, where the stepped run's own rounding has grown to
        # about 1e-14
        A, Q = _normal_matrix([-1.0, -2.0, -3.0, -4.0, -5.0, 0.5])
        y0 = Q[:, 0] + 5e-13 * Q[:, 5]
        dropped = slv._modes(_normal_matrix([-1.0, -2.0, -3.0, -4.0, -5.0, -0.5])[0], y0, 0.5)
        assert dropped[1].shape == (1, 1)
        _, L, x = slv._modes(A, y0, 0.5)
        assert np.allclose(np.sort(np.diag(L)), [-1.0, 0.5]) and abs(x).min() < 1e-12
        p = FOdeProblem(0.5, A, y0)
        ref, _ = self._stepped(p, slv._scheme_run(wt.L1, 0.5, 200), 0.1, 200)
        assert abs(Q[:, 5] @ ref[-1].real) > 1e-10
        _assert_close(solve(p, wt.L1, 0.1, 200).states, ref)

    @pytest.mark.parametrize("scale", [1.0, 1e160, 1e-170])
    def test_scale_of_y0_drops_the_same_modes(self, scale):
        # the coordinates are sized on y0 scaled to max |y0| ~ 1: their
        # squares overflow at 1e160 and underflow at 1e-170, which would
        # drop the in-sector mode the y0 carries at O(1)
        A, Q = _normal_matrix([-1.0, -2.0, -3.0, -4.0, -5.0, 0.5])
        p = FOdeProblem(0.5, A, scale * (Q[:, 0] + Q[:, 5]))
        _, L, x = slv._modes(A, p.y0.real, 0.5)
        assert np.allclose(np.sort(np.diag(L)), [-1.0, 0.5])
        assert np.allclose(np.abs(x) / scale, 1.0)
        ref, stop = self._stepped(p, slv._scheme_run(wt.L1, 0.5, 200), 0.1, 200)
        assert stop is None
        _assert_close(solve(p, wt.L1, 0.1, 200).states / scale, ref / scale)

    def test_eigenvalue_within_the_zero_floor(self):
        # the spectral record's floor is 1e-9 max(1, ||A||_2) = 5e-9 here:
        # the positive eigenvalue at half of it is critical, not unstable, for
        # classify_problem, and its mode droppable for _modes; at four times
        # the floor it is unstable, and its mode is kept
        for lam, verdict, rows in ((2.5e-9, "critical", 1), (2e-8, "unstable", 2)):
            A, Q = _normal_matrix([-1.0, -2.0, -3.0, -4.0, -5.0, lam])
            y0 = Q[:, 0] + 5e-13 * Q[:, 5]
            assert classify_problem(FOdeProblem(0.5, A, y0)).verdict == verdict
            assert slv._modes(A, y0, 0.5)[1].shape == (rows, rows)

    def test_mode_that_blows_up_steps_again_as_it_is(self):
        A, Q = _normal_matrix([-1.0, -2.0, -3.0, -4.0, -5.0, 2.0])
        p = FOdeProblem(0.5, A, Q[:, 0] + Q[:, 5])
        assert slv._modes(A, p.y0.real, 0.5)[1].shape == (2, 2)
        ref, stop = self._stepped(p, slv._scheme_run(wt.FBDF1, 0.5, 400), 0.1, 400)
        assert stop is not None
        with pytest.warns(UserWarning, match=f"blow-up guard triggered at step {stop}"):
            traj = solve(p, wt.FBDF1, 0.1, 400)
        assert traj.truncated_at == stop and np.array_equal(traj.states, ref)


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
