import cmath
import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlstab import problems
from mlstab import weights as wt
from mlstab.analysis import (
    DECAYS,
    GROWS,
    INCONCLUSIVE,
    UnreliableTailError,
    _bose_einstein_coefficients,
    _f_omega,
    _polylog,
    classify_problem,
    p_at_checkpoints,
    p_index,
    perturbation_check,
    region_boundary,
)
from mlstab.resolvent import impulse_resolvent, operator_norms
from mlstab.solver import FOdeProblem, Trajectory, solve

A_STABLE = (wt.FBDF1, wt.FBDF2, wt.FADAMS2, wt.L1)


def power_law_trajectory(exponent, h=0.1, N=400, scale=1.0):
    t = h * np.arange(N + 1)
    vals = np.empty(N + 1)
    vals[0] = scale
    vals[1:] = scale * t[1:] ** -exponent
    return Trajectory(h, vals[:, None].astype(complex), "synthetic", 0.5)


class TestPIndex:
    def test_exact_on_power_law(self):
        traj = power_law_trajectory(0.7)
        rep = p_index(traj, m=5)
        assert np.max(np.abs(rep.p - 0.7)) < 1e-12
        assert rep.fitted_slope == pytest.approx(0.7, abs=1e-9)
        assert rep.verdict == DECAYS

    @settings(max_examples=25, deadline=None)
    @given(m=st.integers(min_value=1, max_value=12),
           expo=st.floats(min_value=0.1, max_value=2.0))
    def test_exact_for_every_offset(self, m, expo):
        traj = power_law_trajectory(expo)
        rep = p_index(traj, m=m)
        assert np.max(np.abs(rep.p - expo)) < 1e-11

    @settings(max_examples=25, deadline=None)
    @given(scale=st.floats(min_value=1e-8, max_value=1e8))
    def test_invariant_under_scaling(self, scale):
        a = p_index(power_law_trajectory(0.5), m=5)
        b = p_index(power_law_trajectory(0.5, scale=scale), m=5)
        # the log-ratio cancels the scale exactly; floating division leaves
        # at most an ulp of difference
        assert np.max(np.abs(a.p - b.p)) < 5e-14

    def test_constant_trajectory_inconclusive(self):
        traj = Trajectory(0.1, np.ones((300, 1), dtype=complex), "synthetic", 0.5)
        rep = p_index(traj)
        assert np.max(np.abs(rep.p)) == 0.0
        assert rep.verdict == INCONCLUSIVE

    def test_growth_verdict(self):
        traj = power_law_trajectory(-0.8)  # growing power law
        assert p_index(traj).verdict == GROWS

    def test_samples_start_past_t_one(self):
        rep = p_index(power_law_trajectory(0.5), m=5)
        assert np.min(rep.times) > 1.0

    def test_zero_norm_samples_skipped(self):
        states = np.ones((200, 1), dtype=complex)
        states[40] = 0.0
        traj = Trajectory(0.1, states, "synthetic", 0.5)
        with pytest.warns(UserWarning, match="zero-norm"):
            rep = p_index(traj)
        assert rep.n_skipped == 2  # as left and as right endpoint
        assert np.all(np.isfinite(rep.p))

    def test_too_short(self):
        with pytest.raises(ValueError):
            p_index(power_law_trajectory(0.5, N=5), m=5)


class TestCheckpoints:
    def test_on_grid(self):
        traj = power_law_trajectory(0.7, h=0.1, N=250)
        out = p_at_checkpoints(traj, [10.0, 20.0], m=5)
        assert [t for t, _ in out] == [10.0, 20.0]
        assert all(abs(p - 0.7) < 1e-12 for _, p in out)

    def test_offset_convention(self):
        traj = power_law_trajectory(0.7, h=0.1, N=250)
        (t0, p0), = p_at_checkpoints(traj, [10.0], m=5, index_offset=-1)
        # sampling one index early while labelling with (n+m)/n biases the
        # measured exponent by the ratio of the two log windows
        n, m = 100, 5
        expected = 0.7 * math.log((n + m - 1) / (n - 1)) / math.log((n + m) / n)
        assert p0 == pytest.approx(expected, abs=1e-12)
        assert p0 == pytest.approx(0.7 * (1 + 1.0 / n), abs=3e-4)

    def test_zero_norms_give_nan(self):
        # a zero at the window's right end (i + m) and at its left end (i)
        traj = power_law_trajectory(0.7, h=0.1, N=250)
        traj.states[105] = 0.0
        traj.states[200] = 0.0
        with pytest.warns(UserWarning, match="zero-norm") as caught:
            out = p_at_checkpoints(traj, [10.0, 15.0, 20.0], m=5)
        assert len(caught) == 1  # one warning, and no numpy RuntimeWarning
        assert math.isnan(out[0][1]) and math.isnan(out[2][1])
        assert abs(out[1][1] - 0.7) < 1e-12

    def test_off_grid_rejected(self):
        traj = power_law_trajectory(0.7)
        with pytest.raises(ValueError):
            p_at_checkpoints(traj, [10.05])

    def test_out_of_range_rejected(self):
        traj = power_law_trajectory(0.7, N=50)
        with pytest.raises(ValueError):
            p_at_checkpoints(traj, [5.0])


class TestRegionBoundary:
    @pytest.mark.parametrize("scheme", A_STABLE)
    @pytest.mark.parametrize("alpha", [0.3, 0.7])
    def test_a_stable_confinement(self, scheme, alpha):
        sample = region_boundary(scheme, alpha, 0.1, n_theta=256)
        args = np.abs(np.angle(sample.boundary))
        assert np.max(args) <= alpha * math.pi / 2 + 1e-6

    @pytest.mark.parametrize("scheme", wt.SCHEMES)
    def test_f_mu_stays_in_the_closed_sector(self, scheme):
        # |arg F_mu| <= alpha pi/2 on the unit circle, so the image of the disk
        # lies in the closed sector: an eigenvalue strictly inside
        # |arg lambda| > alpha pi/2 is discretely stable, which lets the
        # solver drop a mode there (solver._modes).  F-BDF2 and F-Adams2 reach
        # alpha pi/2 as theta -> 0; below theta = 1e-6 the rounding of
        # 1 - e^{i theta} alone moves the argument by more than 1e-9.
        n = 4096
        small = np.logspace(-6, -2, 50)
        theta = np.concatenate([-math.pi + 2 * math.pi * (np.arange(n) + 0.5) / n, small, -small])
        z = np.exp(1j * theta)
        for alpha in (0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
            if scheme == wt.L1:
                f_mu = 1.0 / _f_omega(wt.L1, alpha, z)
            else:  # the alpha-difference scheme has the F-BDF1 mu
                p, q = wt.generating_pair(wt.FBDF1 if scheme == wt.ALPHA_DIFF else scheme, alpha)
                f_mu = np.polyval(p[::-1], z) ** alpha / np.polyval(q[::-1], z)
            assert np.max(np.abs(np.angle(f_mu))) <= alpha * math.pi / 2 + 1e-9

    def test_fbdf1_closed_form(self):
        alpha, h = 0.5, 0.1
        sample = region_boundary(wt.FBDF1, alpha, h, n_theta=64)
        ref = (1 - np.exp(1j * sample.theta)) ** alpha / h ** alpha
        assert np.max(np.abs(sample.boundary - ref)) < 1e-12 * np.max(np.abs(ref))

    def test_limit_point_at_pi(self):
        # the grid points nearest theta = pi, +-(pi - pi/n), are the boundary
        # points farthest out, 2^alpha / h^alpha to O(n^-2)
        sample = region_boundary(wt.FBDF1, 0.5, 0.1, n_theta=4096)
        far = np.argmax(np.abs(sample.boundary))
        assert abs(sample.theta[far]) == pytest.approx(math.pi - math.pi / 4096)
        assert abs(sample.boundary[far]) == pytest.approx(2 ** 0.5 / 0.1 ** 0.5, rel=1e-7)

    def test_theta_zero_excluded(self):
        for n_theta in (8, 128, 2050):
            sample = region_boundary(wt.FBDF2, 0.5, 0.1, n_theta=n_theta)
            assert np.min(np.abs(sample.theta)) > 0.0

    def test_f_omega_divergence_at_one(self):
        # F_omega diverges at z = 1, and an odd grid -pi + 2 pi (j + 1/2) / n
        # would sample theta = 0 at j = (n - 1) / 2: it is rejected
        for n_theta in (9, 255):
            with pytest.raises(ValueError, match=f"n_theta must be even.* got {n_theta}"):
                region_boundary(wt.L1, 0.5, 0.1, n_theta=n_theta)

    @pytest.mark.parametrize("n_theta", [6, 7, 0])
    def test_small_grid_rejected(self, n_theta):
        with pytest.raises(ValueError, match=f"n_theta .* got {n_theta}"):
            region_boundary(wt.FBDF1, 0.5, 0.1, n_theta=n_theta)

    def test_backward_euler_circle_at_alpha_one(self):
        # alpha = 1: boundary points satisfy |1 - h lambda| = 1
        h = 0.2
        sample = region_boundary(wt.FBDF1, 1.0, h, n_theta=128)
        assert np.max(np.abs(np.abs(1 - h * sample.boundary) - 1.0)) < 1e-10

    def test_l1_against_weight_series(self):
        # boundary = F_mu(e^{i theta}) / h^alpha; the L1 mu_j (j >= 1) are
        # negative and shrink in magnitude, so the tail of the partial sum over
        # M terms is at most 2 |mu_M| / |1 - z| (Dirichlet test)
        alpha, h = 0.5, 0.1
        sample = region_boundary(wt.L1, alpha, h, n_theta=8)
        mu = wt.l1_weights(alpha, 20001).mu
        assert np.all(mu[1:] < 0.0) and np.all(np.diff(mu[1:]) > 0.0)
        z = np.exp(1j * sample.theta)
        partial = np.polyval(mu[-2::-1], z)
        tail = 2.0 * abs(mu[-1]) / np.abs(1.0 - z)
        assert np.all(np.abs(sample.boundary - partial / h ** alpha) <= (tail + 1e-10) / h ** alpha)

    def test_l1_finite_everywhere(self):
        sample = region_boundary(wt.L1, 0.7, 0.1, n_theta=64)
        assert np.all(np.isfinite(sample.boundary.real))
        assert np.all(np.isfinite(sample.boundary.imag))

    @pytest.mark.parametrize("scheme", A_STABLE)
    def test_closed_form_against_omega_series(self, scheme):
        # F_omega(z) = 1 / (h^alpha boundary) against its weight series on
        # |z| = 1.  For j >= M the omega_j are positive with differences
        # d_j = omega_j - omega_{j+1} > 0 and e_j = d_j - d_{j+1} > 0 that
        # decrease, so summing the tail by parts three times gives
        #   sum_{j>=M} omega_j z^j = omega_M z^M / (1 - z)
        #                            - d_M z^(M+1) / (1 - z)^2 + E,
        #   |E| <= 2 e_M / |1 - z|^3     (Dirichlet test on the e_j).
        alpha, h, M = 0.6, 0.1, 4000
        sample = region_boundary(scheme, alpha, h, n_theta=16)
        omega = wt.scheme_weights(scheme, alpha, M + 3).omega
        late = omega[M // 2:]
        assert np.all(late > 0) and np.all(np.diff(late) < 0)
        assert np.all(np.diff(late, 2) > 0) and np.all(np.diff(late, 3) < 0)
        d = -np.diff(omega[M:])
        e = -np.diff(d)
        z = np.exp(1j * sample.theta)
        series = (np.polyval(omega[M - 1::-1], z) + omega[M] * z ** M / (1.0 - z)
                  - d[0] * z ** (M + 1) / (1.0 - z) ** 2)
        bound = 2.0 * e[0] / np.abs(1.0 - z) ** 3
        assert np.all(np.abs(1.0 / (h ** alpha * sample.boundary) - series) <= bound + 1e-12)

    @pytest.mark.parametrize("h", [0.0, -0.1, math.nan, math.inf])
    def test_bad_step_size_rejected(self, h):
        with pytest.raises(ValueError, match="step size"):
            region_boundary(wt.FBDF1, 0.5, h, n_theta=16)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9])
def test_l1_against_polylog_closed_form(alpha):
    # the double-precision Bose-Einstein sum of Li_{alpha-1} against
    # mpmath.polylog on the unit circle, at theta = +-pi/128 (next to the
    # divergence at z = 1) up to +-(pi - pi/128)
    h = 1.0  # boundary = 1 / F_omega
    sample = region_boundary(wt.L1, alpha, h, n_theta=128)
    for k in (0, 20, 63, 64, 65, 80, 100, 127):
        z = cmath.exp(1j * sample.theta[k])
        li = complex(mpmath.polylog(alpha - 1.0, z))
        ref = math.gamma(2.0 - alpha) * z / ((1.0 - z) ** 2 * li)
        assert abs(1.0 / sample.boundary[k] - ref) <= 1e-13 * abs(ref)


@pytest.mark.parametrize("alpha", [0.05, 0.3, 0.5, 0.9, 0.99, 0.999999, 1.0 - 1e-12, 1.0])
def test_bose_einstein_coefficients(alpha):
    # zeta(s - j) / j!, s = alpha - 1, against mpmath at the same double s,
    # with alpha -> 1 where t = j - s nears the pole of zeta(1 + t)
    s = alpha - 1.0
    got = _bose_einstein_coefficients(s)
    with mpmath.workdps(40):
        ref = [mpmath.zeta(mpmath.mpf(s) - j) / mpmath.factorial(j) for j in range(got.size)]
    for j, r in enumerate(ref):
        if r == 0:  # the trivial zeros zeta(-2k), at alpha = 1
            assert got[j] == 0.0, j
        else:
            assert abs(got[j] - float(r)) <= 3e-14 * abs(float(r)), j
    if alpha == 1.0:
        assert got[0] == -0.5  # zeta(0), exactly


def test_polylog_near_alpha_one():
    # Li_{alpha-1} at alpha = 0.999999, where zeta(s - j) / j! must keep the
    # digits of t = j - s at j = 0
    s = 0.999999 - 1.0
    z = np.exp(1j * np.linspace(-math.pi + math.pi / 128, math.pi - math.pi / 128, 64))
    got = _polylog(s, z)
    with mpmath.workdps(30):  # at 15 digits mpmath.polylog itself is off by 1e-13 here
        ref = [complex(mpmath.polylog(mpmath.mpf(s), zk)) for zk in z.tolist()]
    for g, r in zip(got.tolist(), ref):
        assert abs(g - r) <= 1e-14 * abs(r)


def test_l1_region_without_extended_precision(monkeypatch):
    # the double branches serve the whole region: importing mpmath fails
    # (a lazy import raises ImportError) and its polylog is never called
    calls = []
    monkeypatch.setattr(mpmath, "polylog", lambda *a: calls.append(a))
    monkeypatch.setitem(sys.modules, "mpmath", None)
    region_boundary(wt.L1, 0.5, 0.1)
    assert calls == []


class TestClassification:
    def test_scalar_cases(self):
        assert classify_problem(problems.scalar_test(0.1, alpha=0.5)).verdict == "stable"
        assert classify_problem(problems.scalar_test(0.0, alpha=0.5)).verdict == "critical"
        assert classify_problem(problems.scalar_test(-0.1, alpha=0.5)).verdict == "unstable"

    def test_alpha_one(self):
        # alpha = 1 is the classical ODE: the sector is the open left half-plane
        assert classify_problem(problems.scalar_test(10.0, alpha=1.0)).verdict == "unstable"
        stable = FOdeProblem(alpha=1.0, A=np.array([[-1.0 + 5j]]), y0=np.array([1.0]))
        assert classify_problem(stable).verdict == "stable"

    def test_lorenz_with_and_without_control(self):
        alpha = 0.9
        assert classify_problem(problems.lorenz_controlled(alpha=alpha)).verdict == "stable"
        free = classify_problem(problems.lorenz_controlled(False, alpha=alpha))
        assert free.verdict == "unstable"
        assert np.max(free.eigenvalues.real) > 11.0  # the unstable saddle branch

    def test_advection_diffusion_zero_mode_critical(self):
        # the constant Fourier mode sits at the origin
        p = problems.advection_diffusion(n_x=8)
        rep = classify_problem(p)
        assert rep.verdict == "critical"
        assert sum(s.critical for s in rep.sectors) == 1

    def test_agrees_with_observed_decay(self):
        # sector placement matches the solver verdict on the three b cases
        from mlstab.analysis import p_index as pidx
        for b, expected in ((0.1, DECAYS), (-0.1, GROWS)):
            prob = problems.scalar_test(b, alpha=0.5)
            traj = solve(prob, wt.FBDF1, 0.1, 1000)
            verdict = pidx(traj).verdict
            assert verdict == expected
            stable = classify_problem(prob).verdict == "stable"
            assert stable == (verdict == DECAYS)


@pytest.fixture(scope="module")
def resolvent():
    return impulse_resolvent(wt.FBDF1, problems.lorenz_controlled().A, 0.5, 0.1, 2000)


class TestPerturbationCheck:
    def test_zero_perturbation_passes(self, resolvent):
        p = problems.lorenz_controlled(alpha=0.5)
        chk = perturbation_check(p, resolvent, L=lambda t: 0.0)
        assert chk.passed and chk.rho0 == 0.0

    def test_constant_lipschitz_reduction(self, resolvent):
        # for constant L the condition collapses to L < 1/(||D0|| + S0)
        p = problems.lorenz_controlled(alpha=0.5)
        nD = operator_norms(resolvent.D)
        probe = perturbation_check(p, resolvent, L=lambda t: 1e-9)
        threshold = 1.0 / (probe.D0_norm + probe.S0)
        below = perturbation_check(p, resolvent, L=lambda t: 0.9 * threshold)
        above = perturbation_check(p, resolvent, L=lambda t: 1.1 * threshold)
        assert below.passed and not above.passed
        assert below.S0 >= float(np.sum(nD[1:]))  # tail included

    def test_decaying_envelope(self, resolvent):
        p = problems.lorenz_controlled(alpha=0.5)
        chk = perturbation_check(p, resolvent, L=lambda t: 0.05 / (1.0 + t))
        assert chk.condition1
        assert chk.rho0 >= chk.rho0_limit

    def test_nan_envelope_rejected(self, resolvent):
        # a nan L(t) is no envelope: it must not turn into a "failed" verdict
        p = problems.lorenz_controlled(alpha=0.5)
        with pytest.raises(ValueError, match="L\\(t\\) must be nonnegative"):
            perturbation_check(p, resolvent, L=lambda t: math.nan)
        p.lipschitz_bound = math.nan
        with pytest.raises(ValueError, match="L\\(t\\) must be nonnegative"):
            perturbation_check(p, resolvent)

    def test_requires_envelope(self, resolvent):
        with pytest.raises(ValueError):
            perturbation_check(problems.lorenz_controlled(alpha=0.5), resolvent)

    def test_flat_resolvent_unreliable(self):
        r = impulse_resolvent(wt.FBDF1, np.zeros((1, 1)), 0.5, 0.1, 1200)
        p = FOdeProblem(0.5, np.zeros((1, 1)), np.array([1.0]), lipschitz_bound=0.1)
        with pytest.raises(UnreliableTailError):
            perturbation_check(p, r)
