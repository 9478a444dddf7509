"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one `[criterion N] PASS/FAIL` line (run with -s to stream
them); the assertions carry the same tolerances, so the suite is green iff
every criterion holds.
"""

import math

import numpy as np
import pytest

from mlstab import analysis, problems, tables
from mlstab import resolvent as rsv
from mlstab import weights as wt
from mlstab.solver import FOdeProblem, solve, solve_alpha_diff
from mlstab.special import mittag_leffler, prabhakar

SCHEMES = (wt.FBDF1, wt.FBDF2, wt.FADAMS2, wt.L1)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def reproduce_and_report(criterion: str, table_ids: tuple[str, ...], tol: float) -> None:
    worst = 0.0
    n_cells = 0
    all_ok = True
    for tid in table_ids:
        cells = tables.reproduce(tid)
        asserted = [c for c in cells if c.asserted]
        n_cells += len(asserted)
        worst = max(worst, max(c.deviation for c in asserted))
        all_ok = all_ok and all(c.passed for c in cells)
    report(criterion, all_ok and worst <= tol,
           f"{'/'.join(table_ids)}: {n_cells} asserted cells, "
           f"worst deviation {worst:.2e} (tolerance {tol:g})")


def test_criterion_1_scalar_grid_fbdf():
    # scalar test, y0 = 5, lambda = 1+11i, h = 0.1, m = 5: F-BDF1 and F-BDF2
    reproduce_and_report("1", ("T2",), 1e-3)


def test_criterion_2_scalar_grid_l1_adams():
    reproduce_and_report("2", ("T3",), 1e-3)


def test_criterion_3_advection_diffusion_grids():
    # h = 0.01, a = 0.1, D = 5, n_x = 64, u0 = 10 sin(4 pi x), four schemes
    reproduce_and_report("3", ("T4", "T5"), 1e-3)


def test_criterion_4_lorenz_grids():
    # T6 at 5e-3 for the four convolution schemes; T7 asserts only the
    # alpha = 0.5 column (5e-2), the other columns are reported
    reproduce_and_report("4", ("T6", "T7"), 5e-2)
    cells = tables.reproduce("T6")
    worst6 = max(c.deviation for c in cells)
    assert worst6 <= 5e-3


def test_criterion_5_qualitative_verdicts():
    got = {}
    for b, t_end in ((0.1, 300.0), (0.0, 300.0), (-0.1, 100.0)):
        prob = problems.scalar_test(b, alpha=0.5)
        traj = solve(prob, wt.FBDF1, 0.1, int(t_end / 0.1) + 5)
        got[b] = analysis.p_index(traj).verdict
    ok = (got[0.1] == analysis.DECAYS and got[0.0] == analysis.DECAYS
          and got[-0.1] == analysis.GROWS)
    report("5", ok, f"b=0.1 -> {got[0.1]}, b=0 -> {got[0.0]}, b=-0.1 -> {got[-0.1]}")


def test_criterion_6_scalar_asymptotic_constant():
    lam, alpha, h = 1 + 11j, 0.5, 0.1
    prob = problems.scalar_test(10.0, alpha=alpha)
    traj = solve(prob, wt.FBDF1, h, 10_000)
    predicted = -5.0 / (lam * math.gamma(1 - alpha)) * 1000.0 ** -alpha
    ratio = abs(traj.states[-1, 0] / predicted)
    report("6", abs(ratio - 1.0) <= 0.02,
           f"y_n over -y0/(lambda Gamma(1-alpha)) t^-alpha = {ratio:.5f} at t = 1e3")


def test_criterion_7_resolvent_decay_slopes():
    lam = np.array([[1 + 11j]])
    worst_d = worst_D = 0.0
    ok = True
    for scheme in SCHEMES:
        for alpha in (0.3, 0.7):
            r = rsv.impulse_resolvent(scheme, lam, alpha, 0.1, 5000)
            rep = rsv.verify_resolvent_decay(r)
            dev_d = abs(rep.slope_d + alpha)
            dev_D = abs(rep.slope_D + alpha + 1.0)
            worst_d = max(worst_d, dev_d)
            worst_D = max(worst_D, dev_D)
            ok = ok and dev_d <= 0.02 and dev_D <= 0.05
    report("7", ok, f"slope deviations: d within {worst_d:.4f} (tol 0.02), "
                    f"D within {worst_D:.4f} (tol 0.05), 4 schemes x alpha in {{0.3, 0.7}}")


def test_criterion_8_poisson_resolvent_identity():
    alpha, h = 0.5, 0.1
    A = problems.lorenz_controlled().A.astype(complex)
    eye = np.eye(3, dtype=complex)
    cols = [solve_alpha_diff(FOdeProblem(alpha, A, eye[:, i]), h, 200,
                             variant="poisson").states for i in range(3)]
    worst = 0.0
    for n in range(1, 201):
        d_n = np.stack([c[n] for c in cols], axis=1)
        q1 = rsv.poisson_resolvent(A, alpha, h, n, 1.0)
        worst = max(worst, float(np.max(np.abs(q1 - d_n))))
    mass_dev = max(abs(rsv.poisson_mass(n) - 1.0) for n in (0, 10, 100, 1000))
    report("8", worst <= 1e-6 and mass_dev <= 1e-9,
           f"max |Q1^n - d_n| = {worst:.2e} over n <= 200 (tol 1e-6); "
           f"Poisson mass within {mass_dev:.1e} of 1 (tol 1e-9)")


def test_criterion_9_d0_closed_forms():
    A = problems.lorenz_controlled().A.astype(complex)
    lam = np.array([[1 + 11j]])
    worst = 0.0
    for scheme in SCHEMES:
        for alpha, mat in ((0.5, A), (0.7, lam)):
            r = rsv.impulse_resolvent(scheme, mat, alpha, 0.1, 2)
            ref = rsv.d0_closed_form(scheme, mat, alpha, 0.1)
            worst = max(worst, float(np.max(np.abs(r.D[0] - ref))))
    report("9", worst <= 1e-12,
           f"impulse D_0 vs closed form: max deviation {worst:.2e} (tol 1e-12)")


class TestCriterion10Properties:
    """Property suite: the itemized identities at their stated tolerances."""

    def test_exponential_oracle(self):
        devs = []
        for z in np.linspace(-20, 20, 17):
            devs.append(abs(mittag_leffler(complex(z), 1.0) - np.exp(z)) / np.exp(z))
        for r in (5.0, 20.0):
            z = r * np.exp(2j)
            devs.append(abs(mittag_leffler(z, 1.0) - np.exp(z)) / abs(np.exp(z)))
        report("10a", max(devs) <= 1e-12,
               f"E_1 vs exp on |z| <= 20: worst relative {max(devs):.2e}")

    def test_prabhakar_reduction(self):
        import mpmath
        worst = 0.0
        for z in (-10.0, -4.0, 3.0, 5j, -6 + 2j):
            with mpmath.workdps(120):
                s = mpmath.mpc(0)
                for k in range(900):  # the series peak sits near k = 2|z|^2
                    s += (k + 1) * mpmath.mpc(z) ** k * mpmath.rgamma(mpmath.mpf("0.5") * k + 1)
                ref = complex(s)
            worst = max(worst, abs(prabhakar(z, 0.5, 1.0, 2) - ref) / max(abs(ref), 1e-6))
        report("10b", worst <= 1e-10, f"gamma=2 reduction vs series: worst {worst:.2e}")

    def test_weight_identities(self, fbdf1_recursion):
        dev_rec = max(
            float(np.max(np.abs(wt.scheme_weights(wt.FBDF1, a, 1000).mu
                                - fbdf1_recursion(a, 1000))))
            for a in (0.3, 0.5, 0.9))
        l1 = wt.l1_weights(0.5, 500)
        dev_tel = float(np.max(np.abs(np.cumsum(l1.mu) - l1.sigma[1:]) / np.abs(l1.sigma[1:])))
        partial = np.cumsum(wt.scheme_weights(wt.FBDF2, 0.5, 10_000).mu)
        drain_ok = abs(partial[-1]) < 1e-2 and np.all(np.diff(np.abs(partial[4:])) < 0)
        rt = wt.conv_inverse(wt.conv_inverse(np.array([2.0, -0.7, 0.1]), 64), 64)
        dev_rt = float(np.max(np.abs(rt - np.concatenate([[2.0, -0.7, 0.1], np.zeros(61)]))))
        ok = dev_rec <= 1e-13 and dev_tel <= 1e-12 and drain_ok and dev_rt <= 1e-12
        report("10c", ok,
               f"recursion-vs-Miller {dev_rec:.1e} (1e-13), L1 telescoping {dev_tel:.1e} "
               f"(1e-12), F-BDF2 partial-sum drain {abs(partial[-1]):.1e}, roundtrip {dev_rt:.1e}")

    def test_p_index_power_law(self):
        t = 0.1 * np.arange(501)
        states = np.ones((501, 1), dtype=complex)
        states[1:, 0] = t[1:] ** -0.7
        from mlstab.solver import Trajectory
        worst = 0.0
        for m in (1, 5, 9):
            rep = analysis.p_index(Trajectory(0.1, states, "synthetic", 0.5), m=m)
            worst = max(worst, float(np.max(np.abs(rep.p - 0.7))))
        report("10d", worst <= 1e-11, f"p on t^-0.7 exact to {worst:.1e}")

    def test_region_confinement(self):
        worst = -math.inf
        for scheme in SCHEMES:
            for alpha in (0.3, 0.5, 0.9):
                sample = analysis.region_boundary(scheme, alpha, 0.1, n_theta=1024)
                excess = np.max(np.abs(np.angle(sample.boundary))) - alpha * math.pi / 2
                worst = max(worst, float(excess))
        report("10e", worst <= 1e-6,
               f"A-stable boundary arg excess over alpha*pi/2: {worst:.2e} (tol 1e-6)")

    def test_scheme_form_equivalence(self, omega_form_run):
        prob = problems.scalar_test(10.0, alpha=0.5)
        worst = 0.0
        for scheme in SCHEMES:
            traj = solve(prob, scheme, 0.1, 1000)
            ref = omega_form_run(prob, scheme, 0.1, 1000)
            worst = max(worst, float(np.max(np.abs(traj.states[:, 0] - ref))))
        report("10f", worst <= 1e-10,
               f"mu-form vs omega-form over 1e3 steps: worst {worst:.2e} (tol 1e-10)")

    def test_variation_of_constants_reconstruction(self):
        prob = problems.lorenz_controlled(alpha=0.5)
        worst = 0.0
        for scheme in (wt.FBDF1, wt.L1):
            traj = solve(prob, scheme, 0.1, 200)
            r = rsv.impulse_resolvent(scheme, prob.A, 0.5, 0.1, 200)
            f_vals = np.array([prob.f(0.1 * k, traj.states[k]) for k in range(201)])
            rec = rsv.variation_of_constants(r, prob.y0, f_vals)
            worst = max(worst, float(np.max(np.abs(rec - traj.states))))
        report("10g", worst <= 1e-9,
               f"d,D reconstruction of forced trajectories: worst {worst:.2e} (tol 1e-9)")
