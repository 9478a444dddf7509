import contextlib
import io
import json
import math
import subprocess
import sys
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mlstab import _csvfmt, cli


def run_cli(*args):
    """`mlstab *args` in this process: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(args))
        except SystemExit as exc:  # argparse errors, --version
            code = exc.code
    return subprocess.CompletedProcess(args, code or 0, out.getvalue(), err.getvalue())


def read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# mlstab")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return header, rows


class TestWeightsCommand:
    def test_fbdf1_table(self, tmp_path):
        res = run_cli("weights", "--scheme", "fbdf1", "--alpha", "0.5",
                      "--n", "8", "--out", str(tmp_path))
        assert res.returncode == 0
        header, rows = read_csv(tmp_path / "weights_fbdf1_a0.5.csv")
        assert header == ["n", "mu", "omega", "sigma"]
        mu = [float(r[1]) for r in rows]
        assert mu[:3] == [1.0, -0.5, -0.125]
        assert all(r[3] == "" for r in rows)  # no sigma for F-BDF1

    def test_l1_leading_weight(self, tmp_path):
        res = run_cli("weights", "--scheme", "l1", "--alpha", "0.5",
                      "--n", "4", "--out", str(tmp_path))
        assert res.returncode == 0
        _, rows = read_csv(tmp_path / "weights_l1_a0.5.csv")
        assert float(rows[0][1]) == pytest.approx(1.1283791671, abs=1e-10)
        assert float(rows[0][3]) == 0.0  # sigma_0 placeholder

    def test_alpha_out_of_range_rejected(self, tmp_path):
        # the library's range checks: (0, 1], and (0, 1) for alpha_diff
        for scheme, alpha in [("fbdf2", "1.5"), ("fbdf2", "0"), ("alpha_diff", "1")]:
            res = run_cli("weights", "--scheme", scheme, "--alpha", alpha,
                          "--out", str(tmp_path))
            assert res.returncode == 2
            assert "alpha" in res.stderr
        assert not any(tmp_path.iterdir())

    def test_unknown_scheme_rejected(self, tmp_path):
        res = run_cli("weights", "--scheme", "bdf9", "--alpha", "0.5",
                      "--out", str(tmp_path))
        assert res.returncode == 2


class TestSolveCommand:
    def test_alpha_one_accepted(self, tmp_path):
        # alpha = 1, the classical ODE, is in range for L1 and the F-LMMs
        res = run_cli("solve", "--scheme", "fbdf1", "--alpha", "1", "--h", "0.1",
                      "--t-end", "10", "--out", str(tmp_path))
        assert res.returncode == 0
        assert (tmp_path / "solve_scalar_fbdf1_a1_summary.json").exists()

    def test_scalar_run_with_checkpoints(self, tmp_path):
        res = run_cli("solve", "--problem", "scalar", "--b", "10",
                      "--scheme", "fbdf1", "--alpha", "0.5", "--h", "0.1",
                      "--t-end", "30", "--checkpoints", "10,20",
                      "--out", str(tmp_path))
        assert res.returncode == 0
        summary = json.loads((tmp_path / "solve_scalar_fbdf1_a0.5_summary.json").read_text())
        assert summary["verdict"] == "DECAYS"
        assert set(summary["p_at"]) == {"10", "20"}
        header, rows = read_csv(tmp_path / "solve_scalar_fbdf1_a0.5.csv")
        assert header == ["t", "y0_re", "y0_im", "norm"]
        assert len(rows) == 306  # N = t_end/h + m, plus the initial state
        p_header, p_rows = read_csv(tmp_path / "solve_scalar_fbdf1_a0.5_pindex.csv")
        assert p_header == ["t", "p_alpha"]
        assert all(float(r[0]) > 1.0 for r in p_rows)

    def test_growth_verdict(self, tmp_path):
        res = run_cli("solve", "--problem", "scalar", "--b", "-0.1",
                      "--scheme", "fbdf1", "--alpha", "0.5", "--h", "0.1",
                      "--t-end", "100", "--out", str(tmp_path))
        assert res.returncode == 0
        summary = json.loads((tmp_path / "solve_scalar_fbdf1_a0.5_summary.json").read_text())
        assert summary["verdict"] == "GROWS"

    def test_extreme_initial_value_keeps_its_verdict(self, tmp_path):
        # the squares of states near 1e160 overflow, and those near 1e-170
        # underflow to 0; the norms are scaled instead
        slopes = {}
        for y0 in ("1", "1e160", "1e-170"):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                res = run_cli("solve", "--problem", "scalar", "--scheme", "fbdf1",
                              "--alpha", "0.5", "--h", "0.1", "--t-end", "100",
                              "--y0", y0, "--out", str(tmp_path / y0))
            assert res.returncode == 0
            text = (tmp_path / y0 / "solve_scalar_fbdf1_a0.5_summary.json").read_text()
            summary = json.loads(text, parse_constant=lambda c: pytest.fail(f"{c} in JSON"))
            assert summary["verdict"] == "DECAYS"
            slopes[y0] = summary["fitted_slope"]
        assert abs(slopes["1e160"] - slopes["1"]) <= 1e-9
        assert abs(slopes["1e-170"] - slopes["1"]) <= 1e-9

    def test_deterministic_output(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        args = ("solve", "--problem", "scalar", "--scheme", "l1", "--alpha", "0.3",
                "--h", "0.1", "--t-end", "20")
        assert run_cli(*args, "--out", str(tmp_path / "a")).returncode == 0
        assert run_cli(*args, "--out", str(tmp_path / "b")).returncode == 0
        fa = (tmp_path / "a" / "solve_scalar_l1_a0.3.csv").read_bytes()
        fb = (tmp_path / "b" / "solve_scalar_l1_a0.3.csv").read_bytes()
        assert fa == fb

    def test_missing_span_rejected(self, tmp_path):
        res = run_cli("solve", "--problem", "scalar", "--scheme", "fbdf1",
                      "--alpha", "0.5", "--h", "0.1", "--out", str(tmp_path))
        assert res.returncode == 2

    def test_solver_failure_exit_code(self, tmp_path, monkeypatch):
        from mlstab.solver import SolverError

        def boom(*a, **k):
            raise SolverError("forced failure", step=3)

        monkeypatch.setattr(cli.slv, "solve", boom)
        code = cli.main(["solve", "--problem", "scalar", "--scheme", "fbdf1",
                         "--alpha", "0.5", "--h", "0.1", "--t-end", "5",
                         "--out", str(tmp_path)])
        assert code == 3

    @pytest.mark.parametrize("argv, message", [
        # b = -1 gives lambda = 1; at h = 1 the F-BDF1 step matrix 1 - lambda is zero
        (("--problem", "scalar", "--b", "-1", "--h", "1", "--t-end", "20"),
         "singular implicit step matrix"),
        # uncontrolled Lorenz at h = 0.012: the chord iteration fails at step 1
        (("--problem", "lorenz", "--no-control", "--h", "0.012", "--t-end", "1"),
         "implicit solve did not converge at step 1"),
    ], ids=["singular", "no-convergence"])
    def test_solver_failure_is_one_line(self, tmp_path, argv, message):
        # a real process: the one message of main's handler, and nothing else
        res = subprocess.run([sys.executable, "-m", "mlstab.cli", "solve", "--scheme", "fbdf1",
                              "--alpha", "0.5", *argv, "--out", str(tmp_path / "out")],
                             capture_output=True, text=True)
        assert res.returncode == 3
        assert res.stderr == f"solver failure: {message}\n" and res.stdout == ""
        assert not (tmp_path / "out").exists()


def per_element_csv(traj, meta):
    """The trajectory CSV formatted one number at a time, as a reference."""
    d = traj.states.shape[1]
    lines = ["t," + ",".join(f"y{i}_re,y{i}_im" for i in range(d)) + ",norm"]
    norms = traj.norms()
    for n, t in enumerate(traj.times):
        comps = ",".join(f"{traj.states[n, i].real:.17g},{traj.states[n, i].imag:.17g}"
                         for i in range(d))
        lines.append(f"{t:.17g},{comps},{norms[n]:.17g}")
    return meta + "\n".join(lines) + "\n"


def test_trajectory_csv_matches_per_element_format():
    from mlstab.solver import Trajectory
    rng = np.random.default_rng(7)
    states = rng.standard_normal((600, 3)) * 10.0 ** rng.integers(-300, 300, (600, 3)) \
        + 1j * rng.standard_normal((600, 3))  # several blocks of rows
    states[1, 0] = complex(-0.0, 0.0)
    states[2, 1] = complex(np.nan, -np.inf)
    states[3, 2] = complex(np.inf, -0.0)
    states[4] = [1 / 3, -2.5e-310, 1e300]
    traj = Trajectory(0.01, states, "fbdf1", 0.5)
    with np.errstate(over="ignore", invalid="ignore"):
        want = per_element_csv(traj, "# meta\n")
        got = cli._csv_bytes("# meta\n", cli._trajectory_columns(traj)).decode()
    assert got == want
    assert "-0,0," in got and "nan,-inf" in got


@pytest.mark.parametrize("columns", [
    {"n": np.arange(300), "x": np.linspace(-1.0, 1e300, 300)},  # an integer column
    {"n": np.arange(3), "omega": None, "sigma": np.array([0.0, 1 / 3, -2.5e-310])},
    {"t": np.empty(0), "p_alpha": np.empty(0)},  # the p-index of a run with no t > 1
], ids=["integer", "none", "no-rows"])
def test_csv_matches_per_element_format(columns):
    rows = zip(*(c for c in columns.values() if c is not None))
    lines = [",".join(columns)]
    for row in rows:
        vals = iter(row)
        lines.append(",".join("" if c is None else f"{next(vals):.17g}"
                              for c in columns.values()))
    assert cli._csv_bytes("# meta\n", columns).decode() == "# meta\n" + "\n".join(lines) + "\n"


class TestCsvNumbers:
    """`cli._csv_bytes` against `%.17g` one value at a time, with the numpy
    fast path on and switched off."""

    @pytest.fixture(params=["fast", "percent"], autouse=True)
    def path(self, request, monkeypatch):
        if request.param == "percent":  # _fast decides no value
            monkeypatch.setattr(_csvfmt, "_fast", lambda v, words: np.zeros(len(v), bool))

    @staticmethod
    def check(columns):
        lines = ["# meta", ",".join(columns)]
        filled = [np.asarray(c, float) for c in columns.values() if c is not None]
        for row in zip(*filled):
            vals = iter(row)
            lines.append(",".join("" if c is None else "%.17g" % next(vals)
                                  for c in columns.values()))
        want = "\n".join(lines) + "\n"
        assert cli._csv_bytes("# meta\n", columns) == want.encode()

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), n_cols=st.integers(1, 5), n_rows=st.integers(0, 30))
    def test_arbitrary_bit_patterns(self, data, n_cols, n_rows):
        bits = st.integers(0, 2 ** 64 - 1).map(
            lambda b: float(np.array(b, np.uint64).view(np.float64)))
        value = bits | st.floats(1e-12, 1e18) | st.floats(-1e18, -1e-12)
        columns = {}
        for j in range(n_cols):
            if j and data.draw(st.booleans()):
                columns[f"none{j}"] = None
            columns[f"c{j}"] = data.draw(st.lists(value, min_size=n_rows, max_size=n_rows))
        self.check(columns)

    def test_ties_and_their_neighbours(self):
        # 18-digit decimals ending in 5 lie halfway between two 17-digit ones
        rng = np.random.default_rng(5)
        x = [float(f"{rng.integers(10 ** 16, 10 ** 17)}5e{e - 17}")
             for e in range(-11, 17) for _ in range(40)]
        # odd * 2^-e is exactly the decimal odd * 5^e * 10^-e, which ends in 5
        for e in range(2, 26):
            odd = rng.integers(-(-10 ** 17 // 5 ** e), min(10 ** 18 // 5 ** e, 2 ** 53), 20) | 1
            x += [float(o) * 2.0 ** -e for o in odd]
        x = np.array(x)
        vals = np.concatenate([x, np.nextafter(x, 0), np.nextafter(x, np.inf), -x])
        self.check({"x": vals, "y": vals[::-1]})

    def test_powers_of_ten_and_their_neighbours(self):
        p = np.array([float(f"1e{k}") for k in range(-30, 31)])
        vals = np.concatenate([p, np.nextafter(p, 0), np.nextafter(p, np.inf), -p])
        self.check({"p": vals})

    def test_special_values(self):
        vals = [1e-7, -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                1.7976931348623157e308, np.nan, np.inf, -np.inf, 1e-11, 1e17,
                99999999999999984.0, 1e16 + 2, 0.1, 1 / 3, 123.0, 1e-4, 1e-5]
        self.check({"v": vals, "w": None, "u": vals[::-1], "z": None})

    @pytest.mark.parametrize("n_cols", [1, 3, 130])
    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_rows_at_block_boundaries(self, n_cols, extra):
        per_block = cli._CSV_BLOCK // n_cols
        n_rows = per_block + extra
        vals = np.random.default_rng(n_cols).standard_normal((n_rows, n_cols))
        vals[::7] = 0.0
        self.check({f"c{j}": vals[:, j] for j in range(n_cols)})

    def test_zero_rows(self):
        self.check({"t": np.empty(0), "w": None, "p": np.empty(0)})

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_all_zero_blocks(self, zero):
        vals = np.full(cli._CSV_BLOCK + 1, zero)
        self.check({"a": vals, "w": None, "b": vals})

    def test_all_zero_columns_fold_into_the_separators(self, monkeypatch):
        # an all-+0.0 column after the first is the text `0` in the separator
        # before it, the last one before the newline; an all-zero first column,
        # an all--0.0 column and one zero but in one row are formatted
        n = cli._CSV_BLOCK // 3 + 5  # two blocks of rows
        zero, one_row = np.zeros(n), np.zeros(n)
        one_row[n - 3] = 2.5
        widths = []
        rows_text = _csvfmt.rows_text
        monkeypatch.setattr(_csvfmt, "rows_text",
                            lambda block, tail: widths.append(block.shape[1]) or rows_text(block, tail))
        self.check({"first": zero, "mid": zero, "x": np.linspace(-1.0, 3.0, n), "also": zero,
                    "none": None, "neg": -zero, "one": one_row, "last": zero})
        assert set(widths) == {4}

    def test_zeros_among_other_values(self):
        vals = np.random.default_rng(7).standard_normal(600)
        vals[::3] = 0.0
        vals[1::5] = -0.0
        vals[2::50] = np.nan
        self.check({"x": vals, "y": vals[::-1], "z": -vals})

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_advection_layout_at_block_boundaries(self, extra):
        # t, 64 real and 64 imaginary columns, the imaginary ones +0.0, and a norm
        n_rows = 2 * (cli._CSV_BLOCK // 130) + extra
        rng = np.random.default_rng(extra + 2)
        columns = {"t": np.arange(n_rows) * 0.01}
        columns |= {f"re{j}": rng.standard_normal(n_rows) * 10.0 ** -j for j in range(64)}
        columns |= {f"im{j}": np.zeros(n_rows) for j in range(64)}
        columns["im3"][::4] = -0.0
        columns["norm"] = rng.random(n_rows)
        self.check(columns)


def test_fast_path_decides_all_but_near_ties():
    """`_csvfmt._fast` leaves to `%` only a value whose scaling by 10^k is
    inexact (k > 22) and whose exact fraction lies within its margin of 1/2."""
    rng = np.random.default_rng(2021)
    v = 10 ** rng.uniform(-11, 17, 10 ** 5) * rng.choice([-1.0, 1.0], 10 ** 5)
    v = v[(np.abs(v) >= 1e-11) & (np.abs(v) < 1e17)]
    n_sample = len(v)
    # binary fractions with an exact decimal tie at the 18th digit
    for e in range(2, 26):
        odd = rng.integers(-(-10 ** 17 // 5 ** e), min(10 ** 18 // 5 ** e, 2 ** 53), 20) | 1
        v = np.concatenate([v, odd * 2.0 ** -e])
    ok = _csvfmt._fast(v, np.empty((6, len(v)), np.uint64))
    for x in v[~ok]:
        E = Decimal(abs(float(x))).adjusted()
        y = Fraction(abs(float(x))) * Fraction(10) ** (16 - E)
        assert 16 - E > 22 and abs(y - math.floor(y) - Fraction(1, 2)) <= Fraction(1, 2 ** 40), x
    assert ok[:n_sample].all()  # no value of the log-uniform sample lies that close
    TestCsvNumbers.check({"v": v})


class TestRegionCommand:
    def test_fbdf1_sector_confined(self, tmp_path):
        res = run_cli("region", "--scheme", "fbdf1", "--alpha", "0.5",
                      "--h", "0.1", "--n-theta", "64", "--svg", "--out", str(tmp_path))
        assert res.returncode == 0
        _, rows = read_csv(tmp_path / "region_fbdf1_a0.5.csv")
        pts = np.array([complex(float(r[1]), float(r[2])) for r in rows])
        assert np.max(np.abs(np.angle(pts))) <= np.pi / 4 + 1e-6
        svg = (tmp_path / "region_fbdf1_a0.5.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg

    def test_l1_smoke(self, tmp_path):
        res = run_cli("region", "--scheme", "l1", "--alpha", "0.7",
                      "--h", "0.1", "--n-theta", "32", "--out", str(tmp_path))
        assert res.returncode == 0
        _, rows = read_csv(tmp_path / "region_l1_a0.7.csv")
        vals = np.array([[float(r[1]), float(r[2])] for r in rows])
        assert np.all(np.isfinite(vals))

    def test_l1_alpha_one_accepted(self, tmp_path):
        res = run_cli("region", "--scheme", "l1", "--alpha", "1", "--n-theta", "32",
                      "--out", str(tmp_path))
        assert res.returncode == 0
        assert (tmp_path / "region_l1_a1.csv").exists()

    def test_alpha_diff_has_no_region(self, tmp_path):
        res = run_cli("region", "--scheme", "alpha_diff", "--alpha", "0.5",
                      "--out", str(tmp_path))
        assert res.returncode == 2


class TestResolventCommand:
    def test_fbdf1_summary(self, tmp_path):
        res = run_cli("resolvent", "--scheme", "fbdf1", "--alpha", "0.5",
                      "--h", "0.1", "--problem", "scalar", "--b", "10",
                      "--n-max", "1200", "--out", str(tmp_path))
        assert res.returncode == 0
        summary = json.loads(
            (tmp_path / "resolvent_fbdf1_a0.5_summary.json").read_text())
        assert summary["D0_closed_form_dev"] < 1e-12
        assert abs(summary["slope_d"] + 0.5) < 0.03
        assert abs(summary["slope_D"] + 1.5) < 0.06
        header, rows = read_csv(tmp_path / "resolvent_fbdf1_a0.5.csv")
        assert header == ["n", "t", "norm_d", "norm_D"]
        assert len(rows) == 1201

    def test_singular_step_matrix_exit_code(self, tmp_path):
        # b = -1 gives lambda = 1; at h = 1 the F-BDF1 step matrix 1 - lambda is zero
        res = run_cli("resolvent", "--scheme", "fbdf1", "--alpha", "0.5",
                      "--h", "1", "--problem", "scalar", "--b", "-1",
                      "--n-max", "10", "--out", str(tmp_path))
        assert res.returncode == 3
        assert "singular" in res.stderr

    def test_overflow_exit_code_names_the_step(self, tmp_path):
        # the uncontrolled Lorenz resolvent first overflows at step 772; a real
        # process, so that a numpy overflow warning would reach stderr too
        res = subprocess.run([sys.executable, "-m", "mlstab.cli", "resolvent", "--scheme", "fbdf1",
                              "--alpha", "0.5", "--h", "0.01", "--problem", "lorenz",
                              "--no-control", "--n-max", "772", "--out", str(tmp_path)],
                             capture_output=True, text=True)
        assert res.returncode == 3
        assert res.stderr == "solver failure: non-finite state at step 772\n"

    def test_alpha_diff_quadrature_check(self, tmp_path):
        res = run_cli("resolvent", "--scheme", "alpha_diff", "--alpha", "0.5",
                      "--h", "0.1", "--problem", "lorenz", "--n-max", "30",
                      "--q-check", "20", "--q-stride", "10", "--out", str(tmp_path))
        assert res.returncode == 0
        summary = json.loads(
            (tmp_path / "resolvent_alpha_diff_a0.5_summary.json").read_text())
        assert summary["poisson_vs_impulse_max_dev"] < 1e-6

    def test_alpha_diff_check_skips_n0(self, tmp_path, monkeypatch):
        seen = []
        orig = cli.rsv.poisson_resolvent
        monkeypatch.setattr(cli.rsv, "poisson_resolvent",
                            lambda A, alpha, h, n, beta:
                            seen.append(list(n)) or orig(A, alpha, h, n, beta))
        res = run_cli("resolvent", "--scheme", "alpha_diff", "--alpha", "0.5",
                      "--h", "0.1", "--problem", "lorenz", "--n-max", "30",
                      "--q-check", "20", "--q-stride", "10", "--out", str(tmp_path))
        assert res.returncode == 0
        assert seen == [[10, 20]]  # one sweep call for every compared n

    def test_alpha_diff_quadrature_failure_exits_3(self, tmp_path, monkeypatch):
        # a Poisson value whose quadrature runs out of panels is an accuracy
        # failure that names the eigenvalue and n, not a number
        monkeypatch.setattr(cli.rsv, "_Q_PANELS", 1)
        res = run_cli("resolvent", "--scheme", "alpha_diff", "--alpha", "0.5",
                      "--h", "0.1", "--problem", "lorenz", "--n-max", "30",
                      "--q-check", "20", "--q-stride", "10", "--out", str(tmp_path))
        assert res.returncode == 3
        assert "accuracy failure: Poisson quadrature for eigenvalue" in res.stderr
        assert "n = 10" in res.stderr and "budget of 1 panels per n" in res.stderr

    def test_alpha_diff_nothing_compared_is_null(self, tmp_path):
        res = run_cli("resolvent", "--scheme", "alpha_diff", "--alpha", "0.5",
                      "--h", "0.1", "--problem", "lorenz", "--n-max", "30",
                      "--q-check", "5", "--q-stride", "10", "--out", str(tmp_path))
        assert res.returncode == 0
        summary = json.loads(
            (tmp_path / "resolvent_alpha_diff_a0.5_summary.json").read_text())
        assert summary["poisson_vs_impulse_max_dev"] is None

    def test_alpha_diff_growing_run_compared_in_range(self, tmp_path):
        # the homogeneous run of lambda = 1 + 0.5i grows to |Q_1^1000 y0| = 2.3e32
        # with no blow-up guard; at n = 500 and 1000 it is within 1.3e-11 of that
        res = run_cli("resolvent", "--scheme", "alpha_diff", "--problem", "scalar",
                      "--b", "-0.5", "--alpha", "0.5", "--h", "0.1", "--n-max", "1000",
                      "--q-check", "1000", "--q-stride", "500", "--out", str(tmp_path))
        assert res.returncode == 0, res.stderr
        summary = json.loads(
            (tmp_path / "resolvent_alpha_diff_a0.5_summary.json").read_text())
        assert "truncated_at" not in summary
        A = cli.problems.scalar_test(-0.5).A
        q = abs(cli.rsv.poisson_resolvent(A, 0.5, 0.1, 1000, 1.0)[0, 0] * 5.0)
        assert 1e32 < q and summary["poisson_vs_impulse_max_dev"] <= 1e-10 * q

    def test_alpha_diff_relative_deviation(self, tmp_path):
        # the same growing run: an absolute deviation of about 3e21 is a
        # relative one of about 1e-11, against the largest |Q_1^n y0| compared
        res = run_cli("resolvent", "--scheme", "alpha_diff", "--problem", "scalar",
                      "--b", "-0.5", "--alpha", "0.5", "--h", "0.1", "--n-max", "1000",
                      "--q-check", "1000", "--q-stride", "500", "--out", str(tmp_path))
        assert res.returncode == 0, res.stderr
        summary = json.loads(
            (tmp_path / "resolvent_alpha_diff_a0.5_summary.json").read_text())
        A = cli.problems.scalar_test(-0.5).A
        q = cli.rsv.poisson_resolvent(A, 0.5, 0.1, [500, 1000], 1.0)[:, 0, 0] * 5.0
        dev, rel = summary["poisson_vs_impulse_max_dev"], summary["poisson_vs_impulse_max_rel_dev"]
        assert 1e20 < dev and rel <= 1e-10
        assert rel == pytest.approx(dev / np.max(np.abs(q)), rel=1e-12)

    def test_alpha_diff_writes_the_impulse_outputs(self, tmp_path):
        # the same CSV, D_0 check and decay fit as the other schemes: d_n
        # decays like t^-alpha and D_n like t^-(1+alpha)
        res = run_cli("resolvent", "--scheme", "alpha_diff", "--alpha", "0.5",
                      "--h", "0.1", "--problem", "scalar", "--b", "10",
                      "--n-max", "1200", "--out", str(tmp_path))
        assert res.returncode == 0
        summary = json.loads(
            (tmp_path / "resolvent_alpha_diff_a0.5_summary.json").read_text())
        assert summary["D0_closed_form_dev"] < 1e-12
        assert abs(summary["slope_d"] + 0.5) < 0.03
        assert abs(summary["slope_D"] + 1.5) < 0.06
        assert summary["poisson_vs_impulse_max_dev"] < 1e-6
        header, rows = read_csv(tmp_path / "resolvent_alpha_diff_a0.5.csv")
        assert header == ["n", "t", "norm_d", "norm_D"]
        assert len(rows) == 1201 and rows[0][2] == "1"

    def test_alpha_diff_accuracy_failure_exit_code(self, tmp_path):
        # exp(z^(1/alpha)) in the Poisson integrand of Q_1^1000 overflows a double
        res = run_cli("resolvent", "--scheme", "alpha_diff", "--b", "-0.29", "--alpha", "0.5",
                      "--h", "1", "--n-max", "1000", "--q-check", "1000", "--q-stride", "1000",
                      "--out", str(tmp_path / "out"))
        assert res.returncode == 3
        assert res.stderr.startswith("accuracy failure: ")
        assert res.stderr.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_alpha_diff_divergent_transform_usage_error(self, tmp_path):
        res = run_cli("resolvent", "--scheme", "alpha_diff", "--problem", "lorenz",
                      "--no-control", "--alpha", "0.5", "--h", "0.1", "--n-max", "50",
                      "--out", str(tmp_path / "out"))
        assert res.returncode == 2
        assert res.stderr.startswith("error: the Poisson transform diverges for eigenvalue 11.8277")
        assert not (tmp_path / "out").exists()

    def test_alpha_diff_convergent_small_step(self, tmp_path):
        res = run_cli("resolvent", "--scheme", "alpha_diff", "--problem", "lorenz",
                      "--no-control", "--alpha", "0.5", "--h", "0.001", "--n-max", "20",
                      "--q-check", "20", "--out", str(tmp_path))
        assert res.returncode == 0
        summary = json.loads(
            (tmp_path / "resolvent_alpha_diff_a0.5_summary.json").read_text())
        assert summary["poisson_vs_impulse_max_dev"] < 1e-6


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ("resolvent", "--scheme", "fbdf1", "--h", "-0.1", "--n-max", "50"),
        ("resolvent", "--scheme", "fbdf1", "--h", "0", "--n-max", "50"),
        ("region", "--scheme", "fbdf1", "--h", "0"),
        ("region", "--scheme", "fbdf1", "--h", "-0.1"),
        ("solve", "--scheme", "fbdf1", "--h", "0.1", "--n-steps", "20", "--m", "0"),
        ("solve", "--scheme", "fbdf1", "--h", "0", "--t-end", "5"),
        ("solve", "--scheme", "fbdf1", "--h", "0.1"),
        ("resolvent", "--scheme", "alpha_diff", "--h", "0.1", "--q-check", "-1"),
        ("resolvent", "--scheme", "alpha_diff", "--h", "0.1", "--q-stride", "0"),
        ("weights", "--scheme", "l1", "--n", "0"),
        ("solve", "--scheme", "fbdf1", "--h", "0.1", "--n-steps", "3"),
        ("solve", "--scheme", "fbdf1", "--h", "0.1", "--t-end", "inf"),
        ("solve", "--scheme", "fbdf1", "--h", "0.1", "--t-end", "1e400"),
        ("solve", "--scheme", "fbdf1", "--h", "0.1", "--t-end", "nan"),
        ("solve", "--scheme", "fbdf1", "--h", "0.1", "--t-end", "5", "--checkpoints", "inf"),
        ("solve", "--scheme", "fbdf1", "--h", "0.1", "--t-end", "5", "--checkpoints", "2,nan"),
        ("solve", "--scheme", "fbdf1", "--h", "0.1", "--t-end", "5", "--checkpoints", "1,,2"),
        ("resolvent", "--scheme", "alpha_diff", "--h", "0.1", "--n-max", "-1"),
        ("region", "--scheme", "l1", "--n-theta", "9", "--svg"),
        ("solve", "--problem", "advection", "--a", "inf", "--scheme", "fbdf1", "--h", "0.1",
         "--n-steps", "20"),
        ("solve", "--problem", "advection", "--D", "inf", "--scheme", "fbdf1", "--h", "0.1",
         "--n-steps", "20"),
        ("solve", "--problem", "scalar", "--b", "inf", "--scheme", "fbdf1", "--h", "0.1",
         "--n-steps", "20"),
        ("solve", "--problem", "scalar", "--b", "nan", "--scheme", "fbdf1", "--h", "0.1",
         "--n-steps", "20"),
    ])
    def test_rejected_before_any_output(self, tmp_path, capsys, argv):
        assert cli.main([*argv, "--alpha", "0.5", "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("b", ["inf", "nan"])
    def test_non_finite_b_is_named(self, tmp_path, capsys, b):
        # not "A must be finite", which names no flag
        assert cli.main(["solve", "--problem", "scalar", "--b", b, "--scheme", "fbdf1",
                         "--alpha", "0.5", "--h", "0.1", "--n-steps", "20",
                         "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: scalar-test parameter b must be finite, got {b}\n"
        assert not (tmp_path / "out").exists()

    def test_subprocess_usage_error(self, tmp_path):
        # the installed entry point, not only cli.main
        res = subprocess.run([sys.executable, "-m", "mlstab.cli", "weights", "--scheme", "bdf9",
                              "--alpha", "0.5", "--out", str(tmp_path / "out")],
                             capture_output=True, text=True)
        assert res.returncode == 2
        assert "error: argument --scheme" in res.stderr and "'bdf9'" in res.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, size", [
        (("solve", "--h", "0.1", "--t-end", "1e300"),
         f"N = {round(1e300 / 0.1) + 5} steps (from --t-end and --h)"),
        (("solve", "--h", "1e-10", "--t-end", "1e300"), "N = inf steps (from --t-end and --h)"),
        (("solve", "--h", "0.1", "--n-steps", str(2 ** 62)), f"N = {2 ** 62} steps (from --n-steps)"),
        (("weights", "--n", str(2 ** 62)), f"--n {2 ** 62} is"),
        (("resolvent", "--h", "0.1", "--n-max", str(2 ** 62)), f"--n-max {2 ** 62} is"),
    ], ids=["t-end", "t-end-overflow", "n-steps", "weights-n", "n-max"])
    def test_run_too_large_to_allocate(self, tmp_path, capsys, argv, size):
        # numpy would refuse these arrays without allocating; the CLI names the size first
        assert cli.main([*argv, "--scheme", "fbdf1", "--alpha", "0.5",
                         "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and size in err and "too large to allocate" in err
        assert not (tmp_path / "out").exists()

    def test_weights_n_at_least_one(self, tmp_path, capsys):
        assert cli.main(["weights", "--scheme", "l1", "--alpha", "0.5", "--n", "0",
                         "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "error: --n must be at least 1, got 0\n"
        assert not (tmp_path / "out").exists()

    def test_memory_error_names_the_run(self, tmp_path, capsys, monkeypatch):
        def no_memory(*a, **k):
            raise MemoryError("Unable to allocate 14.6 TiB")

        monkeypatch.setattr(cli.slv, "solve", no_memory)
        assert cli.main(["solve", "--scheme", "fbdf1", "--alpha", "0.5", "--h", "0.1",
                         "--t-end", "1e8", "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == \
            "error: N = 1000000005 steps (from --t-end and --h) is too large to allocate\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text", ["1,,2", "10,x", "inf", "2,nan"])
    def test_checkpoints_checked_before_the_solve(self, tmp_path, capsys, monkeypatch, text):
        def no_solve(*a, **k):
            raise AssertionError("the solve ran")

        monkeypatch.setattr(cli.slv, "solve", no_solve)
        assert cli.main(["solve", "--scheme", "fbdf1", "--alpha", "0.5", "--h", "0.1",
                         "--t-end", "30", "--checkpoints", text,
                         "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == \
            f"error: --checkpoints must be comma-separated finite t values, got {text!r}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text, reason", [
        ("12.345", "checkpoint 12.345 is not on the grid (h = 0.01)"),
        ("10,80", "checkpoint 80.0 outside the computed range (t = 0.01 to 50)"),
        ("0", "checkpoint 0.0 outside the computed range (t = 0.01 to 50)"),
    ])
    def test_checkpoints_on_the_grid_before_the_solve(self, tmp_path, capsys, monkeypatch,
                                                      text, reason):
        def no_solve(*a, **k):
            raise AssertionError("the solve ran")

        monkeypatch.setattr(cli.slv, "solve", no_solve)
        assert cli.main(["solve", "--scheme", "fbdf1", "--alpha", "0.5", "--problem",
                         "advection", "--h", "0.01", "--t-end", "50", "--checkpoints", text,
                         "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: --checkpoints: {reason}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, got", [
        (("--n-steps", "3", "--m", "5"), "N = 3 (from --n-steps)"),
        (("--t-end", "0.1"), "N = 6 (from --t-end and --h)"),
        (("--n-steps", "4", "--m", "3"), "N = 4 (from --n-steps)"),
    ], ids=["n-steps", "t-end", "m"])
    def test_short_run_rejected_before_the_solve(self, tmp_path, capsys, monkeypatch,
                                                 argv, got):
        # p_index needs N >= m + 2; the run would only fail there, after the solve
        def no_solve(*a, **k):
            raise AssertionError("the solve ran")

        monkeypatch.setattr(cli.slv, "solve", no_solve)
        assert cli.main(["solve", "--scheme", "fbdf1", "--alpha", "0.5", "--h", "0.1", *argv,
                         "--out", str(tmp_path / "out")]) == 2
        m = argv[argv.index("--m") + 1] if "--m" in argv else "5"
        assert capsys.readouterr().err == \
            f"error: --m {m} needs at least {int(m) + 2} steps, got {got}\n"
        assert not (tmp_path / "out").exists()

    def test_shortest_run_accepted(self, tmp_path):
        res = run_cli("solve", "--scheme", "fbdf1", "--alpha", "0.5", "--h", "0.1",
                      "--n-steps", "7", "--m", "5", "--out", str(tmp_path))
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout)["steps"] == 7

    @pytest.mark.parametrize("scheme", ["fbdf1", "alpha_diff"])
    def test_n_max_floor_is_zero(self, tmp_path, capsys, scheme):
        # every scheme accepts --n-max 0 (d_0 = I alone) and refuses -1
        argv = ["resolvent", "--scheme", scheme, "--alpha", "0.5", "--h", "0.1"]
        assert cli.main([*argv, "--n-max", "-1", "--out", str(tmp_path / "neg")]) == 2
        assert capsys.readouterr().err == "error: --n-max must be at least 0, got -1\n"
        assert not (tmp_path / "neg").exists()
        assert cli.main([*argv, "--n-max", "0", "--out", str(tmp_path / "zero")]) == 0
        _, rows = read_csv(tmp_path / "zero" / f"resolvent_{scheme}_a0.5.csv")
        assert rows == [["0", "0", "1", rows[0][3]]]

    def test_nan_t_end_named(self, tmp_path, capsys):
        # not numpy's "cannot convert float NaN to integer"
        argv = ["solve", "--scheme", "fbdf1", "--h", "0.1", "--t-end", "nan",
                "--alpha", "0.5", "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == "error: --t-end must be finite, got nan\n"


class TestReproduceCommand:
    def test_t2(self, tmp_path):
        res = run_cli("reproduce", "t2", "--out", str(tmp_path))
        assert res.returncode == 0
        text = (tmp_path / "reproduce_T2.csv").read_text()
        assert text.count("\n") == 42  # meta + header + 40 cells
        assert ",0," not in text.split("pass\n")[1]  # no failing cells

    def test_unknown_table(self, tmp_path):
        res = run_cli("reproduce", "T9", "--out", str(tmp_path))
        assert res.returncode == 2

    def test_tolerance_override(self, tmp_path):
        res = run_cli("reproduce", "T7", "--tolerance", "1e-9", "--out", str(tmp_path))
        assert res.returncode == 4  # nothing meets an absurd tolerance

    def test_zero_offset_rejected(self, tmp_path, capsys):
        assert cli.main(["reproduce", "T7", "--m", "0", "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("error: m must be a positive integer")
        assert not (tmp_path / "out").exists()

    def test_offset_too_large_to_allocate(self, tmp_path, capsys):
        # numpy's MemoryError from the weight tables becomes a usage error
        # that names --m and the steps of each run; T4 steps its cells in
        # the eigenbasis of the advection matrix
        m = 10 ** 12
        for table in ("T2", "T4"):
            assert cli.main(["reproduce", table, "--m", str(m),
                             "--out", str(tmp_path / "out")]) == 2
            assert capsys.readouterr().err == \
                f"error: --m {m} ({m + 5000} steps) is too large to allocate\n"
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("tolerance", ["nan", "-1", "inf"])
    def test_bad_tolerance_rejected(self, tmp_path, capsys, monkeypatch, tolerance):
        def no_solve(*args, **kwargs):
            raise AssertionError("a cell ran before the arguments were checked")

        monkeypatch.setattr(cli.tables, "solve", no_solve)
        monkeypatch.setattr(cli.tables, "solve_cells", no_solve)
        out = tmp_path / "out"
        assert cli.main(["reproduce", "T2", "--tolerance", tolerance, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: tolerance must be")
        assert not out.exists()

    def test_tolerance_failure_exit_code(self, tmp_path, monkeypatch):
        from mlstab.tables import CellResult

        bad = CellResult("T2", "fbdf1", 100.0, 0.5, 0.6, 0.5009, 0.0991,
                         1e-3, True, False)
        monkeypatch.setattr(cli.tables, "reproduce", lambda *a, **k: [bad])
        code = cli.main(["reproduce", "t2", "--out", str(tmp_path)])
        assert code == 4
        assert (tmp_path / "reproduce_T2.csv").exists()  # CSV still written


class TestConfigFile:
    def test_defaults_and_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha = 0.4\nn = 4  # weight count\n")
        res = run_cli("weights", "--config", str(cfg), "--scheme", "fbdf1",
                      "--out", str(tmp_path))
        assert res.returncode == 0
        assert (tmp_path / "weights_fbdf1_a0.4.csv").exists()
        res = run_cli("weights", "--config", str(cfg), "--scheme", "fbdf1",
                      "--alpha", "0.25", "--out", str(tmp_path))
        assert res.returncode == 0
        assert (tmp_path / "weights_fbdf1_a0.25.csv").exists()

    @pytest.mark.parametrize("flag, value", [("--no-control", "false"),
                                             ("--no-control", "No"),
                                             ("--no-control", "0"),
                                             ("--control", "yes")])
    def test_control_boolean(self, tmp_path, flag, value):
        base = ["solve", "--problem", "lorenz", "--scheme", "fbdf1", "--alpha", "0.5",
                "--h", "0.1", "--n-steps", "20"]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"control = {value}\n")
        stem = "solve_lorenz_fbdf1_a0.5.csv"
        assert cli.main(base + ["--config", str(cfg), "--out", str(tmp_path / "cfg")]) == 0
        assert cli.main(base + [flag, "--out", str(tmp_path / "flag")]) == 0
        other = "--control" if flag == "--no-control" else "--no-control"
        assert cli.main(base + [other, "--out", str(tmp_path / "other")]) == 0
        got = (tmp_path / "cfg" / stem).read_text()
        assert got == (tmp_path / "flag" / stem).read_text()
        assert got != (tmp_path / "other" / stem).read_text()

    def test_bad_boolean_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("control = maybe\n")
        res = run_cli("solve", "--config", str(cfg), "--problem", "lorenz",
                      "--scheme", "fbdf1", "--alpha", "0.5", "--h", "0.1",
                      "--n-steps", "20", "--out", str(tmp_path))
        assert res.returncode == 2
        assert "control" in res.stderr
        assert not any(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("value, written", [("false", False), ("yes", True)])
    def test_svg_switch(self, tmp_path, value, written):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"svg = {value}\n")
        assert cli.main(["region", "--config", str(cfg), "--scheme", "fbdf1", "--alpha", "0.5",
                         "--n-theta", "64", "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "region_fbdf1_a0.5.csv").exists()
        assert (tmp_path / "out" / "region_fbdf1_a0.5.svg").exists() == written

    def test_bad_svg_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("svg = maybe\n")
        res = run_cli("region", "--config", str(cfg), "--scheme", "fbdf1", "--alpha", "0.5",
                      "--n-theta", "64", "--out", str(tmp_path / "out"))
        assert res.returncode == 2
        assert "svg" in res.stderr
        assert not (tmp_path / "out").exists()

    def test_table_from_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("table = t2\n")
        res = run_cli("reproduce", "--config", str(cfg), "--out", str(tmp_path))
        assert res.returncode == 0
        assert res.stdout.startswith(str(tmp_path / "reproduce_T2.csv"))

    def test_bad_value_rejected_before_output(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("h = abc\n")
        res = run_cli("solve", "--config", str(cfg), "--scheme", "fbdf1", "--alpha", "0.5",
                      "--h", "0.1", "--n-steps", "20", "--out", str(tmp_path / "out"))
        assert res.returncode == 2
        assert "bad config value h = 'abc'" in res.stderr
        assert res.stdout == "" and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("path, text, message", [
        ("missing.cfg", None, "error: cannot read config file "),
        (".", None, "error: cannot read config file "),
        ("run.cfg", "alpha = 0.4\nn 4\n", "error: bad config line: 'n 4'"),
    ], ids=["missing", "directory", "no-equals"])
    def test_unusable_file_rejected_before_output(self, tmp_path, path, text, message):
        cfg = tmp_path / path
        if text is not None:
            cfg.write_text(text)
        res = run_cli("weights", "--config", str(cfg), "--scheme", "fbdf1",
                      "--out", str(tmp_path / "out"))
        assert res.returncode == 2
        assert res.stderr.startswith(message)
        assert res.stdout == "" and not (tmp_path / "out").exists()

    def test_unknown_key_ignored(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus = 3\nn = 5\n")
        res = run_cli("weights", "--config", str(cfg), "--scheme", "fbdf1", "--alpha", "0.5",
                      "--out", str(tmp_path))
        assert res.returncode == 0
        assert len((tmp_path / "weights_fbdf1_a0.5.csv").read_text().splitlines()) == 2 + 5

    def test_config_before_the_command(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("scheme = fbdf2\nalpha = 0.4\n")
        res = run_cli("--config", str(cfg), "weights", "--out", str(tmp_path))
        assert res.returncode == 0
        assert (tmp_path / "weights_fbdf2_a0.4.csv").exists()

    def test_version_flag(self):
        # a real process: the module entry point
        res = subprocess.run([sys.executable, "-m", "mlstab.cli", "--version"],
                             capture_output=True, text=True)
        assert res.returncode == 0 and "mlstab" in res.stdout


def test_stepping_path_never_loads_scipy(tmp_path):
    # mlstab runs on numpy alone: with scipy made unimportable, every command
    # and the Gamma, zeta and Poisson paths (the L1 region, both Mittag-Leffler
    # branches, the alpha-difference Poisson check) still run
    script = """
import sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError
import contextlib, io, math
import numpy as np
import mlstab, mlstab.cli
from mlstab import cli, problems, special, weights
from mlstab.analysis import region_boundary
from mlstab.resolvent import poisson_resolvent
from mlstab.special import mittag_leffler, prabhakar, resolvent_matrix

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([*argv, "--out", sys.argv[1]]) == 0, argv

run("weights", "--scheme", "fbdf2", "--alpha", "0.5", "--n", "100")
for problem, h in (("scalar", "0.1"), ("advection", "0.01"), ("lorenz", "0.1")):
    for scheme in ("fbdf1", "fbdf2", "fadams2", "l1", "alpha_diff"):
        run("solve", "--problem", problem, "--scheme", scheme, "--alpha", "0.5", "--h", h,
            "--n-steps", "300")
run("reproduce", "T2")
run("region", "--scheme", "fbdf2", "--alpha", "0.5")
run("region", "--scheme", "l1", "--alpha", "0.5")
run("resolvent", "--scheme", "fbdf1", "--problem", "lorenz", "--alpha", "0.5", "--h", "0.1",
    "--n-max", "200")
run("resolvent", "--scheme", "alpha_diff", "--problem", "lorenz", "--alpha", "0.5", "--h", "0.1",
    "--n-max", "200", "--q-check", "200", "--q-stride", "10")
assert len(region_boundary(weights.L1, 0.5, 0.1).theta) > 0
assert abs(mittag_leffler(-1.0, 0.5) - math.exp(1.0) * math.erfc(1.0)) < 1e-15  # contour
far, ok = special._asymptotic(np.array([-30.0 + 0j]), 0.5, 1.0, 1e-13)  # expansion
assert ok[0] and mittag_leffler(-30.0, 0.5) == far[0]
assert abs(far[0] * 30.0 * math.sqrt(math.pi) - 1.0) < 1e-3  # erfcx(x) ~ 1/(x sqrt(pi))
assert np.isfinite(prabhakar(-2.0, 0.5, 1.0, 2))
A = problems.lorenz_controlled(alpha=0.5).A
assert resolvent_matrix(A, 0.5, 0.5, 2.0).shape == (3, 3)
assert poisson_resolvent(A, 0.5, 0.1, 10, 1.0).shape == (3, 3)
assert poisson_resolvent(A, 0.5, 0.1, range(10, 201, 10), 1.0).shape == (20, 3, 3)
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert loaded == ["scipy"] and sys.modules["scipy"] is None, loaded
"""
    res = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
