import contextlib
import io
import json
import subprocess
import sys

import numpy as np
import pytest

from mlstab import cli


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
        res = run_cli("weights", "--scheme", "fbdf2", "--alpha", "1.0",
                      "--out", str(tmp_path))
        assert res.returncode == 2
        assert "alpha" in res.stderr

    def test_unknown_scheme_rejected(self, tmp_path):
        res = run_cli("weights", "--scheme", "bdf9", "--alpha", "0.5",
                      "--out", str(tmp_path))
        assert res.returncode == 2


class TestSolveCommand:
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
        got = cli._trajectory_csv(traj, "# meta\n")
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
    assert cli._csv("# meta\n", columns) == "# meta\n" + "\n".join(lines) + "\n"


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
                            lambda A, alpha, h, n, beta: seen.append(n) or orig(A, alpha, h, n, beta))
        res = run_cli("resolvent", "--scheme", "alpha_diff", "--alpha", "0.5",
                      "--h", "0.1", "--problem", "lorenz", "--n-max", "30",
                      "--q-check", "20", "--q-stride", "10", "--out", str(tmp_path))
        assert res.returncode == 0
        assert seen == [10, 20]

    def test_alpha_diff_nothing_compared_is_null(self, tmp_path):
        res = run_cli("resolvent", "--scheme", "alpha_diff", "--alpha", "0.5",
                      "--h", "0.1", "--problem", "lorenz", "--n-max", "30",
                      "--q-check", "5", "--q-stride", "10", "--out", str(tmp_path))
        assert res.returncode == 0
        summary = json.loads(
            (tmp_path / "resolvent_alpha_diff_a0.5_summary.json").read_text())
        assert summary["poisson_vs_impulse_max_dev"] is None

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
    ])
    def test_rejected_before_any_output(self, tmp_path, capsys, argv):
        assert cli.main([*argv, "--alpha", "0.5", "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("error: ")
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
        (("solve", "--h", "0.1", "--n-steps", str(2 ** 62)), f"N = {2 ** 62} steps (from --n-steps)"),
        (("weights", "--n", str(2 ** 62)), f"--n {2 ** 62} is"),
        (("resolvent", "--h", "0.1", "--n-max", str(2 ** 62)), f"--n-max {2 ** 62} is"),
    ], ids=["t-end", "n-steps", "weights-n", "n-max"])
    def test_run_too_large_to_allocate(self, tmp_path, capsys, argv, size):
        # numpy would refuse these arrays without allocating; the CLI names the size first
        assert cli.main([*argv, "--scheme", "fbdf1", "--alpha", "0.5",
                         "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and size in err and "too large to allocate" in err
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

    @pytest.mark.parametrize("tolerance", ["nan", "-1", "inf"])
    def test_bad_tolerance_rejected(self, tmp_path, capsys, monkeypatch, tolerance):
        def no_solve(*args, **kwargs):
            raise AssertionError("a cell ran before the arguments were checked")

        monkeypatch.setattr(cli.tables, "solve", no_solve)
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
