"""The three benchmark workloads: their inputs, how each operation runs, and
the checks on each operation's output.

Operations go through the public entry points a user calls: in-process
`mlstab.cli.main(argv)`, and the library where the CLI has no command.  An
operation fails on a nonzero exit, an exception, or a failed output check.

The seed draws alpha from {0.3, 0.5, 0.7, 0.9} for each `solve_long`
operation, both `region` operations and both scalar `resolvent` operations;
it touches neither the Poisson alphas nor the paper grids.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("solve_long", "paper_grids", "diagnostics")
ALPHAS = (0.3, 0.5, 0.7, 0.9)

SCALAR_SCHEMES = ("fbdf1", "fbdf2", "fadams2", "l1", "alpha_diff")
SCALAR_T_END, SCALAR_H = 2000.0, 0.1
SCALAR_CHECKPOINTS = (500.0, 1000.0, 1500.0, 2000.0)
ADVECTION_T_END, ADVECTION_H = 50.0, 0.01
ADVECTION_CHECKPOINTS = (12.5, 25.0, 37.5, 50.0)
P_OFFSET = 5  # the CLI's default --m: a run has round(t_end/h) + 5 steps
PAPER_TABLES = ("T2", "T4", "T6", "T7")
POISSON_ALPHAS = (0.3, 0.9)  # fixed: the mpmath fallback's cost varies tenfold with alpha
POISSON_N, LORENZ_H = 100, 0.1

#: tolerances of the output checks, all met at the commit the references come from.
TRAJECTORY_RTOL = 1e-12  # of max_n ||y_n||
SLOPE_TOL = 0.02
REGION_ARG_TOL = 1e-6    # criterion 10e
RESOLVENT_SLOPE_D_TOL, RESOLVENT_SLOPE_DD_TOL = 0.02, 0.05  # criterion 7
D0_TOL = 1e-12           # criterion 9
POISSON_TOL = 1e-6       # criterion 8

REFERENCE_PATH = Path(__file__).with_name("reference.json")


@dataclass(frozen=True)
class Op:
    """One operation: a CLI argv (without --out) or a library call by name."""

    kind: str                # the check that applies, e.g. "solve_scalar"
    alpha: float
    argv: tuple[str, ...] = ()
    scheme: str = ""

    @property
    def label(self) -> str:
        if self.argv:
            return "mlstab " + " ".join(self.argv)
        return f"library {self.kind} scheme={self.scheme or '-'} alpha={self.alpha:g}"


def solve_argv(problem: str, scheme: str, alpha: float) -> tuple[str, ...]:
    if problem == "scalar":
        return ("solve", "--problem", "scalar", "--b", "10", "--h", f"{SCALAR_H:g}",
                "--t-end", f"{SCALAR_T_END:g}",
                "--checkpoints", ",".join(f"{t:g}" for t in SCALAR_CHECKPOINTS),
                "--scheme", scheme, "--alpha", f"{alpha:g}")
    return ("solve", "--problem", "advection", "--nx", "64", "--scheme", scheme,
            "--h", f"{ADVECTION_H:g}", "--t-end", f"{ADVECTION_T_END:g}",
            "--alpha", f"{alpha:g}")


def make_inputs(seed: int) -> dict[str, list[Op]]:
    """The operations of every workload; the same seed gives the same inputs."""
    rng = random.Random(seed)
    solve_alphas = [rng.choice(ALPHAS) for _ in range(len(SCALAR_SCHEMES) + 1)]
    region_alphas = [rng.choice(ALPHAS) for _ in range(2)]
    resolvent_alphas = [rng.choice(ALPHAS) for _ in range(2)]

    solve_long = [Op("solve_scalar", a, solve_argv("scalar", s, a), s)
                  for s, a in zip(SCALAR_SCHEMES, solve_alphas)]
    solve_long.append(Op("solve_advection", solve_alphas[-1],
                         solve_argv("advection", "fbdf1", solve_alphas[-1]), "fbdf1"))

    paper_grids = [Op("reproduce", 0.0, ("reproduce", t)) for t in PAPER_TABLES]

    diagnostics = [
        Op("region", region_alphas[0],
           ("region", "--scheme", "l1", "--alpha", f"{region_alphas[0]:g}",
            "--n-theta", "256"), "l1"),
        Op("region", region_alphas[1],
           ("region", "--scheme", "fbdf2", "--alpha", f"{region_alphas[1]:g}"), "fbdf2"),
    ]
    for scheme, a in zip(("fbdf1", "l1"), resolvent_alphas):
        diagnostics.append(Op("resolvent_scalar", a,
                              ("resolvent", "--scheme", scheme, "--problem", "scalar",
                               "--alpha", f"{a:g}", "--h", "0.1", "--n-max", "5000"), scheme))
    diagnostics.append(Op("impulse_perturbation", 0.5, scheme="fbdf2"))
    diagnostics.append(Op("resolvent_poisson", 0.5,
                          ("resolvent", "--scheme", "alpha_diff", "--problem", "lorenz",
                           "--alpha", "0.5", "--h", f"{LORENZ_H:g}", "--n-max", "200",
                           "--q-check", "200", "--q-stride", "10"), "alpha_diff"))
    diagnostics += [Op("poisson", a) for a in POISSON_ALPHAS]
    return {"solve_long": solve_long, "paper_grids": paper_grids,
            "diagnostics": diagnostics}


@dataclass
class Outcome:
    """What one operation returned: exit code, captured stdout, library value."""

    rc: int = 0
    stdout: str = ""
    value: object = None
    error: str = ""


@dataclass
class Context:
    """Inputs built once at set-up: the problems the library operations use."""

    lorenz_A: object = None
    perturbation_problem: object = None


def build_context() -> Context:
    import dataclasses

    from mlstab import problems
    lorenz = problems.lorenz_controlled(alpha=0.5)
    return Context(lorenz_A=lorenz.A,
                   perturbation_problem=dataclasses.replace(lorenz, lipschitz_bound=0.01))


def run_op(op: Op, ctx: Context, out_dir: Path) -> Outcome:
    """Run one operation; an exception becomes a failed outcome."""
    import mlstab.cli
    from mlstab import analysis
    from mlstab import resolvent as rsv

    out = Outcome()
    try:
        if op.argv:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                try:
                    out.rc = mlstab.cli.main([*op.argv, "--out", str(out_dir)])
                except SystemExit as exc:  # argparse usage errors
                    out.rc = exc.code if isinstance(exc.code, int) else 2
            out.stdout = buf.getvalue()
        elif op.kind == "impulse_perturbation":
            r = rsv.impulse_resolvent(op.scheme, ctx.lorenz_A, op.alpha, LORENZ_H, 1000)
            rsv.verify_resolvent_decay(r)
            out.value = analysis.perturbation_check(ctx.perturbation_problem, r)
        elif op.kind == "poisson":
            out.value = rsv.poisson_resolvent(ctx.lorenz_A, op.alpha, LORENZ_H, POISSON_N, 1.0)
        else:
            raise ValueError(f"unknown library operation {op.kind!r}")
    except Exception as exc:  # an operation failure, counted and reported
        out.error = f"{type(exc).__name__}: {exc}"
    return out


# ---------------------------------------------------------------- checks

def reference_key(problem: str, scheme: str, alpha: float) -> str:
    return f"{problem}/{scheme}/{alpha:g}"


def load_references() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def checkpoint_indices(problem: str) -> list[int]:
    """Grid indices of the checked states: the checkpoints and the final step."""
    if problem == "scalar":
        ts, h, t_end = SCALAR_CHECKPOINTS, SCALAR_H, SCALAR_T_END
    else:
        ts, h, t_end = ADVECTION_CHECKPOINTS, ADVECTION_H, ADVECTION_T_END
    return [int(round(t / h)) for t in ts] + [int(round(t_end / h)) + P_OFFSET]


def read_trajectory_rows(path: Path, indices: list[int]) -> tuple[int, dict[int, list[complex]]]:
    """Number of states in a `solve` CSV, and the states at `indices`."""
    lines = path.read_text().splitlines()
    rows = lines[2:]  # metadata comment, header
    states = {}
    for n in indices:
        if n < len(rows):
            vals = [float(v) for v in rows[n].split(",")[1:-1]]
            states[n] = [complex(re, im) for re, im in zip(vals[0::2], vals[1::2])]
    return len(rows), states


def compare_states(ref: dict, n_states: int, states: dict[int, list[complex]]) -> list[str]:
    """Reference states vs computed ones, within TRAJECTORY_RTOL of max_n ||y_n||."""
    problems = []
    if n_states != ref["n_steps"] + 1:
        problems.append(f"{n_states} states, expected {ref['n_steps'] + 1}")
    tol = TRAJECTORY_RTOL * ref["max_norm"]
    for n, want in zip(ref["indices"], ref["states"]):
        got = states.get(n)
        if got is None or len(got) != len(want):
            problems.append(f"state {n} missing")
            continue
        dev = max(abs(g - complex(re, im)) for g, (re, im) in zip(got, want))
        if not dev <= tol:
            problems.append(f"state {n} deviates by {dev:.3g} (tolerance {tol:.3g})")
    return problems


def _expected_slope(scheme: str, alpha: float) -> float:
    # the alpha-difference ("difference" variant) trajectories decay one power faster
    return 1.0 + alpha if scheme == "alpha_diff" else alpha


def _summary(out_dir: Path, stem: str) -> dict:
    return json.loads((out_dir / f"{stem}_summary.json").read_text())


def check_op(op: Op, outcome: Outcome, out_dir: Path, refs: dict) -> list[str]:
    """Problems found in one operation's output; empty when it is correct."""
    if outcome.error:
        return [outcome.error]
    if outcome.rc != 0:
        return [f"exit code {outcome.rc}"]
    try:
        return _check_output(op, outcome, out_dir, refs)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def failures_of(ops, outcomes, dirs, refs: dict) -> list[str]:
    """One line per failed operation of a pass."""
    out = []
    for op, outcome, d in zip(ops, outcomes, dirs):
        problems = check_op(op, outcome, d, refs)
        if problems:
            out.append(f"{op.label}: {'; '.join(problems)}")
    return out


def _check_output(op: Op, outcome: Outcome, out_dir: Path, refs: dict) -> list[str]:
    problems: list[str] = []
    if op.kind in ("solve_scalar", "solve_advection"):
        problem = "scalar" if op.kind == "solve_scalar" else "advection"
        stem = f"solve_{problem}_{op.scheme}_a{op.alpha:g}"
        ref = refs[reference_key(problem, op.scheme, op.alpha)]
        n_states, states = read_trajectory_rows(out_dir / f"{stem}.csv", ref["indices"])
        problems += compare_states(ref, n_states, states)
        summary = _summary(out_dir, stem)
        want = _expected_slope(op.scheme, op.alpha)
        if summary["verdict"] != "DECAYS":
            problems.append(f"verdict {summary['verdict']}")
        if not abs(summary["fitted_slope"] - want) <= SLOPE_TOL:
            problems.append(f"fitted_slope {summary['fitted_slope']:.4f}, expected {want:g}")
    elif op.kind == "region":
        lines = (out_dir / f"region_{op.scheme}_a{op.alpha:g}.csv").read_text().splitlines()
        args = [abs(math.atan2(float(im), float(re)))
                for _, re, im in (line.split(",") for line in lines[2:])]
        excess = max(args) - op.alpha * math.pi / 2.0
        if not excess <= REGION_ARG_TOL:
            problems.append(f"boundary arg excess {excess:.3g}")
    elif op.kind == "resolvent_scalar":
        s = _summary(out_dir, f"resolvent_{op.scheme}_a{op.alpha:g}")
        if not abs(s["slope_d"] + op.alpha) <= RESOLVENT_SLOPE_D_TOL:
            problems.append(f"slope_d {s['slope_d']:.4f}")
        if not abs(s["slope_D"] + op.alpha + 1.0) <= RESOLVENT_SLOPE_DD_TOL:
            problems.append(f"slope_D {s['slope_D']:.4f}")
        if not s["D0_closed_form_dev"] <= D0_TOL:
            problems.append(f"D0_closed_form_dev {s['D0_closed_form_dev']:.3g}")
    elif op.kind == "resolvent_poisson":
        s = _summary(out_dir, f"resolvent_{op.scheme}_a{op.alpha:g}")
        if not s["poisson_vs_impulse_max_dev"] <= POISSON_TOL:
            problems.append(f"poisson_vs_impulse_max_dev {s['poisson_vs_impulse_max_dev']:.3g}")
    elif op.kind == "impulse_perturbation":
        if not outcome.value.passed:
            problems.append(f"perturbation check failed: rho0 = {outcome.value.rho0:.4g}")
    elif op.kind == "poisson":
        dev = poisson_deviation(outcome.value, op.alpha)
        if not dev <= POISSON_TOL:
            problems.append(f"Q1^{POISSON_N} vs poisson-variant d_n: {dev:.3g}")
    elif op.kind != "reproduce":  # reproduce is checked by its exit code
        problems.append(f"no check for {op.kind!r}")
    return problems


def poisson_deviation(q1, alpha: float) -> float:
    """max |Q1^n - d_n| with d_n from the poisson-variant alpha-difference run."""
    import numpy as np

    from mlstab import problems
    from mlstab.solver import FOdeProblem, solve_alpha_diff
    A = problems.lorenz_controlled(alpha=alpha).A
    eye = np.eye(A.shape[0], dtype=complex)
    cols = [solve_alpha_diff(FOdeProblem(alpha, A, eye[:, i]), LORENZ_H, POISSON_N,
                             variant="poisson").states[POISSON_N]
            for i in range(A.shape[0])]
    return float(np.max(np.abs(np.asarray(q1) - np.stack(cols, axis=1))))
