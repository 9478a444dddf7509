"""Command-line front end.

Subcommands: weights, solve, reproduce, region, resolvent.  Every command
honors --out DIR and writes only inside it; outputs are deterministic
(identical config gives byte-identical files).  Exit codes: 0 success,
2 usage error, 3 solver failure (or a Mittag-Leffler or Poisson value no
double-precision rule can serve), 4 tolerance failure in reproduce.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, _csvfmt, analysis, problems, tables
from . import resolvent as rsv
from . import solver as slv
from . import weights as wt
from .special import AccuracyError

_EXIT_USAGE = 2
_EXIT_SOLVER = 3
_EXIT_TOLERANCE = 4


def _meta_line(**kv) -> str:
    parts = [f"mlstab v{__version__}"]
    parts += [f"{k}={v}" for k, v in kv.items() if v is not None]
    return "# " + " ".join(parts) + "\n"


def _write(out_dir: str, name: str, data: bytes) -> Path:
    root = Path(out_dir)
    root.mkdir(parents=True, exist_ok=True)
    path = root / name
    path.write_bytes(data)
    return path


#: values formatted per block by _csv_bytes; a block bounds the temporaries
#: (4096 to 16384 values format the solve_long benchmark's CSVs in the same time).
_CSV_BLOCK = 4096


def _csv_bytes(meta: str, columns: dict) -> bytes:
    """meta, the column names, then the rows in %.17g (which round-trips a
    double); a None column after the first leaves its field empty.  A column
    after the first whose values are all +0.0 (every bit 0) is the constant
    text `0` in the separator before it, so no value of it is formatted."""
    filled, seps = [], []  # the formatted columns, the text after each
    for j, c in enumerate(columns.values()):
        if j:
            seps[-1] += ","
            if c is None:
                continue
            c = np.asarray(c, dtype=float)
            if not c.view(np.uint64).any():
                seps[-1] += "0"
                continue
        filled.append(c)
        seps.append("")
    seps[-1] += "\n"
    table = np.empty((len(filled[0]), len(filled)))
    for j, c in enumerate(filled):
        table[:, j] = c
    tail = _csvfmt.tails(seps)
    step = max(1, _CSV_BLOCK // len(filled))
    return b"".join([(meta + ",".join(columns) + "\n").encode(),
                     *(_csvfmt.rows_text(table[i:i + step], tail)
                       for i in range(0, len(table), step))])


def _summary(out_dir: str, name: str, summary: dict) -> int:
    """Write a JSON summary, print it, and return exit code 0."""
    text = json.dumps(summary, indent=2, sort_keys=True) + "\n"
    _write(out_dir, name, text.encode())
    print(text, end="")
    return 0


@contextlib.contextmanager
def _allocation(size: str, n: int):
    """Report a run too large to allocate as a usage error naming `size`, the
    count n of its steps or terms, and its flags.  Every command builds its
    table of about n weights before any state array: that raises the
    MemoryError caught here, unless numpy cannot even index n + 1 values."""
    error = ValueError(f"{size} is too large to allocate")
    if 16 * (n + 1) > sys.maxsize:  # numpy refuses it without naming the count
        raise error
    try:
        yield
    except MemoryError:
        raise error from None


def _add_common(add, p: argparse.ArgumentParser, schemes=wt.SCHEMES) -> None:
    add(p, "--scheme", required=True, type=wt.scheme_name, choices=list(schemes))
    add(p, "--alpha", required=True, type=float)
    add(p, "--out", default=".", help="output directory (default: cwd)")


def _add_problem_flags(add, p: argparse.ArgumentParser) -> None:
    add(p, "--problem", default="scalar", choices=["scalar", "advection", "lorenz"])
    add(p, "--b", type=float, default=10.0, help="scalar-test parameter")
    add(p, "--y0", type=float, default=5.0, help="scalar-test initial value")
    add(p, "--a", type=float, default=0.1, help="advection speed")
    add(p, "--D", type=float, default=5.0, help="diffusion coefficient")
    add(p, "--nx", type=int, default=64, help="advection grid size")
    add(p, "--control", action=argparse.BooleanOptionalAction, default=True,
        help="apply the Lorenz feedback")


def _problem_from_args(args) -> slv.FOdeProblem:
    return problems.by_name(args.problem, args.alpha, b=args.b, y0=args.y0,
                            a=args.a, D=args.D, nx=args.nx, control=args.control)


def cmd_weights(args) -> int:
    n = args.n
    if n < 1:
        raise ValueError(f"--n must be at least 1, got {n}")
    with _allocation(f"--n {n}", n):
        w = wt.scheme_weights(args.scheme, args.alpha, n)
        meta = _meta_line(cmd="weights", scheme=args.scheme, alpha=args.alpha, n=n)
        data = _csv_bytes(meta, {"n": np.arange(n), "mu": w.mu[:n],
                                 "omega": None if w.omega is None else w.omega[:n],
                                 "sigma": None if w.sigma is None else w.sigma[:n]})
    print(_write(args.out, f"weights_{args.scheme}_a{args.alpha:g}.csv", data))
    return 0


def _trajectory_columns(traj: slv.Trajectory) -> dict:
    columns = {"t": traj.times}
    for i, y in enumerate(traj.states.T):
        columns[f"y{i}_re"], columns[f"y{i}_im"] = y.real, y.imag
    columns["norm"] = traj.norms()
    return columns


def _checkpoint_times(text: str) -> list[float]:
    """The t values of a --checkpoints list ("" for none), checked before the
    run: an entry that is not a finite number raises ValueError."""
    error = ValueError(f"--checkpoints must be comma-separated finite t values, got {text!r}")
    try:
        ts = [float(s) for s in text.split(",")] if text else []
    except ValueError:
        raise error from None
    if not all(map(math.isfinite, ts)):
        raise error
    return ts


def cmd_solve(args) -> int:
    if args.m < 1:
        raise ValueError(f"--m must be at least 1, got {args.m}")
    checkpoints = _checkpoint_times(args.checkpoints)
    slv._check_grid(args.h)  # N below divides by h
    prob = _problem_from_args(args)
    if args.t_end is not None:
        if not math.isfinite(args.t_end):
            raise ValueError(f"--t-end must be finite, got {args.t_end}")
        steps = args.t_end / args.h  # inf when the quotient overflows
        N = int(round(steps)) + args.m if math.isfinite(steps) else steps
        flags = "--t-end and --h"
    elif args.n_steps is not None:
        N, flags = args.n_steps, "--n-steps"
    else:
        raise ValueError("one of --t-end/--n-steps is required")
    if N < 1:
        raise ValueError("empty run: increase --t-end or --n-steps")
    if N < args.m + 2:  # p_index's least length, before the run
        raise ValueError(f"--m {args.m} needs at least {args.m + 2} steps, "
                         f"got N = {N} (from {flags})")
    for t in checkpoints:  # on the grid and in range, before the run
        try:
            analysis._checkpoint_index(t, args.h, N, args.m)
        except ValueError as exc:
            raise ValueError(f"--checkpoints: {exc}") from None
    with _allocation(f"N = {N} steps (from {flags})", N):
        traj = slv.solve(prob, args.scheme, args.h, N)
    # every output is built before the first write: a usage error leaves --out untouched
    report = analysis.p_index(traj, m=args.m)
    summary = {
        "scheme": args.scheme,
        "alpha": args.alpha,
        "h": args.h,
        "steps": traj.n_steps,
        "truncated_at": traj.truncated_at,
        "fitted_slope": report.fitted_slope,
        "fitted_constant": report.fitted_constant,
        "verdict": report.verdict,
    }
    if checkpoints:
        summary["p_at"] = {f"{t:g}": round(p, 4)
                           for t, p in analysis.p_at_checkpoints(traj, checkpoints, m=args.m)}
    meta = _meta_line(cmd="solve", scheme=args.scheme, alpha=args.alpha, h=args.h,
                      problem=args.problem)
    stem = f"solve_{args.problem}_{args.scheme}_a{args.alpha:g}"
    _write(args.out, stem + ".csv", _csv_bytes(meta, _trajectory_columns(traj)))
    _write(args.out, stem + "_pindex.csv",
           _csv_bytes(meta, {"t": report.times, "p_alpha": report.p}))
    return _summary(args.out, stem + "_summary.json", summary)


def cmd_reproduce(args) -> int:
    N = tables._steps(tables._SPECS[args.table.upper()], args.m)
    with _allocation(f"--m {args.m} ({N} steps)", N):
        cells = tables.reproduce(args.table, m=args.m, tolerance=args.tolerance)
    meta = _meta_line(cmd="reproduce", table=args.table.upper(), m=args.m)
    path = _write(args.out, f"reproduce_{args.table.upper()}.csv",
                  (meta + tables.results_to_csv(cells)).encode())
    n_fail = sum(1 for c in cells if not c.passed)
    asserted = [c for c in cells if c.asserted]
    worst = max((c.deviation for c in asserted), default=0.0)
    print(f"{path}: {len(cells)} cells, {len(asserted)} asserted, "
          f"worst asserted deviation {worst:.2e}, {n_fail} failing")
    return _EXIT_TOLERANCE if n_fail else 0


def _sector_svg(sample: analysis.RegionSample) -> str:
    pts = sample.boundary
    xs, ys = pts.real, pts.imag
    span = max(np.max(np.abs(xs)), np.max(np.abs(ys)), 1e-9) * 1.1
    scale = 240.0 / span

    def sx(x):
        return 250.0 + scale * x

    def sy(y):
        return 250.0 - scale * y

    poly = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
    ang = sample.alpha * math.pi / 2.0
    rays = []
    for s in (1, -1):
        rays.append(f'<line x1="{sx(0):.2f}" y1="{sy(0):.2f}" '
                    f'x2="{sx(span * math.cos(s * ang)):.2f}" '
                    f'y2="{sy(span * math.sin(s * ang)):.2f}" '
                    'stroke="red" stroke-dasharray="4 3"/>')
    return (
        '<svg xmlns="http://www.w3.org/2000/svg" width="500" height="500" '
        'viewBox="0 0 500 500">\n'
        f'<polyline points="{poly}" fill="none" stroke="black"/>\n'
        + "\n".join(rays) + "\n</svg>\n"
    )


def cmd_region(args) -> int:
    sample = analysis.region_boundary(args.scheme, args.alpha, args.h,
                                      n_theta=args.n_theta)
    meta = _meta_line(cmd="region", scheme=args.scheme, alpha=args.alpha, h=args.h)
    stem = f"region_{args.scheme}_a{args.alpha:g}"
    path = _write(args.out, stem + ".csv",
                  _csv_bytes(meta, {"theta": sample.theta, "re": sample.boundary.real,
                                    "im": sample.boundary.imag}))
    if args.svg:
        _write(args.out, stem + ".svg", _sector_svg(sample).encode())
    print(path)
    return 0


def cmd_resolvent(args) -> int:
    """The impulse resolvent pair of any scheme: its norms as CSV, and a
    summary with the D_0 check and the decay fit.  For alpha_diff the summary
    also holds the largest |(Q_1^n - d_n) y0| over the strided n, and that
    divided by the largest |Q_1^n y0| there, computed before anything is
    written."""
    if args.q_check < 0:
        raise ValueError(f"--q-check must be at least 0, got {args.q_check}")
    if args.q_stride < 1:
        raise ValueError(f"--q-stride must be at least 1, got {args.q_stride}")
    if args.n_max < 0:
        raise ValueError(f"--n-max must be at least 0, got {args.n_max}")
    prob = _problem_from_args(args)
    with _allocation(f"--n-max {args.n_max}", args.n_max):
        r = rsv.impulse_resolvent(args.scheme, prob.A, args.alpha, args.h, args.n_max)
    summary: dict = {"scheme": args.scheme, "alpha": args.alpha, "h": args.h,
                     "n_max": args.n_max}
    if args.scheme == wt.ALPHA_DIFF:  # d_n = Q_1^n for n >= 1, checked before any write
        ns = list(range(args.q_stride, min(args.n_max, args.q_check) + 1, args.q_stride))
        q = rsv.poisson_resolvent(prob.A, args.alpha, args.h, ns, 1.0)
        dev = scale = None
        if ns:
            dev = float(np.max(np.abs((q - r.d[ns]) @ prob.y0)))
            scale = float(np.max(np.abs(q @ prob.y0)))
        summary["poisson_vs_impulse_max_dev"] = dev
        summary["poisson_vs_impulse_max_rel_dev"] = dev / scale if scale else None
    meta = _meta_line(cmd="resolvent", scheme=args.scheme, alpha=args.alpha, h=args.h)
    stem = f"resolvent_{args.scheme}_a{args.alpha:g}"
    _write(args.out, stem + ".csv",
           _csv_bytes(meta, {"n": np.arange(len(r.times)), "t": r.times,
                             "norm_d": r.norm_d, "norm_D": r.norm_D}))

    d0_dev = float(np.max(np.abs(r.D[0] - rsv.d0_closed_form(args.scheme, prob.A,
                                                             args.alpha, args.h))))
    summary["D0_closed_form_dev"] = d0_dev
    try:
        rep = rsv.verify_resolvent_decay(r)
        summary.update(slope_d=rep.slope_d, slope_D=rep.slope_D,
                       sup_t_alpha_d=rep.sup_t_alpha_d,
                       sup_t_alpha1_D=rep.sup_t_alpha1_D,
                       applicable=rep.applicable)
    except rsv.InsufficientRangeError as exc:
        summary["decay_fit"] = f"not available: {exc}"
    return _summary(args.out, stem + "_summary.json", summary)


def _load_config(path: str) -> dict:
    """The `key = value` lines of a --config file; a file that cannot be read
    or a line without '=' raises ValueError."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc.strerror}") from exc
    out = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line: {raw!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        out[key.replace("-", "_")] = val
    return out


_BOOLEANS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def build_parser(config: dict | None = None) -> argparse.ArgumentParser:
    """The mlstab parser; `config` maps flag keys to --config strings, which
    become the defaults of their flags (exit 2 if one does not convert)."""
    config = config or {}
    parser = argparse.ArgumentParser(
        prog="mlstab",
        description="Caputo fractional-ODE schemes and their long-time decay diagnostics",
    )
    parser.add_argument("--version", action="version", version=f"mlstab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    bad = []  # reported once the usage line lists every command

    def add(p: argparse.ArgumentParser, *flags, **kwargs) -> None:
        action = p.add_argument(*flags, **kwargs)
        raw = config.get(action.dest)
        if raw is None:
            return
        try:  # converted the way the flag converts it; a switch takes _BOOLEANS
            action.default = (_BOOLEANS[raw.lower()] if action.nargs == 0
                              else (action.type or str)(raw))
        except (KeyError, ValueError, argparse.ArgumentTypeError):
            bad.append(f"bad config value {action.dest} = {raw!r}")
        action.required = False  # the config supplies it
        if not action.option_strings:
            action.nargs = "?"

    p = sub.add_parser("weights", help="dump a scheme's weight table as CSV")
    _add_common(add, p)
    add(p, "--n", type=int, default=32, help="number of weights")
    p.set_defaults(func=cmd_weights)

    p = sub.add_parser("solve", help="run a scheme on a named problem")
    _add_common(add, p)
    _add_problem_flags(add, p)
    add(p, "--h", type=float, required=True)
    add(p, "--t-end", type=float, default=None)
    add(p, "--n-steps", type=int, default=None)
    add(p, "--m", type=int, default=5, help="index offset of p")
    add(p, "--checkpoints", default="", help="comma-separated t values")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("reproduce", help="recompute a reference grid")
    add(p, "table", choices=[t.lower() for t in tables.TABLE_IDS] + list(tables.TABLE_IDS))
    add(p, "--m", type=int, default=5)
    add(p, "--tolerance", type=float, default=None,
        help="override the grid's per-cell tolerance")
    add(p, "--out", default=".")
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("region", help="sample a stability-region boundary")
    _add_common(add, p, schemes=(wt.FBDF1, wt.FBDF2, wt.FADAMS2, wt.L1))
    add(p, "--h", type=float, default=0.1)
    add(p, "--n-theta", type=int, default=2048,
        help="number of theta samples on the unit circle (even, at least 8)")
    add(p, "--svg", action="store_true", help="also write an SVG sketch")
    p.set_defaults(func=cmd_region)

    p = sub.add_parser("resolvent", help="extract discrete resolvents and their decay")
    _add_common(add, p)
    _add_problem_flags(add, p)
    add(p, "--h", type=float, required=True)
    add(p, "--n-max", type=int, default=2000)
    add(p, "--q-check", type=int, default=50,
        help="alpha-diff only: compare Q1^n up to this n")
    add(p, "--q-stride", type=int, default=10,
        help="alpha-diff only: compare at n = stride, 2 stride, ...")
    p.set_defaults(func=cmd_resolvent)
    if bad:
        parser.error(bad[0])
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    config = {}
    if "--config" in argv:
        i = argv.index("--config")
        try:
            cfg_path = argv[i + 1]
        except IndexError:
            print("--config requires a path", file=sys.stderr)
            return _EXIT_USAGE
        try:
            config = _load_config(cfg_path)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return _EXIT_USAGE
        del argv[i:i + 2]
    parser = build_parser(config)
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except slv.SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return _EXIT_SOLVER
    except AccuracyError as exc:
        print(f"accuracy failure: {exc}", file=sys.stderr)
        return _EXIT_SOLVER
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
