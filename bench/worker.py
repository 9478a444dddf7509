"""One workload process: set up, signal ready, run passes, check outputs.

Started by bench/run.py, never by hand:

    python3 bench/worker.py --workload W --seed N --seconds S --trace 0|1 \
        --work-dir DIR --spans-file FILE [--setup-only]

Set-up imports mlstab from the checkout's `src/`, builds the inputs and makes
one small warm-up call per code path, then prints `READY`.  A pass runs every
operation of the workload back to back (closed loop, one client); passes
repeat until `--seconds` have elapsed.  With `--trace 1` untraced and traced
passes alternate, starting untraced.  Output checks run after each pass,
outside its timing.  The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import shutil
import statistics
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_mlstab():
    """Import mlstab from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    import mlstab
    import mlstab.cli  # noqa: F401  (the CLI is a layer of its own)
    if Path(mlstab.__file__).resolve().parent != (SRC / "mlstab").resolve():
        raise ImportError(f"mlstab imported from {mlstab.__file__}, not from {SRC}")
    return mlstab


def _warm_up_argvs(workload: str) -> list[list[str]]:
    """One small CLI call per code path of the workload."""
    solve = ["solve", "--alpha", "0.5", "--t-end", "1"]
    if workload == "solve_long":
        return ([solve + ["--problem", "scalar", "--h", "0.1", "--scheme", s,
                          "--checkpoints", "0.5"]
                 for s in ("fbdf1", "fbdf2", "fadams2", "l1", "alpha_diff")]
                + [solve + ["--problem", "advection", "--h", "0.1", "--scheme", "fbdf1"]])
    if workload == "paper_grids":
        return ([solve + ["--problem", "lorenz", "--h", "0.1", "--scheme", s]
                 for s in ("fbdf1", "fbdf2", "fadams2", "l1", "alpha_diff")]
                + [solve + ["--problem", "advection", "--h", "0.1", "--scheme", "l1"],
                   solve + ["--problem", "scalar", "--h", "0.1", "--scheme", "fbdf2"]])
    # the CLI's alpha_diff resolvent always evaluates Q1^0 (about 1 s), so its
    # quadrature is warmed up through the library at n = 100 instead
    return [["region", "--scheme", "l1", "--alpha", "0.5", "--n-theta", "8"],
            ["region", "--scheme", "fbdf2", "--alpha", "0.5", "--n-theta", "8"],
            ["resolvent", "--scheme", "fbdf1", "--problem", "scalar", "--alpha", "0.5",
             "--h", "1", "--n-max", "100"],
            ["resolvent", "--scheme", "l1", "--problem", "scalar", "--alpha", "0.5",
             "--h", "1", "--n-max", "100"]]


def set_up(workload: str, seed: int, work_dir: Path):
    import workloads as wl
    mlstab = import_mlstab()
    ops = wl.make_inputs(seed)[workload]
    ctx = wl.build_context()
    refs = wl.load_references() if workload == "solve_long" else {}
    warm = work_dir / "warm-up"
    for argv in _warm_up_argvs(workload):
        wl.run_op(wl.Op("warm-up", 0.5, tuple(argv)), ctx, warm)
    if workload == "diagnostics":
        mlstab.resolvent.poisson_resolvent(ctx.lorenz_A, 0.5, 0.1, 100, 1.0)
        r = mlstab.resolvent.impulse_resolvent("fbdf2", ctx.lorenz_A, 0.5, 0.1, 1000)
        mlstab.analysis.perturbation_check(ctx.perturbation_problem, r)
    shutil.rmtree(warm, ignore_errors=True)
    return ops, ctx, refs


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _cpu_seconds() -> float:
    """User+sys CPU seconds of this process, all threads."""
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run_pass(ops, ctx, work_dir: Path, recorder=None) -> dict:
    """One timed pass over the workload; outputs are left in one directory per operation."""
    import workloads as wl
    dirs = [work_dir / f"op{i}" for i in range(len(ops))]
    for d in dirs:
        shutil.rmtree(d, ignore_errors=True)
    with recorder or contextlib.nullcontext():
        cpu0 = _cpu_seconds()
        t0 = time.perf_counter()
        outcomes = [wl.run_op(op, ctx, d) for op, d in zip(ops, dirs)]
        wall = time.perf_counter() - t0
        cpu = _cpu_seconds() - cpu0
    return {
        "wall": wall,
        "cpu": cpu,
        "outcomes": outcomes,
        "dirs": dirs,
        "bytes_out": sum(_dir_bytes(d) for d in dirs if d.exists())
        + sum(len(o.stdout.encode()) for o in outcomes),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work-dir", type=Path, required=True)
    ap.add_argument("--spans-file", type=Path, required=True,
                    help="where a traced run writes the spans of its last traced pass")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    warnings.simplefilter("ignore")  # blow-up guard and mpmath notices are not results

    ops, ctx, refs = set_up(args.workload, args.seed, args.work_dir)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    import spans
    import workloads as wl
    walls, cpus, traced_walls, layer_samples = [], [], [], []
    attempted = 0
    failures: list[str] = []
    last_spans = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(walls) > len(traced_walls)
        recorder = spans.Recorder() if traced else None
        p = run_pass(ops, ctx, args.work_dir, recorder)
        attempted += len(ops)
        failures += wl.failures_of(ops, p["outcomes"], p["dirs"], refs)
        if traced:
            traced_walls.append(p["wall"])
            layer_samples.append(spans.layer_metrics(recorder.spans, p["wall"], p["bytes_out"]))
            last_spans = recorder.spans
        else:
            walls.append(p["wall"])
            cpus.append(p["cpu"])
        done = time.perf_counter() - start >= args.seconds
        if done and (not args.trace or traced_walls):
            break

    result = {
        "walls": walls,
        "cpus": cpus,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        layers = spans.median_metrics(layer_samples)
        layers["trace.overhead"] = (statistics.median(traced_walls)
                                    / statistics.median(walls) - 1.0)
        result["layers"] = layers
        args.spans_file.write_text(json.dumps(
            {"fields": list(spans.Span._fields), "spans": [list(s) for s in last_spans]}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
