"""mlstab benchmark: three CLI-driven workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload solve_long|paper_grids|diagnostics|all \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs in its own process
(bench/worker.py) with mlstab imported from the checkout's `src/`.  Set-up
time is measured from process start to ready in SETUP_SAMPLES processes and
reported as their median.  The pass metrics are medians over the passes run
in `--seconds`.

With `--trace 0` the metrics are the end-to-end ones:

    wall_s       wall time of one pass (tracing off)
    cpu_s        process user+sys CPU seconds of one pass, all threads
    setup_s      process start to ready: import, inputs, one warm-up per code path
    peak_rss_mb  ru_maxrss of the workload process
    ok_ratio     1 - fail_ratio, operations whose output checks passed

With `--trace 1` they are the per-layer metrics of spans/PER_LAYER.  Lines
before the last one print every metric with its unit, the failures, and the
machine and environment record; the last stdout line is the result JSON.  A
full record is also written to .bench_out/result-<workload>-s<seed>-t<trace>.json,
and a traced run writes the spans of its last traced pass to
.bench_out/spans-<workload>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_SAMPLES = 5          # processes whose start-to-ready time is measured
DEADLINE_S = 170.0         # the whole run, set-up samples included
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"), ("ok_ratio", "ratio"))
#: environment variables that change how the program runs, recorded as found.
ENV_VARS = ("MLSTAB_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    """HEAD of the checkout when it is a git repository, read without git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _source_digest() -> str:
    """sha256 over src/ (paths and contents): identifies the code measured."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment_record(seed: int, worker_env: dict) -> dict:
    import mpmath
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "env_found": {k: os.environ.get(k) for k in ENV_VARS},
        "env_used": {k: worker_env.get(k) for k in ENV_VARS},
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
    }


class Worker:
    """One workload process; `ready_s` is its start-to-ready time."""

    def __init__(self, argv: list[str], env: dict, deadline: float):
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=env,
                                     cwd=ROOT)
        self.timer = threading.Timer(max(0.0, deadline - self.start), self.proc.kill)
        self.timer.start()
        line = self.proc.stdout.readline()
        self.ready_s = time.perf_counter() - self.start
        if line.strip() != "READY":
            self.finish()
            raise BenchError("workload process failed during set-up")

    def finish(self) -> str:
        """Wait for the process; its remaining stdout."""
        try:
            rest = self.proc.stdout.read()
            self.proc.wait()
        finally:
            self.timer.cancel()
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()
        if self.proc.returncode != 0:
            raise BenchError(f"workload process exited with {self.proc.returncode}")
        return rest


def run_workload(workload: str, seed: int, seconds: int, trace: int, deadline: float) -> dict:
    OUT.mkdir(exist_ok=True)
    tag = f"{workload}-s{seed}-t{trace}"
    work_dir = OUT / f"work-{tag}-{os.getpid()}"
    env = {k: v for k, v in os.environ.items() if k != "MLSTAB_THREADS"}
    argv = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
            "--work-dir", str(work_dir), "--spans-file", str(OUT / f"spans-{workload}.json")]
    try:
        setup = []
        for _ in range(SETUP_SAMPLES - 1):
            w = Worker(argv + ["--setup-only"], env, deadline)
            setup.append(w.ready_s)
            w.finish()
        w = Worker(argv, env, deadline)
        setup.append(w.ready_s)
        out = json.loads(w.finish().strip().splitlines()[-1])
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted, failed = out["attempted"], out["failed"]
    if trace:
        metrics = {m.name: (out["layers"][m.name], m.unit) for m in spans.PER_LAYER}
    else:
        values = {"wall_s": statistics.median(out["walls"]),
                  "cpu_s": statistics.median(out["cpus"]),
                  "setup_s": statistics.median(setup),
                  "peak_rss_mb": out["peak_rss_mb"],
                  "ok_ratio": 1.0 - failed / attempted}
        metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment_record(seed, env),
        "passes": {"wall_s": out["walls"], "cpu_s": out["cpus"], "setup_s": setup},
        "fail_ratio": failed / attempted,
        "failures": out["failures"],
        "result": {"correct": failed == 0, "attempted": attempted, "failed": failed,
                   "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}},
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    return record


def _print_record(record: dict) -> None:
    res = record["result"]
    print(f"== {record['workload']} seed={record['seed']} trace={record['trace']}: "
          f"{res['attempted']} operations, {res['failed']} failed")
    rows = [(k, m["value"], m["unit"]) for k, m in res["metrics"].items()]
    for name, value, unit in rows + [("fail_ratio", record["fail_ratio"], "ratio")]:
        print(f"  {name:26s} {value:>14.6g} {unit}")
    for f in record["failures"]:
        print(f"  FAILED {f}")
    print(json.dumps({"environment": record["environment"]}))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="mlstab benchmark")
    ap.add_argument("--workload", required=True, choices=(*wl.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "mlstab" / "__init__.py").is_file():
        print(f"error: no mlstab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = wl.WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.perf_counter() + DEADLINE_S * len(names)
    try:
        records = [run_workload(n, args.seed, args.seconds, args.trace, deadline)
                   for n in names]
    except (BenchError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for record in records:
        _print_record(record)
    if len(records) == 1:
        print(json.dumps(records[0]["result"]))
    else:
        results = [r["result"] for r in records]
        print(json.dumps({
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{rec['workload']}.{k}": v for rec in records
                        for k, v in rec["result"]["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
