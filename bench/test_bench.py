"""Tests of the benchmark's own logic.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402
from spans import Span  # noqa: E402


def _selfs(span_list):
    own = spans.self_times(span_list)
    return {s.name: own[s.id] for s in span_list}


def test_self_time_of_nested_spans_is_duration_minus_children():
    span_list = [
        Span(1, "a", "x", 0.0, 10.0, None, 0),
        Span(2, "b", "x", 1.0, 4.0, 1, 0),
        Span(3, "c", "x", 2.0, 3.0, 2, 0),
        Span(4, "d", "x", 5.0, 9.0, 1, 0),
    ]
    assert _selfs(span_list) == pytest.approx({"a": 3.0, "b": 2.0, "c": 1.0, "d": 4.0})


def test_self_time_shares_overlapping_threads_and_sums_to_wall():
    # r on thread 0 waits for x (thread 1, with child z) and y (thread 2)
    span_list = [
        Span(1, "r", "tables", 0.0, 10.0, None, 0),
        Span(2, "x", "solver", 1.0, 5.0, 1, 1),
        Span(3, "y", "solver", 2.0, 8.0, 1, 2),
        Span(4, "z", "weights", 3.0, 4.0, 2, 1),
    ]
    selfs = _selfs(span_list)
    assert selfs == pytest.approx({"r": 3.0, "x": 2.0, "y": 4.5, "z": 0.5})
    assert sum(selfs.values()) == pytest.approx(10.0)
    assert spans.busy_ratio(span_list, "r") == pytest.approx((4.0 + 6.0) / 10.0)
    assert spans.busy_ratio(span_list, "absent") == 0.0


def test_recorder_wraps_aliases_and_threads(tmp_path):
    import mlstab
    from mlstab import resolvent, solver, special, tables
    original = solver.solve
    with spans.Recorder() as rec:
        assert tables.solve is solver.solve is not original
        assert resolvent.mittag_leffler is special.mittag_leffler
        assert mlstab.solve is solver.solve
        cells = tables.reproduce("T7", max_workers=2)
    assert solver.solve is original and tables.solve is original
    assert special.mittag_leffler.__module__ == "mlstab.special"

    (root,) = [s for s in rec.spans if s.name == "tables.reproduce"]
    assert root.info == len(cells) == 20
    children = [s for s in rec.spans if s.parent == root.id]
    assert {s.thread for s in children} - {root.thread}  # pool worker threads
    own = spans.self_times(rec.spans)
    assert sum(own.values()) == pytest.approx(root.end - root.start, rel=1e-9)
    m = spans.layer_metrics(rec.spans, root.end - root.start, 0)
    assert m["solver.runs"] == 4 and m["solver.steps"] == 4 * 1005
    assert m["solver.f_calls"] > 4 * 1005 and m["solver.f_calls_per_step"] > 1.0
    assert m["tables.busy_ratio"] > 1.0
    assert m["trace.accounted"] == pytest.approx(1.0)


def _fake_solve_output(out_dir: Path, op: wl.Op, ref: dict) -> None:
    """A `solve` CSV and summary carrying the reference states exactly."""
    out_dir.mkdir(parents=True)
    rows = ["# mlstab", "t,y0_re,y0_im,norm"]
    by_index = dict(zip(ref["indices"], ref["states"]))
    for n in range(ref["n_steps"] + 1):
        re, im = by_index.get(n, [[0.0, 0.0]])[0]
        rows.append(f"{n},{re!r},{im!r},{math.hypot(re, im)!r}")
    stem = f"solve_scalar_{op.scheme}_a{op.alpha:g}"
    (out_dir / f"{stem}.csv").write_text("\n".join(rows) + "\n")
    (out_dir / f"{stem}_summary.json").write_text(
        json.dumps({"verdict": "DECAYS", "fitted_slope": op.alpha}))


def test_reference_perturbed_by_1e_9_counts_as_failed_operation(tmp_path):
    refs = wl.load_references()
    op = wl.Op("solve_scalar", 0.5, scheme="fbdf1")
    key = wl.reference_key("scalar", "fbdf1", 0.5)
    _fake_solve_output(tmp_path / "op0", op, refs[key])
    outcome = wl.Outcome()
    assert wl.failures_of([op], [outcome], [tmp_path / "op0"], refs) == []

    perturbed = json.loads(json.dumps(refs))
    perturbed[key]["states"][2][0][0] += 1e-9
    failures = wl.failures_of([op], [outcome], [tmp_path / "op0"], perturbed)
    assert len(failures) == 1 and "deviates" in failures[0]


def test_failed_exit_and_exception_count_as_failures(tmp_path):
    op = wl.Op("reproduce", 0.0, ("reproduce", "T2"))
    assert wl.failures_of([op], [wl.Outcome(rc=0)], [tmp_path], {}) == []
    assert len(wl.failures_of([op, op], [wl.Outcome(rc=4), wl.Outcome(error="boom")],
                              [tmp_path, tmp_path], {})) == 2


def test_same_seed_same_inputs_other_seed_other_alphas():
    assert wl.make_inputs(7) == wl.make_inputs(7)
    a, b = wl.make_inputs(1), wl.make_inputs(2)
    seeded = ("solve_long", "diagnostics")
    assert [op.alpha for w in seeded for op in a[w]] != [op.alpha for w in seeded for op in b[w]]
    assert a["paper_grids"] == b["paper_grids"]
    poisson = [op.alpha for op in a["diagnostics"] if op.kind == "poisson"]
    assert poisson == list(wl.POISSON_ALPHAS)


def test_every_drawn_alpha_has_a_reference():
    refs = wl.load_references()
    for seed in range(50):
        for op in wl.make_inputs(seed)["solve_long"]:
            problem = "scalar" if op.kind == "solve_scalar" else "advection"
            assert wl.reference_key(problem, op.scheme, op.alpha) in refs


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [(m.name, m.unit, m.better) for m in spans.PER_LAYER]


def test_fails_without_result_in_a_bare_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    res = subprocess.run([sys.executable, "bench/run.py", "--workload", "solve_long",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert res.returncode != 0
    assert "correct" not in res.stdout
