"""Published reference grids of the decay index and their reproduction.

Each grid lists the observed index p at checkpoints t for several alpha, one
scheme per column group.  `reproduce` reruns the underlying experiments and
compares cell by cell:

* T2 scalar test (b = 10, h = 0.1): F-BDF1 and F-BDF2, tolerance 1e-3;
* T3 same setup: L1 and F-Adams2, tolerance 1e-3;
* T4/T5 advection-diffusion (h = 0.01, a = 0.1, D = 5, n_x = 64,
  u0 = 10 sin(4 pi x)): L1/F-BDF1 and F-BDF2/F-Adams2, tolerance 1e-3;
* T6 controlled Lorenz (h = 0.1, y0 = (1, -8, 9)): all four convolution
  schemes, tolerance 5e-3;
* T7 controlled Lorenz, alpha-difference scheme: only the alpha = 0.5 column
  is asserted (tolerance 5e-2); the reference alpha = 0.9 column itself
  fluctuates and is reported without assertion.

The reference sampling convention: grids were generated with the index
evaluated one sample before the checkpoint label (p_at_checkpoints with
index_offset = -1), which shifts p by about alpha*h/t; reproduction uses the
same convention.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable

from . import problems
from .analysis import p_at_checkpoints
from .solver import FOdeProblem, Trajectory, solve, solve_cells

__all__ = ["TABLE_IDS", "CellResult", "reproduce", "results_to_csv"]

_ALPHAS = (0.3, 0.5, 0.7, 0.9)
_T_SCALAR = (100.0, 200.0, 300.0, 400.0, 500.0)
_T_AD = (10.0, 20.0, 30.0, 40.0, 50.0)
_T_LORENZ = (20.0, 40.0, 60.0, 80.0, 100.0)


def _grid(schemes, ts, rows):
    """rows[t][alpha] = tuple of per-scheme values, in `schemes` order."""
    out = {s: {} for s in schemes}
    for t, per_alpha in zip(ts, rows):
        for alpha, cells in zip(_ALPHAS, per_alpha):
            for s, v in zip(schemes, cells):
                out[s][(t, alpha)] = v
    return out


_T2 = _grid(("fbdf1", "fbdf2"), _T_SCALAR, [
    [(0.3009, 0.3008), (0.5009, 0.5008), (0.7011, 0.7009), (0.9016, 0.9011)],
    [(0.3005, 0.3005), (0.5005, 0.5004), (0.7005, 0.7004), (0.9008, 0.9006)],
    [(0.3004, 0.3004), (0.5003, 0.5003), (0.7003, 0.7003), (0.9005, 0.9004)],
    [(0.3004, 0.3004), (0.5002, 0.5002), (0.7003, 0.7002), (0.9004, 0.9003)],
    [(0.3003, 0.3003), (0.5002, 0.5002), (0.7002, 0.7002), (0.9003, 0.9002)],
])

_T3 = _grid(("l1", "fadams2"), _T_SCALAR, [
    [(0.3008, 0.3008), (0.5008, 0.5008), (0.7009, 0.7009), (0.9011, 0.9011)],
    [(0.3005, 0.3005), (0.5004, 0.5004), (0.7004, 0.7004), (0.9006, 0.9006)],
    [(0.3004, 0.3004), (0.5003, 0.5003), (0.7003, 0.7003), (0.9004, 0.9004)],
    [(0.3004, 0.3004), (0.5002, 0.5002), (0.7002, 0.7002), (0.9003, 0.9003)],
    [(0.3003, 0.3003), (0.5002, 0.5002), (0.7002, 0.7002), (0.9002, 0.9002)],
])

_T4 = _grid(("l1", "fbdf1"), _T_AD, [
    [(0.3003, 0.3004), (0.5007, 0.5009), (0.7012, 0.7014), (0.9016, 0.9020)],
    [(0.3001, 0.3002), (0.5004, 0.5004), (0.7006, 0.7007), (0.9008, 0.9010)],
    [(0.3001, 0.3001), (0.5002, 0.5003), (0.7004, 0.7005), (0.9005, 0.9007)],
    [(0.3000, 0.3001), (0.5002, 0.5002), (0.7003, 0.7004), (0.9004, 0.9005)],
    [(0.3000, 0.3000), (0.5001, 0.5002), (0.7003, 0.7003), (0.9003, 0.9004)],
])

_T5 = _grid(("fbdf2", "fadams2"), _T_AD, [
    [(0.3003, 0.3003), (0.5007, 0.5007), (0.7012, 0.7012), (0.9016, 0.9016)],
    [(0.3001, 0.3001), (0.5004, 0.5004), (0.7006, 0.7006), (0.9008, 0.9008)],
    [(0.3001, 0.3001), (0.5002, 0.5002), (0.7004, 0.7004), (0.9005, 0.9005)],
    [(0.3000, 0.3000), (0.5002, 0.5002), (0.7003, 0.7003), (0.9004, 0.9004)],
    [(0.3000, 0.3000), (0.5001, 0.5001), (0.7003, 0.7003), (0.9003, 0.9003)],
])

_T6 = _grid(("l1", "fbdf1", "fbdf2", "fadams2"), _T_LORENZ, [
    [(0.2770, 0.2771, 0.2770, 0.2770), (0.5026, 0.5032, 0.5026, 0.5026),
     (0.7335, 0.7348, 0.7334, 0.7334), (0.9502, 0.9525, 0.9499, 0.9499)],
    [(0.2807, 0.2808, 0.2807, 0.2807), (0.5018, 0.5021, 0.5018, 0.5018),
     (0.7199, 0.7206, 0.7199, 0.7199), (0.9257, 0.9267, 0.9256, 0.9256)],
    [(0.2827, 0.2828, 0.2827, 0.2827), (0.5014, 0.5016, 0.5014, 0.5014),
     (0.7147, 0.7152, 0.7147, 0.7147), (0.9175, 0.9182, 0.9175, 0.9175)],
    [(0.2840, 0.2841, 0.2840, 0.2840), (0.5012, 0.5013, 0.5012, 0.5012),
     (0.7119, 0.7122, 0.7119, 0.7119), (0.9134, 0.9139, 0.9133, 0.9133)],
    [(0.2850, 0.2850, 0.2850, 0.2850), (0.5010, 0.5012, 0.5010, 0.5011),
     (0.7101, 0.7104, 0.7101, 0.7101), (0.9109, 0.9113, 0.9108, 0.9108)],
])

_T7 = _grid(("alpha_diff",), _T_LORENZ, [
    [(1.2508,), (1.4989,), (1.7625,), (1.9993,)],
    [(1.2579,), (1.4995,), (1.7376,), (1.9502,)],
    [(1.2621,), (1.4996,), (1.7279,), (1.8578,)],
    [(1.2648,), (1.4997,), (1.7226,), (1.8645,)],
    [(1.2664,), (1.4998,), (1.7123,), (1.7928,)],
])


@dataclass(frozen=True)
class _TableSpec:
    table_id: str
    schemes: tuple[str, ...]
    alphas: tuple[float, ...]
    checkpoints: tuple[float, ...]
    h: float
    problem: Callable[[], FOdeProblem]  # the cells replace its alpha
    values: dict
    tolerance: float
    asserted: Callable[[str, float, float], bool]


def _always(scheme, t, alpha):
    return True


_SPECS = {
    "T2": _TableSpec("T2", ("fbdf1", "fbdf2"), _ALPHAS, _T_SCALAR, 0.1,
                     lambda: problems.scalar_test(b=10.0),
                     _T2, 1e-3, _always),
    "T3": _TableSpec("T3", ("l1", "fadams2"), _ALPHAS, _T_SCALAR, 0.1,
                     lambda: problems.scalar_test(b=10.0),
                     _T3, 1e-3, _always),
    "T4": _TableSpec("T4", ("l1", "fbdf1"), _ALPHAS, _T_AD, 0.01,
                     lambda: problems.advection_diffusion(),
                     _T4, 1e-3, _always),
    "T5": _TableSpec("T5", ("fbdf2", "fadams2"), _ALPHAS, _T_AD, 0.01,
                     lambda: problems.advection_diffusion(),
                     _T5, 1e-3, _always),
    "T6": _TableSpec("T6", ("l1", "fbdf1", "fbdf2", "fadams2"), _ALPHAS, _T_LORENZ, 0.1,
                     lambda: problems.lorenz_controlled(),
                     _T6, 5e-3, _always),
    "T7": _TableSpec("T7", ("alpha_diff",), _ALPHAS, _T_LORENZ, 0.1,
                     lambda: problems.lorenz_controlled(),
                     _T7, 5e-2, lambda s, t, a: a == 0.5),
}

TABLE_IDS = tuple(sorted(_SPECS))


@dataclass
class CellResult:
    """One reproduced cell against its reference value."""

    table_id: str
    scheme_id: str
    t: float
    alpha: float
    computed: float
    expected: float
    deviation: float
    tolerance: float
    asserted: bool
    passed: bool


def _steps(spec: _TableSpec, m: int) -> int:
    """The steps of each run: up to the last checkpoint, plus the index offset m."""
    return int(round(max(spec.checkpoints) / spec.h)) + m


def _cells(spec: _TableSpec, m: int, traj: Trajectory) -> list[CellResult]:
    """The reproduced cells of one (scheme, alpha) run against their references."""
    scheme_id, alpha = traj.scheme_id, traj.alpha
    cells = []
    for t, p in p_at_checkpoints(traj, spec.checkpoints, m=m, index_offset=-1):
        expected = spec.values[scheme_id][(t, alpha)]
        asserted = spec.asserted(scheme_id, t, alpha)
        dev = abs(p - expected)
        cells.append(CellResult(spec.table_id, scheme_id, t, alpha, p, expected,
                                dev, spec.tolerance, asserted,
                                dev <= spec.tolerance or not asserted))
    return cells


def reproduce(table_id: str, m: int = 5, max_workers: int = 1,
              tolerance: float | None = None) -> list[CellResult]:
    """Recompute one reference grid; cells come back in (t, alpha, scheme) order.

    The (scheme, alpha) runs of a grid share the problem, h and N, and go to
    solver.solve_cells in the calling thread: the cells of the small
    problems (T2, T3, T6, T7) step together as one batch, and so do those of
    the 64-mode advection problem (T4, T5), as the 2 rows of the one
    conjugate pair of modes its initial profile excites, each trajectory
    mapped back to the 64 modes on its own.  max_workers > 1
    instead spreads one solver.solve per cell over a thread pool, which
    measured slower, as the Python step loops hold the GIL.  Both give the
    same cells.  tolerance overrides the grid's own per-cell tolerance when
    given.  m and tolerance are checked before any cell runs.
    """
    table_id = table_id.upper()
    if table_id not in _SPECS:
        raise ValueError(f"unknown table id {table_id!r}; expected one of {TABLE_IDS}")
    if m < 1:
        raise ValueError("m must be a positive integer")
    spec = _SPECS[table_id]
    if tolerance is not None:
        if not (math.isfinite(tolerance) and tolerance >= 0.0):
            raise ValueError(f"tolerance must be a finite number >= 0, got {tolerance}")
        spec = replace(spec, tolerance=float(tolerance))
    jobs = [(s, a) for s in spec.schemes for a in spec.alphas]
    N = _steps(spec, m)
    problem = spec.problem()
    cells_of = functools.partial(_cells, spec, m)
    if max_workers > 1 and len(jobs) > 1:
        from concurrent.futures import ThreadPoolExecutor  # 9 ms to import: not at start-up

        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            chunks = list(pool.map(lambda sa: cells_of(solve(replace(problem, alpha=sa[1]),
                                                             sa[0], spec.h, N)), jobs))
    else:
        chunks = solve_cells(problem, jobs, spec.h, N, reduce=cells_of)
    cells = [c for chunk in chunks for c in chunk]
    cells.sort(key=lambda c: (c.t, c.alpha, spec.schemes.index(c.scheme_id)))
    return cells


def results_to_csv(cells: list[CellResult]) -> str:
    """Render cell results as CSV (without the metadata comment line)."""
    lines = ["table,scheme,t,alpha,computed,expected,deviation,tolerance,asserted,pass"]
    for c in cells:
        lines.append(
            f"{c.table_id},{c.scheme_id},{c.t:g},{c.alpha:g},"
            f"{c.computed:.6f},{c.expected:.4f},{c.deviation:.6f},"
            f"{c.tolerance:g},{int(c.asserted)},{int(c.passed)}"
        )
    return "\n".join(lines) + "\n"
