"""Record the reference states the `solve_long` checks compare against.

Runs every `solve_long` operation the seed can draw (five scalar schemes and
the advection problem, each at the four alphas) through the CLI and keeps the
states at the checkpoints and at the final step, with max_n ||y_n||.

    python3 bench/make_reference.py      # rewrites bench/reference.json

Only rerun it when a change is meant to alter the trajectories.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402


def record(problem: str, scheme: str, alpha: float, out_dir: Path) -> dict:
    kind = "solve_scalar" if problem == "scalar" else "solve_advection"
    op = wl.Op(kind, alpha, wl.solve_argv(problem, scheme, alpha), scheme)
    outcome = wl.run_op(op, wl.Context(), out_dir)
    if outcome.rc != 0 or outcome.error:
        raise SystemExit(f"{op.label} failed: rc={outcome.rc} {outcome.error}")
    csv = out_dir / f"solve_{problem}_{scheme}_a{alpha:g}.csv"
    rows = csv.read_text().splitlines()[2:]
    indices = wl.checkpoint_indices(problem)
    _, states = wl.read_trajectory_rows(csv, indices)
    summary = json.loads((out_dir / f"solve_{problem}_{scheme}_a{alpha:g}_summary.json")
                         .read_text())
    return {
        "n_steps": len(rows) - 1,
        "max_norm": max(float(r.rsplit(",", 1)[1]) for r in rows),
        "indices": indices,
        "states": [[[z.real, z.imag] for z in states[n]] for n in indices],
        "fitted_slope": summary["fitted_slope"],
    }


def main() -> int:
    refs = {}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for alpha in wl.ALPHAS:
            for problem, schemes in (("scalar", wl.SCALAR_SCHEMES), ("advection", ("fbdf1",))):
                for scheme in schemes:
                    key = wl.reference_key(problem, scheme, alpha)
                    refs[key] = record(problem, scheme, alpha, Path(tmp))
                    print(key, refs[key]["fitted_slope"], flush=True)
    wl.REFERENCE_PATH.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
