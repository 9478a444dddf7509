"""mlstab: numerical Mittag-Leffler stability for Caputo fractional ODEs.

Solves D_t^alpha y = A y + f(t, y) with 0 < alpha <= 1 (alpha = 1 is the
classical ODE) on a uniform grid using five implicit schemes (the 1- and
2-step fractional BDF methods, the 2-step fractional Adams method, the L1
scheme and an alpha-difference scheme, which needs alpha < 1), and
provides the machinery to check that the numerical solutions inherit the
polynomial long-time decay ||y_n|| = O(t_n^-alpha) of the continuous problem:
Mittag-Leffler special functions, discrete fractional resolvents, stability
region sampling and decay-rate estimation.

Top-level shortcuts re-export the main entry points of each module; see the
module docstrings for details.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .special import (
    mittag_leffler,
    prabhakar,
    resolvent_matrix,
    in_stable_sector,
)
from .weights import (
    SchemeWeights,
    scheme_weights,
    l1_weights,
    alpha_diff_kernel,
    miller_power,
    conv_inverse,
)
from .solver import FOdeProblem, Trajectory, solve, solve_alpha_diff, solve_cells
from .resolvent import ResolventSequence, impulse_resolvent, poisson_resolvent, verify_resolvent_decay
from .analysis import p_index, p_at_checkpoints, region_boundary, classify_problem, perturbation_check
from . import problems, tables

__all__ = [
    "__version__",
    "mittag_leffler",
    "prabhakar",
    "resolvent_matrix",
    "in_stable_sector",
    "SchemeWeights",
    "scheme_weights",
    "l1_weights",
    "alpha_diff_kernel",
    "miller_power",
    "conv_inverse",
    "FOdeProblem",
    "Trajectory",
    "solve",
    "solve_alpha_diff",
    "solve_cells",
    "ResolventSequence",
    "impulse_resolvent",
    "poisson_resolvent",
    "verify_resolvent_decay",
    "p_index",
    "p_at_checkpoints",
    "region_boundary",
    "classify_problem",
    "perturbation_check",
    "problems",
    "tables",
]
