"""Built-in test problems.

Three families:

* scalar_test     - d = 1, A = [lambda] with lambda = 1 + (1+b) i: positive
                    real part, yet asymptotically stable whenever lambda lies
                    in the sector |arg| > alpha*pi/2 (b > 0 at alpha = 1/2).
* advection_diffusion - periodic second-order central discretization of
                    D^alpha u + a u_x = D u_xx on [0, 1]; the linear part is
                    circulant with closed-form Fourier eigenvalues.  The
                    constant Fourier mode is neutral (eigenvalue 0) and is
                    excluded by zero-mean initial data.
* lorenz_controlled - the quadratic Lorenz system with linear state feedback
                    u = K y added through the input matrix B; with feedback
                    the linear part A + B K is lower triangular with
                    eigenvalues -10, -11, -8/3, all inside the sector for
                    every alpha in (0, 1).  Without feedback the eigenvalue
                    +11.83 lies outside the sector, and only small enough
                    steps keep a run from damping it (see lorenz_controlled).
"""

from __future__ import annotations

import math

import numpy as np

from .solver import FOdeProblem

__all__ = [
    "scalar_test",
    "advection_diffusion",
    "fourier_eigenvalues",
    "circulant_matrices",
    "lorenz_controlled",
    "LORENZ_A",
    "LORENZ_B",
    "LORENZ_K",
    "by_name",
]


def scalar_test(b: float, y0: complex = 5.0, alpha: float = 0.5) -> FOdeProblem:
    """Scalar problem D^alpha y = (1 + (1+b) i) y, y(0) = y0 (default 5)."""
    if not math.isfinite(b):
        raise ValueError(f"scalar-test parameter b must be finite, got {b}")
    lam = 1.0 + (1.0 + b) * 1j
    return FOdeProblem(alpha=alpha, A=np.array([[lam]]), y0=np.array([y0]))


def circulant_matrices(n_x: int) -> tuple[np.ndarray, np.ndarray]:
    """The periodic central-difference circulants (skew B, second-difference A2).

    Row j of B maps u to u_{j+1} - u_{j-1}; row j of A2 to
    u_{j-1} - 2 u_j + u_{j+1}, indices mod n_x.
    """
    if n_x < 4 or n_x % 2:
        raise ValueError("n_x must be an even integer >= 4")
    B = np.zeros((n_x, n_x))
    A2 = np.zeros((n_x, n_x))
    for j in range(n_x):
        B[j, (j + 1) % n_x] = 1.0
        B[j, (j - 1) % n_x] = -1.0
        A2[j, j] = -2.0
        A2[j, (j + 1) % n_x] = 1.0
        A2[j, (j - 1) % n_x] = 1.0
    return B, A2


def fourier_eigenvalues(a: float, D: float, n_x: int) -> np.ndarray:
    """Closed-form eigenvalues of the semi-discrete advection-diffusion matrix:
    lambda_j = (2D/dx^2)(cos(2 pi j dx) - 1) - i (a/dx) sin(2 pi j dx), j = 1..n_x."""
    dx = 1.0 / n_x
    j = np.arange(1, n_x + 1)
    return (2.0 * D / dx ** 2) * (np.cos(2.0 * np.pi * j * dx) - 1.0) \
        - 1j * (a / dx) * np.sin(2.0 * np.pi * j * dx)


def advection_diffusion(a: float = 0.1, D: float = 5.0, n_x: int = 64,
                        alpha: float = 0.5) -> FOdeProblem:
    """Semi-discrete periodic advection-diffusion problem on x_j = j/n_x.

    The linear part is (D/dx^2) A2 - (a/(2 dx)) B with the circulants above;
    the initial profile is 10 sin(4 pi x) (zero mean, so the neutral
    constant mode is absent).
    """
    if not math.isfinite(a):
        raise ValueError(f"advection speed a must be finite, got {a}")
    if not (0.0 < D < math.inf):
        raise ValueError(f"diffusion coefficient D must be positive and finite, got {D}")
    B, A2 = circulant_matrices(n_x)
    dx = 1.0 / n_x
    M = (D / dx ** 2) * A2 - (a / (2.0 * dx)) * B
    x = dx * np.arange(1, n_x + 1)
    return FOdeProblem(alpha=alpha, A=M, y0=10.0 * np.sin(4.0 * np.pi * x))


LORENZ_A = np.array([[-10.0, 10.0, 0.0],
                     [28.0, -1.0, 0.0],
                     [0.0, 0.0, -8.0 / 3.0]])
LORENZ_B = np.array([[1.0], [1.0], [1.0]])
LORENZ_K = np.array([[0.0, -10.0, 0.0]])


def _lorenz_f(t: float, y: np.ndarray) -> np.ndarray:
    """The quadratic terms (0, -y1 y3, y1 y2) of a state (3,), or of each row
    of a stack (B, 3) of states (solver.solve_cells)."""
    y1, y2, y3 = y.T
    out = np.zeros((3,) + y.shape[:-1], dtype=complex)
    out[1] = -y1 * y3
    out[2] = y1 * y2
    return out.T


def lorenz_controlled(with_control: bool = True, alpha: float = 0.5) -> FOdeProblem:
    """Quadratic Lorenz system from y0 = (1, -8, 9), optionally with the
    stabilizing feedback u = K y.

    With control the linear part A + B K has eigenvalues -10, -11, -8/3 and
    the origin is reached with the polynomial rate.  Without control A has
    the eigenvalue lambda = +11.83 outside the sector and the motion does not
    decay.  With F-BDF1 at alpha = 0.5, 50-step runs measured at these h
    fall in three bands:
    - h = 0.005, 0.01, 0.011: the run shows the growth;
    - h = 0.012, 0.0125, 0.0143, 0.015, 0.02, 0.03: Newton fails and the run
      raises NonConvergenceError at step 1, although h^alpha lambda lies
      inside the scheme's instability set (h^alpha lambda <= 2^alpha) up to
      h = 0.0143;
    - h = 0.05, 0.1: the run completes and the scheme damps the unstable
      mode; h = 0.1 (h^alpha lambda = 3.74) gives verdict DECAYS.
    """
    A = LORENZ_A + LORENZ_B @ LORENZ_K if with_control else LORENZ_A.copy()
    return FOdeProblem(alpha=alpha, A=A, y0=np.array([1.0, -8.0, 9.0]), f=_lorenz_f)


def by_name(name: str, alpha: float, **params) -> FOdeProblem:
    """Problem factory addressable by CLI name."""
    name = name.lower()
    if name == "scalar":
        return scalar_test(b=float(params.get("b", 10.0)),
                           y0=complex(params.get("y0", 5.0)), alpha=alpha)
    if name == "advection":
        return advection_diffusion(a=float(params.get("a", 0.1)),
                                   D=float(params.get("D", 5.0)),
                                   n_x=int(params.get("nx", 64)), alpha=alpha)
    if name == "lorenz":
        return lorenz_controlled(with_control=bool(params.get("control", True)),
                                 alpha=alpha)
    raise ValueError(f"unknown problem {name!r}; expected scalar, advection or lorenz")
