"""Picard iteration for the semilinear magnetic Schrodinger equation.

The recurrence starts from the zero guess, so the first iterate is the
linear solution, and each step feeds the nonlinearity ``V u |u|^(p-1)``
of the previous iterate back through the magnetic solver.  Contraction is
certified in the intersection norm (max of sup-in-time L^2 and the
smoothing norm), and a bisection locates the empirical radius of initial
data sizes for which every contraction ratio stays below 1.  The potential
``shell_potential`` is the bump on the unit shell; its shell weight
exponent a enters only through the critical power ``critical_exponent``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .dyadic import DyadicDecomposition, bump
from .grid import Field, Grid, SpaceTimeField
from .norms import smoothing_norm, sup_l2_norm
from .schrodinger import MagneticPotential, magnetic_solve
from .spectral import l2_norm


#: Picard tolerance in the iteration norm, and the step cap of each run
PICARD_TOL = 1e-8
PICARD_MAX_ITER = 14
#: data sizes delta bracketing the contraction threshold, and bisection steps
THRESHOLD_BRACKET = (1e-2, 4.0)
BISECT_STEPS = 5


def critical_exponent(n: int, a) -> Fraction:
    """p = (n + 4) / (n + 2a), the L^2-critical power for shell weight a."""
    if n < 3:
        raise ValueError(f"dimension must be >= 3, got {n}")
    a = Fraction(a)
    if not (1 <= a < 2):
        raise ValueError(f"weight a must lie in [1, 2), got {a}")
    return Fraction(n + 4, 1) / (n + 2 * a)


@dataclass
class SemilinearPotential:
    """Measurable potential V on the grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise ValueError("potential shape does not match grid")

    def is_zero(self) -> bool:
        return bool(np.max(np.abs(self.values)) == 0.0)


def shell_potential(grid: Grid, amplitude: float) -> SemilinearPotential:
    """The bump on the unit shell, ``amplitude * phi(|x|)``."""
    return SemilinearPotential(grid, amplitude * bump(grid.radius))


def nonlinearity(u: SpaceTimeField, V: SemilinearPotential, p: float) -> SpaceTimeField:
    """Pointwise V u |u|^(p-1); the power is extended by 0 at u = 0."""
    if not p > 1:
        raise ValueError(f"power p must exceed 1, got {p}")
    amp = np.abs(u.values)
    amp **= float(p) - 1.0  # 0 ** (p - 1) is 0 for p > 1
    vals = V.values * u.values
    vals *= amp
    return SpaceTimeField(u.grid, u.times, vals)


def contraction_norm(u: SpaceTimeField, decomp: DyadicDecomposition) -> float:
    """Norm of the iteration space: max of sup-in-time L^2 and the
    smoothing norm (equivalent to their sum up to a factor 2)."""
    return max(sup_l2_norm(u), smoothing_norm(u, decomp))


@dataclass
class PicardState:
    index: int
    z_norm: float
    diff_z: float | None  # ||u_k - u_{k-1}||_Z, None for the first iterate
    contraction_ratio: float | None  # diff_z ratio, defined from the second diff


@dataclass
class PicardRun:
    states: list[PicardState]
    converged: bool
    diverged: bool
    final: SpaceTimeField | None
    fixed_point_residual: float | None = None

    @property
    def contraction_ratios(self) -> list[float]:
        return [s.contraction_ratio for s in self.states if s.contraction_ratio is not None]

    @property
    def contracting(self) -> bool:
        ratios = self.contraction_ratios
        return bool(ratios) and all(r < 1.0 for r in ratios) and not self.diverged


def picard_solve(
    f: Field,
    V: SemilinearPotential,
    A: MagneticPotential,
    p: float,
    times: Sequence[float],
    decomp: DyadicDecomposition,
    max_iter: int,
    tol: float,
) -> PicardRun:
    """Iterate the recurrence u_{k+1} = solve(f, forcing = V u_k |u_k|^(p-1)).

    Stops when the successive difference in the iteration norm drops below
    ``tol`` or after ``max_iter`` steps.  Divergence (iteration-norm
    doubling within three steps, or three consecutive growing differences)
    is a returned signal, not an exception.
    """
    times = np.asarray(times, dtype=float)
    u = magnetic_solve(f, A, None, times)
    z = contraction_norm(u, decomp)
    states = [PicardState(0, z, None, None)]
    z_hist = [z]
    diffs: list[float] = []
    converged = diverged = False
    if V.is_zero():
        # recurrence degenerates: the linear solution is already the fixed point
        return PicardRun(states, True, False, u, 0.0)
    for k in range(1, max_iter + 1):
        forcing = nonlinearity(u, V, p)
        u_next = magnetic_solve(f, A, forcing, times)
        diff = contraction_norm(u_next - u, decomp)
        z = contraction_norm(u_next, decomp)
        ratio = diff / diffs[-1] if diffs and diffs[-1] > 0 else None
        states.append(PicardState(k, z, diff, ratio))
        diffs.append(diff)
        z_hist.append(z)
        u = u_next
        if len(z_hist) > 3 and z_hist[-1] > 2.0 * z_hist[-4]:
            diverged = True
            break
        if len(diffs) >= 3 and diffs[-1] > diffs[-2] > diffs[-3]:
            diverged = True
            break
        if diff < tol:
            converged = True
            break
    residual = None
    if converged:
        # residual of the discrete fixed-point map: one more solver pass
        again = magnetic_solve(f, A, nonlinearity(u, V, p), times)
        residual = contraction_norm(again - u, decomp)
    return PicardRun(states, converged, diverged, u, residual)


@dataclass
class ThresholdReport:
    threshold: float
    trace: list[dict]


def contraction_threshold(
    f_profile: Field,
    V: SemilinearPotential,
    A: MagneticPotential,
    p: float,
    times: Sequence[float],
    decomp: DyadicDecomposition,
) -> ThresholdReport:
    """Bisect the initial-data size delta = ||f||_{L^2} for contraction
    over ``THRESHOLD_BRACKET`` in ``BISECT_STEPS`` steps.

    Returns the largest tested delta with every contraction ratio below 1;
    `trace` records each probe.
    """
    base = l2_norm(f_profile)
    if base == 0:
        raise ValueError("profile must be nonzero")

    trace = []

    def contracts(delta: float) -> bool:
        run = picard_solve(f_profile * (delta / base), V, A, p, times, decomp,
                           max_iter=PICARD_MAX_ITER, tol=PICARD_TOL)
        trace.append({"delta": delta, "contracting": run.contracting})
        return run.contracting

    lo, hi = THRESHOLD_BRACKET
    if not contracts(lo):
        return ThresholdReport(0.0, trace)
    if contracts(hi):
        return ThresholdReport(hi, trace)
    for _ in range(BISECT_STEPS):
        mid = math.sqrt(lo * hi)
        if contracts(mid):
            lo = mid
        else:
            hi = mid
    return ThresholdReport(lo, trace)
