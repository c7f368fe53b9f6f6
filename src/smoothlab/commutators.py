"""The shell-localized conjugation operator Q_k |D|^{-s} Q_m |D|^s.

Its L^2 -> L^2 norm decays like 2^t with the exponent t(k, m, s, p) taken
at p = 2,

    t(k, m, s, 2) = n (k + m)/2 - (n - max(s,0)) max(k,m) - max(s,0) min(k,m)

which depends only on |k - m|.  The scan below measures the norm by a
Lanczos iteration on the normal operator, which stops on its Ritz
residual and returns a lower bound, and regresses measured log2 norms on
the predicted exponent; only the slope is certified, the constant is a
fitted intercept.  An operator is named by its shell pair, s and grid;
it fetches just its two masks ``spatial_mask(grid, k)`` and builds
read-only ``|xi|^{+-s}`` once, before the solver allocates its buffers.
The Lanczos vectors are spectra ``F v``: the forward map takes one to the
physical ``A v`` and the adjoint map brings ``A v`` back as ``F(A*A v)``,
three transforms each, in place in one buffer.  A pair with an empty
mask is exactly zero and is not iterated.

Dilating x -> 2x carries the (k, m) operator exactly onto (k+1, m+1) when
both the box and spacing scale along, so each shell pair is evaluated on
a grid centered at its best-resolved dyadic position and the result is
assigned to every translate of that pair.  Pairs whose masks fail the
sampling audit are flagged and left out of the regression.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .dyadic import mask_audit, spatial_mask
from .grid import Field, Grid
from .spectral import abs_freq_power, fft_inplace, ifft_inplace


def predicted_exponent(k: int, m: int, s: float, n: int = 3) -> float:
    """Predicted dyadic decay exponent t(k, m, s, 2) of the L^2 -> L^2 norm
    in dimension n."""
    s_plus = max(s, 0.0)
    hi, lo = max(k, m), min(k, m)
    return k * n / 2 + m * n / 2 - (n - s_plus) * hi - s_plus * lo


@dataclass(frozen=True)
class CommutatorOp:
    """A = Q_k |D|^{-s} Q_m |D|^s on the mean-zero subspace of a grid.

    Both maps overwrite the array of the field they are given and return
    a field on that same array: ``apply`` takes a spectrum ``F v`` to the
    physical ``A v``, and ``apply_adjoint`` takes a physical ``u`` to
    ``F(A* u)``, whose zero mode is exactly 0."""

    k: int
    m: int
    s: float
    grid: Grid

    def __post_init__(self) -> None:
        if abs(self.s) >= 1:
            raise ValueError(f"s must satisfy |s| < 1, got {self.s}")

    @cached_property
    def _factors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray | None, np.ndarray | None]:
        """Q_k, Q_m, |xi|^s and |xi|^-s, built on first use and kept.

        All four are read-only, like the cached masks, so an in-place
        product aimed at one of them raises instead of corrupting every
        later matvec.  At s = 0 both multiplier factors are the identity
        and are skipped (None): applying the zero-mode annihilation between
        the masks there would inject mask-dependent constants and break
        the disjoint-support degeneration."""
        qk, qm = spatial_mask(self.grid, self.k), spatial_mask(self.grid, self.m)
        if self.s == 0:
            return qk, qm, None, None
        up, down = abs_freq_power(self.grid, self.s), abs_freq_power(self.grid, -self.s)
        up.flags.writeable = down.flags.writeable = False
        return qk, qm, up, down

    @staticmethod
    def _smooth(values: np.ndarray, symbol: np.ndarray | None) -> None:
        if symbol is not None:
            fft_inplace(values)
            values *= symbol
            ifft_inplace(values)

    def apply(self, spec: Field) -> Field:
        """Physical A v from ``spec`` = F v, in ``spec``'s array."""
        qk, qm, up, down = self._factors
        x = spec.values
        if up is not None:
            x *= up
        ifft_inplace(x)
        x *= qm
        self._smooth(x, down)
        x *= qk
        return Field(self.grid, x)

    def apply_adjoint(self, f: Field) -> Field:
        """F(A* u) from the physical ``f`` = u, in ``f``'s array."""
        # all four factors are self-adjoint; reverse the order
        qk, qm, up, down = self._factors
        x = f.values
        x *= qk
        self._smooth(x, down)
        x *= qm
        fft_inplace(x)
        if up is None:
            x.flat[0] = 0.0  # |xi|^s zeroes the mode for s != 0; keep v mean-zero
        else:
            x *= up
        return Field(self.grid, x)


#: relative Ritz residual at which the Lanczos solve stops
LANCZOS_TOL = 1e-10
#: Lanczos steps after which the solve returns its top Ritz value as it is
LANCZOS_MAX_STEPS = 200


def _real_dot(x: np.ndarray, y: np.ndarray) -> float:
    """Re <x, y> over the float64 views, with no copy and no BLAS call (a
    threaded BLAS would make the sum depend on the thread count)."""
    return float(np.einsum("i,i->", x.view(np.float64).ravel(), y.view(np.float64).ravel()))


def operator_norm(op: CommutatorOp, seed: int = 0) -> float:
    """Lanczos iteration on the normal operator F A*A F^-1 from one seeded
    mean-zero spectrum.

    Returns sqrt(theta) for the top Ritz value theta, a lower bound on the
    true norm: the Krylov space holds every power iterate of the start.  The
    solve stops once the Ritz residual beta_j |s_j| (s_j the last entry of
    theta's eigenvector of the tridiagonal T_j) is at most ``LANCZOS_TOL``
    times theta, or after ``LANCZOS_MAX_STEPS`` steps.  A step is one
    ``op.apply`` and one ``op.apply_adjoint``, six transforms, so a solve of
    j steps runs 1 + 6j of them: one enters the spectrum.  The operator is
    Hermitian on complex spectra, hence symmetric on their (Re, Im) pairs,
    so the real inner product Re <x, y> is the one the recurrence needs.
    The solve holds three grid buffers and, past the seeded draw, makes no
    grid-sized temporary; build the operator's factors first, so that they
    do not stack on the buffers.
    """
    grid = op.grid
    rng = np.random.default_rng(seed)
    v = np.empty(grid.shape, dtype=np.complex128)
    v.real = rng.standard_normal(grid.shape)
    v.imag = rng.standard_normal(grid.shape)
    v -= v.mean()
    fft_inplace(v)
    v *= 1.0 / math.sqrt(_real_dot(v, v))
    prev, spare = np.zeros_like(v), np.empty_like(v)
    alphas: list[float] = []
    betas: list[float] = []
    beta = 0.0
    for _ in range(LANCZOS_MAX_STEPS):
        np.copyto(spare, v)
        w = op.apply_adjoint(op.apply(Field(grid, spare))).values
        alpha = _real_dot(v, w)
        # w -= beta prev + alpha v, through prev, which is not needed again
        prev *= beta
        w -= prev
        np.multiply(v, alpha, out=prev)
        w -= prev
        beta = math.sqrt(_real_dot(w, w))
        alphas.append(alpha)
        t = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
        values, vectors = np.linalg.eigh(t)
        theta = values[-1]
        if beta == 0 or beta * abs(vectors[-1, -1]) <= LANCZOS_TOL * theta:
            break
        betas.append(beta)
        w *= 1.0 / beta
        prev, v, spare = v, w, prev
    return math.sqrt(max(theta, 0.0))


# ---------------------------------------------------------------------------
# decay scan
# ---------------------------------------------------------------------------

#: closest shell separation |k - m| the decay scan measures
MIN_SEPARATION = 3


@dataclass
class DecayRecord:
    k: int
    m: int
    s: float
    measured_log2: float
    predicted_t: float
    resolved: bool

    @property
    def residual(self) -> float:
        return self.measured_log2 - self.predicted_t


@dataclass
class DecayScanResult:
    records: list[DecayRecord]
    slope: float
    intercept: float
    regression_points: int

    def csv_rows(self) -> list[dict]:
        return [
            {
                "k": r.k,
                "m": r.m,
                "s": r.s,
                "measured_log2": r.measured_log2,
                "predicted_t": r.predicted_t,
                "residual": r.residual,
            }
            for r in self.records
        ]


def measure_pair_norm(
    k: int,
    m: int,
    s: float,
    *,
    dim: int = 3,
    points: int = 64,
    seed: int = 0,
) -> tuple[float, bool]:
    """Operator norm of the (k, m) pair measured at its centered dyadic
    position; returns (norm, resolved).

    By exact dilation covariance the pair is shifted so that its outer
    shell sits at index 2, two octaves inside the box of half-width 8.
    A pair whose mask holds no grid point is exactly the zero operator:
    its norm is 0.0 and nothing is iterated."""
    shift = 2 - max(k, m)
    kk, mm = k + shift, m + shift
    grid = Grid(dim, 8.0, points)
    audit_k, audit_m = mask_audit(grid, kk), mask_audit(grid, mm)
    resolved = audit_k.resolved() and audit_m.resolved()
    if audit_k.nonzero_samples == 0 or audit_m.nonzero_samples == 0:
        return 0.0, resolved
    op = CommutatorOp(kk, mm, s, grid)
    op._factors  # built before the solver's buffers, not on top of them
    return operator_norm(op, seed=seed), resolved


def decay_scan(
    s: float,
    k_range: Sequence[int],
    m_range: Sequence[int],
    *,
    dim: int = 3,
    points: int = 64,
    seed: int = 0,
) -> DecayScanResult:
    """Measure every (k, m) pair at least ``MIN_SEPARATION`` shells apart
    and regress measured log2 norms on the predicted exponent.

    At p = 2 the exponent depends only on the shell separation, and the
    operator itself is dilation covariant, so each (separation, direction)
    class is measured once at its centered representative and shared by
    all translates.  Unresolved classes are recorded but excluded from the
    regression.
    """
    classes: dict[tuple[int, int], tuple[float, bool]] = {}
    records: list[DecayRecord] = []
    for k in k_range:
        for m in m_range:
            if abs(k - m) < MIN_SEPARATION:
                continue
            key = (m - k > 0, abs(m - k))
            if key not in classes:
                classes[key] = measure_pair_norm(k, m, s, dim=dim, points=points, seed=seed)
            value, resolved = classes[key]
            measured = math.log2(value) if value > 0 else -math.inf
            records.append(
                DecayRecord(
                    k=k, m=m, s=s,
                    measured_log2=measured,
                    predicted_t=predicted_exponent(k, m, s, dim),
                    resolved=resolved and value > 0,
                )
            )
    pts = [(r.predicted_t, r.measured_log2) for r in records if r.resolved]
    if len(pts) >= 2 and len({t for t, _ in pts}) >= 2:
        t = np.array([p[0] for p in pts])
        y = np.array([p[1] for p in pts])
        slope, intercept = np.polyfit(t, y, 1)
    else:
        slope, intercept = math.nan, math.nan
    return DecayScanResult(records, float(slope), float(intercept), len(pts))


def diagonal_scan(
    s: float,
    k_values: Sequence[int],
    grid: Grid,
    *,
    seed: int = 0,
) -> dict[int, float]:
    """Diagonal (k, k) operator norms on one fixed grid, for the
    scale-covariance check."""
    out = {}
    for k in k_values:
        op = CommutatorOp(k, k, s, grid)
        op._factors  # built before the solver's buffers, not on top of them
        out[k] = operator_norm(op, seed=seed)
    return out
