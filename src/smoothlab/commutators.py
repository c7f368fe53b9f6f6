"""The shell-localized conjugation operator Q_k |D|^{-s} Q_m |D|^s.

Its L^2 -> L^2 norm decays like 2^t with the exponent t(k, m, s, p) taken
at p = 2,

    t(k, m, s, 2) = n (k + m)/2 - (n - max(s,0)) max(k,m) - max(s,0) min(k,m)

which depends only on |k - m|.  The scan below measures the norm
by power iteration on the normal operator and regresses measured log2
norms on the predicted exponent; only the slope is certified, the
constant is a fitted intercept.  Each operator builds its two masks and
read-only ``|xi|^{+-s}`` once.  The power iterate is kept as its spectrum
``F v``: the forward map takes it to the physical ``A v`` and the adjoint
map brings ``A v`` back as ``F(A*A v)``, three transforms each, all in
place in one buffer.  A pair with an empty mask is exactly zero and is not
iterated, and the last power step forms only ``A v``, not ``A*(A v)``.

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

from .dyadic import DyadicDecomposition, mask_resolution_audit, spatial_masks
from .grid import Field, Grid
from .spectral import abs_freq_power, fft_inplace, ifft_inplace, l2_norm, spectrum_l2_norm


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
    decomp: DyadicDecomposition
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
        masks = spatial_masks(self.decomp, self.grid)
        if self.s == 0:
            return masks[self.k], masks[self.m], None, None
        up, down = abs_freq_power(self.grid, self.s), abs_freq_power(self.grid, -self.s)
        up.flags.writeable = down.flags.writeable = False
        return masks[self.k], masks[self.m], up, down

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


def operator_norm(
    op: CommutatorOp,
    trials: int = 8,
    iterations: int = 50,
    tol: float = 1e-6,
    seed: int = 0,
) -> float:
    """Power iteration on A*A from random mean-zero starts.

    Returns the largest Rayleigh quotient found over the trials, a lower
    bound on the true norm (0.0 when no trial grew).  The iterate is the
    spectrum ``F v`` of a unit mean-zero ``v``.  Each step forms ``A v``
    with ``op.apply`` and tests ``||A v||`` for convergence first;
    ``op.apply_adjoint`` forms ``F(A*A v)``, whose zero mode is 0, only
    when a further step will use it, and ``||A*A v||`` comes from
    Plancherel.  Both maps work in place in one buffer this function
    owns, so a trial that stops after j forward maps runs 6j - 2
    transforms: one to enter the spectrum and three per map.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = np.random.default_rng(seed)
    grid = op.grid
    buf = np.empty(grid.shape, dtype=np.complex128)
    results = []
    for _ in range(trials):
        buf.real = rng.standard_normal(grid.shape)
        buf.imag = rng.standard_normal(grid.shape)
        buf -= buf.mean()
        v = Field(grid, buf)
        nv = l2_norm(v)
        if nv == 0:
            continue
        buf *= 1.0 / nv
        fft_inplace(buf)
        est = 0.0
        for step in range(iterations):
            av = op.apply(v)
            na = l2_norm(av)  # ||A v|| for unit v
            last = step == iterations - 1 or (est > 0 and abs(na - est) <= tol * est)
            est = na
            if na == 0 or last:
                break
            v = op.apply_adjoint(av)
            nw = spectrum_l2_norm(v)
            if nw == 0:
                break
            v.values *= 1.0 / nw
        results.append(est)
    return max([r for r in results if r > 0], default=0.0)


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


def _centered_setup(k: int, m: int, points: int, dim: int):
    """Grid and shifted shell pair with the outer shell two octaves inside
    the box, exploiting exact dilation covariance."""
    hi = max(k, m)
    shift = 2 - hi  # place the outer shell at index 2
    kk, mm = k + shift, m + shift
    grid = Grid(dim, 8.0, points)
    decomp = DyadicDecomposition(min(kk, mm) - 1, max(kk, mm) + 1)
    return grid, decomp, kk, mm


def measure_pair_norm(
    k: int,
    m: int,
    s: float,
    *,
    dim: int = 3,
    points: int = 64,
    trials: int = 4,
    iterations: int = 30,
    seed: int = 0,
) -> tuple[float, bool]:
    """Operator norm of the (k, m) pair measured at its centered dyadic
    position; returns (norm, resolved).

    A pair whose mask holds no grid point is exactly the zero operator:
    its norm is 0.0 and nothing is iterated."""
    grid, decomp, kk, mm = _centered_setup(k, m, points, dim)
    audits = mask_resolution_audit(spatial_masks(decomp, grid))
    resolved = audits[kk].resolved() and audits[mm].resolved()
    if audits[kk].nonzero_samples == 0 or audits[mm].nonzero_samples == 0:
        return 0.0, resolved
    op = CommutatorOp(kk, mm, s, decomp, grid)
    return operator_norm(op, trials=trials, iterations=iterations, seed=seed), resolved


def decay_scan(
    s: float,
    k_range: Sequence[int],
    m_range: Sequence[int],
    *,
    dim: int = 3,
    points: int = 64,
    trials: int = 4,
    iterations: int = 30,
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
                classes[key] = measure_pair_norm(
                    k, m, s, dim=dim, points=points,
                    trials=trials, iterations=iterations, seed=seed,
                )
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


#: power iteration depth of the diagonal scan: the near-degenerate top of
#: the diagonal normal operator needs deep iteration to converge
DIAGONAL_TRIALS = 2
DIAGONAL_ITERATIONS = 120
DIAGONAL_TOL = 1e-9


def diagonal_scan(
    s: float,
    k_values: Sequence[int],
    decomp: DyadicDecomposition,
    grid: Grid,
    *,
    seed: int = 0,
) -> dict[int, float]:
    """Diagonal (k, k) operator norms on one fixed grid, for the
    scale-covariance check."""
    out = {}
    for k in k_values:
        op = CommutatorOp(k, k, s, decomp, grid)
        out[k] = operator_norm(op, trials=DIAGONAL_TRIALS, iterations=DIAGONAL_ITERATIONS,
                               tol=DIAGONAL_TOL, seed=seed)
    return out
