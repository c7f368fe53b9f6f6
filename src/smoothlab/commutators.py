"""The shell-localized conjugation operator Q_k |D|^{-s} Q_m |D|^s.

Its L^2 -> L^2 norm decays like 2^t with the exponent t(k, m, s, p) taken
at p = 2,

    t(k, m, s, 2) = n (k + m)/2 - (n - max(s,0)) max(k,m) - max(s,0) min(k,m)

which depends only on |k - m|.  The scan below measures the norm by a
Lanczos iteration on the normal operator, which stops on its Ritz
residual and returns a lower bound, and regresses measured log2 norms on
the predicted exponent; only the slope is certified, the constant is a
fitted intercept.  The top Ritz pair of each Lanczos step comes from
Sturm counts and a tridiagonal solve, with no LAPACK call.  An operator
is named by its shell pair, s and grid; it fetches just its two masks
``spatial_mask(grid, k)``, each stored on its cube, and builds read-only
``|xi|^{+-s}`` once, before the solver allocates its buffers.  The
Lanczos vectors are spectra ``F v``: the forward map takes one to the
physical ``A v`` and the adjoint map brings ``A v`` back as ``F(A*A v)``,
three transforms each, in place in one buffer.  A mask product is
``ShellMask.times`` in place.  Each transform beside a mask runs its axis
passes only on the lines that the mask's blocks meet: a forward one reads
a field that vanishes off them, and an inverse one is exact on them,
where the mask product that follows keeps it.  A pair with an empty mask
is exactly zero and is not iterated.

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

from .dyadic import ShellMask, mask_audit, spatial_mask
from .grid import Field, Grid
from .spectral import abs_freq_power, boxed_fft_inplace, boxed_ifft_inplace, fft_inplace


def predicted_exponent(k: int, m: int, s: float, n: int) -> float:
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
    def _factors(self) -> tuple[ShellMask, ShellMask, np.ndarray | None, np.ndarray | None]:
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
    def _smooth(values: np.ndarray, symbol: np.ndarray | None, mask_in: ShellMask,
                mask_out: ShellMask) -> None:
        """|D|^{-s}-type multiplier of a field that vanishes off the blocks
        of ``mask_in``, exact on those of ``mask_out``, whose product
        follows."""
        if symbol is not None:
            boxed_fft_inplace(values, mask_in.blocks)
            values *= symbol
            boxed_ifft_inplace(values, mask_out.blocks)

    def apply(self, spec: Field) -> Field:
        """Physical A v from ``spec`` = F v, in ``spec``'s array."""
        qk, qm, up, down = self._factors
        x = spec.values
        if up is not None:
            x *= up
        boxed_ifft_inplace(x, qm.blocks)
        qm.times(x, x)
        self._smooth(x, down, qm, qk)
        qk.times(x, x)
        return Field(self.grid, x)

    def apply_adjoint(self, f: Field) -> Field:
        """F(A* u) from the physical ``f`` = u, in ``f``'s array."""
        # all four factors are self-adjoint; reverse the order
        qk, qm, up, down = self._factors
        x = f.values
        qk.times(x, x)
        self._smooth(x, down, qk, qm)
        qm.times(x, x)
        boxed_fft_inplace(x, qm.blocks)
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


def _at_or_above_spectrum(alphas: list[float], beta_sq: list[float], x: float) -> bool:
    """Whether no eigenvalue of the tridiagonal T with diagonal ``alphas``
    and squared off-diagonal ``beta_sq`` (led by a 0) exceeds x: the Sturm
    count, no pivot of the LDL^T factorization of T - x positive.  An exact
    zero pivot is moved to -1 ulp of x, as LAPACK's dstebz moves it to
    -pivmin."""
    d = -1.0
    for a, b2 in zip(alphas, beta_sq):
        d = (a - x - b2 / d) or -math.ulp(x)
        if d > 0:
            return False
    return True


def _top_eigenvalue(alphas: list[float], beta_sq: list[float], lo: float,
                    x: float) -> tuple[float, float]:
    """Adjacent floats lo < hi with the top eigenvalue of T between them in
    the Sturm count: hi is at or above the spectrum and lo is not.

    ``lo`` comes in as a float below the top eigenvalue and x as one not
    above it.  A doubling search from x finds hi, and bisection closes the
    bracket to one ulp (Golub & Van Loan, Matrix Computations, 4th ed.,
    8.4)."""
    hi, width = x, math.ulp(x)
    while not _at_or_above_spectrum(alphas, beta_sq, hi):
        lo, hi, width = hi, hi + width, 2.0 * width
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if _at_or_above_spectrum(alphas, beta_sq, mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def _inverse_iteration(alphas: list[float], betas: list[float], beta_sq: list[float],
                       shift: float, start: list[float]) -> list[float]:
    """The unit vector along (T - shift)^-1 start, by one Thomas solve.

    ``shift`` lies at or above the spectrum, so T - shift is negative
    semidefinite and its elimination needs no pivoting; its pivots are
    those of ``_at_or_above_spectrum`` at the shift."""
    pivots, y = [], []
    d, z = -1.0, 0.0
    for a, b2, b, s in zip(alphas, beta_sq, [0.0] + betas, start):
        z = s - b / d * z
        d = (a - shift - b2 / d) or -math.ulp(shift)
        pivots.append(d)
        y.append(z)
    upper, x = betas + [0.0], 0.0
    for i in reversed(range(len(y))):
        x = y[i] = (y[i] - upper[i] * x) / pivots[i]
    norm = math.hypot(*y)
    return [c / norm for c in y]


def _top_ritz_pair(alphas: list[float], betas: list[float], beta_sq: list[float],
                   previous: tuple[float, float] | None
                   ) -> tuple[float, float, list[float]]:
    """(below, theta, s) for the tridiagonal T_j: theta is the smallest float
    that no eigenvalue exceeds in the Sturm count, below the float under
    it, and s theta's unit eigenvector; ``previous`` is (below, theta) for
    T_{j-1} (None at j = 1).

    By interlacing the top eigenvalue does not fall from T_{j-1} to T_j, so
    the previous ``below`` stays below it and the search starts from
    theta_{j-1}; s comes from one solve at theta from the all-ones vector.
    Every beta of T_j is positive, so by Perron-Frobenius the top
    eigenvector has entries of one sign and meets that start by at least
    1/sqrt(j) (Parlett, The Symmetric Eigenvalue Problem, 1998)."""
    if previous is None:
        return math.nextafter(alphas[0], -math.inf), alphas[0], [1.0]
    below, theta = _top_eigenvalue(alphas, beta_sq, *previous)
    return below, theta, _inverse_iteration(alphas, betas, beta_sq, theta, [1.0] * len(alphas))


def operator_norm(op: CommutatorOp, seed: int) -> float:
    """Lanczos iteration on the normal operator F A*A F^-1 from one seeded
    mean-zero spectrum.

    Returns sqrt(theta) for the top Ritz value theta, a lower bound on the
    true norm up to rounding: the Krylov space holds every power iterate of
    the start.  The
    solve stops once the Ritz residual beta_j |s_j| (s_j the last entry of
    theta's unit eigenvector of the tridiagonal T_j) is at most
    ``LANCZOS_TOL`` times theta, or after ``LANCZOS_MAX_STEPS`` steps.  The
    top Ritz pair of each T_j is found without LAPACK, whose threaded calls
    kept a second core spinning: theta by Sturm-count bisection from
    theta_{j-1}'s bracket, and s_j by one inverse-iteration solve.

    A step is one ``op.apply`` and one ``op.apply_adjoint``, each three
    transforms at s != 0, run as axis passes on the lines its masks' cubes
    meet, so a solve of j steps runs 1 + 18j transform calls: one enters
    the spectrum.
    The operator is Hermitian on complex spectra, hence symmetric on their
    (Re, Im) pairs, so the real inner product Re <x, y> is the one the
    recurrence needs.  The solve holds three grid buffers and, past the
    seeded draw, makes no grid-sized temporary; the operator's factors are
    built first, so that they do not stack on the buffers.
    """
    op._factors
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
    beta_sq = [0.0]
    beta = 0.0
    bracket = None
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
        below, theta, vector = _top_ritz_pair(alphas, betas, beta_sq, bracket)
        bracket = below, theta
        if beta == 0 or beta * abs(vector[-1]) <= LANCZOS_TOL * theta:
            break
        betas.append(beta)
        beta_sq.append(beta * beta)
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
    dim: int,
    points: int,
    seed: int,
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
    return operator_norm(CommutatorOp(kk, mm, s, grid), seed=seed), resolved


def decay_scan(
    s: float,
    shells: Sequence[int],
    *,
    dim: int,
    points: int,
    seed: int,
) -> DecayScanResult:
    """Measure every (k, m) pair of the shells at least ``MIN_SEPARATION``
    apart and regress measured log2 norms on the predicted exponent.

    At p = 2 the exponent depends only on the shell separation, and the
    operator itself is dilation covariant, so each (separation, direction)
    class is measured once at its centered representative and shared by
    all translates.  Unresolved classes are recorded but excluded from the
    regression.
    """
    classes: dict[tuple[int, int], tuple[float, bool]] = {}
    records: list[DecayRecord] = []
    for k in shells:
        for m in shells:
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
    seed: int,
) -> dict[int, float]:
    """Diagonal (k, k) operator norms on one fixed grid, for the
    scale-covariance check."""
    out = {}
    for k in k_values:
        out[k] = operator_norm(CommutatorOp(k, k, s, grid), seed=seed)
    return out
