"""Dyadic partitions of unity in space and frequency, and the weighted
sequence norm that assembles every dyadic shell sum.

The bump ``bump(s) = phi(s) = chi(s) - chi(2 s)`` is fixed once and for
all as the telescoping difference of a smooth monotone step ``chi`` built
from the standard ``exp(-1/t)`` mollifier, so that every build produces
bit-comparable masks.  ``chi`` equals 1 on ``(0, 1]`` and 0 on ``[2, inf)``,
hence ``phi`` is nonnegative, supported in ``(1/2, 2)``, and the shifted
family ``phi(s / 2^k)`` sums to 1 for every ``s > 0``.

A mask is named by its grid and shell index alone: ``spatial_mask(grid, k)``
is ``Q_k`` and ``frequency_mask(grid, k)`` is ``P_k``.  Each is a
``ShellMask``: the blocks of indices along each axis whose product is where
it can be nonzero, and its values there, one cached array per shell.  This
module alone decides the support: ``Q_k`` lives on the cube
``shell_box(grid, k)^n`` and ``P_k`` on the wrapped band of FFT indices
``|j| <= frequency_band(grid, k)`` per axis, laid out by ``band_blocks``;
outside, the mask is exactly 0.  ``ShellMask.times`` is the one masked
product, and the pruned transforms of ``spectral`` take a mask's blocks.
The cache is keyed by the grid's value, so no entry keeps a ``Grid``
instance, or the coordinate arrays it caches, alive.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import astuple, dataclass
from functools import lru_cache
from typing import Mapping, NamedTuple

import numpy as np

from .grid import Grid, product_radius


def smooth_step(t):
    """Smooth monotone step: 0 for t <= 0, 1 for t >= 1.

    On the open band 0 < t < 1 it is g / (g + h) with the ``exp(-1/t)``
    mollifier g = exp(-1/t) and h = exp(-1/(1 - t)); outside the band it
    is exactly 0.0 or 1.0 and no exponential is taken.  One of g, h is at
    least exp(-2) on the band, so g + h > 0.  Near 0 and 1 an exponential
    and the quotient underflow, and a subnormal t overflows -1/t to -inf,
    all silently.
    """
    t = np.asarray(t, dtype=float)
    out = np.where(t >= 1, 1.0, 0.0)
    band = (t > 0) & (t < 1)
    tb = t[band]
    with np.errstate(over="ignore", divide="ignore", under="ignore"):
        g = np.exp(-1.0 / tb)
        h = np.exp(-1.0 / (1.0 - tb))
        out[band] = g / (g + h)
    return out


def smooth_cutoff(s):
    """chi(s): 1 on (-inf, 1], smooth monotone decrease, 0 on [2, inf)."""
    return smooth_step(2.0 - np.asarray(s, dtype=float))


def bump(s):
    """The radial bump phi(s) = chi(s) - chi(2s), supported in (1/2, 2)."""
    s = np.asarray(s, dtype=float)
    return smooth_cutoff(s) - smooth_cutoff(2.0 * s)


@dataclass(frozen=True)
class DyadicDecomposition:
    """A finite range of dyadic shells of the one bump.

    Shell ``k`` refers to the annulus ``2^(k-1) <= r <= 2^(k+1)``; the
    spatial mask is ``Q_k(x) = phi(|x| / 2^k)`` and the frequency mask is
    the same bump on the lattice ``|xi|``.
    """

    k_min: int
    k_max: int

    def __post_init__(self) -> None:
        if self.k_min >= self.k_max:
            raise ValueError(f"need k_min < k_max, got [{self.k_min}, {self.k_max}]")

    @property
    def shells(self) -> range:
        return range(self.k_min, self.k_max + 1)

    @property
    def covered_interval(self) -> tuple[float, float]:
        """Radial interval on which the truncated partition sums to exactly 1."""
        return (2.0 ** (self.k_min + 1), 2.0 ** (self.k_max - 1))

    def partition_sum(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        total = np.zeros_like(r)
        for k in self.shells:
            total = total + bump(r / 2.0**k)
        return total

    def shift(self, j: int) -> "DyadicDecomposition":
        return DyadicDecomposition(self.k_min + j, self.k_max + j)


class ShellMask(NamedTuple):
    """A shell mask stored on the index set of its grid where it can be
    nonzero: the product of ``blocks``, the same ascending slices along
    every axis.  ``values`` is the mask there, the blocks laid end to end
    along each axis, read-only and shared; the mask is exactly 0 everywhere
    else."""

    values: np.ndarray
    blocks: tuple[slice, ...]

    def times(self, field: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Overwrite ``out`` with mask * field over the whole grid, exact
        zeros off the blocks; ``out`` may be ``field``.  Returns ``out``.

        Off the blocks only ``out`` is written, one gap of an axis at a time
        with the earlier axes inside the blocks.  On each block the real
        and, for a complex ``out``, the imaginary part of the field are
        multiplied by the real mask into ``out``, one ``np.multiply`` each,
        so no temporary and no cast buffer is made."""
        n, points = out.ndim, out.shape[0]
        starts = [0] + [b.stop for b in self.blocks]
        stops = [b.start for b in self.blocks] + [points]
        gaps = [slice(a, b) for a, b in zip(starts, stops) if a < b]
        for ax in range(n):
            for inside in itertools.product(self.blocks, repeat=ax):
                for gap in gaps:
                    out[inside + (gap,)] = 0
        widths = [b.stop - b.start for b in self.blocks]
        packed = [slice(e - w, e) for w, e in zip(widths, itertools.accumulate(widths))]
        parts = ("real", "imag") if np.iscomplexobj(out) else ("real",)
        for pairs in itertools.product(zip(packed, self.blocks), repeat=n):
            on_grid = tuple(b for _, b in pairs)
            mask = self.values[tuple(p for p, _ in pairs)]
            for part in parts:
                np.multiply(mask, getattr(field[on_grid], part),
                            out=getattr(out[on_grid], part))
        return out


def shell_box(grid: Grid, k: int) -> slice:
    """The indices along one axis with ``|x_j| < 2^(k+1)``.

    The shell-k spatial mask vanishes outside the cube ``shell_box^n``:
    ``bump`` is exactly 0 from s = 2 on, and ``|x| >= |x_j|``.  The box
    always holds the centre index, where x_j = 0.
    """
    inside = np.flatnonzero(np.abs(grid.axis) < 2.0 ** (k + 1))
    return slice(int(inside[0]), int(inside[-1]) + 1)


def frequency_band(grid: Grid, k: int) -> int:
    """The largest signed FFT index j with ``|xi_j| < 2^(k+1)``.

    The shell-k frequency mask vanishes unless every index of a lattice
    point satisfies ``|j| <= frequency_band``, as ``shell_box`` bounds the
    spatial mask; a band of N/2 covers the whole axis.
    """
    nonneg = np.abs(grid.freq_axis[: grid.points_per_axis // 2 + 1])
    return int(np.flatnonzero(nonneg < 2.0 ** (k + 1))[-1])


def shell_radius(grid: Grid, k: int) -> np.ndarray:
    """|x| on the cube ``shell_box(grid, k)^n`` of the shell-k spatial
    mask, bit for bit ``grid.radius`` there."""
    return product_radius(grid.axis[shell_box(grid, k)], grid.dim)


def band_blocks(points: int, band: int) -> tuple[slice, ...]:
    """The indices of an axis of ``points`` with signed FFT index
    ``|j| <= band``, in FFT order: ``0..band``, then ``-band..-1`` at the
    end of the axis; one slice once the band covers the axis."""
    if 2 * band + 1 >= points:
        return (slice(0, points),)
    return tuple(s for s in (slice(0, band + 1), slice(points - band, points))
                 if s.start < s.stop)


def _blocks(grid: Grid, kind: str, k: int) -> tuple[slice, ...]:
    """The blocks of one axis on which the shell-k mask of the kind can be
    nonzero."""
    if kind == "spatial":
        return (shell_box(grid, k),)
    return band_blocks(grid.points_per_axis, frequency_band(grid, k))


@lru_cache(maxsize=64)
def _cached_masks(dim: int, half_width: float, points: int, kind: str, k: int) -> np.ndarray:
    """The values of the shell-k mask ``bump(r / 2^k)`` on its support,
    one read-only array per grid value, kind and shell.

    Every shell range that holds shell k on an equal grid shares one
    array.  Only the radii of the support are evaluated, so a build makes
    no grid-sized temporary unless the support is the whole grid.  The
    cache is bounded at 64 arrays, at most 128 MiB at 64^3.
    """
    grid = Grid(dim, half_width, points)
    axis = grid.axis if kind == "spatial" else grid.freq_axis
    coords = np.concatenate([axis[b] for b in _blocks(grid, kind, k)])
    mask = bump(product_radius(coords, dim) / 2.0**k)
    mask.flags.writeable = False
    return mask


def _shell_mask(grid: Grid, kind: str, k: int) -> ShellMask:
    return ShellMask(_cached_masks(*astuple(grid), kind, k), _blocks(grid, kind, k))


def spatial_mask(grid: Grid, k: int) -> ShellMask:
    """The mask Q_k(x) = phi(|x| / 2^k) sampled on the grid, stored on the
    cube ``shell_box(grid, k)^n``; one cached array per grid and shell.

    A shell need not be resolvable on the grid: the boundary shells of a
    range are truncation tail, and ``mask_audit`` reports how well a shell
    is sampled.
    """
    return _shell_mask(grid, "spatial", k)


def frequency_mask(grid: Grid, k: int) -> ShellMask:
    """The mask P_k(xi) = phi(|xi| / 2^k) on the frequency lattice (FFT
    order), stored on the indices with ``|j| <= frequency_band(grid, k)``
    along every axis and cached as in ``spatial_mask``."""
    return _shell_mask(grid, "frequency", k)


#: a sampled mask is resolved when it holds at least this many grid points
RESOLVED_MIN_SAMPLES = 10
#: and when its discrete-to-continuum mass ratio lies in this window
RESOLVED_MASS_WINDOW = (0.25, 4.0)


@dataclass(frozen=True)
class MaskAudit:
    """Resolution diagnostics for one sampled mask."""

    k: int
    nonzero_samples: int
    discrete_mass: float  # cell-weighted l2 mass of the sampled mask
    continuum_mass: float  # radial quadrature of the same quantity on R^n

    @property
    def mass_ratio(self) -> float:
        if self.continuum_mass == 0:
            return math.inf
        return self.discrete_mass / self.continuum_mass

    def resolved(self) -> bool:
        lo, hi = RESOLVED_MASS_WINDOW
        return self.nonzero_samples >= RESOLVED_MIN_SAMPLES and lo <= self.mass_ratio <= hi


def _continuum_mask_mass(k: int, dim: int) -> float:
    # int Q_k(x)^2 dx over R^n by radial midpoint quadrature on the support
    lo, hi = 2.0 ** (k - 1), 2.0 ** (k + 1)
    r = np.linspace(lo, hi, 2049)
    mid = 0.5 * (r[:-1] + r[1:])
    w = np.diff(r)
    sphere = {1: 2.0, 2: 2.0 * np.pi, 3: 4.0 * np.pi}.get(dim)
    if sphere is None:
        sphere = dim * np.pi ** (dim / 2) / math.gamma(dim / 2 + 1)
    vals = bump(mid / 2.0**k) ** 2 * sphere * mid ** (dim - 1)
    return float(np.sum(vals * w))


def mask_audit(grid: Grid, k: int) -> MaskAudit:
    """Sampling diagnostics of the shell-k spatial mask on the grid."""
    m = spatial_mask(grid, k).values  # the mask is 0 off its cube
    disc = float(np.sum(m**2) * grid.cell_volume)
    return MaskAudit(k, int(np.count_nonzero(m)), disc, _continuum_mask_mass(k, grid.dim))


def seq_norm(a: Mapping[int, complex], q: float, alpha: float) -> float:
    """Weighted norm (sum_k 2^(k q alpha) |a_k|^q)^(1/q) of a finitely
    supported sequence over Z, given as index -> value; sup form at q = inf.

    The truncated ``q = inf`` case uses max, not essential sup.
    """
    if q < 1:
        raise ValueError(f"exponent q must be >= 1, got {q}")
    if not a:
        return 0.0
    if math.isinf(q):
        return max(2.0 ** (k * alpha) * abs(v) for k, v in a.items())
    total = sum(
        2.0 ** (k * q * alpha) * abs(v) ** q for k, v in a.items()
    )
    return total ** (1.0 / q)
