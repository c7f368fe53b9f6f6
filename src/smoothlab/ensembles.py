"""Randomized test ensembles: band-limited fields with support biased to
the mid shells, and their space-time extensions.

Coefficients are drawn on a fixed small frequency cube independent of the
grid size, so the same (seed, member) pair denotes the same continuum
field at every refinement level; refinement drift then measures
discretization, not ensemble churn.  The field is synthesized by
``spectral.banded_ifft_inplace``, which inverts the spectrum only on the
lines that the coefficient cube meets: its wrapped band of FFT indices,
laid out by ``dyadic.band_blocks`` as a frequency shell's band is.  A
space-time member is written in place, profile by profile and slice by
slice, into one preallocated stack.  Seeds are recorded in every report.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .dyadic import band_blocks, smooth_cutoff
from .grid import Field, Grid, SpaceTimeField
from .spectral import banded_ifft_inplace

#: number of random time-harmonic terms in a space-time ensemble member
SPACETIME_MODES = 3
#: |mode| annulus every suite draws its band-limited fields from
DEFAULT_MODE_RADIUS = (1.0, 6.0)


def member_rng(seed: int, *indices: int) -> np.random.Generator:
    return np.random.default_rng([seed, *indices])


def radial_window(grid: Grid, r_inner: float, r_outer: float) -> np.ndarray:
    """Smooth window: 0 inside r_inner/2, 1 on [r_inner, r_outer], 0 beyond
    2 r_outer (keeps data away from the origin and the box boundary)."""
    r = grid.radius
    return (1.0 - smooth_cutoff(2.0 * r / r_inner)) * smooth_cutoff(r / r_outer)


def mode_band_fits(points_per_axis: int, hi: float, mode_scale: int) -> bool:
    """Whether the coefficient cube |mode_j| <= ceil(hi), dilated by
    ``mode_scale``, fits inside half the lattice of the grid."""
    return 2 * math.ceil(hi) * mode_scale + 2 <= points_per_axis


def band_limited_field(
    grid: Grid,
    rng: np.random.Generator,
    mode_radius: tuple[float, float] = DEFAULT_MODE_RADIUS,
    window: tuple[float, float] | None = (0.7, 3.0),
    mode_scale: int = 1,
) -> Field:
    """Random mean-zero field with lattice modes in an |mode| annulus,
    spatially windowed to the mid shells.

    The coefficient draw covers the fixed cube |mode_j| <= ceil(hi) in a
    canonical order, so the realization is independent of the grid size.
    ``mode_scale`` dilates the same realization in frequency (f(x) becomes
    f(scale x), with the window shrunk along), used by the rescaling
    probes.
    """
    lo, hi = mode_radius
    kmax = math.ceil(hi)
    n = grid.dim
    cube = (2 * kmax + 1,) * n
    re = rng.standard_normal(cube)
    im = rng.standard_normal(cube)
    if not mode_band_fits(grid.points_per_axis, hi, mode_scale):
        raise ValueError("grid too coarse for the requested mode band")
    spectrum = np.zeros(grid.shape, dtype=np.complex128)
    N = grid.points_per_axis
    kvec = np.indices(cube) - kmax
    r = np.sqrt(np.sum(kvec**2, axis=0))
    band = (r >= lo) & (r <= hi)
    # the band fits inside half the lattice, so no two modes share a slot
    spectrum[tuple((kvec[:, band] * mode_scale) % N)] = re[band] + 1j * im[band]
    # unnormalized inverse transform scaled so samples are sums of unit plane waves
    values = banded_ifft_inplace(spectrum, band_blocks(N, kmax * mode_scale))
    values *= N**n
    if window is not None:
        values *= radial_window(grid, window[0] / mode_scale, window[1] / mode_scale)
    return Field(grid, values - values.mean())


def band_limited_spacetime(
    grid: Grid,
    times: Sequence[float],
    rng: np.random.Generator,
    mode_radius: tuple[float, float] = DEFAULT_MODE_RADIUS,
    window: tuple[float, float] | None = (0.7, 3.0),
    mode_scale: int = 1,
    time_scale: float = 1.0,
    amplitude: float = 1.0,
) -> SpaceTimeField:
    """sum_j exp(i omega_j t + i theta_j) f_j(x) over ``SPACETIME_MODES``
    random spatial profiles, with frequencies up to two periods over the
    time span; every slice is mean-zero and windowed away from the origin.

    With the same rng stream, ``(mode_scale, time_scale, amplitude)``
    produce the exactly dilated realization ``amplitude *
    F(time_scale * t, mode_scale * x)`` of the undilated member.
    """
    times = np.asarray(times, dtype=float)
    span = (times[-1] - times[0]) * time_scale
    omega_max = 4.0 * np.pi / span if span > 0 else 1.0
    omegas = rng.uniform(-omega_max, omega_max, size=SPACETIME_MODES) * time_scale
    thetas = rng.uniform(0, 2 * np.pi, size=SPACETIME_MODES)
    profiles = [band_limited_field(grid, rng, mode_radius, window, mode_scale=mode_scale)
                for _ in range(SPACETIME_MODES)]
    vals = np.zeros((len(times),) + grid.shape, dtype=np.complex128)
    for om, th, prof in zip(omegas, thetas, profiles):
        envelope = np.exp(1j * (om * times + th))
        for slot, e in zip(vals, envelope):
            slot += e * prof.values
    vals *= amplitude
    return SpaceTimeField(grid, times, vals)
