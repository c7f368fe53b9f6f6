"""Reference implementations the tests check the package against.

No suite runs these.  They are closed forms, textbook operators and
plain constructors that the tests use as independent oracles: grid
coordinates, lattice plane waves, the L^2 inner product, the
Morrey-Campanato local energy, the one-sided geometric edge value of the discrete kernel, the
boundary-shell share of a shell norm, the Riesz transforms (whose identities pin the zero-mode convention of the
multiplier pathway), the fractional Laplacian as a transform pair, the
p = 2 shell term as a dense Plancherel sum, the smooth step evaluated on
the whole line, the shell masks evaluated on the whole grid, and the
space-time fields built as lists of slices stacked at the end or as one
broadcast product: the free flow, a march and an ensemble member.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from smoothlab.discrete import SEPARATION
from smoothlab.dyadic import DyadicDecomposition, ShellMask, bump, seq_norm
from smoothlab.ensembles import SPACETIME_MODES, band_limited_field
from smoothlab.grid import Field, Grid, _fftn, _ifftn
from smoothlab.norms import NormSpec, lqa_shell_terms
from smoothlab.spectral import abs_freq_power, apply_multiplier


def coord(grid: Grid, axis: int) -> np.ndarray:
    """Coordinate ``x_axis`` broadcastable over the grid shape."""
    shape = [1] * grid.dim
    shape[axis] = -1
    return grid.axis.reshape(shape)


def plane_wave(grid: Grid, mode: Sequence[int]) -> Field:
    """``exp(i xi . x)`` for the lattice frequency ``xi = (pi/L) * mode``."""
    if len(mode) != grid.dim:
        raise ValueError(f"mode needs {grid.dim} integers, got {len(mode)}")
    phase = np.zeros(grid.shape)
    for j, m in enumerate(mode):
        phase = phase + (np.pi / grid.half_width) * m * coord(grid, j)
    return Field(grid, np.exp(1j * phase))


def inner_product(f: Field, g: Field) -> complex:
    return complex(np.sum(f.values * np.conj(g.values)) * f.grid.cell_volume)


def morrey_campanato(f: Field) -> float:
    """Scale-invariant local energy: sup_R (R^-1 int_{|x|<=R} |f|^2)^(1/2).

    The sup over all R > 0 is evaluated on a dyadic ladder (with arithmetic
    midpoints) spanning grid spacing to box half-width; the integrand is
    monotone in R between ladder points up to quadrature error.
    """
    grid = f.grid
    k_lo = math.ceil(math.log2(grid.spacing))
    k_hi = math.floor(math.log2(grid.half_width))
    ladder = [2.0**k for k in range(k_lo, k_hi + 1)]
    r = grid.radius
    a2 = np.abs(f.values) ** 2
    best = 0.0
    for R in sorted(ladder + [1.5 * R for R in ladder[:-1]]):
        val = np.sum(a2[r <= R]) * grid.cell_volume / R
        best = max(best, float(val))
    return math.sqrt(best)


def geometric_edge_value(window: int) -> float:
    """One-sided geometric series sum_{j=4}^{2K} 2^(-j/2): the output value
    at the bottom edge of the window for the flat input on [-K, K] at
    lambda = mu = 1/2, beta = 1."""
    r = 2.0**-0.5
    return (r**SEPARATION - r ** (2 * window + 1)) / (1.0 - r)


def lqa_tail_fraction(f: Field, decomp: DyadicDecomposition, spec: NormSpec) -> float:
    """Share of the two boundary shells in the D_then_mask norm at p = 2
    (q-power mass; at q = inf the boundary max relative to the global max)."""
    [terms] = lqa_shell_terms((f,), decomp, spec, "D_then_mask", 2)
    total = seq_norm(terms, spec.q, spec.a)
    if total == 0:
        return 0.0
    share = seq_norm({k: terms[k] for k in (decomp.k_min, decomp.k_max)}, spec.q, spec.a) / total
    return share if math.isinf(spec.q) else share**spec.q


def riesz_transform(f: Field, axis: int) -> Field:
    """Multiplier xi_axis / |xi| with the zero mode dropped.

    Sign convention: the symbol is real, so sum_j R_j(R_j f) = f minus its
    mean (no minus sign).
    """
    grid = f.grid
    if not 0 <= axis < grid.dim:
        raise ValueError(f"axis {axis} out of range for dim {grid.dim}")
    r = grid.freq_radius
    sym = np.zeros(grid.shape)
    nz = r > 0
    sym[nz] = (np.broadcast_to(grid.freq_coord(axis), grid.shape)[nz]) / r[nz]
    return apply_multiplier(f, sym)


def fractional_laplacian(f: Field, s: float) -> Field:
    """|D|^s f: Fourier coefficients scaled by |xi|^s, zero mode dropped."""
    return apply_multiplier(f, abs_freq_power(f.grid, s))


def dense_shell_term(f: Field, weight: np.ndarray, s: float) -> float:
    """|| |D|^s (weight f) ||_{L^2}: numpy's full ``fftn`` of the dense
    masked field, its squared moduli times |xi|^(2s) (zero mode dropped)
    summed with ``math.fsum``."""
    grid = f.grid
    r = grid.freq_radius
    sigma = np.zeros(grid.shape)
    sigma[r > 0] = r[r > 0] ** (2 * s)
    power = sigma * np.abs(np.fft.fftn(weight * f.values)) ** 2
    return math.sqrt(math.fsum(power.ravel()) * grid.cell_volume / grid.size)


def _mollifier(t: np.ndarray) -> np.ndarray:
    """exp(-1/t) for t > 0, identically 0 for t <= 0."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t > 0
    with np.errstate(over="ignore", divide="ignore"):
        out[pos] = np.exp(-1.0 / t[pos])
    return out


def smooth_step(t):
    """g / (g + h) with both mollifiers taken at every point, then the flat
    regions overwritten with exact 0.0 / 1.0."""
    t = np.asarray(t, dtype=float)
    g = _mollifier(t)
    h = _mollifier(1.0 - t)
    with np.errstate(invalid="ignore"):
        out = np.where(g + h > 0, g / (g + h), 0.0)
    out = np.where(t <= 0, 0.0, out)
    out = np.where(t >= 1, 1.0, out)
    return out


def spatial_mask(grid: Grid, k: int) -> np.ndarray:
    """Q_k = bump(|x| / 2^k) at every grid point."""
    return bump(grid.radius / 2.0**k)


def frequency_mask(grid: Grid, k: int) -> np.ndarray:
    """P_k = bump(|xi| / 2^k) at every lattice point, in FFT order."""
    return bump(grid.freq_radius / 2.0**k)


def weight_product_mask(grid: Grid, k: int, a: float) -> np.ndarray:
    """|x|^a Q_k(x) at every grid point, 0 off the support of Q_k."""
    q = spatial_mask(grid, k)
    out = np.zeros(grid.shape)
    supp = q > 0
    out[supp] = grid.radius[supp] ** a * q[supp]
    return out


def on_blocks(blocks: tuple[slice, ...], shape: tuple[int, ...]) -> tuple:
    """The open-mesh index of the product of ``blocks`` along every axis,
    the blocks taken in order."""
    axis = np.concatenate([np.arange(shape[0])[b] for b in blocks])
    return np.ix_(*[axis] * len(shape))


def dense(mask: ShellMask, grid: Grid) -> np.ndarray:
    """A stored shell mask on the whole grid: its values on the product of
    its blocks and zeros elsewhere."""
    out = np.zeros(grid.shape)
    out[on_blocks(mask.blocks, grid.shape)] = mask.values
    return out


def stacked_free_evolution(f: Field, times: Sequence[float]) -> np.ndarray:
    """The free flow exp(-i t |xi|^2) of f at each time, one whole inverse
    transform per time, stacked."""
    spec = _fftn(f.values)
    r2 = f.grid.freq_radius**2
    return np.stack([_ifftn(np.exp(-1j * t * r2) * spec) for t in times])


def stacked_march(u0: np.ndarray, times: Sequence[float], step) -> np.ndarray:
    """u0, the state at ``times[0]``, marched by ``u = step(u, a, b)`` from
    each time to the next, a copy of the state kept at each time and the
    copies stacked."""
    u = np.array(u0, dtype=complex)
    kept = [u.copy()]
    for a, b in zip(times[:-1], times[1:]):
        u = step(u, a, b)
        kept.append(u.copy())
    return np.stack(kept)


def broadcast_spacetime(grid: Grid, times: np.ndarray, rng: np.random.Generator,
                        mode_scale: int = 1, time_scale: float = 1.0,
                        amplitude: float = 1.0) -> np.ndarray:
    """An ensemble member sum_j exp(i omega_j t + i theta_j) f_j(x) from
    the draws of ``band_limited_spacetime``, each profile added as one
    broadcast product over all times."""
    span = (times[-1] - times[0]) * time_scale
    omega_max = 4.0 * np.pi / span if span > 0 else 1.0
    omegas = rng.uniform(-omega_max, omega_max, size=SPACETIME_MODES) * time_scale
    thetas = rng.uniform(0, 2 * np.pi, size=SPACETIME_MODES)
    profiles = [band_limited_field(grid, rng, mode_scale=mode_scale)
                for _ in range(SPACETIME_MODES)]
    vals = np.zeros((len(times),) + grid.shape, dtype=complex)
    for om, th, prof in zip(omegas, thetas, profiles):
        envelope = np.exp(1j * (om * times + th))
        vals += envelope[(...,) + (None,) * grid.dim] * prof.values
    return amplitude * vals
