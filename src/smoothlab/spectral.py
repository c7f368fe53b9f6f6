"""Fourier calculus on the periodic box; the only module that runs a
transform.

Every Fourier multiplier in the package goes through ``apply_multiplier``
(or ``apply_multiplier_inplace`` on an array the caller owns) or
``apply_multipliers``, and the L^2 norm of a multiplied field through
``multiplier_l2_norm``, which by Plancherel reads it off the forward
transform alone.  A loop that owns its buffer transforms it in place: with
``fft_inplace``, and, where a shell mask leaves the data zero or unused off
the product of the mask's index blocks (``dyadic.ShellMask.blocks``), with
the pruned transforms, which run the axis passes only on the lines the
data needs: ``boxed_fft_inplace`` and ``banded_ifft_inplace`` when the
array vanishes off the blocks, as a masked field, a frequency shell or a
synthesized ensemble field does, and ``boxed_ifft_inplace`` when only the
values on the blocks are kept.  Every Plancherel norm, of a held
spectrum or of a spectrum under a weight such as |xi|^(2s) (a shell term
of ``norms``), is the one weighted power sum ``power_sum_norm``: one
``np.einsum`` pass over each part, with no |spectrum|^2 array.
The homogeneous multiplier |D|^s is singular at xi = 0, and the zero mode
is always annihilated.  Mean-zero periodic data is the desk-scale
surrogate for Schwartz data on R^n, so this convention is used by every
norm and operator built on top of these routines.
"""

from __future__ import annotations

import itertools
import math
import warnings
from typing import Iterable, Iterator

import numpy as np

from .grid import Field, Grid, _fftn, _ifftn

#: boundary fluctuation above this fraction of the field scale triggers a
#: wrap-around warning in the propagators
BOUNDARY_DECAY_TOL = 1e-8


def boundary_decay_fraction(f: Field) -> float:
    """Largest fluctuation on the outermost grid layer, relative to the
    field scale.  The layer's own mean is subtracted first: constants are
    exactly periodic and cause no wrap-around, only variation across the
    seam does."""
    vals = f.values
    scale = float(np.abs(vals - vals.mean()).max())
    if scale == 0:
        return 0.0
    layer_mask = np.zeros(f.grid.shape, dtype=bool)
    for ax in range(f.grid.dim):
        idx = [slice(None)] * f.grid.dim
        idx[ax] = 0
        layer_mask[tuple(idx)] = True
    layer = vals[layer_mask]
    return float(np.abs(layer - layer.mean()).max() / scale)


def warn_if_boundary_heavy(f: Field, context: str) -> None:
    frac = boundary_decay_fraction(f)
    if frac > BOUNDARY_DECAY_TOL:
        warnings.warn(
            f"{context}: data carries {frac:.1e} of its scale on the box "
            "boundary; wrap-around error is not controlled",
            RuntimeWarning,
            stacklevel=3,
        )


def apply_multiplier(f: Field, symbol: np.ndarray) -> Field:
    return Field(f.grid, apply_multiplier_inplace(f.values.copy(), symbol))


def apply_multiplier_inplace(values: np.ndarray, symbol: np.ndarray) -> np.ndarray:
    """Overwrite a complex array with ifft(symbol * fft(values)), with no
    second array; returns it.

    The product is spectrum times symbol, the order numpy itself takes for
    ``symbol * fftn(values)`` once the spectrum has 256 KiB or more (it
    multiplies the temporary in place).  Complex products are not bitwise
    commutative: numpy's SIMD loop fuses one of the two cross products of
    the imaginary part.
    """
    np.multiply(fft_inplace(values), symbol, out=values)
    return _in_place(_ifftn, values)


def apply_multipliers(f: Field, symbols: Iterable[np.ndarray]) -> Iterator[Field]:
    """f under each symbol in turn, from one forward transform.

    Each inverse transform runs only when its result is asked for, and a
    symbol is dropped before the next one is made, so a caller that uses
    the results one by one holds one of each at a time."""
    spec = _fftn(f.values)
    for symbol in symbols:
        yield Field(f.grid, _in_place(_ifftn, symbol * spec))
        del symbol


def multiplier_l2_norm(f: Field, symbol: np.ndarray) -> float:
    """|| ifft(symbol * fft f) ||_{L^2} by Plancherel, from one forward
    transform and no inverse."""
    return power_sum_norm(symbol * _fftn(f.values), f.grid)


def boxed_fft_inplace(values: np.ndarray, blocks: tuple[slice, ...]) -> np.ndarray:
    """Overwrite a complex array that vanishes off the product of
    ``blocks`` along every axis, such as a field under a spatial shell mask,
    with its forward transform, equal to ``fftn`` up to the sign of zeros;
    returns it (input pruning; Markel, IEEE Trans. Audio Electroacoust.
    19(4), 1971).

    A cube of m points on an N-point axis costs N m^2 + N^2 m + N^3 line
    elements in 3-d instead of 3 N^3; blocks as wide as the axis take the
    same full passes as ``fftn``.
    """
    return _input_pruned(_fftn, values, blocks)


def banded_ifft_inplace(values: np.ndarray, blocks: tuple[slice, ...]) -> np.ndarray:
    """Overwrite a complex spectrum that vanishes off the product of
    ``blocks`` along every axis, such as a frequency shell's band, with its
    inverse transform, bit for bit ``ifftn`` up to the sign of zeros;
    returns it.

    Each pass scales by 1/N, a power of two, which is exact, so the passes
    round as ``ifftn``'s one 1/N^n does.
    """
    return _input_pruned(_ifftn, values, blocks)


def _input_pruned(transform, values: np.ndarray, blocks: tuple[slice, ...]) -> np.ndarray:
    # the passes run in fftn's own order, axis 0 first, each on just the
    # lines whose later indices lie in the blocks: the axes up to ax are
    # full lines by now, and the later ones are still zero off the blocks
    n = values.ndim
    for ax in range(n):
        for later in itertools.product(blocks, repeat=n - ax - 1):
            _in_place(transform, values[(slice(None),) * (ax + 1) + later], axes=(ax,))
    return values


def boxed_ifft_inplace(values: np.ndarray, blocks: tuple[slice, ...]) -> np.ndarray:
    """Overwrite a complex array with its inverse transform on the product
    of ``blocks`` along every axis, bit for bit the values of ``ifftn``
    there; returns it.

    Off the blocks the array is left holding partial sums, so the caller
    multiplies it by a mask that vanishes there.  The passes run in
    ``ifftn``'s order, each on just the lines that reach the blocks: axis 0
    on all N^2 lines, axis 1 on the N m whose axis-0 index lies in them,
    axis 2 on the m^2 lines of the cube (output pruning).
    """
    n = values.ndim
    for ax in range(n):
        for earlier in itertools.product(blocks, repeat=ax):
            _in_place(_ifftn, values[earlier + (slice(None),) * (n - ax)], axes=(ax,))
    return values


def _in_place(transform, values: np.ndarray, **axes) -> np.ndarray:
    out = transform(values, overwrite=True, **axes)
    if not np.may_share_memory(out, values):  # a backend that ignored overwrite
        values[...] = out
    return values


def fft_inplace(values: np.ndarray) -> np.ndarray:
    """Overwrite a complex array with its forward transform; returns it."""
    return _in_place(_fftn, values)


def power_sum_norm(spectrum: np.ndarray, grid: Grid, weight: np.ndarray | None = None) -> float:
    """(sum weight |spectrum|^2 dV / N^n)^(1/2) with the grid's cell volume
    dV, unit weight by default: by Plancherel the L^2 norm of
    ifft(sqrt(weight) spectrum) when ``spectrum`` is the forward transform
    of a field on the grid.  A spectrum on another lattice, such as a
    smaller torus, is summed the same way once ``weight`` carries the
    factor that turns its sum into the grid's.

    The sum is one ``np.einsum`` pass over each of the flat real and
    imaginary views of ``spectrum``: no |spectrum|^2 array, no temporary
    and no BLAS call (a threaded BLAS would make the sum depend on the
    thread count).
    """
    flat = spectrum.reshape(-1)
    if weight is None:
        total = sum(np.einsum("i,i->", part, part) for part in (flat.real, flat.imag))
    else:
        w = weight.reshape(-1)
        total = sum(np.einsum("i,i,i->", w, part, part) for part in (flat.real, flat.imag))
    return math.sqrt(total * grid.cell_volume / grid.size)


def abs_freq_power(grid: Grid, s: float) -> np.ndarray:
    """|xi|^s on the lattice with the zero mode set to 0.

    Orders outside [-1, 1] are rejected; nothing here needs them and the
    operator-norm bounds certified downstream hold only on that range.
    """
    if abs(s) > 1:
        raise ValueError(f"smoothness order s={s} outside [-1, 1]")
    r = grid.freq_radius
    out = np.zeros(grid.shape)
    nz = r > 0
    out[nz] = r[nz] ** s
    return out


def derivative(f: Field, axis: int) -> Field:
    """Spectral partial derivative i xi_axis."""
    grid = f.grid
    if not 0 <= axis < grid.dim:
        raise ValueError(f"axis {axis} out of range for dim {grid.dim}")
    return apply_multiplier(f, 1j * grid.freq_coord(axis))


def gradient(f: Field) -> Iterator[Field]:
    """The n spectral partial derivatives in turn, from one forward
    transform, each inverse run when its partial is asked for."""
    grid = f.grid
    return apply_multipliers(f, (1j * grid.freq_coord(j) for j in range(grid.dim)))


def gradient_magnitude(f: Field) -> Field:
    """|grad f|, summing |d_j f|^2 over the axes in turn with one partial
    held at a time."""
    mag2 = np.zeros(f.grid.shape)
    for g in gradient(f):
        mag2 += np.abs(g.values) ** 2
        del g  # dropped before the next partial is made
    return Field(f.grid, np.sqrt(mag2, out=mag2).astype(complex))


def mean_zero(f: Field) -> Field:
    return Field(f.grid, f.values - f.values.mean())


def lp_norm(f: Field, p: float) -> float:
    """Riemann-sum L^p norm, max at p = inf."""
    if p < 1:
        raise ValueError(f"Lebesgue exponent p must be >= 1, got {p}")
    a = np.abs(f.values)
    if math.isinf(p):
        return float(a.max())
    return float((np.sum(a**p) * f.grid.cell_volume) ** (1.0 / p))


def l2_norm(f: Field) -> float:
    return float(np.sqrt(np.sum(np.abs(f.values) ** 2) * f.grid.cell_volume))


def sobolev_norm(f: Field, s: float) -> float:
    """Homogeneous Sobolev norm: L^2 norm of |D|^s f, from one forward
    transform."""
    return multiplier_l2_norm(f, abs_freq_power(f.grid, s))
