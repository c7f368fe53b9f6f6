"""Periodic-box grids and the complex fields sampled on them.

Everything in this package lives on a uniform grid over the box
``[-L, L)^n`` with an even, power-of-two number of points per axis.  The
matching frequency lattice is ``(pi/L) * {-N/2, ..., N/2 - 1}^n`` (stored
in FFT order).  Fourier transforms use the unnormalised forward /
``1/N^n`` inverse convention of ``scipy.fft``; every quadrature weight
needed to turn lattice sums into integrals is applied explicitly by the
norm routines.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np
from scipy import fft as _fft

# scipy.fft.fftn/ifftn are looked up at call time.  With overwrite=True a
# complex input may receive the result; axes=None transforms every axis.
def _fftn(values: np.ndarray, overwrite: bool = False, axes=None) -> np.ndarray:
    return _fft.fftn(values, overwrite_x=overwrite, axes=axes)


def _ifftn(values: np.ndarray, overwrite: bool = False, axes=None) -> np.ndarray:
    return _fft.ifftn(values, overwrite_x=overwrite, axes=axes)


def product_radius(coords: np.ndarray, dim: int) -> np.ndarray:
    """The Euclidean norm on the product lattice ``coords^dim``.

    The squares are summed axis by axis from zero, so every value is bit
    for bit the same whichever subset of an axis ``coords`` is.
    """
    r2 = np.zeros((len(coords),) * dim)
    for j in range(dim):
        shape = [1] * dim
        shape[j] = -1
        r2 = r2 + coords.reshape(shape) ** 2
    return np.sqrt(r2)


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on ``[-half_width, half_width)^dim``."""

    dim: int
    half_width: float
    points_per_axis: int

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if not self.half_width > 0:
            raise ValueError(f"half_width must be positive, got {self.half_width}")
        n = self.points_per_axis
        if n < 2 or n & (n - 1):
            raise ValueError(f"points_per_axis must be a power of two, got {n}")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / self.points_per_axis

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.points_per_axis,) * self.dim

    @property
    def size(self) -> int:
        return self.points_per_axis**self.dim

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dim

    @cached_property
    def axis(self) -> np.ndarray:
        """Physical coordinates along one axis."""
        return -self.half_width + self.spacing * np.arange(self.points_per_axis)

    @cached_property
    def freq_axis(self) -> np.ndarray:
        """Frequency coordinates along one axis, in FFT order."""
        return 2.0 * np.pi * _fft.fftfreq(self.points_per_axis, d=self.spacing)

    def freq_coord(self, axis: int) -> np.ndarray:
        shape = [1] * self.dim
        shape[axis] = -1
        return self.freq_axis.reshape(shape)

    @cached_property
    def radius(self) -> np.ndarray:
        """|x| at every grid point."""
        return product_radius(self.axis, self.dim)

    @cached_property
    def freq_radius(self) -> np.ndarray:
        """|xi| at every frequency-lattice point (FFT order)."""
        return product_radius(self.freq_axis, self.dim)

    def refine(self) -> "Grid":
        return Grid(self.dim, self.half_width, self.points_per_axis * 2)


@dataclass
class Field:
    """Complex scalar samples on a Grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"sample shape {self.values.shape} does not match grid {self.grid.shape}"
            )

    def __mul__(self, factor) -> "Field":
        return Field(self.grid, self.values * factor)

    __rmul__ = __mul__


@dataclass
class SpaceTimeField:
    """Time-indexed family of fields on one grid."""

    grid: Grid
    times: np.ndarray
    values: np.ndarray  # shape (len(times), *grid.shape)

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.times.ndim != 1:
            raise ValueError("times must be one-dimensional")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")
        if self.values.shape != (len(self.times),) + self.grid.shape:
            raise ValueError(
                f"values shape {self.values.shape} does not match "
                f"({len(self.times)},) + {self.grid.shape}"
            )

    @classmethod
    def from_slices(
        cls, grid: Grid, times: Sequence[float], slices: Iterable[Field]
    ) -> "SpaceTimeField":
        """The field whose j-th slice is the j-th field of ``slices``, each
        written into its slot of one preallocated stack as it arrives and
        dropped before the next is made."""
        times = np.asarray(times, dtype=float)
        values = np.empty((len(times),) + grid.shape, dtype=np.complex128)
        slices = iter(slices)
        for slot in values:
            slot[...] = next(slices).values
        return cls(grid, times, values)

    @property
    def n_times(self) -> int:
        return len(self.times)

    def slice(self, j: int) -> Field:
        return Field(self.grid, self.values[j])

    def slices(self):
        for j in range(self.n_times):
            yield self.slice(j)

    def __sub__(self, other: "SpaceTimeField") -> "SpaceTimeField":
        return SpaceTimeField(self.grid, self.times, self.values - other.values)

    def __mul__(self, factor) -> "SpaceTimeField":
        return SpaceTimeField(self.grid, self.times, self.values * factor)

    __rmul__ = __mul__


def gaussian(grid: Grid, width: float, center: float) -> Field:
    """Radial Gaussian ``exp(-(|x| - center)^2 / (2 width^2))`` (center=0 gives
    the standard ``exp(-|x|^2 / (2 width^2))``)."""
    r = grid.radius
    return Field(grid, np.exp(-((r - center) ** 2) / (2.0 * width**2)).astype(complex))
