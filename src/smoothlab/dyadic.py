"""Dyadic partitions of unity in space and frequency, and weighted sequences.

The bump profile is fixed once and for all as the telescoping difference
``phi(s) = chi(s) - chi(2 s)`` of a smooth monotone step ``chi`` built from
the standard ``exp(-1/t)`` mollifier, so that every build produces
bit-comparable masks.  ``chi`` equals 1 on ``(0, 1]`` and 0 on ``[2, inf)``,
hence ``phi`` is nonnegative, supported in ``(1/2, 2)``, and the shifted
family ``phi(s / 2^k)`` sums to 1 for every ``s > 0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Mapping

import numpy as np

from .grid import Grid

Index = int | tuple[int, int]


def _mollifier(t: np.ndarray) -> np.ndarray:
    """exp(-1/t) for t > 0, identically 0 for t <= 0."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t > 0
    with np.errstate(over="ignore", divide="ignore"):
        out[pos] = np.exp(-1.0 / t[pos])
    return out


def smooth_step(t):
    """Smooth monotone step: 0 for t <= 0, 1 for t >= 1."""
    t = np.asarray(t, dtype=float)
    g = _mollifier(t)
    h = _mollifier(1.0 - t)
    with np.errstate(invalid="ignore"):
        out = np.where(g + h > 0, g / (g + h), 0.0)
    # flat regions are exact 0.0 / 1.0, no rounding residue
    out = np.where(t <= 0, 0.0, out)
    out = np.where(t >= 1, 1.0, out)
    return out


def smooth_cutoff(s):
    """chi(s): 1 on (-inf, 1], smooth monotone decrease, 0 on [2, inf)."""
    return smooth_step(2.0 - np.asarray(s, dtype=float))


@dataclass(frozen=True)
class BumpProfile:
    """The radial bump phi(s) = chi(s) - chi(2s), supported in (1/2, 2)."""

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        return smooth_cutoff(s) - smooth_cutoff(2.0 * s)


def make_bump() -> BumpProfile:
    return BumpProfile()


@dataclass(frozen=True)
class DyadicDecomposition:
    """A finite range of dyadic shells sharing one bump profile.

    Shell ``k`` refers to the annulus ``2^(k-1) <= r <= 2^(k+1)``; the
    spatial mask is ``Q_k(x) = phi(|x| / 2^k)`` and the frequency mask is
    the same profile on the lattice ``|xi|``.
    """

    profile: BumpProfile
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
            total = total + self.profile(r / 2.0**k)
        return total

    def validate_spatial(self, grid: Grid) -> None:
        inner = 2.0 ** (self.k_min - 1)
        outer = 2.0 ** (self.k_max + 1)
        if inner < grid.spacing:
            raise ValueError(
                f"innermost shell scale 2^(k_min-1)={inner} is below the "
                f"grid spacing {grid.spacing}"
            )
        if outer > grid.half_width:
            raise ValueError(
                f"outermost shell scale 2^(k_max+1)={outer} exceeds the "
                f"box half-width {grid.half_width}"
            )

    def validate_frequency(self, grid: Grid) -> None:
        inner = 2.0 ** (self.k_min - 1)
        outer = 2.0 ** (self.k_max + 1)
        if inner < grid.freq_spacing:
            raise ValueError(
                f"innermost shell scale 2^(k_min-1)={inner} is below the "
                f"frequency spacing {grid.freq_spacing}"
            )
        if outer > grid.freq_max:
            raise ValueError(
                f"outermost shell scale 2^(k_max+1)={outer} exceeds the "
                f"largest lattice frequency {grid.freq_max}"
            )

    def shift(self, j: int) -> "DyadicDecomposition":
        return DyadicDecomposition(self.profile, self.k_min + j, self.k_max + j)

    def meta(self) -> dict:
        return {"k_min": self.k_min, "k_max": self.k_max, "profile": "telescoped-exp-step"}


def default_decomposition(k_min: int = -2, k_max: int = 3) -> DyadicDecomposition:
    return DyadicDecomposition(make_bump(), k_min, k_max)


@dataclass
class MaskFamily:
    """Shell-indexed family of real mask arrays over one grid."""

    decomposition: DyadicDecomposition
    grid: Grid
    kind: str  # "spatial" | "frequency"
    masks: dict[int, np.ndarray]

    def __getitem__(self, k: int) -> np.ndarray:
        return self.masks[k]

    def __iter__(self):
        return iter(sorted(self.masks))

    def sum_array(self) -> np.ndarray:
        total = np.zeros(self.grid.shape)
        for m in self.masks.values():
            total = total + m
        return total


@lru_cache(maxsize=64)
def _cached_masks(profile: BumpProfile, grid: Grid, kind: str, k: int) -> np.ndarray:
    """The shell-k mask ``profile(r / 2^k)``, one read-only array per shell.

    Entries are keyed by shell, not by decomposition, so every
    decomposition that holds shell k on this grid shares one array.  The
    cache is bounded at 64 arrays (128 MiB at 64^3).
    """
    r = grid.radius if kind == "spatial" else grid.freq_radius
    mask = profile(r / 2.0**k)
    mask.flags.writeable = False
    return mask


def _mask_family(decomp: DyadicDecomposition, grid: Grid, kind: str) -> MaskFamily:
    masks = {k: _cached_masks(decomp.profile, grid, kind, k) for k in decomp.shells}
    return MaskFamily(decomp, grid, kind, masks)


def spatial_masks(decomp: DyadicDecomposition, grid: Grid, strict: bool = True) -> MaskFamily:
    """Masks Q_k(x) = phi(|x| / 2^k) sampled on the grid.

    With ``strict`` the shell range must be fully resolvable: innermost
    scale at or above the spacing, outermost inside the box.  Callers that
    keep boundary shells purely as truncation-tail accounting pass
    ``strict=False`` and report the per-shell support audit instead.

    The masks are read-only and shared: one cached array per shell and
    grid serves every decomposition that holds that shell.
    """
    if strict:
        decomp.validate_spatial(grid)
    return _mask_family(decomp, grid, "spatial")


def frequency_masks(decomp: DyadicDecomposition, grid: Grid, strict: bool = True) -> MaskFamily:
    """Masks P_k(xi) = phi(|xi| / 2^k) on the frequency lattice (FFT order),
    read-only and shared per shell as in ``spatial_masks``."""
    if strict:
        decomp.validate_frequency(grid)
    return _mask_family(decomp, grid, "frequency")


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

    def resolved(self, min_samples: int = 10, mass_window: tuple[float, float] = (0.25, 4.0)) -> bool:
        return (
            self.nonzero_samples >= min_samples
            and mass_window[0] <= self.mass_ratio <= mass_window[1]
        )


def _continuum_mask_mass(profile: BumpProfile, k: int, dim: int) -> float:
    # int Q_k(x)^2 dx over R^n by radial midpoint quadrature on the support
    lo, hi = 2.0 ** (k - 1), 2.0 ** (k + 1)
    r = np.linspace(lo, hi, 2049)
    mid = 0.5 * (r[:-1] + r[1:])
    w = np.diff(r)
    sphere = {1: 2.0, 2: 2.0 * np.pi, 3: 4.0 * np.pi}.get(dim)
    if sphere is None:
        sphere = dim * np.pi ** (dim / 2) / math.gamma(dim / 2 + 1)
    vals = profile(mid / 2.0**k) ** 2 * sphere * mid ** (dim - 1)
    return float(np.sum(vals * w))


def mask_resolution_audit(family: MaskFamily) -> dict[int, MaskAudit]:
    """Per-shell sampling diagnostics for a spatial mask family."""
    grid = family.grid
    out = {}
    for k in family:
        m = family[k]
        nz = int(np.count_nonzero(m))
        disc = float(np.sum(m**2) * grid.cell_volume)
        cont = _continuum_mask_mass(family.decomposition.profile, k, grid.dim)
        out[k] = MaskAudit(k, nz, disc, cont)
    return out


# ---------------------------------------------------------------------------
# weighted sequences over Z and Z^2
# ---------------------------------------------------------------------------


@dataclass
class WeightedSeq:
    """Finitely supported complex sequence over Z (or Z^2)."""

    entries: dict[Index, complex] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.entries = {k: complex(v) for k, v in self.entries.items() if v != 0}

    @classmethod
    def impulse(cls, k: Index, value: complex = 1.0) -> "WeightedSeq":
        return cls({k: value})

    @classmethod
    def ones(cls, indices: Iterable[Index]) -> "WeightedSeq":
        return cls({k: 1.0 for k in indices})

    @property
    def support(self) -> list[Index]:
        return sorted(self.entries)

    def __getitem__(self, k: Index) -> complex:
        return self.entries.get(k, 0.0)

    def __add__(self, other: "WeightedSeq") -> "WeightedSeq":
        out = dict(self.entries)
        for k, v in other.entries.items():
            out[k] = out.get(k, 0.0) + v
        return WeightedSeq(out)

    def __sub__(self, other: "WeightedSeq") -> "WeightedSeq":
        return self + (-1.0) * other

    def __mul__(self, factor: complex) -> "WeightedSeq":
        return WeightedSeq({k: factor * v for k, v in self.entries.items()})

    __rmul__ = __mul__

    def allclose(self, other: "WeightedSeq", tol: float = 1e-12) -> bool:
        keys = set(self.entries) | set(other.entries)
        return all(abs(self[k] - other[k]) <= tol for k in keys)


def _index_weight(k: Index) -> int:
    # Z^2 indices weight by k1 + k2, the product generalisation of 2^(k alpha)
    if isinstance(k, tuple):
        return sum(k)
    return k


def seq_norm(a: WeightedSeq | Mapping[Index, complex], q: float, alpha: float) -> float:
    """Weighted norm (sum_k 2^(k q alpha) |a_k|^q)^(1/q); sup form at q = inf.

    The truncated ``q = inf`` case uses max, not essential sup.
    """
    if q < 1:
        raise ValueError(f"exponent q must be >= 1, got {q}")
    entries = a.entries if isinstance(a, WeightedSeq) else dict(a)
    if not entries:
        return 0.0
    if math.isinf(q):
        return max(2.0 ** (_index_weight(k) * alpha) * abs(v) for k, v in entries.items())
    total = sum(
        2.0 ** (_index_weight(k) * q * alpha) * abs(v) ** q for k, v in entries.items()
    )
    return total ** (1.0 / q)


def mixed_seq_norm(
    a: WeightedSeq,
    q_outer: float,
    alpha_outer: float,
    q_inner: float,
    alpha_inner: float,
    outer_axis: int = 0,
) -> float:
    """Iterated norm l^{q_outer, alpha_outer}_{k_outer} ( l^{q_inner, alpha_inner}_{k_inner} ).

    The two orderings differ; ``outer_axis`` selects which of the two index
    slots is summed last.
    """
    if q_outer < 1 or q_inner < 1:
        raise ValueError("exponents must be >= 1")
    inner_axis = 1 - outer_axis
    groups: dict[int, dict[int, complex]] = {}
    for k, v in a.entries.items():
        if not isinstance(k, tuple):
            raise TypeError("mixed_seq_norm needs Z^2 indices")
        groups.setdefault(k[outer_axis], {})[k[inner_axis]] = v
    outer = WeightedSeq(
        {
            ko: seq_norm(WeightedSeq(inner), q_inner, alpha_inner)
            for ko, inner in groups.items()
        }
    )
    return seq_norm(outer, q_outer, alpha_outer)
