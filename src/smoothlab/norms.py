"""Composite shell norms: annulus sums, weighted Sobolev sums, space-time
smoothing norms, the phase-localized norm and the three-way equivalence
report.

Every dyadic shell sum runs over the finite range of a DyadicDecomposition,
whose two boundary shells are truncation tail, and is assembled by
``dyadic.seq_norm``.

The weighted shell-Sobolev norms take a batch of fields of one grid, such
as the time slices of a space-time field, and build their masks, weights
and |xi|^s once per batch; a single field is a batch of one.  The masks
and weights live on their shells' cubes (``dyadic.ShellMask``), and every
masked field is ``ShellMask.times``, exact zeros off the cube, so a
full-grid sum of it rounds as it would over the whole product.  At p = 2
a shell term is one weighted power sum of the masked field's spectrum,
taken on the smallest torus that holds the shell's cube without
wrap-around when that torus is smaller than the grid, and on the grid
otherwise.  The batch shares one complex work buffer, which every shell
term of every field overwrites, and at p = 2 one per torus.  A shell
whose mask holds no grid point, and every shell of a field with no
nonzero sample, gives exactly 0.0 without a transform.  The
phase-localized norm makes each frequency piece in one reused buffer and
inverts it only on its mask's blocks.  The annulus indicators and the
torus weights are cached by the grid's value, so no cache entry keeps a
``Grid`` instance alive.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from functools import lru_cache
from typing import Callable, Iterable

import numpy as np

from .dyadic import (
    DyadicDecomposition,
    ShellMask,
    band_blocks,
    frequency_mask,
    seq_norm,
    shell_radius,
    spatial_mask,
)
from .grid import Field, Grid, SpaceTimeField
from .spectral import (
    abs_freq_power,
    apply_multiplier,
    banded_ifft_inplace,
    boxed_fft_inplace,
    boxed_ifft_inplace,
    fft_inplace,
    l2_norm,
    lp_norm,
    power_sum_norm,
)

VARIANTS = ("mask_then_D", "D_then_mask", "weight_product")


@dataclass(frozen=True)
class NormSpec:
    """Exponent triple (q, a, s) of a weighted shell-Sobolev norm."""

    q: float
    a: float
    s: float

    def __post_init__(self) -> None:
        if self.q < 1:
            raise ValueError(f"q must be >= 1, got {self.q}")
        if abs(self.s) > 1:
            raise ValueError(f"s must lie in [-1, 1], got {self.s}")

    def check_equivalence_admissible(self, dim: int) -> None:
        """Raise unless |a| + |s| < n/2, where the three forms are equivalent."""
        if not abs(self.a) + abs(self.s) < dim / 2:
            raise ValueError(f"|a|+|s| = {abs(self.a) + abs(self.s)} must be < n/2 = {dim / 2}")


#: the solution-side l^{inf,-1/2} H^{1/2} and data-side l^{1,1/2} H^{-1/2}
#: spatial norms of the smoothing estimates
SOLUTION_SPEC = NormSpec(math.inf, -0.5, 0.5)
DATA_SPEC = NormSpec(1, 0.5, -0.5)


@lru_cache(maxsize=64)
def _annulus_mask(dim: int, half_width: float, points: int, k: int) -> np.ndarray:
    """Read-only bool indicator of the closed annulus 2^(k-1) <= |x| <= 2^(k+1)
    on the grid of this value; the cache holds at most 64 N^n bytes (16 MiB
    at 64^3) and no grid instance."""
    r = Grid(dim, half_width, points).radius
    mask = (r >= 2.0 ** (k - 1)) & (r <= 2.0 ** (k + 1))
    mask.flags.writeable = False
    return mask


def annulus_sup(values: np.ndarray, grid: Grid, k: int) -> float:
    """sup of |values| over the dyadic annulus of shell k; 0.0 when the
    annulus holds no grid point."""
    mask = _annulus_mask(*astuple(grid), k)
    return float(np.abs(values[mask]).max()) if mask.any() else 0.0


def annulus_l2_terms(f: Field, decomp: DyadicDecomposition) -> dict[int, float]:
    """L^2 norm of f over the dyadic annulus of each shell of the range,
    from one |f|^2."""
    a2 = np.abs(f.values) ** 2
    key = astuple(f.grid)
    return {k: float(np.sqrt(np.sum(_annulus_mask(*key, k) * a2) * f.grid.cell_volume))
            for k in decomp.shells}


def annulus_sum_norm(f: Field, decomp: DyadicDecomposition) -> float:
    """sum_k 2^(k/2) ||f||_{L^2(annulus k)} over the truncated shell range."""
    return seq_norm(annulus_l2_terms(f, decomp), 1, 0.5)


def annulus_sup_norm(f: Field, decomp: DyadicDecomposition) -> float:
    """sup_k 2^(-k/2) ||f||_{L^2(annulus k)} over the truncated shell range."""
    return seq_norm(annulus_l2_terms(f, decomp), math.inf, -0.5)


# ---------------------------------------------------------------------------
# weighted shell-Sobolev norms (the three equivalent forms)
# ---------------------------------------------------------------------------


def weight_product_mask(grid: Grid, k: int, a: float) -> ShellMask:
    """|x|^a Q_k(x) on the cube of Q_k, with the value forced to 0 off the
    mask support."""
    q = spatial_mask(grid, k)
    out = np.zeros(q.values.shape)
    supp = q.values > 0
    out[supp] = shell_radius(grid, k)[supp] ** a * q.values[supp]
    return ShellMask(out, q.blocks)


def lqa_shell_terms(
    fields: Iterable[Field],
    decomp: DyadicDecomposition,
    spec: NormSpec,
    variant: str,
    p: float,
) -> list[dict[int, float]]:
    """Unweighted per-shell B-norm values of the selected variant, one dict
    per field of one grid, in order, over every shell of the range
    (boundary shells count as truncation tail).

    mask_then_D    :  || Q_k |D|^s f ||_{L^p}
    D_then_mask    :  || |D|^s (Q_k f) ||_{L^p}
    weight_product :  || |D|^s (|x|^a Q_k f) ||_{L^p}

    At p = 2 the last two take each term from the forward transform of the
    weighted field alone (Plancherel), as one weighted power sum
    sum w |v^|^2 (``spectral.power_sum_norm``).  The weighted field
    vanishes off its shell's cube of m points per axis.  Where the
    smallest power of two P >= 2 m - 1 is below the grid's N, the cube is
    moved to the origin of a P^n torus and transformed there, under the
    cached torus weight of ``_torus_weight``; otherwise it is transformed
    on the grid, only on the lines its cube meets, under w = |xi|^(2s).
    mask_then_D applies its mask after |D|^s and shares one transform
    pair across all shells instead.

    The masks and weights on their shells' cubes, |xi|^s, one complex
    work buffer and, at p = 2, one complex buffer per torus are built once
    per call.  The fields are drawn one at a time, and each field is
    dropped before the next is drawn, so a generator of fields is never
    held in full.  A shell whose mask has no nonzero sample, and every
    shell of a field with no nonzero sample, gives exactly 0.0 and runs no
    transform.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
    out = []
    terms_of = None
    for f in fields:
        if terms_of is None:
            terms_of = _shell_terms_on(f.grid, decomp, spec, variant, p)
        out.append(terms_of(f))
        del f  # released before the next field is drawn
    return out


def _shell_terms_on(
    grid: Grid, decomp: DyadicDecomposition, spec: NormSpec, variant: str, p: float
) -> Callable[[Field], dict[int, float]]:
    """The per-field shell terms of ``lqa_shell_terms``, with the masks,
    weights, |xi|^s and work buffers of the grid built once; every term
    overwrites its buffer, the complex grid buffer or, at p = 2, the torus
    buffer of its shell."""
    masks = {k: spatial_mask(grid, k) for k in decomp.shells}
    live = [k for k in decomp.shells if masks[k].values.any()]
    weights = {k: weight_product_mask(grid, k, spec.a) if variant == "weight_product"
               else masks[k] for k in live}
    plancherel = p == 2 and variant != "mask_then_D"
    # the torus weights first: a first build's temporaries then do not
    # stack on the grid buffers
    on_torus = {}
    if plancherel:
        for k in live:
            [box] = weights[k].blocks
            width = box.stop - box.start
            torus = _torus_points(width)
            if torus < grid.points_per_axis:
                # the cube moved to the torus's origin, where no difference
                # of two of its points wraps around
                on_torus[k] = (_torus_weight(*astuple(grid), spec.s, width),
                               np.empty((torus,) * grid.dim, dtype=complex),
                               ShellMask(weights[k].values, (slice(0, width),)),
                               (box,) * grid.dim)
    sym = abs_freq_power(grid, spec.s)
    if plancherel:
        np.square(sym, out=sym)  # the grid weight |xi|^(2s)
    work = np.empty(grid.shape, dtype=complex)

    def plancherel_term(f: Field, k: int) -> float:
        if k not in on_torus:
            mask = weights[k]
            spectrum = boxed_fft_inplace(mask.times(f.values, work), mask.blocks)
            return power_sum_norm(spectrum, grid, sym)
        weight, buf, at_origin, cube = on_torus[k]
        return power_sum_norm(fft_inplace(at_origin.times(f.values[cube], buf)), grid, weight)

    def terms_of(f: Field) -> dict[int, float]:
        terms = dict.fromkeys(decomp.shells, 0.0)
        if not live or not f.values.any():
            return terms
        if variant == "mask_then_D":
            df = apply_multiplier(f, sym).values
            for k in live:
                terms[k] = lp_norm(Field(grid, masks[k].times(df, work)), p)
            return terms
        for k in live:
            if plancherel:
                terms[k] = plancherel_term(f, k)
            else:
                weighted = Field(grid, weights[k].times(f.values, work))
                terms[k] = lp_norm(apply_multiplier(weighted, sym), p)
        return terms
    return terms_of


def _torus_points(width: int) -> int:
    """The smallest power of two P >= 2 width - 1: on a torus of P points
    per axis no difference of two points of a cube of ``width`` wraps."""
    return 1 << (2 * width - 2).bit_length()


@lru_cache(maxsize=16)
def _torus_weight(dim: int, half_width: float, points: int, s: float, width: int) -> np.ndarray:
    """(N/P)^n K_P, the weight that sums the p = 2 |D|^s term of a field
    vanishing off a cube of ``width`` points per axis on the P^n torus,
    P = ``_torus_points(width)``, with the field's cube at the torus's
    origin:

        sum_xi sigma(xi) |fft_N v(xi)|^2 = (N/P)^n sum_eta K_P(eta) |fft_P v_P(eta)|^2

    for sigma = |xi|^(2s) on the grid of this value.  K_P is the transform
    on the torus of the kernel ifft(sigma) restricted to the lags
    |d_j| <= width - 1 and wrapped onto the torus; the identity is exact,
    because no lag of two cube points wraps there (linear convolution by a
    DFT, Oppenheim & Schafer, Discrete-Time Signal Processing, 3rd ed.,
    sec. 8.7).  The kernel is read off by the output-pruned inverse on
    those lags.  Read-only, at most (N/2)^n floats: the 16 entries hold at
    most 4 MiB at 64^3, and no grid instance."""
    torus = _torus_points(width)
    sigma = abs_freq_power(Grid(dim, half_width, points), s)
    kernel = np.square(sigma, out=sigma).astype(complex)
    del sigma
    boxed_ifft_inplace(kernel, band_blocks(points, width - 1))
    lags = np.arange(1 - width, width)
    wrapped = np.zeros((torus,) * dim, dtype=complex)
    wrapped[np.ix_(*[lags % torus] * dim)] = kernel[np.ix_(*[lags % points] * dim)]
    weight = fft_inplace(wrapped).real * (points / torus) ** dim  # a power of two: exact
    weight.flags.writeable = False
    return weight


def _shell_weight(spec: NormSpec, variant: str) -> float:
    # the weight_product form carries 2^(k a) inside its |x|^a factor and
    # is summed unweighted
    return 0.0 if variant == "weight_product" else spec.a


def lqa_sobolev_norm(
    fields: Iterable[Field],
    decomp: DyadicDecomposition,
    spec: NormSpec,
    variant: str = "D_then_mask",
    p: float = 2,
) -> list[float]:
    """Weighted shell-Sobolev norm in one of its three equivalent forms,
    one per field of one grid, in order, from one ``lqa_shell_terms`` call.

    The first two variants carry the dyadic weight 2^(k a) explicitly; the
    weight_product form carries it inside the |x|^a factor and is summed
    unweighted.
    """
    weight = _shell_weight(spec, variant)
    return [seq_norm(terms, spec.q, weight)
            for terms in lqa_shell_terms(fields, decomp, spec, variant, p)]


# ---------------------------------------------------------------------------
# space-time norms
# ---------------------------------------------------------------------------


def time_l2(values: np.ndarray, times: np.ndarray) -> float:
    """(int g(t)^2 dt)^(1/2) by the trapezoid rule."""
    return float(np.sqrt(np.trapezoid(np.asarray(values, float) ** 2, times)))


def time_l1(values: np.ndarray, times: np.ndarray) -> float:
    return float(np.trapezoid(np.abs(np.asarray(values, float)), times))


def _require_slices(u: SpaceTimeField) -> None:
    if u.n_times < 2:
        raise ValueError("need at least 2 time slices")


def forcing_norm(F: SpaceTimeField, decomp: DyadicDecomposition) -> float:
    """Time-L^2 of the l^{1,1/2} H^{-1/2} spatial norm (the data-side norm)."""
    _require_slices(F)
    return time_l2(np.array(lqa_sobolev_norm(F.slices(), decomp, DATA_SPEC)), F.times)


def smoothing_norm(u: SpaceTimeField, decomp: DyadicDecomposition) -> float:
    """Time-L^2 of the l^{inf,-1/2} H^{1/2} spatial norm (the solution-side norm)."""
    _require_slices(u)
    return time_l2(np.array(lqa_sobolev_norm(u.slices(), decomp, SOLUTION_SPEC)), u.times)


def sup_l2_norm(u: SpaceTimeField) -> float:
    """L^inf in time of the spatial L^2 norm."""
    return max(l2_norm(f) for f in u.slices())


def l1t_l2x_norm(F: SpaceTimeField) -> float:
    """L^1 in time of the spatial L^2 norm."""
    return time_l1(np.array([l2_norm(f) for f in F.slices()]), F.times)


# ---------------------------------------------------------------------------
# phase localization
# ---------------------------------------------------------------------------


def phase_localized_norm(
    f: Field,
    space_decomp: DyadicDecomposition,
    freq_decomp: DyadicDecomposition,
    spec: NormSpec,
) -> float:
    """Frequency-outer phase-localized norm: the unweighted l^2 sum over
    frequency shells k2 of the weighted spatial l^{q,a} norm of P_k2 f.

    f is transformed once; each piece P_k2 f is made when the shell norm
    draws it, in one buffer that every piece overwrites (the shell norm
    drops each field before it draws the next): the product on P_k2's
    band, exact zeros elsewhere, inverted only on that band."""
    grid = f.grid
    # masks first: a first build's temporaries then do not stack on f's spectrum
    pk = [frequency_mask(grid, k2) for k2 in freq_decomp.shells]
    f_hat = fft_inplace(f.values.copy())
    piece = np.empty_like(f_hat)
    localized = (Field(grid, banded_ifft_inplace(mask.times(f_hat, piece), mask.blocks))
                 for mask in pk)
    outer_terms = dict(zip(freq_decomp.shells, lqa_sobolev_norm(localized, space_decomp, spec)))
    return seq_norm(outer_terms, 2, 0.0)


# ---------------------------------------------------------------------------
# equivalence report
# ---------------------------------------------------------------------------


@dataclass
class EquivalenceReport:
    """Pairwise (max/min) ratios of the three equivalent norm forms of one
    field; ``degenerate`` when some form vanishes (all ratios are then 0)."""

    ratios: dict[str, float]
    degenerate: bool = False

    @property
    def max_ratio(self) -> float:
        return max(self.ratios.values()) if self.ratios else math.nan


def equivalence_report(
    f: Field,
    decomp: DyadicDecomposition,
    spec: NormSpec,
) -> EquivalenceReport:
    """Compute all three norm forms and their pairwise (max/min) ratios."""
    spec.check_equivalence_admissible(f.grid.dim)
    values = {v: lqa_sobolev_norm((f,), decomp, spec, variant=v)[0] for v in VARIANTS}
    if any(val == 0.0 for val in values.values()):
        return EquivalenceReport(
            {f"{a}/{b}": 0.0 for a in VARIANTS for b in VARIANTS if a < b}, degenerate=True
        )
    ratios = {}
    for i, a in enumerate(VARIANTS):
        for b in VARIANTS[i + 1 :]:
            hi, lo = max(values[a], values[b]), min(values[a], values[b])
            ratios[f"{a}/{b}"] = hi / lo
    return EquivalenceReport(ratios)
