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
full-grid sum of it rounds as it would over the whole product.  The batch
shares one complex work buffer, which every shell term of every field
overwrites, and at p = 2 one real one.  A shell whose mask holds no grid
point, and every shell of a field with no nonzero sample, gives exactly
0.0 without a transform.  The phase-localized norm makes each frequency
piece in one reused buffer and inverts it only on its mask's blocks.  The
annulus indicators are cached by the grid's value, so no cache entry
keeps a ``Grid`` instance alive.
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
    fft_inplace,
    l2_norm,
    lp_norm,
    power_l2_norm,
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
    weighted field alone (Plancherel), run only on the lines that meet the
    shell's cube; mask_then_D applies its mask after |D|^s
    and shares one transform pair across all shells instead.

    The masks and weights on their shells' cubes, |xi|^s, one complex
    work buffer and, at p = 2, one real one are built once per call.  The
    fields are drawn one at a time, and each field is dropped before the
    next is drawn, so a generator of fields is never held in full.  A shell whose
    mask has no nonzero sample, and every shell of a field with no
    nonzero sample, gives exactly 0.0 and runs no transform.
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
    weights, |xi|^s and work buffers of the grid built once;
    every term overwrites the complex buffer, with its embedded masked
    field or, at p = 2, its pruned spectrum."""
    masks = {k: spatial_mask(grid, k) for k in decomp.shells}
    sym = abs_freq_power(grid, spec.s)
    live = [k for k in decomp.shells if masks[k].values.any()]
    weights = {k: weight_product_mask(grid, k, spec.a) if variant == "weight_product"
               else masks[k] for k in live}
    work = np.empty(grid.shape, dtype=complex)
    plancherel = p == 2 and variant != "mask_then_D"
    power = np.empty(grid.shape) if plancherel else None

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
                boxed_fft_inplace(weights[k].times(f.values, work), weights[k].blocks)
                np.multiply(work, sym, out=work)
                np.abs(work, out=power)
                terms[k] = power_l2_norm(np.square(power, out=power), grid)
            else:
                weighted = Field(grid, weights[k].times(f.values, work))
                terms[k] = lp_norm(apply_multiplier(weighted, sym), p)
        return terms
    return terms_of


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
