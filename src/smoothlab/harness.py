"""Measured-ratio verification of the smoothing inequalities.

Every verifier evaluates LHS/RHS over one seeded ensemble on the grid it
is given and reports the ensemble maximum together with scale and
consistency probes; the suites do the refinement.  Constants are
certified by stability of the measured ratios, not by comparison to any
prescribed number.  Each measured pair of sides is one ratio record
(``_ratio_record``), the maximum over records is taken by
``_ensemble_report``, and every drift of a ratio under refinement,
rescaling, homogeneity or rotation is ``relative_drift``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .dyadic import DyadicDecomposition, seq_norm, smooth_cutoff, spatial_mask
from .ensembles import band_limited_field, band_limited_spacetime, member_rng
from .grid import Field, Grid, SpaceTimeField
from .norms import (
    DATA_SPEC,
    SOLUTION_SPEC,
    NormSpec,
    annulus_sum_norm,
    annulus_sup_norm,
    forcing_norm,
    l1t_l2x_norm,
    lqa_sobolev_norm,
    smoothing_norm,
    sup_l2_norm,
    time_l2,
    weight_product_mask,
)
from .schrodinger import (
    MagneticPotential,
    duhamel,
    free_evolution,
    magnetic_solve,
    smallness_audit,
    zero_potential,
)
from .semilinear import SemilinearPotential, contraction_norm, nonlinearity
from .spectral import (
    apply_multiplier,
    apply_multipliers,
    derivative,
    gradient_magnitude,
    l2_norm,
    lp_norm,
    sobolev_norm,
)


@dataclass
class EstimateReport:
    """One verified inequality: ensemble-max LHS/RHS ratio plus probes.

    ``degenerate`` means every member had a zero right-hand side, and the
    ratio is then NaN."""

    ratio: float
    members: list[dict]
    degenerate: bool = False
    probes: dict = field(default_factory=dict)


def relative_drift(value: float, reference: float) -> float:
    """|value - reference| / reference, and inf for a zero reference."""
    return math.inf if reference == 0 else abs(value - reference) / reference


def _ratio_record(lhs: float, rhs: float, **extra) -> dict:
    """One member's two sides and their ratio; a zero RHS is degenerate."""
    return {"lhs": lhs, "rhs": rhs, "ratio": lhs / rhs if rhs > 0 else math.nan,
            "degenerate": rhs == 0, **extra}


def _ensemble_report(members: list[dict]) -> EstimateReport:
    """Maximum ratio over the live (non-degenerate) records; NaN and
    degenerate when none is live."""
    live = [m for m in members if not m["degenerate"]]
    if not live:
        return EstimateReport(math.nan, members, degenerate=True)
    return EstimateReport(max(live, key=lambda m: m["ratio"])["ratio"], members)


# ---------------------------------------------------------------------------
# homogeneous-smoothing estimate for the forced free flow
# ---------------------------------------------------------------------------


def _kpv_member(F: SpaceTimeField, decomp: DyadicDecomposition) -> dict:
    u = duhamel(F)
    lhs_t = [annulus_sup_norm(gradient_magnitude(s), decomp) for s in u.slices()]
    rhs_t = [annulus_sum_norm(s, decomp) for s in F.slices()]
    return _ratio_record(time_l2(np.array(lhs_t), u.times) ** 2,
                         time_l2(np.array(rhs_t), F.times) ** 2)


def kpv_ensemble(
    grid: Grid, decomp: DyadicDecomposition, times: Sequence[float], ensemble: int, seed: int
) -> EstimateReport:
    """Gradient local-smoothing bound for the forced free equation on the
    seeded ensemble, without probes: time-L^2 of the annulus sup of
    |grad u| against time-L^2 of the weighted annulus sum of F."""
    times = np.asarray(times, dtype=float)
    return _ensemble_report([
        _kpv_member(band_limited_spacetime(grid, times, member_rng(seed, 11, i)), decomp)
        for i in range(ensemble)])


def verify_kpv(
    grid: Grid,
    decomp: DyadicDecomposition,
    times: Sequence[float],
    ensemble: int,
    seed: int,
) -> EstimateReport:
    """``kpv_ensemble`` with its homogeneity and parabolic-rescaling probes."""
    times = np.asarray(times, dtype=float)
    report = kpv_ensemble(grid, decomp, times, ensemble, seed)
    if report.degenerate:
        return report

    # 1-homogeneity probe: scaling the data leaves the ratio fixed
    F0 = band_limited_spacetime(grid, times, member_rng(seed, 11, 0))
    scaled = _kpv_member(3.7 * F0, decomp)
    report.probes["homogeneity_drift"] = relative_drift(scaled["ratio"],
                                                        report.members[0]["ratio"])

    # parabolic rescaling: every member rebuilt as 4 F(4t, 2x) exactly,
    # on the same grid with quarter times; the shell window shifts down
    # one octave along with the data (scale-equivariant truncation), so
    # the probe isolates the grid's broken self-similarity
    t2 = times / 4.0
    d2 = decomp.shift(-1)
    rescaled = []
    for i in range(ensemble):
        F_resc = band_limited_spacetime(grid, t2, member_rng(seed, 11, i),
                                        mode_scale=2, time_scale=4.0, amplitude=4.0)
        rescaled.append(_kpv_member(F_resc, d2)["ratio"])
    report.probes["rescale_drift"] = relative_drift(max(rescaled), report.ratio)
    return report


# ---------------------------------------------------------------------------
# main magnetic estimate
# ---------------------------------------------------------------------------


def _free_plus_duhamel(f: Field, F: SpaceTimeField) -> SpaceTimeField:
    """The free flow of f plus the Duhamel integral of F at F's times, the
    free flow summed into the Duhamel stack in place."""
    u = duhamel(F)
    u.values += free_evolution(f, F.times).values
    return u


def _weighted_solution_lhs(u: SpaceTimeField, decomp: DyadicDecomposition) -> float:
    vals = lqa_sobolev_norm(u.slices(), decomp, SOLUTION_SPEC, variant="weight_product")
    return time_l2(np.array(vals), u.times) ** 2


def _weighted_data_rhs(f: Field, F: SpaceTimeField, decomp: DyadicDecomposition) -> float:
    vals = lqa_sobolev_norm(F.slices(), decomp, DATA_SPEC, variant="weight_product")
    return l2_norm(f) ** 2 + time_l2(np.array(vals), F.times) ** 2


def verify_main(
    grid: Grid,
    decomp: DyadicDecomposition,
    times: Sequence[float],
    A: MagneticPotential,
    ensemble: int,
    seed: int,
) -> EstimateReport:
    """Weighted-energy smoothing bound for the magnetic flow, with a
    paired zero-potential run measuring the ratio inflation caused by the
    potential and an exact consistency check of the free reduction on
    member 0 (reusing its paired run)."""
    times = np.asarray(times, dtype=float)
    audit_total = smallness_audit(A, decomp)
    members = []
    inflations = []
    zero = zero_potential(grid)
    for i in range(ensemble):
        rng = member_rng(seed, 23, i)
        f = band_limited_field(grid, rng)
        F = band_limited_spacetime(grid, times, rng)
        lhs = _weighted_solution_lhs(magnetic_solve(f, A, F, times), decomp)
        rhs = _weighted_data_rhs(f, F, decomp)
        rec = _ratio_record(lhs, rhs)
        lhs0 = _weighted_solution_lhs(magnetic_solve(f, zero, F, times), decomp)
        if not rec["degenerate"]:
            inflations.append(rec["ratio"] / (lhs0 / rhs))
        if i == 0:
            # exact free reduction: the zero-potential solver path is the
            # free propagator plus the trapezoid Duhamel march
            lhs_free = _weighted_solution_lhs(_free_plus_duhamel(f, F), decomp)
            consistency = abs(lhs0 - lhs_free) / max(lhs_free, 1e-300)
        members.append(rec)
        del f, F  # one member's arrays at a time
    report = _ensemble_report(members)
    report.probes["audit_total"] = audit_total
    if inflations:
        report.probes["max_inflation"] = max(inflations)
    report.probes["free_consistency"] = consistency
    return report


# ---------------------------------------------------------------------------
# endpoint estimate with forcing splits
# ---------------------------------------------------------------------------


def _lowpass(F: SpaceTimeField, threshold: float) -> SpaceTimeField:
    sym = smooth_cutoff(F.grid.freq_radius / threshold)
    return SpaceTimeField.from_slices(F.grid, F.times,
                                      (apply_multiplier(s, sym) for s in F.slices()))


#: shells j of the frequency thresholds 2^j that split the endpoint forcing
ENDPOINT_THRESHOLD_SHELLS = (-2, -1, 0, 1, 2)


def verify_free_endpoint(
    grid: Grid,
    decomp: DyadicDecomposition,
    times: Sequence[float],
    ensemble: int,
    seed: int,
) -> EstimateReport:
    """Endpoint bound: sup-L^2 plus smoothing norm of the solution against
    the data norm plus the best split of the forcing between the data-side
    space-time norm and L^1_t L^2_x.

    The split family is the trivial pair plus smooth frequency-threshold
    splits at 2^j for j in ``ENDPOINT_THRESHOLD_SHELLS``; the minimizing
    split is recorded per member.
    """
    times = np.asarray(times, dtype=float)
    members = []
    for i in range(ensemble):
        rng = member_rng(seed, 31, i)
        f = band_limited_field(grid, rng)
        F = band_limited_spacetime(grid, times, rng)
        u = _free_plus_duhamel(f, F)
        lhs = sup_l2_norm(u) + smoothing_norm(u, decomp)
        del u  # before the splits' low-passes are made
        splits: dict[str, float] = {
            "all-forcing-norm": forcing_norm(F, decomp),
            "all-l1l2": l1t_l2x_norm(F),
        }
        for j in ENDPOINT_THRESHOLD_SHELLS:
            low = _lowpass(F, 2.0**j)
            splits[f"threshold-2^{j}"] = forcing_norm(low, decomp) + l1t_l2x_norm(F - low)
            del low  # before the next threshold's low-pass is made
        best = min(splits, key=splits.get)
        members.append(_ratio_record(lhs, l2_norm(f) + splits[best], best_split=best))
        del f, F  # one member's arrays at a time
    return _ensemble_report(members)


# ---------------------------------------------------------------------------
# one-dimensional resolvent kernel
# ---------------------------------------------------------------------------


#: interval and cell count of the one-dimensional resolvent march
RESOLVENT_DOMAIN = (-4.0, 5.0)
RESOLVENT_CELLS = 9216


def resolvent_kernel_apply(
    w: Callable[[np.ndarray], np.ndarray], lam: complex
) -> tuple[np.ndarray, float]:
    """Solve (d/dx - lambda) v = w on ``RESOLVENT_DOMAIN`` by the explicit
    exponential kernel.

    Forward kernel for Re lambda <= 0, backward for Re lambda > 0; the
    marching recursion uses exact interval propagation with midpoint
    forcing, so |v| <= ||w||_L1 up to quadrature error.
    Returns (v at the nodes, L1 norm of w).
    """
    lo, hi = RESOLVENT_DOMAIN
    cells = RESOLVENT_CELLS
    x = np.linspace(lo, hi, cells + 1)
    h = (hi - lo) / cells
    mids = 0.5 * (x[:-1] + x[1:])
    wm = np.asarray(w(mids), dtype=complex)
    l1 = float(np.sum(np.abs(wm)) * h)
    v = np.zeros(cells + 1, dtype=complex)
    if lam.real <= 0:
        step = np.exp(lam * h)
        for j in range(cells):
            v[j + 1] = step * v[j] + np.exp(lam * (x[j + 1] - mids[j])) * wm[j] * h
    else:
        step = np.exp(-lam * h)
        for j in range(cells - 1, -1, -1):
            v[j] = step * v[j + 1] - np.exp(lam * (x[j] - mids[j])) * wm[j] * h
    return v, l1


def box_profile(lo: float, hi: float):
    def w(y: np.ndarray) -> np.ndarray:
        return ((y > lo) & (y < hi)).astype(float)

    return w


def gaussian_profile(center: float, width: float, height: float):
    def w(y: np.ndarray) -> np.ndarray:
        return height * np.exp(-((y - center) ** 2) / (2 * width**2))

    return w


def verify_resolvent_1d(seed: int, n_pairs: int) -> EstimateReport:
    """sup |v| <= ||(d/dx - lambda) v||_{L^1} via the explicit kernel, for
    a seeded ensemble of profiles and spectral parameters on both branches."""
    rng = member_rng(seed, 41)
    members = []
    for i in range(n_pairs):
        if i % 3 == 0:
            w = box_profile(rng.uniform(-1, 0), rng.uniform(0.5, 2.0))
        elif i % 3 == 1:
            w = gaussian_profile(rng.uniform(-1, 2), rng.uniform(0.1, 0.6), rng.uniform(0.5, 3))
        else:
            w1 = gaussian_profile(rng.uniform(-2, 0), rng.uniform(0.1, 0.4), rng.uniform(0.5, 2))
            w2 = gaussian_profile(rng.uniform(0, 2), rng.uniform(0.1, 0.4), -rng.uniform(0.5, 2))
            w = (lambda a, b: (lambda y: a(y) + b(y)))(w1, w2)
        lam = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        v, l1 = resolvent_kernel_apply(w, lam)
        members.append(_ratio_record(float(np.abs(v).max()), l1))
    return _ensemble_report(members)


# ---------------------------------------------------------------------------
# n-dimensional resolvent estimate in mixed norms
# ---------------------------------------------------------------------------


def _x1_profile(values: np.ndarray, grid: Grid, times: np.ndarray | None = None) -> np.ndarray:
    """L^2 norm over the transverse axes x' as a function of x1; with
    ``times`` the values carry a leading time axis, which is integrated in
    L^2 as well.  Mixed norms are its max (L^inf_{x1}) or its sum times the
    spacing (L^1_{x1})."""
    lead = 0 if times is None else 1
    axes = tuple(range(lead + 1, lead + grid.dim))
    dens = np.sum(np.abs(values) ** 2, axis=axes) * grid.spacing ** (grid.dim - 1)
    if times is not None:
        dens = np.trapezoid(dens, times, axis=0)
    return np.sqrt(dens)


def verify_resolvent_nd(
    grid: Grid,
    ensemble: int,
    seed: int,
) -> EstimateReport:
    """Mixed-norm resolvent bound: sup over x1 of the transverse L^2 norm
    of d_1 v against the L^1-in-x1 transverse L^2 norm of (-Lap - lambda) v.

    Spectral parameters depend on the seed alone, so a member meets the
    same lambda on every grid, and are kept off the real lattice to avoid
    periodic resonances (the estimate lives on R^n; the box surrogate
    degenerates exactly on lattice eigenvalues).
    """
    if grid.dim < 2:
        raise ValueError("needs dim >= 2")
    rng = member_rng(seed, 43)
    lambdas = [
        complex(rng.uniform(-4, 6), rng.choice([-1, 1]) * rng.uniform(0.5, 3.0))
        for _ in range(20)
    ]

    members = []
    for i in range(ensemble):
        lam = lambdas[i % len(lambdas)]
        v = band_limited_field(grid, member_rng(seed, 44, i), window=None)
        d1, wv = apply_multipliers(v, (1j * grid.freq_coord(0), grid.freq_radius**2 - lam))
        members.append(_ratio_record(float(_x1_profile(d1.values, grid).max()),
                                     float(_x1_profile(wv.values, grid).sum() * grid.spacing)))
    return _ensemble_report(members)


# ---------------------------------------------------------------------------
# space-time mixed-norm estimate and the static inclusion chain
# ---------------------------------------------------------------------------


def _weighted_shell_l2(f: Field, decomp: DyadicDecomposition, a: float) -> dict[int, float]:
    work = np.empty(f.grid.shape, dtype=complex)
    return {k: l2_norm(Field(f.grid, weight_product_mask(f.grid, k, a).times(f.values, work)))
            for k in decomp.shells}


def inclusion_l2_vs_weighted_sum(f: Field, decomp: DyadicDecomposition) -> dict:
    """||u||_{L^2} against sum_k || |x|_k^{1/2} u ||_{L^2} on the truncated
    shell range."""
    return _ratio_record(l2_norm(f), seq_norm(_weighted_shell_l2(f, decomp, 0.5), 1, 0.0))


def inclusion_weighted_sup_vs_mixed(f: Field, decomp: DyadicDecomposition) -> dict:
    """sup_k || |x|_k^{-1/2} u ||_{L^2} against the L^inf_{x1} transverse
    L^2 norm."""
    return _ratio_record(seq_norm(_weighted_shell_l2(f, decomp, -0.5), math.inf, 0.0),
                         float(_x1_profile(f.values, f.grid).max()))


def _mixed_member(
    grid: Grid, times: np.ndarray, seed: int, idx: int
) -> tuple[SpaceTimeField, SpaceTimeField]:
    F = band_limited_spacetime(grid, times, member_rng(seed, 47, idx))
    return F, duhamel(F)


def _estimate_along(F: SpaceTimeField, u: SpaceTimeField, axis: int) -> dict:
    g = F.grid
    du = SpaceTimeField.from_slices(g, u.times, (derivative(s, axis) for s in u.slices())).values
    # the estimate's axis goes to the x1 slot of (t, x1, x')
    du = np.moveaxis(du, 1 + axis, 1)
    Fv = np.moveaxis(F.values, 1 + axis, 1)
    return _ratio_record(float(_x1_profile(du, g, u.times).max()),
                         float(_x1_profile(Fv, g, F.times).sum() * g.spacing))


def mixed_norm_ensemble(
    grid: Grid, times: Sequence[float], ensemble: int, seed: int
) -> EstimateReport:
    """Mixed-norm smoothing for the forced free flow on the seeded
    ensemble, without probes: d_1 gains one derivative in
    L^inf_{x1} L^2_{t,x'}."""
    times = np.asarray(times, dtype=float)
    return _ensemble_report([_estimate_along(*_mixed_member(grid, times, seed, i), 0)
                             for i in range(ensemble)])


def verify_mixed_norm(
    grid: Grid,
    decomp: DyadicDecomposition,
    times: Sequence[float],
    ensemble: int,
    seed: int,
) -> EstimateReport:
    """``mixed_norm_ensemble`` plus the two static inclusion checks that
    bracket it between the shell norms, and its rotation probe."""
    times = np.asarray(times, dtype=float)
    report = mixed_norm_ensemble(grid, times, ensemble, seed)

    # static inclusion chain on the same ensemble's first slices
    inc_l2, inc_sup = [], []
    for i in range(ensemble):
        f = band_limited_field(grid, member_rng(seed, 48, i))
        inc_l2.append(inclusion_l2_vs_weighted_sum(f, decomp))
        inc_sup.append(inclusion_weighted_sup_vs_mixed(f, decomp))
    report.probes["inclusion_l2_max_ratio"] = _ensemble_report(inc_l2).ratio
    report.probes["inclusion_sup_max_ratio"] = _ensemble_report(inc_sup).ratio

    # the native d_2 estimate must equal the d_1 estimate of the
    # axis-swapped data exactly (grid axis swap is a rotation)
    F, u = _mixed_member(grid, times, seed, 0)
    native = _estimate_along(F, u, 1)
    F_sw = SpaceTimeField(grid, times, np.swapaxes(F.values, 1, 2))
    swapped = _estimate_along(F_sw, duhamel(F_sw), 0)
    report.probes["rotation_mismatch"] = relative_drift(swapped["ratio"], native["ratio"])
    return report


# ---------------------------------------------------------------------------
# product, interpolation, Sobolev embedding, Hardy
# ---------------------------------------------------------------------------


def lqa_lp_norm(f: Field, decomp: DyadicDecomposition, q: float, a: float, p: float) -> float:
    """Plain weighted shell-L^p norm (no smoothing factor); each masked
    field overwrites one buffer, in exact zeros off its shell's cube."""
    work = np.empty(f.grid.shape, dtype=complex)
    terms = {k: lp_norm(Field(f.grid, spatial_mask(f.grid, k).times(f.values, work)), p)
             for k in decomp.shells}
    return seq_norm(terms, q, a)


def hardy_ratio(f: Field) -> dict:
    """Ratio record of || |x|^{-1} f ||_{L^2} over || |D| f ||_{L^2}; the
    origin cell is excluded from the singular weight."""
    grid = f.grid
    r = grid.radius
    w = np.zeros(grid.shape)
    nz = r > 0
    w[nz] = 1.0 / r[nz]
    return _ratio_record(l2_norm(Field(grid, w * f.values)), sobolev_norm(f, 1.0))


def verify_product_and_interpolation(
    grid: Grid,
    decomp: DyadicDecomposition,
    ensemble: int,
    seed: int,
) -> EstimateReport:
    """Measured constants for the fixed-split product estimate, the
    two-norm interpolation bound, the Sobolev embedding H^{1/2} into
    L^{2n/(n-1)}, and the Hardy weight bound.

    Exponent splits (recorded): product at (q,a,s,p) = (2,1/2,1/2,2) with
    both factors in (4,1/4,*,4); interpolation at theta = 1/2 between
    (2,0.4,1,2) and (2,0.6,0,2)."""
    n = grid.dim
    spec = NormSpec(2, 0.5, 0.5)
    members = []
    sub = {"interpolation": [], "sobolev": [], "hardy": []}
    for i in range(ensemble):
        rng = member_rng(seed, 53, i)
        f = band_limited_field(grid, rng)
        g = band_limited_field(grid, rng)
        fg = Field(grid, f.values * g.values)
        [lhs] = lqa_sobolev_norm((fg,), decomp, spec, variant="D_then_mask", p=2)
        nf4, ng4 = lqa_sobolev_norm((f, g), decomp, NormSpec(4, 0.25, 0.5), p=4)
        rhs = nf4 * lqa_lp_norm(g, decomp, 4, 0.25, 4) + lqa_lp_norm(f, decomp, 4, 0.25, 4) * ng4
        members.append(_ratio_record(lhs, rhs))

        [lhs_i] = lqa_sobolev_norm((f,), decomp, spec)
        [nf_s1] = lqa_sobolev_norm((f,), decomp, NormSpec(2, 0.4, 1.0))
        rhs_i = math.sqrt(nf_s1 * lqa_lp_norm(f, decomp, 2, 0.6, 2))
        sub["interpolation"].append(_ratio_record(lhs_i, rhs_i))
        sub["sobolev"].append(_ratio_record(lp_norm(f, 2 * n / (n - 1)), sobolev_norm(f, 0.5)))
        sub["hardy"].append(hardy_ratio(f))
    report = _ensemble_report(members)
    report.probes["product_max_ratio"] = report.ratio
    for name, records in sub.items():
        report.probes[f"{name}_max_ratio"] = _ensemble_report(records).ratio
    report.probes["splits"] = (
        "product: (2,1/2,1/2,2) <= (4,1/4,1/2,4)x(4,1/4,-,4) both orders; "
        "interpolation: theta=1/2 between (2,0.4,1,2) and (2,0.6,-,2)"
    )
    return report


# ---------------------------------------------------------------------------
# semilinear nonlinearity on the data side
# ---------------------------------------------------------------------------


def nonlinearity_forcing_bound(
    u: SpaceTimeField, V: SemilinearPotential, p: float, decomp: DyadicDecomposition
) -> dict:
    """Ratio record of the data-side norm of the nonlinearity against the
    p-th power of the iteration norm (the chain endpoint actually used by
    the recurrence)."""
    return _ratio_record(forcing_norm(nonlinearity(u, V, p), decomp),
                         contraction_norm(u, decomp) ** p)
