"""Batch verification suites: configure, run, and report every check.

Each suite maps to exactly one estimate anchor (the catalog below is the
coverage ledger), runs a deterministic seeded experiment, and returns
named verdicts plus flat CSV rows.  The CLI wraps these with manifest and
report files; identical config and seed reproduce byte-identical CSVs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import grid as grid_mod
from .commutators import decay_scan, diagonal_scan
from .discrete import (
    GEOMETRIC_ONE_SIDED,
    OUTPUT_PAD,
    KernelSpec,
    bound_probe,
    geometric_row_value,
    kernel_matrix,
    window_operator_norm,
)
from .dyadic import DyadicDecomposition, spatial_mask
from .ensembles import DEFAULT_MODE_RADIUS, band_limited_field, member_rng, mode_band_fits
from .grid import Grid
from .harness import (
    box_profile,
    kpv_ensemble,
    mixed_norm_ensemble,
    nonlinearity_forcing_bound,
    relative_drift,
    resolvent_kernel_apply,
    verify_free_endpoint,
    verify_kpv,
    verify_main,
    verify_mixed_norm,
    verify_product_and_interpolation,
    verify_resolvent_1d,
    verify_resolvent_nd,
)
from .norms import NormSpec, equivalence_report, lqa_sobolev_norm, phase_localized_norm
from .schrodinger import (
    StabilityError,
    bump_potential,
    magnetic_solve,
    smallness_audit,
    zero_potential,
)
from .semilinear import (
    PICARD_MAX_ITER,
    PICARD_TOL,
    contraction_norm,
    contraction_threshold,
    critical_exponent,
    picard_solve,
    shell_potential,
)
from .spectral import l2_norm, mean_zero

#: suite -> estimate anchor it certifies (the coverage ledger)
SUITE_ANCHORS = {
    "partition": "Eq. (1.9)",
    "equivalence": "Theorem 1.4",
    "phase-localization": "Theorems 1.5/1.6",
    "commutator-scan": "Lemma 5.1",
    "discrete-bounds": "Lemma 6.1",
    "kpv": "Eq. (1.6)",
    "main-estimate": "Theorem 1.1",
    "endpoint": "Theorem 1.2",
    "resolvent-1d": "Lemma 9.3",
    "resolvent-nd": "Lemma 9.4",
    "mixed-norm": "Eq. (9.6)",
    "product-interp": "Propositions 7.2/7.3",
    "semilinear": "Theorem 1.3",
}


#: the band-limited draws of each suite, all from ``DEFAULT_MODE_RADIUS``:
#: (divisor of ``points`` giving its coarsest grid, largest ``mode_scale``)
BAND_DRAWS: dict[str, tuple[tuple[int, int], ...]] = {
    "equivalence": ((1, 1),),
    "phase-localization": ((1, 1),),
    "kpv": ((1, 2), (2, 1)),  # rescale probe on the fine grid; the coarse grid
    "main-estimate": ((1, 1),),
    "endpoint": ((1, 1),),
    "resolvent-nd": ((1, 1),),
    "mixed-norm": ((2, 1),),
    "product-interp": ((1, 1),),
}


def list_suites() -> list[str]:
    """Catalog entries 'suite -> anchor', one per implemented suite."""
    return [f"{name} -> {anchor}" for name, anchor in SUITE_ANCHORS.items()]


@dataclass(frozen=True)
class ExperimentConfig:
    suite: str
    seed: int
    dim: int = 3
    points: int = 64
    half_width: float = 8.0
    k_min: int = -2
    k_max: int = 3
    ensemble: int = 20
    n_times: int = 9
    horizon: float = 1.0
    out: str | None = None

    def validate(self) -> None:
        if self.suite not in SUITE_ANCHORS:
            raise ValueError(f"unknown suite {self.suite!r}")
        if self.seed is None:
            raise ValueError("seed is mandatory")
        if self.ensemble < 1:
            raise ValueError("ensemble must be >= 1")
        Grid(self.dim, self.half_width, self.points)  # grid preconditions
        if self.k_min >= self.k_max:
            raise ValueError("need k_min < k_max")
        # what the runner would raise on, checked before any work starts
        for divisor, scale in BAND_DRAWS.get(self.suite, ()):
            if not mode_band_fits(self.points // divisor, DEFAULT_MODE_RADIUS[1], scale):
                raise ValueError(f"{self.points // divisor} points per axis are too coarse "
                                 f"for the mode band at mode_scale {scale}")
        if self.suite == "equivalence":
            SHELL_SPEC.check_equivalence_admissible(self.dim)
        if self.suite == "semilinear":
            critical_exponent(self.dim, SEMILINEAR_WEIGHT)
        # mixed-norm takes L^2 over the transverse fibers x' = (x_2, ..., x_n),
        # and product-interp's Sobolev embedding exponent 2n/(n-1) is finite
        # only for n >= 2
        if self.suite in ("mixed-norm", "product-interp") and self.dim < 2:
            raise ValueError(f"{self.suite} needs dimension >= 2, got {self.dim}")

    def grid(self) -> Grid:
        return Grid(self.dim, self.half_width, self.points)

    def decomposition(self) -> DyadicDecomposition:
        return DyadicDecomposition(self.k_min, self.k_max)

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.n_times)


@dataclass
class Verdict:
    name: str
    passed: bool
    detail: str


@dataclass
class SuiteResult:
    verdicts: list[Verdict]
    csv_rows: list[dict] = field(default_factory=list)
    report: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)


def _verdict(name: str, passed: bool, detail: str) -> Verdict:
    return Verdict(name, bool(passed), detail)


# ---------------------------------------------------------------------------
# partition
# ---------------------------------------------------------------------------


def run_partition(cfg: ExperimentConfig) -> SuiteResult:
    decomp = cfg.decomposition()
    rng = member_rng(cfg.seed, 1)
    lo, hi = decomp.covered_interval
    radii = np.exp(rng.uniform(np.log(lo), np.log(hi), size=1000))
    spatial_err = float(np.abs(decomp.partition_sum(radii) - 1.0).max())
    freq_radii = np.exp(rng.uniform(np.log(lo), np.log(hi), size=1000))
    freq_err = float(np.abs(decomp.partition_sum(freq_radii) - 1.0).max())

    # support discipline on a sampled grid
    g = Grid(cfg.dim, cfg.half_width, min(cfg.points, 32))
    ones = np.ones(g.shape)
    masks = {k: spatial_mask(g, k).times(ones, np.empty(g.shape)) for k in decomp.shells}
    overlap = 0.0
    shells = list(decomp.shells)
    for i, k in enumerate(shells):
        for m in shells[i + 2 :]:
            overlap = max(overlap, float(np.max(masks[k] * masks[m])))

    rows = [
        {"check": "spatial_partition_max_err", "value": spatial_err},
        {"check": "frequency_partition_max_err", "value": freq_err},
        {"check": "disjoint_shell_overlap", "value": overlap},
    ]
    verdicts = [
        _verdict("spatial-partition", spatial_err < 1e-10, f"max err {spatial_err:.3e}"),
        _verdict("frequency-partition", freq_err < 1e-10, f"max err {freq_err:.3e}"),
        _verdict("support-discipline", overlap == 0.0, f"max overlap {overlap:.3e}"),
    ]
    return SuiteResult(verdicts, rows, {"spatial_err": spatial_err, "frequency_err": freq_err})


# ---------------------------------------------------------------------------
# equivalence / phase localization
# ---------------------------------------------------------------------------


#: the (q, a, s) exponents the equivalence and phase-localization suites test
SHELL_SPEC = NormSpec(2, 0.5, 0.5)


def _equivalence_max_ratio(cfg: ExperimentConfig, points: int) -> tuple[float, list[dict]]:
    g = Grid(cfg.dim, cfg.half_width, points)
    decomp = cfg.decomposition()
    rows = []
    worst = 0.0
    for i in range(cfg.ensemble):
        f = band_limited_field(g, member_rng(cfg.seed, 61, i))
        rep = equivalence_report(f, decomp, SHELL_SPEC)
        if rep.degenerate:
            continue
        worst = max(worst, rep.max_ratio)
        row = {"member": i, "points": points, "max_ratio": rep.max_ratio}
        row.update({k.replace("/", "_over_"): v for k, v in rep.ratios.items()})
        rows.append(row)
    return worst, rows


def run_equivalence(cfg: ExperimentConfig) -> SuiteResult:
    coarse, rows_c = _equivalence_max_ratio(cfg, cfg.points)
    fine, rows_f = _equivalence_max_ratio(cfg, cfg.points * 2)
    drift = relative_drift(fine, coarse)
    verdicts = [
        _verdict("ratios-finite", 0 < coarse < math.inf and 0 < fine < math.inf,
                 f"max ratio {coarse:.4f} (N={cfg.points}), {fine:.4f} (N={cfg.points*2})"),
        _verdict("refinement-stability", drift < 0.15, f"drift {drift:.4f}"),
    ]
    return SuiteResult(
        verdicts, rows_c + rows_f,
        {"spec": SHELL_SPEC.__dict__, "max_ratio_coarse": coarse, "max_ratio_fine": fine,
         "drift": drift},
    )


def _phase_constants(cfg: ExperimentConfig, points: int,
                     freq_decomp: DyadicDecomposition) -> tuple[float, float]:
    g = Grid(cfg.dim, cfg.half_width, points)
    decomp = cfg.decomposition()
    fwd, bwd = 0.0, 0.0
    for i in range(cfg.ensemble):
        f = band_limited_field(g, member_rng(cfg.seed, 67, i))
        [plain] = lqa_sobolev_norm((f,), decomp, SHELL_SPEC)
        phased = phase_localized_norm(f, decomp, freq_decomp, SHELL_SPEC)
        if plain > 0 and phased > 0:
            fwd = max(fwd, phased / plain)
            bwd = max(bwd, plain / phased)
    return fwd, bwd


def run_phase_localization(cfg: ExperimentConfig) -> SuiteResult:
    freq_decomp = DyadicDecomposition(-2, 2)
    f_c, b_c = _phase_constants(cfg, cfg.points, freq_decomp)
    f_f, b_f = _phase_constants(cfg, cfg.points * 2, freq_decomp)
    # shells outside the box give zero constants, which fail the
    # two-sided verdict; the drifts are then infinite
    drift_f = relative_drift(f_f, f_c)
    drift_b = relative_drift(b_f, b_c)
    rows = [
        {"side": "localized_over_plain", "points": cfg.points, "constant": f_c},
        {"side": "localized_over_plain", "points": cfg.points * 2, "constant": f_f},
        {"side": "plain_over_localized", "points": cfg.points, "constant": b_c},
        {"side": "plain_over_localized", "points": cfg.points * 2, "constant": b_f},
    ]
    verdicts = [
        _verdict("two-sided-constants",
                 all(0 < c < math.inf for c in (f_c, b_c, f_f, b_f)),
                 f"forward {f_c:.4f}, backward {b_c:.4f}"),
        _verdict("forward-stability", drift_f < 0.15, f"drift {drift_f:.4f}"),
        _verdict("backward-stability", drift_b < 0.15, f"drift {drift_b:.4f}"),
    ]
    return SuiteResult(verdicts, rows, {"forward": [f_c, f_f], "backward": [b_c, b_f]})


# ---------------------------------------------------------------------------
# commutator scan
# ---------------------------------------------------------------------------


#: smoothness orders the commutator scan measures, and the window the
#: fitted decay slope must fall in
COMMUTATOR_S_VALUES = (0.5, -0.5)
SLOPE_WINDOW = (0.7, 1.3)


def run_commutator_scan(cfg: ExperimentConfig) -> SuiteResult:
    k_range = range(cfg.k_min - 1, cfg.k_max + 2)  # defaults give [-3, 4]
    rows: list[dict] = []
    verdicts: list[Verdict] = []
    report: dict = {"slopes": {}, "diagonal": {}}
    for s in COMMUTATOR_S_VALUES:
        scan = decay_scan(s, k_range, dim=cfg.dim, points=cfg.points, seed=cfg.seed)
        rows.extend({**r, "s": s} for r in scan.csv_rows())
        report["slopes"][str(s)] = {
            "slope": scan.slope,
            "intercept": scan.intercept,
            "points": scan.regression_points,
            "unresolved": sum(1 for r in scan.records if not r.resolved),
        }
        verdicts.append(
            _verdict(
                f"decay-slope(s={s})",
                SLOPE_WINDOW[0] <= scan.slope <= SLOPE_WINDOW[1],
                f"slope {scan.slope:.4f} over {scan.regression_points} resolved records",
            )
        )
    # diagonal scale covariance on one fixed grid
    g = Grid(cfg.dim, cfg.half_width, min(cfg.points, 32))
    diag_band = range(-1, 3)
    worst = 0.0
    for s in COMMUTATOR_S_VALUES:
        vals = diagonal_scan(s, diag_band, g, seed=cfg.seed)
        report["diagonal"][str(s)] = vals
        ks = sorted(vals)
        for a, b in zip(ks[:-1], ks[1:]):
            if vals[a] > 0:
                worst = max(worst, abs(vals[b] / vals[a] - 1.0))
    verdicts.append(
        _verdict("diagonal-scale-covariance", worst < 0.05, f"max deviation {worst:.4f}")
    )
    return SuiteResult(verdicts, rows, report)


# ---------------------------------------------------------------------------
# discrete bounds
# ---------------------------------------------------------------------------


#: (lambda, mu) kernel exponents, sequence exponents q and window sizes K
#: of the discrete boundedness probes
KERNEL_EXPONENTS = ((0.5, 0.5), (1.0, 0.25), (0.25, 1.0))
KERNEL_Q_VALUES = (1, 2, math.inf)
KERNEL_WINDOWS = (8, 16, 32, 64)


def run_discrete_bounds(cfg: ExperimentConfig) -> SuiteResult:
    rows: list[dict] = []
    verdicts: list[Verdict] = []
    for lam, mu in KERNEL_EXPONENTS:
        spec = KernelSpec(lam, mu, lam + mu)
        for q in KERNEL_Q_VALUES:
            probe = bound_probe(spec, q, KERNEL_WINDOWS)
            rows.extend(probe.rows())
            verdicts.append(
                _verdict(
                    f"stability(lam={lam},mu={mu},q={q})",
                    probe.stable,
                    f"estimates {tuple(round(e, 6) for e in probe.estimates)}",
                )
            )
    # exact geometric values for the flat input at the canonical exponents:
    # its output is the row sums of the kernel matrix, and output index -K
    # is row OUTPUT_PAD
    K = KERNEL_WINDOWS[-1]
    flat_out = kernel_matrix(KernelSpec(0.5, 0.5, 1.0), K).sum(axis=1)
    sup = float(flat_out.max())
    edge = float(flat_out[OUTPUT_PAD])
    err_row = abs(sup - geometric_row_value(K))
    err_edge = abs(edge - GEOMETRIC_ONE_SIDED)
    rows.append({"check": "flat_sup_vs_geometric_row", "value": sup,
                 "target": geometric_row_value(K), "error": err_row})
    rows.append({"check": "flat_edge_vs_one_sided_sum", "value": edge,
                 "target": GEOMETRIC_ONE_SIDED, "error": err_edge})
    verdicts.append(_verdict("geometric-row-value", err_row < 1e-6,
                             f"sup {sup:.9f} vs {geometric_row_value(K):.9f}"))
    verdicts.append(_verdict("geometric-edge-value", err_edge < 1e-6,
                             f"edge {edge:.9f} vs {GEOMETRIC_ONE_SIDED:.9f}"))
    # violated-hypothesis control: beta below lambda + mu must grow with K
    bad = KernelSpec(0.5, 0.5, 0.9)
    growth = [window_operator_norm(bad, math.inf, K) for K in KERNEL_WINDOWS]
    rows.extend({"check": "divergent_control", "K": K, "value": v}
                for K, v in zip(KERNEL_WINDOWS, growth))
    monotone = all(b > a for a, b in zip(growth[:-1], growth[1:]))
    verdicts.append(_verdict("divergence-control",
                             monotone and growth[-1] > 4 * growth[0],
                             f"growth {tuple(round(v, 3) for v in growth)}"))
    return SuiteResult(verdicts, rows, {"windows": KERNEL_WINDOWS})


# ---------------------------------------------------------------------------
# harness-backed suites
# ---------------------------------------------------------------------------


def _member_rows(report, suite: str) -> list[dict]:
    rows = []
    for i, m in enumerate(report.members):
        rows.append({
            "suite": suite,
            "member": i,
            "lhs": m["lhs"],
            "rhs": m["rhs"],
            "ratio": m["ratio"],
            "degenerate": bool(m["degenerate"]),
        })
    return rows


def run_kpv(cfg: ExperimentConfig) -> SuiteResult:
    decomp = cfg.decomposition()
    times = cfg.times()
    fine = verify_kpv(cfg.grid(), decomp, times, cfg.ensemble, cfg.seed)
    coarse = kpv_ensemble(Grid(cfg.dim, cfg.half_width, cfg.points // 2), decomp, times,
                          cfg.ensemble, cfg.seed)
    drift = relative_drift(fine.ratio, coarse.ratio)
    verdicts = [
        _verdict("ratio-finite", 0 < fine.ratio < math.inf, f"max ratio {fine.ratio:.5f}"),
        _verdict("homogeneity", fine.probes.get("homogeneity_drift", math.nan) < 1e-12,
                 f"drift {fine.probes.get('homogeneity_drift', math.nan):.2e}"),
        _verdict("rescale-invariance", fine.probes.get("rescale_drift", math.nan) < 0.10,
                 f"drift {fine.probes.get('rescale_drift', math.nan):.4f}"),
        _verdict("refinement-stability", drift < 0.15, f"drift {drift:.4f}"),
    ]
    rows = _member_rows(fine, "kpv") + [
        {"suite": "kpv-coarse", "member": i, **{k: m[k] for k in ("lhs", "rhs", "ratio")}}
        for i, m in enumerate(coarse.members)
    ]
    return SuiteResult(verdicts, rows, {"probes": fine.probes, "refinement_drift": drift})


#: smallness-audit total the main-estimate potential is scaled to
AUDIT_TARGET = 0.1


def run_main_estimate(cfg: ExperimentConfig) -> SuiteResult:
    g = cfg.grid()
    decomp = cfg.decomposition()
    unit = bump_potential(g, 1.0, shell=1)
    unit_total = smallness_audit(unit, decomp)
    if unit_total == 0:
        # no grid point of the shell range meets the unit bump, so the audit
        # cannot calibrate the potential; stop before any solve
        verdict = _verdict("audit-resolvable", False,
                           f"unit-bump audit is 0 on shells {cfg.k_min}:{cfg.k_max}")
        return SuiteResult([verdict], [], {"unit_audit_total": unit_total})
    A = bump_potential(g, AUDIT_TARGET / unit_total, shell=1)
    rep = verify_main(g, decomp, cfg.times(), A, cfg.ensemble, cfg.seed)
    verdicts = [
        _verdict("audit-within-budget", rep.probes["audit_total"] <= AUDIT_TARGET * (1 + 1e-9),
                 f"audit {rep.probes['audit_total']:.4f} <= {AUDIT_TARGET}"),
        _verdict("ratio-finite", 0 < rep.ratio < math.inf, f"max ratio {rep.ratio:.5f}"),
        _verdict("inflation-bounded", rep.probes.get("max_inflation", math.inf) <= 2.0,
                 f"max inflation {rep.probes.get('max_inflation', math.nan):.6f}"),
        _verdict("free-consistency", rep.probes["free_consistency"] < 1e-8,
                 f"relative gap {rep.probes['free_consistency']:.2e}"),
    ]
    return SuiteResult(verdicts, _member_rows(rep, "main-estimate"), {"probes": rep.probes})


def run_endpoint(cfg: ExperimentConfig) -> SuiteResult:
    rep = verify_free_endpoint(cfg.grid(), cfg.decomposition(), cfg.times(),
                               cfg.ensemble, cfg.seed)
    rows = _member_rows(rep, "endpoint")
    for row, m in zip(rows, rep.members):
        row["best_split"] = m["best_split"]
    verdicts = [
        _verdict("ratio-finite", 0 < rep.ratio < math.inf, f"max ratio {rep.ratio:.5f}"),
        _verdict("splits-explored",
                 len({m["best_split"] for m in rep.members}) >= 1,
                 f"minimizers {sorted({m['best_split'] for m in rep.members})}"),
    ]
    return SuiteResult(verdicts, rows, {"ratio": rep.ratio})


def run_resolvent_1d(cfg: ExperimentConfig) -> SuiteResult:
    rep = verify_resolvent_1d(seed=cfg.seed, n_pairs=max(cfg.ensemble, 20))
    rows = _member_rows(rep, "resolvent-1d")
    v, l1 = resolvent_kernel_apply(box_profile(0.0, 1.0), complex(-1.0))
    box_sup = float(np.abs(v).max())
    target = 1.0 - math.exp(-1.0)
    rows.append({"suite": "resolvent-1d", "member": "box", "lhs": box_sup,
                 "rhs": l1, "ratio": box_sup / l1})
    verdicts = [
        _verdict("contraction-bound", rep.ratio <= 1.0 + 1e-6,
                 f"max sup|v|/||w||_1 = {rep.ratio:.8f}"),
        _verdict("box-closed-form", abs(box_sup - target) < 1e-6,
                 f"sup v {box_sup:.8f} vs 1 - 1/e = {target:.8f}"),
    ]
    return SuiteResult(verdicts, rows, {"ratio": rep.ratio, "box_sup": box_sup})


def run_resolvent_nd(cfg: ExperimentConfig) -> SuiteResult:
    g = Grid(max(cfg.dim - 1, 2), cfg.half_width, cfg.points)
    rep = verify_resolvent_nd(g, ensemble=cfg.ensemble, seed=cfg.seed)
    fine = verify_resolvent_nd(g.refine(), ensemble=cfg.ensemble, seed=cfg.seed)
    drift = relative_drift(fine.ratio, rep.ratio)
    verdicts = [
        _verdict("ratio-finite", 0 < rep.ratio < math.inf, f"max ratio {rep.ratio:.5f}"),
        _verdict("refinement-stability", drift < 0.10, f"drift {drift:.4f}"),
    ]
    return SuiteResult(verdicts, _member_rows(rep, "resolvent-nd"),
                       {"probes": {"refinement_drift": drift}})


def run_mixed_norm(cfg: ExperimentConfig) -> SuiteResult:
    fine = verify_mixed_norm(cfg.grid(), cfg.decomposition(), cfg.times(),
                             cfg.ensemble, cfg.seed)
    coarse = mixed_norm_ensemble(Grid(cfg.dim, cfg.half_width, cfg.points // 2),
                                 cfg.times(), cfg.ensemble, cfg.seed)
    drift = relative_drift(fine.ratio, coarse.ratio)
    verdicts = [
        _verdict("ratio-finite", 0 < fine.ratio < math.inf, f"max ratio {fine.ratio:.5f}"),
        _verdict("rotation-exact", fine.probes["rotation_mismatch"] < 1e-10,
                 f"mismatch {fine.probes['rotation_mismatch']:.2e}"),
        _verdict("inclusions-finite",
                 all(0 < fine.probes[k] < math.inf
                     for k in ("inclusion_l2_max_ratio", "inclusion_sup_max_ratio")),
                 f"l2 {fine.probes['inclusion_l2_max_ratio']:.4f}, "
                 f"sup {fine.probes['inclusion_sup_max_ratio']:.4f}"),
        _verdict("refinement-stability", drift < 0.15, f"drift {drift:.4f}"),
    ]
    return SuiteResult(verdicts, _member_rows(fine, "mixed-norm"),
                       {"probes": fine.probes, "refinement_drift": drift})


def run_product_interp(cfg: ExperimentConfig) -> SuiteResult:
    rep = verify_product_and_interpolation(cfg.grid(), cfg.decomposition(),
                                           cfg.ensemble, cfg.seed)
    names = ("product", "interpolation", "sobolev", "hardy")
    verdicts = [
        _verdict(f"{n}-finite", 0 < rep.probes[f"{n}_max_ratio"] < math.inf,
                 f"max ratio {rep.probes[f'{n}_max_ratio']:.4f}")
        for n in names
    ]
    verdicts.append(_verdict("hardy-sharp-bound", rep.probes["hardy_max_ratio"] <= 2.0,
                             f"max {rep.probes['hardy_max_ratio']:.4f} <= 2"))
    return SuiteResult(verdicts, _member_rows(rep, "product-interp"), {"probes": rep.probes})


#: shell weight exponent a of the semilinear critical power
SEMILINEAR_WEIGHT = 1.0


def run_semilinear(cfg: ExperimentConfig) -> SuiteResult:
    g = cfg.grid()
    decomp = cfg.decomposition()
    p = float(critical_exponent(cfg.dim, SEMILINEAR_WEIGHT))
    V = shell_potential(g, 4.0)
    A = zero_potential(g)
    prof = mean_zero(grid_mod.gaussian(g, width=0.5, center=1.5))
    times = cfg.times()

    threshold = contraction_threshold(prof, V, A, p, times, decomp)
    delta = min(threshold.threshold, 0.1) if threshold.threshold > 0 else 0.0
    run = picard_solve(prof * (delta / l2_norm(prof)), V, A, p, times, decomp,
                       max_iter=PICARD_MAX_ITER, tol=PICARD_TOL)

    # recurrence-difference shape constant over the converged run
    shape_consts = []
    states = run.states
    for j in range(2, len(states)):
        d_prev, d_here = states[j - 1].diff_z, states[j].diff_z
        z1, z0 = states[j - 1].z_norm, states[j - 2].z_norm
        if d_prev and d_prev > 0:
            shape_consts.append(d_here / (d_prev * (z1 + z0) ** (p - 1)))
    shape_c = max(shape_consts) if shape_consts else math.nan

    # forcing-side bound of the nonlinearity on the converged iterate
    nl_bound = nonlinearity_forcing_bound(run.final, V, p, decomp)

    # V = 0 degenerates to the linear flow exactly
    V0 = shell_potential(g, 0.0)
    lin_run = picard_solve(prof * (0.05 / l2_norm(prof)), V0, A, p, times, decomp,
                         max_iter=PICARD_MAX_ITER, tol=PICARD_TOL)
    linear = magnetic_solve(prof * (0.05 / l2_norm(prof)), A, None, times)
    lin_gap = contraction_norm(lin_run.final - linear, decomp)

    rows = [
        {"delta": t["delta"], "contracting": t["contracting"]} for t in threshold.trace
    ]
    rows.append({"check": "shape_constant", "value": shape_c})
    rows.append({"check": "fixed_point_residual", "value": run.fixed_point_residual})
    verdicts = [
        _verdict("threshold-located", threshold.threshold > 0,
                 f"largest contracting delta {threshold.threshold:.4f}"),
        _verdict("contraction-below-threshold", run.converged and run.contracting,
                 f"ratios {[round(r, 4) for r in run.contraction_ratios]}"),
        _verdict("fixed-point-residual",
                 run.fixed_point_residual is not None and run.fixed_point_residual < 10 * PICARD_TOL,
                 f"residual {run.fixed_point_residual:.2e} < 10 tol = {10 * PICARD_TOL:.0e}"),
        _verdict("difference-shape-constant", 0 < shape_c < math.inf,
                 f"max constant {shape_c:.4f}"),
        _verdict("nonlinearity-bound-finite",
                 not nl_bound["degenerate"] and nl_bound["ratio"] < math.inf,
                 f"ratio {nl_bound['ratio']:.4f}"),
        _verdict("zero-potential-degenerates", lin_gap == 0.0,
                 f"gap {lin_gap:.2e}"),
    ]
    return SuiteResult(verdicts, rows,
                       {"p": p, "a": SEMILINEAR_WEIGHT, "threshold": threshold.threshold,
                        "trace": threshold.trace,
                        "contraction": [s.__dict__ for s in run.states]})


SUITE_RUNNERS: dict[str, Callable[[ExperimentConfig], SuiteResult]] = {
    "partition": run_partition,
    "equivalence": run_equivalence,
    "phase-localization": run_phase_localization,
    "commutator-scan": run_commutator_scan,
    "discrete-bounds": run_discrete_bounds,
    "kpv": run_kpv,
    "main-estimate": run_main_estimate,
    "endpoint": run_endpoint,
    "resolvent-1d": run_resolvent_1d,
    "resolvent-nd": run_resolvent_nd,
    "mixed-norm": run_mixed_norm,
    "product-interp": run_product_interp,
    "semilinear": run_semilinear,
}

#: per-suite config defaults chosen so each suite is well resolved at desk
#: scale (ensembles, grid sizes, and shell ranges per its tolerance)
SUITE_DEFAULTS: dict[str, dict] = {
    "partition": {"k_min": -3, "k_max": 4},
    "equivalence": {"points": 32, "ensemble": 50},
    "phase-localization": {"points": 32, "ensemble": 50},
    "commutator-scan": {"points": 64, "k_min": -2, "k_max": 3},
    "kpv": {"points": 64},
    "main-estimate": {"points": 32},
    "endpoint": {"points": 32, "ensemble": 10},
    "resolvent-nd": {"points": 64},
    "mixed-norm": {"points": 32},
    "product-interp": {"points": 32},
    "semilinear": {"points": 32, "n_times": 17},
}


def apply_suite_defaults(cfg: ExperimentConfig, explicit: set[str]) -> ExperimentConfig:
    """Fill suite-specific defaults for fields the user did not set."""
    overrides = {
        k: v for k, v in SUITE_DEFAULTS.get(cfg.suite, {}).items() if k not in explicit
    }
    return replace(cfg, **overrides)


class SuiteInternalError(Exception):
    """A suite runner failed with something other than a config it cannot
    run (``ValueError``, ``StabilityError``); the original exception is the
    ``__cause__`` and the message is ``"<Type>: <message>"``."""


def run_suite(cfg: ExperimentConfig) -> SuiteResult:
    cfg.validate()
    try:
        return SUITE_RUNNERS[cfg.suite](cfg)
    except (ValueError, StabilityError):
        raise
    except Exception as exc:
        # wrapped here rather than caught in the CLI, so that an exception
        # raised by code wrapping run_suite, such as a timing harness that
        # stops after set-up, still propagates out of cli.main
        raise SuiteInternalError(f"{type(exc).__name__}: {exc}") from exc
