import math

import numpy as np
import pytest

import oracles
from smoothlab import harness
from smoothlab.dyadic import DyadicDecomposition
from smoothlab.ensembles import band_limited_field, band_limited_spacetime, member_rng
from smoothlab.grid import Field, Grid, SpaceTimeField
from smoothlab.harness import (
    box_profile,
    gaussian_profile,
    hardy_ratio,
    relative_drift,
    inclusion_l2_vs_weighted_sum,
    inclusion_weighted_sup_vs_mixed,
    kpv_ensemble,
    mixed_norm_ensemble,
    resolvent_kernel_apply,
    verify_free_endpoint,
    verify_kpv,
    verify_main,
    verify_mixed_norm,
    verify_product_and_interpolation,
    verify_resolvent_1d,
    verify_resolvent_nd,
)
from smoothlab.norms import NormSpec, lqa_sobolev_norm
from smoothlab.schrodinger import (
    bump_potential,
    duhamel,
    free_evolution,
    magnetic_solve,
    smallness_audit,
    zero_potential,
)
from smoothlab.spectral import l2_norm
from smoothlab.suites import ExperimentConfig, run_kpv, run_mixed_norm, run_resolvent_nd

DEC = DyadicDecomposition(-2, 3)
GRID = Grid(3, 8.0, 16)
TIMES = np.linspace(0, 1.0, 5)


class TestRelativeDrift:
    def test_equals_the_written_out_quotient(self):
        rng = np.random.default_rng(5)
        for value, reference in rng.uniform(0.0, 3.0, size=(200, 2)):
            assert relative_drift(value, reference) == abs(value - reference) / reference

    def test_zero_reference_is_infinite(self):
        assert relative_drift(0.0, 0.0) == math.inf
        assert relative_drift(1.5, 0.0) == math.inf

    def test_nan_reference_is_nan(self):
        assert math.isnan(relative_drift(1.0, math.nan))
        assert math.isnan(relative_drift(math.nan, math.nan))


class TestKpv:
    def test_degenerate_zero_forcing(self):
        from smoothlab.harness import _kpv_member

        F = SpaceTimeField(GRID, TIMES, np.zeros((5,) + GRID.shape, complex))
        m = _kpv_member(F, DEC)
        assert m["degenerate"]

    def test_report_shape(self):
        # the rescale probe draws at mode_scale 2, which needs 32 points
        grid = Grid(3, 8.0, 32)
        rep = verify_kpv(grid, DEC, TIMES, ensemble=3, seed=1)
        assert 0 < rep.ratio < math.inf
        assert len(rep.members) == 3
        assert rep.probes["homogeneity_drift"] < 1e-12
        assert set(rep.probes) == {"homogeneity_drift", "rescale_drift"}
        # the verifier is its bare ensemble plus the probes
        bare = kpv_ensemble(grid, DEC, TIMES, 3, 1)
        assert bare.probes == {} and bare.members == rep.members

    def test_ensemble_doubling_stability(self):
        r20 = kpv_ensemble(GRID, DEC, TIMES, 10, 1)
        r40 = kpv_ensemble(GRID, DEC, TIMES, 20, 1)
        assert abs(r40.ratio - r20.ratio) / r20.ratio < 0.15


class TestMain:
    def test_zero_potential_consistency_exact(self):
        A = zero_potential(GRID)
        rep = verify_main(GRID, DEC, TIMES, A, ensemble=2, seed=2)
        assert rep.probes["free_consistency"] < 1e-12

    def test_small_potential_inflation(self):
        unit = bump_potential(GRID, 1.0, shell=1)
        amp = 0.1 / smallness_audit(unit, DEC)
        A = bump_potential(GRID, amp, shell=1)
        rep = verify_main(GRID, DEC, TIMES, A, ensemble=3, seed=2)
        assert rep.probes["audit_total"] <= 0.1 * (1 + 1e-9)
        assert rep.probes["max_inflation"] <= 2.0
        assert 0 < rep.ratio < math.inf

    def test_ratio_scale_invariant(self):
        # both sides are squared 1-homogeneous functionals of the data
        from smoothlab.harness import _weighted_data_rhs, _weighted_solution_lhs
        from smoothlab.schrodinger import magnetic_solve

        rng = member_rng(2, 23, 0)
        f = band_limited_field(GRID, rng, mode_radius=(1, 4))
        F = band_limited_spacetime(GRID, TIMES, rng, mode_radius=(1, 4))
        A = zero_potential(GRID)
        u = magnetic_solve(f, A, F, TIMES)
        r1 = _weighted_solution_lhs(u, DEC) / _weighted_data_rhs(f, F, DEC)
        u2 = magnetic_solve(3.0 * f, A, 3.0 * F, TIMES)
        r2 = _weighted_solution_lhs(u2, DEC) / _weighted_data_rhs(3.0 * f, 3.0 * F, DEC)
        assert math.isclose(r1, r2, rel_tol=1e-12)


def _fresh_free_consistency(seed: int) -> float:
    """The free-reduction probe recomputed from scratch on member 0."""
    rng = member_rng(seed, 23, 0)
    f = band_limited_field(GRID, rng)
    F = band_limited_spacetime(GRID, TIMES, rng)
    lhs_a = harness._weighted_solution_lhs(magnetic_solve(f, zero_potential(GRID), F, TIMES), DEC)
    free_plus_duhamel = free_evolution(f, TIMES).values + duhamel(F).values
    lhs_b = harness._weighted_solution_lhs(SpaceTimeField(GRID, TIMES, free_plus_duhamel), DEC)
    return abs(lhs_a - lhs_b) / max(lhs_b, 1e-300)


class TestMainFreeConsistency:
    """verify_main's free-reduction probe reuses member 0's paired solve
    and falls back to a fresh one when there is none."""

    @pytest.fixture
    def potential(self):
        unit = bump_potential(GRID, 1.0, shell=1)
        return bump_potential(GRID, 0.1 / smallness_audit(unit, DEC), shell=1)

    @pytest.fixture
    def solves(self, monkeypatch):
        calls = []
        real = harness.magnetic_solve

        def counted(*args, **kwargs):
            calls.append(not args[1].support)
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, "magnetic_solve", counted)
        return calls

    def test_paired_reuses_member_zero(self, potential, solves):
        expected = _fresh_free_consistency(2)
        solves.clear()
        rep = verify_main(GRID, DEC, TIMES, potential, ensemble=2, seed=2)
        assert rep.probes["free_consistency"] == expected
        assert solves == [False, True, False, True]

    def test_degenerate_member_zero_solves_afresh(self, potential, solves, monkeypatch):
        real_rhs = harness._weighted_data_rhs
        seen = []

        def rhs(f, F, decomp):
            seen.append(f)
            return 0.0 if len(seen) == 1 else real_rhs(f, F, decomp)

        monkeypatch.setattr(harness, "_weighted_data_rhs", rhs)
        expected = _fresh_free_consistency(2)
        solves.clear()
        rep = verify_main(GRID, DEC, TIMES, potential, ensemble=2, seed=2)
        assert rep.members[0]["degenerate"] and "max_inflation" in rep.probes
        assert rep.probes["free_consistency"] == expected
        assert solves == [False, True, False, True]


class TestEndpoint:
    def test_homogeneous_case_reduces_to_data_norm(self):
        # F = 0: the split contributes nothing and the bound is the
        # homogeneous one, solution norms against ||f||_{L^2} alone
        from smoothlab.ensembles import band_limited_field
        from smoothlab.norms import smoothing_norm, sup_l2_norm
        from smoothlab.schrodinger import free_evolution

        f = band_limited_field(GRID, member_rng(3, 30, 0), mode_radius=(1, 4))
        u = free_evolution(f, TIMES)
        lhs = sup_l2_norm(u) + smoothing_norm(u, DEC)
        rhs = l2_norm(f)
        assert 0 < lhs / rhs < math.inf

    def test_members_have_positive_rhs(self):
        rep = verify_free_endpoint(GRID, DEC, TIMES, ensemble=2, seed=3)
        for m in rep.members:
            assert m["rhs"] > 0

    def test_holds_one_member_and_one_split_at_a_time(self, traced_peak):
        # the peak is the solve: the member's draw, its Duhamel stack with
        # the free flow summed into it, and a few work arrays; the previous
        # member's arrays and the previous threshold's low-pass are gone
        array = 16 * GRID.size
        stack = len(TIMES) * array
        peak = traced_peak(lambda: verify_free_endpoint(GRID, DEC, TIMES, ensemble=2, seed=3))
        assert peak <= 4 * stack + 2 * array

    def test_trivial_split_family_is_min(self):
        # the recorded split is the argmin over the trivial pair and every
        # threshold split, rebuilt here from member 0's own draw
        from smoothlab.harness import ENDPOINT_THRESHOLD_SHELLS, _lowpass
        from smoothlab.norms import forcing_norm, l1t_l2x_norm

        rng = member_rng(3, 31, 0)
        f = band_limited_field(GRID, rng)
        F = band_limited_spacetime(GRID, TIMES, rng)
        vals = {"all-forcing-norm": forcing_norm(F, DEC), "all-l1l2": l1t_l2x_norm(F)}
        for j in ENDPOINT_THRESHOLD_SHELLS:
            low = _lowpass(F, 2.0**j)
            vals[f"threshold-2^{j}"] = forcing_norm(low, DEC) + l1t_l2x_norm(F - low)
        assert len(vals) == 7
        rep = verify_free_endpoint(GRID, DEC, TIMES, ensemble=1, seed=3)
        best = rep.members[0]["best_split"]
        assert best == min(vals, key=vals.get)
        assert rep.members[0]["rhs"] == l2_norm(f) + vals[best]

    def test_threshold_split_partitions(self):
        from smoothlab.harness import _lowpass

        F = band_limited_spacetime(GRID, TIMES, member_rng(3, 31, 1), mode_radius=(1, 4))
        low = _lowpass(F, 2.0)
        high = F - low
        rec = low.values + high.values
        assert np.abs(rec - F.values).max() < 1e-12 * np.abs(F.values).max()


class TestResolvent1d:
    def test_box_closed_form(self):
        v, l1 = resolvent_kernel_apply(box_profile(0, 1), complex(-1.0))
        assert abs(np.abs(v).max() - (1 - math.exp(-1))) < 1e-6
        assert abs(l1 - 1.0) < 1e-12

    def test_mirror_branch_symmetry(self):
        v_minus, _ = resolvent_kernel_apply(box_profile(0, 1), complex(-1.0))
        v_plus, _ = resolvent_kernel_apply(box_profile(0, 1), complex(+1.0))
        assert abs(np.abs(v_minus).max() - np.abs(v_plus).max()) < 1e-12

    def test_zero_profile(self):
        v, l1 = resolvent_kernel_apply(lambda y: np.zeros_like(y), complex(-2.0))
        assert np.abs(v).max() == 0.0 and l1 == 0.0

    def test_contraction_over_ensemble(self):
        rep = verify_resolvent_1d(seed=5, n_pairs=20)
        assert rep.ratio <= 1.0 + 1e-6

    def test_imaginary_axis_either_branch(self):
        w = gaussian_profile(0.0, 0.3, 1.0)
        v, l1 = resolvent_kernel_apply(w, complex(0.0, 2.0))
        assert np.abs(v).max() <= l1 * (1 + 1e-6)


class TestResolventNd:
    def test_separable_fiber_reduction(self):
        # v = g(x1) exp(i xi' . x'): the transverse mode shifts lambda exactly
        g2 = Grid(2, 8.0, 64)
        rng = member_rng(6, 0)
        g1d = Grid(1, 8.0, 64)
        prof = band_limited_field(g1d, rng, mode_radius=(1, 5), window=None)
        xi2 = (np.pi / 8 * 3) ** 2
        lam = complex(1.0, 1.5)
        vals = prof.values[:, None] * np.exp(
            1j * (np.pi / 8 * 3) * oracles.coord(g2, 1) + np.zeros(g2.shape)
        )
        from smoothlab.grid import _fftn, _ifftn

        spec = _fftn(vals)
        d1 = _ifftn(1j * g2.freq_coord(0) * spec)
        w = _ifftn((g2.freq_radius**2 - lam) * spec)
        from smoothlab.harness import _x1_profile

        lhs2 = _x1_profile(d1, g2).max()
        rhs2 = _x1_profile(w, g2).sum() * g2.spacing
        # 1-d counterpart with shifted spectral parameter
        spec1 = _fftn(prof.values)
        d1_1 = _ifftn(1j * g1d.freq_axis * spec1)
        w1 = _ifftn((g1d.freq_radius**2 - (lam - xi2)) * spec1)
        lhs1 = np.abs(d1_1).max()
        rhs1 = np.sum(np.abs(w1)) * g1d.spacing
        assert math.isclose(lhs2 / rhs2, lhs1 / rhs1, rel_tol=1e-9)

    def test_degenerate_flagged(self):
        g2 = Grid(2, 8.0, 32)
        rep = verify_resolvent_nd(g2, ensemble=2, seed=6)
        assert not rep.degenerate  # random members are nonzero

    def test_dim_domain(self):
        with pytest.raises(ValueError):
            verify_resolvent_nd(Grid(1, 8.0, 32), ensemble=1, seed=0)


class TestMixedNorm:
    def test_inclusion_indicator_closed_form(self):
        # unit-ball indicator: ||u||_2 = sqrt(4 pi / 3) and the weighted
        # shell sum dominates with constant at most 2
        g = Grid(3, 8.0, 128)
        ball = Field(g, (g.radius <= 1.0).astype(complex))
        rec = inclusion_l2_vs_weighted_sum(ball, DEC)
        assert rec["ratio"] <= 2.0
        assert abs(rec["lhs"] - math.sqrt(4 * math.pi / 3)) / rec["lhs"] < 0.05

    def test_inclusion_sup_vs_mixed(self):
        f = band_limited_field(GRID, member_rng(7, 0), mode_radius=(1, 4))
        rec = inclusion_weighted_sup_vs_mixed(f, DEC)
        assert 0 < rec["ratio"] < math.inf

    def test_inclusions_equal_hand_written_sums(self):
        # the shell sum and sup as written before they went through
        # seq_norm, compared bit for bit
        f = band_limited_field(GRID, member_rng(7, 1), mode_radius=(1, 4))

        def shell_l2(a):
            return [l2_norm(Field(GRID, oracles.weight_product_mask(GRID, k, a) * f.values))
                    for k in DEC.shells]

        assert inclusion_l2_vs_weighted_sum(f, DEC)["rhs"] == sum(shell_l2(0.5))
        assert inclusion_weighted_sup_vs_mixed(f, DEC)["lhs"] == max(shell_l2(-0.5))

    def test_rotation_probe_exact(self):
        rep = verify_mixed_norm(GRID, DEC, TIMES, ensemble=2, seed=7)
        assert rep.probes["rotation_mismatch"] < 1e-10
        # the verifier is its bare ensemble plus the probes
        bare = mixed_norm_ensemble(GRID, TIMES, 2, 7)
        assert bare.probes == {} and bare.members == rep.members


class TestSecondGridRuns:
    """A suite's second-grid run measures the bare ensemble, no probe."""

    @staticmethod
    def _count(monkeypatch, name):
        calls = []
        real = getattr(harness, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, name, counted)
        return calls

    def test_kpv_coarse_run_draws_each_member_once(self, monkeypatch):
        # fine ensemble, homogeneity member, rescaled ensemble, coarse ensemble
        calls = self._count(monkeypatch, "_kpv_member")
        cfg = ExperimentConfig("kpv", 0, points=32, ensemble=2, n_times=3)
        run_kpv(cfg)
        assert len(calls) == 3 * cfg.ensemble + 1

    def test_mixed_norm_coarse_run_skips_the_inclusions(self, monkeypatch):
        calls = self._count(monkeypatch, "inclusion_l2_vs_weighted_sum")
        cfg = ExperimentConfig("mixed-norm", 0, points=32, ensemble=2, n_times=3)
        run_mixed_norm(cfg)
        assert len(calls) == cfg.ensemble

    def test_resolvent_nd_drift_is_two_verifier_runs(self):
        cfg = ExperimentConfig("resolvent-nd", 6, points=32, ensemble=3)
        g = Grid(2, cfg.half_width, 32)
        coarse = verify_resolvent_nd(g, ensemble=3, seed=6)
        fine = verify_resolvent_nd(Grid(2, cfg.half_width, 64), ensemble=3, seed=6)
        assert coarse.probes == fine.probes == {}
        drift = run_resolvent_nd(cfg).report["probes"]["refinement_drift"]
        assert drift == relative_drift(fine.ratio, coarse.ratio)


class TestProductInterpolation:
    def test_hardy_gaussian_sharp_constant(self):
        # closed form sqrt(4/3); the origin-cell exclusion biases down and
        # shrinks under refinement; the sharp bound 2 holds throughout
        from smoothlab.grid import gaussian

        target = math.sqrt(4.0 / 3.0)
        r64 = hardy_ratio(gaussian(Grid(3, 10.0, 64), width=1.0, center=0.0))["ratio"]
        r128 = hardy_ratio(gaussian(Grid(3, 10.0, 128), width=1.0, center=0.0))["ratio"]
        assert r64 <= 2.0 and r128 <= 2.0
        assert abs(r128 - target) < abs(r64 - target)
        assert abs(r128 - target) / target < 0.10

    def test_product_with_unit_factor_is_norm_identity(self):
        # g = 1 on the support of f leaves the product side unchanged
        f = band_limited_field(GRID, member_rng(8, 0), mode_radius=(1, 4),
                               window=(1.0, 2.0))
        one = Field(GRID, np.ones(GRID.shape, complex))
        fg = Field(GRID, f.values * one.values)
        spec = NormSpec(2, 0.5, 0.5)
        norm_fg, norm_f = lqa_sobolev_norm((fg, f), DEC, spec, variant="D_then_mask")
        assert norm_fg == norm_f

    def test_report_probes(self):
        rep = verify_product_and_interpolation(GRID, DEC, ensemble=4, seed=8)
        for name in ("product", "interpolation", "sobolev", "hardy"):
            assert 0 < rep.probes[f"{name}_max_ratio"] < math.inf
        assert rep.probes["hardy_max_ratio"] <= 2.0
