"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line with its measured quantities.  Tolerances are pinned here; run with
``pytest tests/test_acceptance.py -v -s`` to see the lines as they pass.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from smoothlab.cli import main as cli_main
from smoothlab.suites import (
    ExperimentConfig,
    run_commutator_scan,
    run_discrete_bounds,
    run_equivalence,
    run_kpv,
    run_main_estimate,
    run_mixed_norm,
    run_partition,
    run_phase_localization,
    run_resolvent_1d,
    run_semilinear,
)

SEED = 20260809


@contextmanager
def criterion(number: int, label: str):
    start = time.time()
    record = {}
    try:
        yield record
    except BaseException:
        print(f"[FAIL] criterion {number:2d} ({label}) after {time.time() - start:.1f}s "
              f"{record.get('detail', '')}")
        raise
    print(f"[PASS] criterion {number:2d} ({label}) in {time.time() - start:.1f}s "
          f"{record.get('detail', '')}")


def _require(result, names=None):
    failed = [v for v in result.verdicts if not v.passed
              and (names is None or v.name in names)]
    assert not failed, "; ".join(f"{v.name}: {v.detail}" for v in failed)


def test_criterion_1_partition_identity():
    with criterion(1, "partition identity") as rec:
        t0 = time.time()
        cfg = ExperimentConfig("partition", SEED, k_min=-3, k_max=4)
        res = run_partition(cfg)
        elapsed = time.time() - t0
        _require(res)
        rec["detail"] = (f"spatial {res.report['spatial_err']:.1e}, "
                         f"frequency {res.report['frequency_err']:.1e}")
        assert res.report["spatial_err"] < 1e-10
        assert res.report["frequency_err"] < 1e-10
        assert elapsed < 5.0


def test_criterion_2_discrete_certificate():
    with criterion(2, "discrete kernel certificate") as rec:
        t0 = time.time()
        cfg = ExperimentConfig("discrete-bounds", SEED)
        res = run_discrete_bounds(cfg)
        elapsed = time.time() - t0
        _require(res)
        # drift from K=32 to K=64 below 5% for the canonical exponents
        rows = [r for r in res.csv_rows
                if r.get("lam") == 0.5 and r.get("mu") == 0.5 and r.get("K") == 64]
        drifts = [r["drift"] for r in rows]
        assert drifts and all(d < 0.05 for d in drifts)
        geo = {r["check"]: r for r in res.csv_rows if "check" in r and "error" in r}
        rec["detail"] = (f"edge err {geo['flat_edge_vs_one_sided_sum']['error']:.1e}, "
                         f"drifts {[f'{d:.3f}' for d in drifts]}")
        assert geo["flat_edge_vs_one_sided_sum"]["error"] < 1e-6
        assert geo["flat_sup_vs_geometric_row"]["error"] < 1e-6
        assert elapsed < 10.0


def test_criterion_3_commutator_decay():
    with criterion(3, "commutator decay regression") as rec:
        t0 = time.time()
        cfg = ExperimentConfig("commutator-scan", SEED, points=64, k_min=-2, k_max=3)
        res = run_commutator_scan(cfg)
        elapsed = time.time() - t0
        _require(res)
        slopes = {s: d["slope"] for s, d in res.report["slopes"].items()}
        rec["detail"] = (f"slopes {slopes}, "
                         f"diagonal {res.verdicts[-1].detail}")
        for s, slope in slopes.items():
            assert 0.7 <= slope <= 1.3, f"s={s}: slope {slope}"
        assert elapsed < 180.0


def test_criterion_4_norm_equivalence():
    with criterion(4, "three-norm equivalence") as rec:
        t0 = time.time()
        cfg = ExperimentConfig("equivalence", SEED, points=32, ensemble=50)
        res = run_equivalence(cfg)
        elapsed = time.time() - t0
        _require(res)
        rec["detail"] = (f"max ratio {res.report['max_ratio_coarse']:.4f} -> "
                         f"{res.report['max_ratio_fine']:.4f}, drift {res.report['drift']:.4f}")
        assert res.report["drift"] < 0.15
        assert elapsed < 120.0


def test_criterion_5_phase_localization():
    with criterion(5, "phase localization equivalence") as rec:
        t0 = time.time()
        cfg = ExperimentConfig("phase-localization", SEED, points=32, ensemble=50)
        res = run_phase_localization(cfg)
        elapsed = time.time() - t0
        _require(res)
        rec["detail"] = (f"forward {res.report['forward']}, "
                         f"backward {res.report['backward']}")
        assert elapsed < 120.0


def test_criterion_6_kpv_estimate():
    with criterion(6, "gradient smoothing estimate") as rec:
        t0 = time.time()
        cfg = ExperimentConfig("kpv", SEED, points=64, ensemble=20)
        res = run_kpv(cfg)
        elapsed = time.time() - t0
        _require(res)
        rec["detail"] = (f"rescale {res.report['probes']['rescale_drift']:.4f}, "
                         f"refinement {res.report['refinement_drift']:.4f}")
        assert res.report["probes"]["rescale_drift"] < 0.10
        assert res.report["refinement_drift"] < 0.15
        assert elapsed < 300.0


def test_criterion_7_main_estimate():
    with criterion(7, "magnetic smoothing estimate") as rec:
        t0 = time.time()
        cfg = ExperimentConfig("main-estimate", SEED, points=32, ensemble=20)
        res = run_main_estimate(cfg)
        elapsed = time.time() - t0
        _require(res)
        probes = res.report["probes"]
        rec["detail"] = (f"audit {probes['audit_total']:.3f}, "
                         f"inflation {probes['max_inflation']:.4f}, "
                         f"consistency {probes['free_consistency']:.1e}")
        assert probes["audit_total"] <= 0.1 * (1 + 1e-9)
        assert probes["max_inflation"] <= 2.0
        assert probes["free_consistency"] < 1e-8
        assert elapsed < 300.0


def test_criterion_8_resolvent_1d():
    with criterion(8, "one-dimensional resolvent bound") as rec:
        t0 = time.time()
        cfg = ExperimentConfig("resolvent-1d", SEED, ensemble=20)
        res = run_resolvent_1d(cfg)
        elapsed = time.time() - t0
        _require(res)
        rec["detail"] = "; ".join(v.detail for v in res.verdicts)
        assert res.report["ratio"] <= 1.0 + 1e-6
        assert abs(res.report["box_sup"] - (1 - math.exp(-1))) < 1e-6
        assert elapsed < 5.0


def test_criterion_9_mixed_norm():
    with criterion(9, "mixed-norm estimate and inclusions") as rec:
        t0 = time.time()
        cfg = ExperimentConfig("mixed-norm", SEED, points=32, ensemble=20)
        res = run_mixed_norm(cfg)
        elapsed = time.time() - t0
        _require(res)
        probes = res.report["probes"]
        rec["detail"] = (f"refinement {res.report['refinement_drift']:.4f}, "
                         f"rotation {probes['rotation_mismatch']:.1e}")
        assert res.report["refinement_drift"] < 0.15
        assert probes["rotation_mismatch"] < 1e-10
        assert elapsed < 180.0


def test_criterion_10_free_propagator():
    with criterion(10, "free propagator exactness") as rec:
        t0 = time.time()
        from oracles import plane_wave
        from smoothlab.grid import Grid, gaussian
        from smoothlab.schrodinger import free_evolution
        from smoothlab.spectral import l2_norm

        g3 = Grid(3, 8.0, 16)
        pw = plane_wave(g3, (1, 0, 2))
        xi2 = (np.pi / 8) ** 2 * 5
        phase_err = float(np.abs(
            free_evolution(pw, [0.3]).slice(0).values - np.exp(-1j * 0.3 * xi2) * pw.values
        ).max())

        g1 = Grid(1, 20.0, 256)
        u = gaussian(g1, width=1.0, center=0.0)
        m0 = l2_norm(u)
        for _ in range(1000):
            u = free_evolution(u, [1e-3]).slice(0)
        drift = abs(l2_norm(u) - m0) / m0

        t_ev = 0.1
        evolved = free_evolution(gaussian(g1, width=1.0, center=0.0), [t_ev]).slice(0)
        x = g1.axis
        exact = (1 + 2j * t_ev) ** -0.5 * np.exp(-(x**2) / (2 * (1 + 2j * t_ev)))
        gauss_err = float(np.abs(evolved.values - exact).max())
        elapsed = time.time() - t0

        rec["detail"] = (f"phase {phase_err:.1e}, drift {drift:.1e}, "
                         f"gaussian {gauss_err:.1e}")
        assert phase_err < 1e-12
        assert drift < 1e-12
        assert gauss_err < 1e-6
        assert elapsed < 10.0


def test_criterion_11_magnetic_self_convergence():
    with criterion(11, "magnetic splitting order and mass") as rec:
        t0 = time.time()
        from smoothlab.dyadic import DyadicDecomposition
        from smoothlab.ensembles import band_limited_field, member_rng
        from smoothlab.grid import Grid
        from smoothlab.schrodinger import bump_potential, magnetic_solve, smallness_audit
        from smoothlab.spectral import l2_norm

        g = Grid(3, 8.0, 32)
        decomp = DyadicDecomposition(-2, 3)
        unit = bump_potential(g, 1.0, shell=1)
        amp = 0.1 / smallness_audit(unit, decomp)
        A = bump_potential(g, amp, shell=1)
        audit = smallness_audit(A, decomp)
        f = band_limited_field(g, member_rng(SEED, 71), mode_radius=(1, 4))

        sols = [magnetic_solve(f, A, None, [0.0, 0.25], dt=dt).values[-1]
                for dt in (0.05, 0.025, 0.0125)]
        e1 = float(np.linalg.norm(sols[0] - sols[1]))
        e2 = float(np.linalg.norm(sols[1] - sols[2]))
        rate = math.log2(e1 / e2)

        long = magnetic_solve(f, A, None, [0.0, 1.0])
        mass_drift = abs(l2_norm(long.slice(1)) - l2_norm(long.slice(0))) / l2_norm(
            long.slice(0))
        elapsed = time.time() - t0

        rec["detail"] = f"rate {rate:.3f}, mass drift {mass_drift:.2e}, audit {audit:.3f}"
        assert audit <= 0.1 * (1 + 1e-9)
        assert 1.7 <= rate <= 2.3
        assert mass_drift < 1e-3
        assert elapsed < 120.0


def test_criterion_12_semilinear_contraction():
    with criterion(12, "semilinear contraction") as rec:
        t0 = time.time()
        cfg = ExperimentConfig("semilinear", SEED, points=32, n_times=17)
        res = run_semilinear(cfg)
        elapsed = time.time() - t0
        _require(res)
        rec["detail"] = (f"p = {res.report['p']}, threshold {res.report['threshold']:.4f}")
        assert res.report["p"] == 1.4  # (n+4)/(n+2a) at n=3, a=1
        assert res.report["threshold"] > 0
        assert elapsed < 600.0


def test_criterion_13_determinism(tmp_path):
    with criterion(13, "seeded determinism") as rec:
        identical = []
        for suite in ("discrete-bounds", "resolvent-1d", "partition"):
            a, b = tmp_path / f"{suite}-a", tmp_path / f"{suite}-b"
            for out in (a, b):
                code = cli_main(["--suite", suite, "--seed", "17", "--out", str(out)])
                assert code == 0
            identical.append(
                (a / "results.csv").read_bytes() == (b / "results.csv").read_bytes()
            )
        rec["detail"] = f"byte-identical CSVs on {len(identical)} suites"
        assert all(identical)
