import math
from fractions import Fraction

import numpy as np
import pytest

from smoothlab.dyadic import DyadicDecomposition
from smoothlab.ensembles import band_limited_spacetime, member_rng
from smoothlab.grid import Grid, SpaceTimeField, gaussian
from smoothlab.harness import nonlinearity_forcing_bound
from smoothlab.schrodinger import magnetic_solve, zero_potential, bump_potential
from smoothlab.semilinear import (
    contraction_norm,
    contraction_threshold,
    critical_exponent,
    nonlinearity,
    picard_solve,
    shell_potential,
)
from smoothlab.spectral import l2_norm, mean_zero

DEC = DyadicDecomposition(-2, 3)


@pytest.fixture(scope="module")
def grid():
    return Grid(3, 8.0, 16)


@pytest.fixture(scope="module")
def setup(grid):
    V = shell_potential(grid, 4.0)
    A = zero_potential(grid)
    prof = mean_zero(gaussian(grid, width=0.5, center=1.5))
    times = np.linspace(0, 1.0, 9)
    return V, A, prof, times


class TestCriticalExponent:
    def test_reference_values(self):
        assert critical_exponent(3, 1) == Fraction(7, 5)
        assert critical_exponent(4, 1) == Fraction(4, 3)

    def test_boundary_limit(self):
        # a -> 2 drives p to 1 (excluded boundary)
        p = critical_exponent(3, Fraction(199, 100))
        assert 1 < p < Fraction(7, 5)
        with pytest.raises(ValueError):
            critical_exponent(3, 2)

    def test_dimension_domain(self):
        with pytest.raises(ValueError):
            critical_exponent(2, 1)


class TestNonlinearity:
    def test_zero(self, grid, setup):
        V, _, _, times = setup
        u = SpaceTimeField(grid, times, np.zeros((len(times),) + grid.shape, complex))
        out = nonlinearity(u, V, 1.4)
        assert np.abs(out.values).max() == 0.0

    def test_constant_magnitude(self, grid, setup):
        V, _, _, times = setup
        c = 0.7
        vals = np.full((len(times),) + grid.shape, c * np.exp(0.3j), dtype=complex)
        u = SpaceTimeField(grid, times, vals)
        out = nonlinearity(u, V, 1.4)
        expected = V.values * vals * c**0.4
        assert np.abs(out.values - expected).max() < 1e-13

    def test_p_homogeneity(self, grid, setup):
        V, _, _, times = setup
        u = band_limited_spacetime(grid, times, member_rng(9, 0), mode_radius=(1, 4))
        p = 1.4
        a = nonlinearity(3.0 * u, V, p)
        b = 3.0**p * nonlinearity(u, V, p).values
        assert np.abs(a.values - b).max() < 1e-10 * np.abs(b).max()

    def test_p_domain(self, grid, setup):
        V, _, _, times = setup
        u = SpaceTimeField(grid, times, np.zeros((len(times),) + grid.shape, complex))
        with pytest.raises(ValueError):
            nonlinearity(u, V, 1.0)

    def test_forcing_bound_scaling_invariant(self, grid, setup):
        V, _, _, times = setup
        u = band_limited_spacetime(grid, times, member_rng(9, 1), mode_radius=(1, 4))
        p = 1.4
        r1 = nonlinearity_forcing_bound(u, V, p, DEC)
        r2 = nonlinearity_forcing_bound(2.5 * u, V, p, DEC)
        assert math.isclose(r1["ratio"], r2["ratio"], rel_tol=1e-10)

    def test_forcing_bound_degenerate_flagged(self, grid, setup):
        V, _, _, times = setup
        u = SpaceTimeField(grid, times, np.zeros((len(times),) + grid.shape, complex))
        assert nonlinearity_forcing_bound(u, V, 1.4, DEC)["degenerate"]

    def test_forcing_bound_single_shell(self, grid, setup):
        # V equal to the shell-0 bump and u living on one shell: both sides
        # are single-shell quantities and the ratio is finite
        _, _, _, times = setup
        V1 = shell_potential(grid, 1.0)
        u = band_limited_spacetime(grid, times, member_rng(9, 2),
                                   mode_radius=(1, 4), window=(1.0, 1.8))
        rep = nonlinearity_forcing_bound(u, V1, 1.4, DEC)
        assert not rep["degenerate"]
        assert 0 < rep["ratio"] < math.inf


class TestPicard:
    def test_zero_data_fixed_point(self, grid, setup):
        V, A, prof, times = setup
        run = picard_solve(prof * 0.0, V, A, 1.4, times, DEC, max_iter=4, tol=1e-8)
        assert run.converged
        assert contraction_norm(run.final, DEC) == 0.0

    def test_zero_potential_linear_in_one_step(self, grid, setup):
        _, A, prof, times = setup
        V0 = shell_potential(grid, 0.0)
        f = prof * (0.05 / l2_norm(prof))
        run = picard_solve(f, V0, A, 1.4, times, DEC, max_iter=12, tol=1e-8)
        linear = magnetic_solve(f, A, None, times)
        assert run.converged
        assert np.abs(run.final.values - linear.values).max() == 0.0

    def test_contraction_small_data(self, grid, setup):
        V, A, prof, times = setup
        f = prof * (0.05 / l2_norm(prof))
        run = picard_solve(f, V, A, 1.4, times, DEC, max_iter=12, tol=1e-8)
        assert run.converged and run.contracting
        ratios = run.contraction_ratios
        assert all(r < 1 for r in ratios)
        assert run.fixed_point_residual < 1e-7

    def test_differences_decay_geometrically(self, grid, setup):
        # Cauchy certificate: the fitted decay of successive differences
        # matches the observed contraction ratios
        V, A, prof, times = setup
        f = prof * (0.05 / l2_norm(prof))
        run = picard_solve(f, V, A, 1.4, times, DEC, tol=1e-10, max_iter=12)
        diffs = [s.diff_z for s in run.states if s.diff_z]
        assert len(diffs) >= 4
        fitted = (diffs[-1] / diffs[0]) ** (1.0 / (len(diffs) - 1))
        observed = run.contraction_ratios
        assert fitted < 1.0
        assert min(observed) * 0.5 <= fitted <= max(observed) * 1.5

    def test_divergence_signal_not_exception(self, grid, setup):
        V, A, prof, times = setup
        f = prof * (40.0 / l2_norm(prof))
        run = picard_solve(f, V, A, 1.4, times, DEC, max_iter=10, tol=1e-8)
        assert run.diverged and not run.converged

    def test_difference_shape_inequality(self, grid, setup):
        V, A, prof, times = setup
        p = 1.4
        f = prof * (0.1 / l2_norm(prof))
        run = picard_solve(f, V, A, p, times, DEC, tol=1e-10, max_iter=12)
        consts = []
        states = run.states
        for j in range(2, len(states)):
            d_prev, d_here = states[j - 1].diff_z, states[j].diff_z
            if d_prev and d_prev > 0:
                consts.append(d_here / (d_prev * (states[j - 1].z_norm
                                                  + states[j - 2].z_norm) ** (p - 1)))
        assert consts and max(consts) < 10.0

    def test_threshold_bisection(self, grid, setup):
        V, A, prof, times = setup
        rep = contraction_threshold(prof, V, A, 1.4, times, DEC)
        assert rep.threshold > 0
        assert any(not t["contracting"] for t in rep.trace)

    def test_magnetic_path(self, grid, setup):
        V, _, prof, times = setup
        A = bump_potential(grid, 0.005, shell=1)
        f = prof * (0.05 / l2_norm(prof))
        run = picard_solve(f, V, A, 1.4, times, DEC, tol=1e-6, max_iter=10)
        assert run.converged and run.contracting
