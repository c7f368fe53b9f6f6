import math

import numpy as np
import pytest
import scipy.fft

import oracles
from oracles import plane_wave
from smoothlab.dyadic import DyadicDecomposition, bump
from smoothlab.ensembles import band_limited_field, band_limited_spacetime, member_rng
from smoothlab.grid import Field, Grid, SpaceTimeField, _fftn, _ifftn, gaussian
from smoothlab.schrodinger import (
    MagneticPotential,
    StabilityError,
    _divergence,
    _forcing_sampler,
    _local_rhs,
    _march,
    bump_potential,
    duhamel,
    effective_scalar_potential,
    free_evolution,
    magnetic_solve,
    smallness_audit,
    zero_potential,
)
from smoothlab.spectral import apply_multiplier, gradient, l2_norm


@pytest.fixture(scope="module")
def grid():
    return Grid(3, 8.0, 16)


DEC = DyadicDecomposition(-2, 3)


@pytest.fixture
def passes(monkeypatch):
    """(name, axes, shape) of each scipy.fft transform run during the test,
    in call order."""
    seen = []
    for name in ("fftn", "ifftn"):
        real = getattr(scipy.fft, name)

        def traced(x, *args, _name=name, _real=real, **kwargs):
            seen.append((_name, tuple(kwargs["axes"]), x.shape))
            return _real(x, *args, **kwargs)

        monkeypatch.setattr(scipy.fft, name, traced)
    return seen


class TestFreePropagator:
    def test_plane_wave_phase(self, grid):
        pw = plane_wave(grid, (1, 0, 2))
        xi2 = (np.pi / 8) ** 2 * 5
        out = free_evolution(pw, [0.3]).slice(0)
        err = np.abs(out.values - np.exp(-1j * 0.3 * xi2) * pw.values).max()
        assert err < 1e-12

    def test_unitarity(self, grid):
        rng = member_rng(0, 0)
        f = band_limited_field(grid, rng, mode_radius=(1, 4))
        assert math.isclose(l2_norm(free_evolution(f, [0.7]).slice(0)), l2_norm(f), rel_tol=1e-12)

    def test_mass_drift_thousand_steps(self):
        g = Grid(1, 20.0, 256)
        u = gaussian(g, width=1.0, center=0.0)
        m0 = l2_norm(u)
        for _ in range(1000):
            u = free_evolution(u, [1e-3]).slice(0)
        assert abs(l2_norm(u) - m0) / m0 < 1e-12

    def test_periodic_gaussian_closed_form(self):
        # free evolution of exp(-x^2/2) in 1d: (1+2it)^(-1/2) exp(-x^2/(2(1+2it)))
        g = Grid(1, 20.0, 256)
        t = 0.1
        u = free_evolution(gaussian(g, width=1.0, center=0.0), [t]).slice(0)
        x = g.axis
        exact = (1 + 2j * t) ** -0.5 * np.exp(-(x**2) / (2 * (1 + 2j * t)))
        assert np.abs(u.values - exact).max() < 1e-6

    def test_rotation_equivariance(self, grid):
        f = band_limited_field(grid, member_rng(0, 1), mode_radius=(1, 4))
        swapped = Field(grid, np.swapaxes(f.values, 0, 1))
        a = free_evolution(swapped, [0.4]).slice(0).values
        b = np.swapaxes(free_evolution(f, [0.4]).slice(0).values, 0, 1)
        assert np.abs(a - b).max() < 1e-12 * np.abs(b).max()


class TestDuhamel:
    def test_zero_forcing(self, grid):
        times = np.linspace(0, 1, 5)
        F = SpaceTimeField(grid, times, np.zeros((5,) + grid.shape, complex))
        u = duhamel(F)
        assert np.abs(u.values).max() == 0.0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_small_time_taylor(self, grid):
        # smooth one-mode forcing (global, exactly periodic, so the
        # boundary-decay advisory does not apply): u(t) = t F + O(t^2 |xi|^2)
        pw = plane_wave(grid, (1, 0, 0)).values
        times = np.linspace(0, 1e-3, 5)
        F = SpaceTimeField(grid, times, np.stack([pw] * 5))
        u = duhamel(F)
        rel = np.abs(u.values[-1] - 1e-3 * pw).max() / np.abs(1e-3 * pw).max()
        assert rel < 1e-4

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_manufactured_solution(self, grid):
        # u* = exp(-t) mode; F = du*/dt - i lap u*; recover u* to O(dt^2)
        mode = plane_wave(grid, (1, 1, 0)).values
        xi2 = (np.pi / 8) ** 2 * 2
        times = np.linspace(0, 1.0, 41)
        ustar = np.exp(-times)[:, None, None, None] * mode
        F = SpaceTimeField(
            grid, times,
            (-np.exp(-times))[:, None, None, None] * mode
            + 1j * xi2 * np.exp(-times)[:, None, None, None] * mode,
        )
        hom = free_evolution(Field(grid, mode), times)
        rec = duhamel(F).values + hom.values
        err = np.abs(rec - ustar).max() / np.abs(ustar).max()
        assert err < 5e-4  # trapezoid order on dt = 0.025

    def test_answers_at_the_forcing_times_from_zero_state(self, grid):
        times = np.linspace(0.5, 1.0, 3)
        F = band_limited_spacetime(grid, times, member_rng(0, 5, 0))
        u = duhamel(F)
        assert np.array_equal(u.times, times)
        assert np.abs(u.values[0]).max() == 0.0


class TestStreamedStacks:
    """Each space-time result is one stack written slice by slice: the same
    bits as the stacked slices, and at 32^3 with 9 output times (each grid
    array 512 KiB, the stack 4.5 MiB) few grid arrays beside it."""

    TIMES = np.linspace(0.0, 1.0, 9)

    @pytest.fixture(scope="class")
    def data(self):
        g = Grid(3, 8.0, 32)
        return (g, band_limited_field(g, member_rng(0, 23, 0)),
                band_limited_spacetime(g, self.TIMES, member_rng(0, 23, 1)))

    def test_free_evolution_equals_the_stacked_flow(self, data):
        _, f, _ = data
        assert np.array_equal(free_evolution(f, self.TIMES).values,
                              oracles.stacked_free_evolution(f, self.TIMES))

    @pytest.mark.parametrize("times", [(0.0, 0.1, 0.25, 0.3, 0.5),
                                       (0.2, 0.35, 0.5),
                                       (0.5,)])
    def test_march_equals_the_stacked_march(self, times):
        g = Grid(2, 8.0, 8)
        u0 = np.random.default_rng(2).standard_normal(g.shape) + 0j

        def step(u, a, b):
            return np.exp(1j * (b - a)) * u + (b - a) * u**2

        def advance(u, a, b):
            u[...] = step(u, a, b)

        got = _march(g, u0.copy(), np.array(times), advance).values
        assert np.array_equal(got, oracles.stacked_march(u0, times, step))

    def test_march_rejects_unsorted_times_before_a_step(self):
        g = Grid(2, 8.0, 8)
        steps = []
        with pytest.raises(ValueError):
            _march(g, np.zeros(g.shape, dtype=complex), np.array([0.0, 0.5, 0.25]),
                   lambda u, a, b: steps.append((a, b)))
        assert steps == []

    def test_free_and_duhamel_hold_three_grid_arrays_beyond_the_output(self, data, traced_peak):
        # free flow: the spectrum, one symbol and one product; Duhamel: the
        # state, the step's symbol and one work array
        g, f, F = data
        array, stack = 16 * g.size, 16 * g.size * len(self.TIMES)
        assert traced_peak(lambda: free_evolution(f, self.TIMES)) <= stack + 3 * array + 65536
        assert traced_peak(lambda: duhamel(F)) <= stack + 3 * array + 65536

    def test_magnetic_solve_holds_eight_grid_arrays_beyond_the_output(self, data, traced_peak):
        # the state, the free symbol of the step, i W, the forcing sample and
        # the product term it is summed from, the midpoint state, and in its
        # right-hand side A u, differentiated in place, and i W u; on top
        # numpy's buffer for a broadcast product
        g, f, F = data
        A = bump_potential(g, 0.01, shell=1)
        array, stack = 16 * g.size, 16 * g.size * len(self.TIMES)
        peak = traced_peak(lambda: magnetic_solve(f, A, F, self.TIMES))
        assert peak <= stack + 8 * array + 16 * np.getbufsize() + 65536


class TestMagneticPotential:
    def test_real_valued_contract(self, grid):
        with pytest.raises(ValueError):
            MagneticPotential(grid, tuple(1j * np.ones(grid.shape) for _ in range(3)))

    def test_component_count(self, grid):
        with pytest.raises(ValueError):
            MagneticPotential(grid, (np.zeros(grid.shape),))

    def test_w_field_zero(self, grid):
        assert np.abs(effective_scalar_potential(zero_potential(grid))).max() == 0.0

    def test_w_real_for_divergence_free(self):
        # A = (f(y), 0, 0) with f independent of x has div A = 0
        g = Grid(3, 8.0, 32)
        y = np.broadcast_to(oracles.coord(g, 1), g.shape)
        a1 = np.sin(np.pi * y / 8)
        A = MagneticPotential(g, (a1, np.zeros(g.shape), np.zeros(g.shape)))
        w = effective_scalar_potential(A)
        assert np.abs(w.imag).max() < 1e-12
        assert np.abs(w.real - a1**2).max() < 1e-12

    def test_audit_zero(self, grid):
        assert smallness_audit(zero_potential(grid), DEC) == 0.0

    def test_support_is_found_when_the_potential_is_made(self, grid):
        assert zero_potential(grid).support == {}
        A = bump_potential(grid, 0.05, shell=1)
        (j, (c, block)), = A.support.items()
        assert j == 0 and c is A.components[0] and block == (slice(5, 12),)
        # a complex array with a zero imaginary part is taken as its real part
        B = MagneticPotential(grid, (A.components[0] + 0j, *A.components[1:]))
        assert B.support[0][0].dtype == float and B.support[0][1] == block
        assert list(_gauge(16)[2].support) == [0, 1, 2]

    @pytest.mark.parametrize("points", [16, 32, 64])
    def test_audit_on_support_lines_equals_the_whole_grid_audit(self, points):
        # the partials taken on the support's lines agree with whole-grid
        # gradients of all three components bit for bit, up to the sign
        # of zeros, which the sup's abs drops
        g = Grid(3, 8.0, points)
        decomps = [DEC, DyadicDecomposition(-1, 2), DyadicDecomposition(0, 4)]
        for shell in (0, 1, 2):
            for amplitude in (0.05, 1.0):
                A = bump_potential(g, amplitude, shell=shell)
                for decomp in decomps:
                    assert smallness_audit(A, decomp) == oracles.full_grid_audit(A, decomp)
        A = _gauge(points)[2]
        assert smallness_audit(A, DEC) == oracles.full_grid_audit(A, DEC)

    @pytest.mark.parametrize("narrow", [(1, 0), (0, -1)])
    def test_a_block_one_index_too_narrow_changes_the_audit(self, monkeypatch, narrow):
        # the shell-0 bump at 16^3 lives on 3 of the 16 points per axis,
        # so the lines a narrowed block leaves undifferentiated carry the
        # sup; on wider supports they hold only the bump's small tail
        import smoothlab.schrodinger as schrodinger

        real = schrodinger._support_block

        def narrowed(c):
            (block,) = real(c)
            return (slice(block.start + narrow[0], block.stop + narrow[1]),)

        monkeypatch.setattr(schrodinger, "_support_block", narrowed)
        g = Grid(3, 8.0, 16)
        A = bump_potential(g, 0.05, shell=0)
        assert A.support[0][1] != real(A.components[0])
        assert smallness_audit(A, DEC) != oracles.full_grid_audit(A, DEC)

    def test_audit_single_bump_fd_oracle(self):
        # spectral-derivative audit against a centered-difference oracle on
        # a well-resolved bump (2% agreement needs the edge resolved)
        from dataclasses import astuple

        from smoothlab.norms import _annulus_mask

        g = Grid(3, 8.0, 128)
        A = bump_potential(g, 0.01, shell=2)
        audit = smallness_audit(A, DEC)
        comp = A.components[0]
        h = g.spacing
        sups1 = [
            np.abs(np.roll(comp, -1, axis=ax) - np.roll(comp, 1, axis=ax)) / (2 * h)
            for ax in range(3)
        ]
        oracle = 0.0
        for k in DEC.shells:
            mask = _annulus_mask(*astuple(g), k) > 0
            if not mask.any():
                continue
            oracle += 2.0**k * np.abs(comp[mask]).max()
            oracle += 2.0 ** (2 * k) * sum(s[mask].max() for s in sups1)
        assert abs(audit - oracle) / oracle < 0.02

    def test_audit_dilation_invariance(self):
        # the budget is invariant under the derivative-weight dilation
        # A(x) -> 2 A(2x) with the shells moved along; on nested dyadic
        # grids the shifted sups coincide sample for sample
        g1 = Grid(3, 8.0, 64)
        g2 = Grid(3, 4.0, 64)
        A1 = bump_potential(g1, 0.01, shell=1)
        A2 = MagneticPotential(g2, tuple(2.0 * c for c in A1.components))
        aud1 = smallness_audit(A1, DyadicDecomposition(-1, 3))
        aud2 = smallness_audit(A2, DyadicDecomposition(-2, 2))
        assert abs(aud2 - aud1) / aud1 < 1e-12


class TestMagneticSolver:
    def test_zero_potential_matches_free(self, grid):
        f = band_limited_field(grid, member_rng(1, 0), mode_radius=(1, 4))
        times = np.linspace(0, 0.5, 5)
        u = magnetic_solve(f, zero_potential(grid), None, times)
        v = free_evolution(f, times)
        assert np.abs(u.values - v.values).max() < 1e-10 * np.abs(v.values).max()

    def test_zero_potential_matches_duhamel(self, grid):
        times = np.linspace(0, 0.5, 9)
        F = band_limited_spacetime(grid, times, member_rng(1, 1), mode_radius=(1, 4))
        f = band_limited_field(grid, member_rng(1, 2), mode_radius=(1, 4))
        u = magnetic_solve(f, zero_potential(grid), F, times)
        v = free_evolution(f, times).values + duhamel(F).values
        assert np.abs(u.values - v).max() < 1e-10 * np.abs(v).max()

    def test_self_convergence_second_order(self):
        g = Grid(3, 8.0, 32)
        A = bump_potential(g, 0.02, shell=1)
        f = band_limited_field(g, member_rng(1, 3), mode_radius=(1, 4))
        times = np.array([0.0, 0.25])
        sols = {}
        for lvl, dt in enumerate((0.05, 0.025, 0.0125)):
            sols[lvl] = magnetic_solve(f, A, None, times, dt=dt).values[-1]
        e1 = np.linalg.norm(sols[0] - sols[1])
        e2 = np.linalg.norm(sols[1] - sols[2])
        rate = math.log2(e1 / e2)
        assert 1.7 <= rate <= 2.3

    def test_mass_drift_small_potential(self):
        g = Grid(3, 8.0, 32)
        decomp = DyadicDecomposition(-2, 3)
        unit = bump_potential(g, 1.0, shell=1)
        scale = 0.1 / smallness_audit(unit, decomp)
        A = bump_potential(g, scale, shell=1)
        f = band_limited_field(g, member_rng(1, 4), mode_radius=(1, 4))
        u = magnetic_solve(f, A, None, [0.0, 1.0])
        drift = abs(l2_norm(u.slice(1)) - l2_norm(u.slice(0))) / l2_norm(u.slice(0))
        assert drift < 1e-3

    def test_stability_error_names_step(self):
        g = Grid(3, 8.0, 16)
        A = bump_potential(g, 30.0, shell=1)  # far beyond any smallness budget
        f = band_limited_field(g, member_rng(1, 5), mode_radius=(1, 4))
        with pytest.raises(StabilityError, match="local stage grew"):
            magnetic_solve(f, A, None, [0.0, 1.0], dt=0.5)

class TestZeroComponents:
    """A single-axis potential transforms only its non-zero component."""

    def test_divergence_equals_three_component_sum(self, fft_calls):
        g = Grid(3, 8.0, 16)
        A = MagneticPotential(g, (np.zeros(g.shape), 0.3 * bump(g.radius), np.zeros(g.shape)))
        u = band_limited_field(g, member_rng(3, 0)).values
        full = np.zeros(g.shape, dtype=complex)
        for j, c in enumerate(A.components):
            full += _ifftn(1j * g.freq_coord(j) * _fftn(c * u, axes=(j,)), axes=(j,))
        # the zero components' terms are dropped without changing the sum,
        # and the one left is one pair of passes along its own axis
        assert list(A.support) == [1]
        c, block = A.support[1]
        fft_calls.clear()
        assert np.array_equal(_divergence(g, {1: (c * u, block)}), full)
        assert fft_calls == ["fftn(axes=(1,))", "ifftn(axes=(1,))"]

    def test_strang_step_transform_count(self, fft_calls):
        # one extra Strang step is the only difference between the solves:
        # a pair of axis-0 passes per divergence x 2 per half-step x 2
        # half-steps, around the forward/inverse pair of the spectral step
        g = Grid(3, 8.0, 16)
        A = bump_potential(g, 0.05, shell=0)
        f = band_limited_field(g, member_rng(3, 1))
        h = 0.01
        fft_calls.clear()
        magnetic_solve(f, A, None, [0.0, h], dt=h)
        one_step = len(fft_calls)
        fft_calls.clear()
        magnetic_solve(f, A, None, [0.0, 2 * h], dt=h)
        assert len(fft_calls) - one_step == 10
        half = ["fftn(axes=(0,))", "ifftn(axes=(0,))"] * 2
        assert fft_calls[-10:] == half + ["fftn", "ifftn"] + half

    def test_smallness_audit_transforms_only_nonzero_components(self, passes):
        # only the non-zero component's gradient is taken, one pair of
        # passes along each axis on the lines that meet its support cube
        # (7 or 15 of the 32 points per axis), where all three components'
        # whole-grid gradients took 18 passes; the total is the same
        g = Grid(3, 8.0, 32)
        for shell, line in ((0, 7), (1, 15)):
            A = bump_potential(g, 0.05, shell=shell)
            passes.clear()
            total = smallness_audit(A, DEC)
            shapes = [tuple(32 if ax == j else line for ax in range(3)) for j in range(3)]
            assert passes == [(name, (j,), shapes[j]) for j in range(3) for name in ("fftn", "ifftn")]
            assert total == oracles.full_grid_audit(A, DEC) > 0

    def test_pruned_divergence_of_a_shell_bump(self, passes):
        # A_0 lives on the cube |x_j| < 4, 15 of the 32 points per axis: the
        # passes run on the (32, 15, 15) lines that meet it, with the bits
        # of the pair over the whole grid up to the sign of zeros
        g = Grid(3, 8.0, 32)
        A = bump_potential(g, 0.05, shell=1)
        u = band_limited_field(g, member_rng(3, 2)).values
        (c, block), = A.support.values()
        assert block == (slice(9, 24),)
        expected = _ifftn(1j * g.freq_coord(0) * _fftn(c * u, axes=(0,)), axes=(0,))
        passes.clear()
        got = _divergence(g, {0: (c * u, block)})
        assert passes == [("fftn", (0,), (32, 15, 15)), ("ifftn", (0,), (32, 15, 15))]
        assert (got == expected).all()
        # a block one index too narrow leaves a line of A u undifferentiated
        narrow = _divergence(g, {0: (c * u, (slice(10, 24),))})
        assert not (narrow == expected).all()


class TestForcingSampler:
    """A forcing sample between two of F's times is written into the
    sampler's buffer with the bits of the interpolant's expression."""

    def test_interpolant_equals_the_expression(self):
        g = Grid(3, 8.0, 32)
        times = np.linspace(0.0, 1.0, 5)
        F = band_limited_spacetime(g, times, member_rng(0, 24, 0))
        sample = _forcing_sampler(F)
        for t in (0.1, 0.3, 0.37, 0.8125, 0.99):
            j = int(np.searchsorted(times, t, side="right") - 1)
            w = (t - times[j]) / (times[j + 1] - times[j])
            expected = (1.0 - w) * F.values[j] + w * F.values[j + 1]
            assert np.array_equal(sample(t), expected)

    def test_sample_times_and_ends_are_fs_own_slices(self):
        g = Grid(2, 8.0, 8)
        times = np.array([0.0, 0.5, 1.0])
        F = SpaceTimeField(g, times, np.random.default_rng(24).standard_normal((3,) + g.shape))
        sample = _forcing_sampler(F)
        for t, j in ((-1.0, 0), (0.0, 0), (0.5, 1), (1.0, 2), (2.0, 2)):
            got = sample(t)
            assert got.base is F.values and np.array_equal(got, F.values[j])
        assert _forcing_sampler(None)(0.5) is None


def _gauge(points):
    """The grid, the phase e^{i phi} and the potential A = grad phi of the
    pure gauge phi = 0.1 bump(|x| / 2) on a half-width 8 grid, and a
    band-limited field v."""
    grid = Grid(3, 8.0, points)
    phi = 0.1 * bump(grid.radius / 2.0)
    # the spectral gradient of a real field is real up to its Nyquist modes
    A = MagneticPotential(grid, tuple(g.values.real for g in gradient(Field(grid, phi))))
    return grid, np.exp(1j * phi), A, band_limited_field(grid, member_rng(0, 23, 0))


def _gauge_residual(points):
    """|i Lap_A(e^{i phi} v) - e^{i phi} i Lap v| / |Lap v| for the pure gauge
    of ``_gauge``.

    (grad - iA)(e^{i phi} v) = e^{i phi} grad v, so the magnetic Laplacian
    of the gauged field is the gauged free Laplacian: the identity sees
    the whole operator, the 2 div(A u) and W terms of the solver's local
    stage included (Leinfelder, J. Operator Theory 9, 1983)."""
    grid, phase, A, v = _gauge(points)
    lap = -grid.freq_radius**2
    u = Field(grid, phase * v.values)
    lap_v = apply_multiplier(v, lap).values
    local = _local_rhs(grid, u.values, A.support,
                       1j * effective_scalar_potential(A), np.zeros(grid.shape))
    gauged = 1j * apply_multiplier(u, lap).values + local
    return l2_norm(Field(grid, gauged - phase * 1j * lap_v)) / l2_norm(Field(grid, lap_v))


class TestGaugeIdentity:
    def test_static_residual_falls_under_refinement(self):
        # measured 3.38e-2 at 32^3 and 9.85e-3 at 64^3; a flipped sign of
        # 2 div(A u) gives 0.158 and 0.180, a dropped W 0.0427 and 0.0425
        coarse, fine = _gauge_residual(32), _gauge_residual(64)
        assert fine < 0.5 * coarse
        assert fine < 0.02

    def test_evolution_follows_the_gauged_free_flow(self):
        # the identity carries over to the flow: the magnetic solve from
        # e^{i phi} v is e^{i phi} times the free flow of v.  Measured at
        # 32^3 and t = 1/2: a gap of 7.2e-3 (about 7.1e-3 for every
        # dt <= 1/16); a flipped sign of 2 div(A u) gives 0.157 and a
        # dropped W 0.044
        grid, phase, A, v = _gauge(32)
        u = magnetic_solve(Field(grid, phase * v.values), A, None, [0.0, 0.5], dt=1 / 16)
        expected = Field(grid, phase * free_evolution(v, [0.5]).values[0])
        gap = l2_norm(Field(grid, u.values[-1] - expected.values)) / l2_norm(expected)
        assert gap < 0.02
