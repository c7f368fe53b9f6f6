import math

import numpy as np
import pytest
import scipy.fft

import oracles
from oracles import fractional_laplacian, plane_wave, riesz_transform
from smoothlab.dyadic import (
    DyadicDecomposition,
    ShellMask,
    band_blocks,
    frequency_mask,
    spatial_mask,
)
from smoothlab.grid import Field, Grid, _fftn, _ifftn, gaussian
from smoothlab.spectral import (
    abs_freq_power,
    apply_multiplier,
    apply_multipliers,
    banded_ifft_inplace,
    boxed_fft_inplace,
    boxed_ifft_inplace,
    derivative,
    derivative_inplace,
    gradient,
    gradient_magnitude,
    l2_norm,
    lp_norm,
    mean_zero,
    multiplier_l2_norm,
    sobolev_norm,
)


@pytest.fixture(scope="module")
def grid3():
    return Grid(3, 8.0, 32)


def random_field(grid, seed=0):
    rng = np.random.default_rng(seed)
    return mean_zero(Field(grid, rng.standard_normal(grid.shape)
                           + 1j * rng.standard_normal(grid.shape)))


class TestGrid:
    def test_power_of_two_contract(self):
        with pytest.raises(ValueError):
            Grid(1, 8.0, 48)

    def test_roundtrip(self, grid3):
        f = random_field(grid3)
        from smoothlab.grid import _fftn, _ifftn

        back = _ifftn(_fftn(f.values))
        assert np.abs(back - f.values).max() < 1e-12 * np.abs(f.values).max()


class TestFractionalLaplacian:
    def test_plane_wave_eigenfunction(self, grid3):
        pw = plane_wave(grid3, (1, 2, 0))
        xi = np.pi / 8 * np.sqrt(5)
        out = fractional_laplacian(pw, 1.0)
        assert np.abs(out.values - xi * pw.values).max() < 1e-12

    def test_s_zero_subtracts_mean(self, grid3):
        f = Field(grid3, random_field(grid3).values + 2.5)
        out = fractional_laplacian(f, 0.0)
        assert np.abs(out.values - (f.values - f.values.mean())).max() < 1e-12

    def test_composition_inverts(self, grid3):
        f = random_field(grid3)
        out = fractional_laplacian(fractional_laplacian(f, -0.5), 0.5)
        assert np.abs(out.values - f.values).max() < 1e-10

    def test_order_domain(self, grid3):
        with pytest.raises(ValueError):
            fractional_laplacian(random_field(grid3), 1.5)
        with pytest.raises(ValueError):
            abs_freq_power(grid3, -1.5)

    def test_multiplier_composition_law(self, grid3):
        f = random_field(grid3)
        a = fractional_laplacian(fractional_laplacian(f, 0.4), 0.3)
        b = fractional_laplacian(f, 0.7)
        assert np.abs(a.values - b.values).max() < 1e-10


class TestRiesz:
    def test_eigenfunction(self, grid3):
        pw = plane_wave(grid3, (1, 2, 0))
        xi = np.array([1.0, 2.0, 0.0]) * np.pi / 8
        out = riesz_transform(pw, 1)
        assert np.abs(out.values - xi[1] / np.linalg.norm(xi) * pw.values).max() < 1e-12

    def test_squares_sum_to_identity(self, grid3):
        # real-symbol convention: sum_j R_j R_j = identity minus mean
        f = random_field(grid3)
        acc = np.zeros(grid3.shape, dtype=complex)
        for j in range(3):
            acc += riesz_transform(riesz_transform(f, j), j).values
        assert np.abs(acc - f.values).max() < 1e-10

    def test_contraction(self, grid3):
        f = random_field(grid3, 3)
        for j in range(3):
            assert l2_norm(riesz_transform(f, j)) <= l2_norm(f) + 1e-12

    def test_axis_domain(self, grid3):
        with pytest.raises(ValueError):
            riesz_transform(random_field(grid3), 3)


class TestNorms:
    def test_plancherel_plane_wave(self, grid3):
        pw = plane_wave(grid3, (1, 0, 0))
        assert math.isclose(sobolev_norm(pw, 0.0), 16.0**1.5, rel_tol=1e-12)

    def test_constant_shift_invariance(self, grid3):
        f = random_field(grid3)
        g = Field(grid3, f.values + 1.7)
        assert math.isclose(sobolev_norm(f, 0.5), sobolev_norm(g, 0.5), rel_tol=1e-12)

    def test_gaussian_gradient_closed_form(self):
        # ||grad exp(-|x|^2/2)||_{L^2} = (3/2)^(1/2) pi^(3/4) in dimension 3
        grid = Grid(3, 10.0, 64)
        f = gaussian(grid, width=1.0, center=0.0)
        expected = math.sqrt(1.5) * math.pi**0.75
        assert abs(sobolev_norm(f, 1.0) - expected) / expected < 0.01

    def test_gradient_matches_sobolev(self, grid3):
        f = random_field(grid3, 5)
        grad2 = sum(l2_norm(g) ** 2 for g in gradient(f))
        assert math.isclose(math.sqrt(grad2), sobolev_norm(f, 1.0), rel_tol=1e-10)

    def test_gradient_magnitude_holds_one_partial_at_a_time(self, grid3, traced_peak):
        # the spectrum, one partial, and the real sum of squares with its
        # one real term: three complex grid arrays in all; the bits are
        # those of the sum over all partials
        f = random_field(grid3, 4)
        expected = np.sqrt(sum(np.abs(derivative(f, j).values) ** 2 for j in range(3)))
        assert np.array_equal(gradient_magnitude(f).values, expected)
        assert traced_peak(lambda: gradient_magnitude(f)) <= 3 * 16 * grid3.size + 65536

    def test_multiplier_keeps_the_bits_of_the_whole_expression(self, grid3):
        # a complex symbol meets the spectrum in the order numpy takes for
        # ifftn(symbol * fftn(f)) on a grid of 256 KiB or more, where it
        # multiplies the temporary spectrum in place (outside the assert,
        # whose rewriting would keep the temporary alive)
        f = random_field(grid3, 3)
        symbol = np.exp(-0.3j * grid3.freq_radius**2)
        expected = scipy.fft.ifftn(symbol * scipy.fft.fftn(f.values))
        assert np.array_equal(apply_multiplier(f, symbol).values, expected)

    def test_gradient_equals_per_axis_derivatives(self, grid3):
        f = random_field(grid3, 6)
        for j, g in enumerate(gradient(f)):
            assert np.array_equal(g.values, derivative(f, j).values)

    def test_apply_multipliers_shares_one_forward_transform(self, grid3, fft_calls):
        f = random_field(grid3, 7)
        symbols = [abs_freq_power(grid3, s) for s in (-0.5, 0.5, 1.0)]
        expected = [apply_multiplier(f, sym).values for sym in symbols]
        fft_calls.clear()
        results = apply_multipliers(f, iter(symbols))
        assert fft_calls == []  # nothing runs before the first result is asked for
        for want in expected:
            assert np.array_equal(next(results).values, want)
        assert fft_calls == ["fftn", "ifftn", "ifftn", "ifftn"]

    @pytest.mark.parametrize("s", [-0.5, 0.5, 1.0])
    @pytest.mark.parametrize("grid", [Grid(1, 8.0, 64), Grid(3, 8.0, 32)], ids=["1d", "3d"])
    def test_multiplier_l2_norm_is_plancherel(self, grid, s, fft_calls):
        f = random_field(grid, 10)
        sym = abs_freq_power(grid, s)
        expected = l2_norm(apply_multiplier(f, sym))
        fft_calls.clear()
        got = multiplier_l2_norm(f, sym)
        assert fft_calls == ["fftn"]
        assert math.isclose(got, expected, rel_tol=1e-13)

    @pytest.mark.parametrize("s", [0.5, 1.0, -0.5])
    def test_sobolev_norm_from_one_transform(self, grid3, s, fft_calls):
        f = random_field(grid3, 11)
        expected = l2_norm(fractional_laplacian(f, s))
        fft_calls.clear()
        got = sobolev_norm(f, s)
        assert fft_calls == ["fftn"]
        assert math.isclose(got, expected, rel_tol=1e-14)

    def test_lp_constant_volume(self, grid3):
        one = Field(grid3, np.ones(grid3.shape, dtype=complex))
        assert math.isclose(lp_norm(one, 1), 16.0**3, rel_tol=1e-12)

    def test_lp_domain(self, grid3):
        with pytest.raises(ValueError):
            lp_norm(random_field(grid3), 0.5)

    def test_derivative_eigenfunction(self, grid3):
        pw = plane_wave(grid3, (2, 0, 1))
        out = derivative(pw, 0)
        assert np.abs(out.values - 1j * (2 * np.pi / 8) * pw.values).max() < 1e-12

    def test_boundary_decay_diagnostic(self, grid3):
        from smoothlab.grid import gaussian
        from smoothlab.spectral import boundary_decay_fraction

        centered = gaussian(grid3, width=0.8, center=0.0)
        assert boundary_decay_fraction(centered) < 1e-10
        # a bump parked on the box boundary is flagged
        shifted = Field(grid3, np.exp(
            -((oracles.coord(grid3, 0) + grid3.half_width) ** 2
              + oracles.coord(grid3, 1) ** 2 + oracles.coord(grid3, 2) ** 2) / 2.0
        ).astype(complex) + np.zeros(grid3.shape))
        assert boundary_decay_fraction(shifted) > 0.1

    def test_plancherel_random(self, grid3):
        from smoothlab.grid import _fftn

        f = random_field(grid3, 9)
        phys = l2_norm(f)
        spec = np.sqrt(np.sum(np.abs(_fftn(f.values)) ** 2) / grid3.size
                       * grid3.cell_volume)
        assert math.isclose(phys, spec, rel_tol=1e-10)


class TestBoxedFFT:
    """A field under a spatial shell mask, made by ``ShellMask.times`` and
    transformed on the mask's blocks, equals the full transform of the
    masked field; only the sign of a zero may differ, which
    ``np.array_equal`` allows."""

    @pytest.mark.parametrize("grid", [Grid(3, 8.0, 32), Grid(3, 8.0, 64),
                                      Grid(1, 8.0, 64), Grid(2, 8.0, 64)],
                             ids=["32^3", "64^3", "1d", "2d"])
    def test_equals_full_transform_on_every_shell(self, grid):
        # one buffer serves every shell: the product clears what the last left
        f = random_field(grid, 12)
        out = np.empty(grid.shape, dtype=complex)
        for k in DyadicDecomposition(-3, 4).shells:
            mask = spatial_mask(grid, k)
            got = boxed_fft_inplace(mask.times(f.values, out), mask.blocks)
            assert got is out
            assert np.array_equal(got, scipy.fft.fftn(oracles.spatial_mask(grid, k) * f.values))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_one_pass_per_axis(self, dim, fft_calls):
        # a cube of 8 of the 16 points per axis, in fftn's axis order
        grid = Grid(dim, 8.0, 16)
        f = random_field(grid, 13)
        box = slice(4, 12)
        cube = np.zeros(grid.shape)
        cube[(box,) * dim] = np.random.default_rng(8).random((8,) * dim)
        mask = ShellMask(cube[(box,) * dim], (box,))
        out = mask.times(f.values, np.empty(grid.shape, dtype=complex))
        fft_calls.clear()
        got = boxed_fft_inplace(out, mask.blocks)
        assert fft_calls == [f"fftn(axes=({ax},))" for ax in range(dim)]
        assert np.array_equal(got, scipy.fft.fftn(cube * f.values))


def _random_cube(rng, n):
    """A random index range of an n-point axis, at least one point wide."""
    start = int(rng.integers(0, n))
    return slice(start, int(rng.integers(start + 1, n + 1)))


def _random_blocks(rng, n):
    """One random index range of an n-point axis, or the wrapped band of a
    random signed FFT index bound."""
    if rng.integers(0, 2):
        return (_random_cube(rng, n),)
    return band_blocks(n, int(rng.integers(0, n // 2 + 1)))


class TestPrunedPair:
    """The in-place pruned transforms: the forward one of an array that is
    zero off the product of its blocks equals ``fftn`` up to the sign of
    zeros, which ``==`` ignores, and the inverse one equals ``ifftn`` on
    that product, whether the blocks are a cube or a wrapped band."""

    @pytest.mark.parametrize("shape", [(64,), (32, 32), (16, 16, 16), (32, 32, 32)],
                             ids=["1d", "2d", "16^3", "32^3"])
    def test_forward_equals_full_transform_on_cube_data(self, shape):
        rng = np.random.default_rng(21)
        for _ in range(6):
            blocks = _random_blocks(rng, shape[0])
            inside = oracles.on_blocks(blocks, shape)
            values = np.zeros(shape, dtype=complex)
            values[inside] = (rng.standard_normal(values[inside].shape)
                              + 1j * rng.standard_normal(values[inside].shape))
            expected = scipy.fft.fftn(values)
            got = boxed_fft_inplace(values, blocks)
            assert got is values
            assert (got == expected).all()

    @pytest.mark.parametrize("shape", [(64,), (32, 32), (16, 16, 16), (32, 32, 32)],
                             ids=["1d", "2d", "16^3", "32^3"])
    def test_inverse_equals_full_transform_on_the_cube(self, shape):
        rng = np.random.default_rng(22)
        for _ in range(6):
            blocks = _random_blocks(rng, shape[0])
            inside = oracles.on_blocks(blocks, shape)
            values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            expected = scipy.fft.ifftn(values)
            got = boxed_ifft_inplace(values, blocks)
            assert got is values
            assert (got[inside] == expected[inside]).all()

    def test_full_width_cube_is_the_full_transform(self, grid3):
        values = random_field(grid3, 23).values
        whole = (slice(0, grid3.points_per_axis),)
        assert (boxed_fft_inplace(values.copy(), whole) == scipy.fft.fftn(values)).all()
        assert (boxed_ifft_inplace(values.copy(), whole) == scipy.fft.ifftn(values)).all()

    def test_one_pass_per_axis_on_the_lines_that_meet_the_cube(self, fft_calls):
        # the inverse passes run in ifftn's axis order: every line of axis 0,
        # then the lines whose earlier indices lie in the cube
        values = random_field(Grid(3, 8.0, 16), 24).values
        fft_calls.clear()
        boxed_ifft_inplace(values, (slice(4, 12),))
        assert fft_calls == [f"ifftn(axes=({ax},))" for ax in range(3)]


def _axis_derivative(values, grid, axis):
    """The single-axis reference: one forward and one inverse transform
    along ``axis`` around the symbol i xi_axis."""
    spec = _fftn(values, axes=(axis,))
    return _ifftn(1j * grid.freq_coord(axis) * spec, axes=(axis,))


class TestAxisDerivative:
    """A partial derivative is one transform pair along its own axis, run on
    the lines whose other indices lie in the blocks where the data can be
    nonzero."""

    GRIDS = [Grid(1, 8.0, 64), Grid(2, 8.0, 32), Grid(3, 8.0, 32)]

    @pytest.mark.parametrize("grid", GRIDS, ids=["1d", "2d", "3d"])
    def test_derivative_is_the_single_axis_pair(self, grid):
        f = random_field(grid, 41)
        for axis in range(grid.dim):
            assert np.array_equal(derivative(f, axis).values,
                                  _axis_derivative(f.values, grid, axis))

    @pytest.mark.parametrize("grid", GRIDS, ids=["1d", "2d", "3d"])
    def test_derivative_agrees_with_numpys_full_transform(self, grid):
        f = random_field(grid, 42)
        for axis in range(grid.dim):
            full = np.fft.ifftn(1j * grid.freq_coord(axis) * np.fft.fftn(f.values))
            err = np.abs(derivative(f, axis).values - full).max()
            assert err <= 1e-13 * np.abs(full).max()

    @pytest.mark.parametrize("shape", [(64,), (32, 32), (16, 16, 16)],
                             ids=["1d", "2d", "16^3"])
    def test_pruned_derivative_equals_the_whole_one(self, shape):
        # data on a random cube or wrapped band: the same bits as the pair
        # over the whole grid, up to the sign of zeros, and zero off the lines
        grid = Grid(len(shape), 8.0, shape[0])
        rng = np.random.default_rng(43)
        for _ in range(6):
            blocks = _random_blocks(rng, shape[0])
            inside = oracles.on_blocks(blocks, shape)
            values = np.zeros(shape, dtype=complex)
            values[inside] = (rng.standard_normal(values[inside].shape)
                              + 1j * rng.standard_normal(values[inside].shape))
            for axis in range(len(shape)):
                expected = _axis_derivative(values, grid, axis)
                got = derivative_inplace(values.copy(), grid, axis, blocks)
                assert (got == expected).all()

    def test_one_pair_per_product_of_the_other_axes_blocks(self, fft_calls):
        # a band wrapped into two slices: 2^2 line sets on a 3-d grid
        grid = Grid(3, 8.0, 16)
        values = _banded_spectrum(np.random.default_rng(44), grid.shape, 3)
        fft_calls.clear()
        derivative_inplace(values, grid, 1, band_blocks(16, 3))
        assert fft_calls == ["fftn(axes=(1,))", "ifftn(axes=(1,))"] * 4

    def test_gradient_runs_one_pair_per_partial_when_asked(self, grid3, fft_calls):
        f = random_field(grid3, 45)
        fft_calls.clear()
        partials = gradient(f)
        assert fft_calls == []
        for axis, g in enumerate(partials):
            assert fft_calls[-2:] == [f"fftn(axes=({axis},))", f"ifftn(axes=({axis},))"]
        assert len(fft_calls) == 6


def _banded_spectrum(rng, shape, band):
    """A random complex array that vanishes unless every signed FFT index
    j satisfies |j| <= band."""
    inside = np.ones(shape, dtype=bool)
    for ax, n in enumerate(shape):
        signed = np.fft.fftfreq(n, 1.0 / n).reshape([-1 if j == ax else 1
                                                      for j in range(len(shape))])
        inside &= np.abs(signed) <= band
    values = np.zeros(shape, dtype=complex)
    values[inside] = rng.standard_normal(inside.sum()) + 1j * rng.standard_normal(inside.sum())
    return values


class TestBandedInverse:
    """The in-place inverse of a spectrum supported in the band |j| <= h of
    every axis equals ``ifftn`` bit for bit: the skipped lines are zero,
    and its per-pass 1/N scaling is exact for power-of-two N."""

    @pytest.mark.parametrize("shape", [(64,), (32, 32), (16, 16, 16), (32, 32, 32)],
                             ids=["1d", "2d", "16^3", "32^3"])
    def test_equals_full_inverse(self, shape):
        rng = np.random.default_rng(31)
        n = shape[0]
        for band in (0, 1, 3, n // 2 - 1, n // 2):
            values = _banded_spectrum(rng, shape, band)
            expected = scipy.fft.ifftn(values)
            got = banded_ifft_inplace(values, band_blocks(n, band))
            assert got is values
            assert (got == expected).all()

    @pytest.mark.parametrize("band, blocks", [(0, [1, 1, 1]), (3, [4, 2, 1]),
                                              (7, [4, 2, 1]), (8, [1, 1, 1])])
    def test_passes_run_on_the_lines_in_the_band(self, band, blocks, fft_calls):
        # the band wraps in FFT order, so each later axis contributes two
        # slices (one at band 0); a band that reaches N/2 takes full passes
        values = _banded_spectrum(np.random.default_rng(32), (16, 16, 16), band)
        fft_calls.clear()
        banded_ifft_inplace(values, band_blocks(16, band))
        assert fft_calls == [f"ifftn(axes=({ax},))" for ax in range(3) for _ in range(blocks[ax])]

    @pytest.mark.parametrize("points", [32, 64])
    def test_frequency_pieces_equal_full_inverse(self, points):
        # P_k f for every frequency shell, made on the blocks of the stored
        # mask and inverted on them
        grid = Grid(3, 8.0, points)
        f_hat = scipy.fft.fftn(random_field(grid, 33).values)
        for k in DyadicDecomposition(-3, 3).shells:
            mask = frequency_mask(grid, k)
            piece = mask.times(f_hat, np.empty_like(f_hat))
            expected = scipy.fft.ifftn(oracles.frequency_mask(grid, k) * f_hat)
            assert (banded_ifft_inplace(piece, mask.blocks) == expected).all()
