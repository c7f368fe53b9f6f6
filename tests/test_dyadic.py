import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from smoothlab.dyadic import (
    DyadicDecomposition,
    _cached_masks,
    bump,
    frequency_band,
    frequency_mask,
    mask_audit,
    seq_norm,
    shell_box,
    smooth_step,
    spatial_mask,
)
from smoothlab.grid import Field, Grid


class TestBumpProfile:
    def test_peak_value(self):
        assert bump(1.0) == 1.0

    def test_support_endpoints(self):
        assert bump(0.5) == 0.0
        assert bump(2.0) == 0.0

    def test_nonnegative_and_supported(self):
        s = np.linspace(1e-3, 4.0, 2000)
        vals = bump(s)
        assert np.all(vals >= 0)
        outside = (s <= 0.5) | (s >= 2.0)
        assert np.all(vals[outside] == 0)

    def test_partition_telescopes(self):
        # direct summation oracle at 1000 random points in (2^-6, 2^6)
        rng = np.random.default_rng(0)
        s = np.exp(rng.uniform(np.log(2.0**-6), np.log(2.0**6), size=1000))
        decomp = DyadicDecomposition(-8, 8)
        assert np.abs(decomp.partition_sum(s) - 1.0).max() < 1e-12

    def test_smoothness_bounded_fourth_differences(self):
        # refinement sweep: 4th finite differences stay bounded as h shrinks
        sups = []
        for h in (2e-3, 1e-3, 5e-4):
            s = np.arange(0.4, 2.2, h)
            d4 = np.diff(bump(s), 4) / h**4
            sups.append(np.abs(d4).max())
        assert all(np.isfinite(v) for v in sups)
        assert sups[-1] < 2.0 * sups[0] + 1e3

    def test_smooth_step_bit_identical_to_whole_line_oracle(self):
        # the band-only evaluation takes the same exponentials on 0 < t < 1
        # and writes the same exact 0.0 / 1.0 elsewhere
        rng = np.random.default_rng(1)
        edges = [0.0, -0.0, 1.0, 5e-324, 1e-300, 1 - 1e-12, 1 - 2**-53, 0.5,
                 np.inf, -np.inf, np.nan]
        t = np.concatenate([rng.uniform(-0.5, 1.5, 100_000), edges])
        with np.errstate(all="raise"):
            got = smooth_step(t)
        assert np.array_equal(got.view(np.uint64), oracles.smooth_step(t).view(np.uint64))
        for x in (0.3, 5e-324, 2.0, -1.0):
            assert smooth_step(x).tobytes() == oracles.smooth_step(x).tobytes()


class TestMasks:
    def test_partition_on_grid_point(self):
        grid = Grid(1, 8.0, 256)
        decomp = DyadicDecomposition(-2, 2)
        total = sum(oracles.dense(spatial_mask(grid, k), grid) for k in decomp.shells)
        i = int(np.argmin(np.abs(grid.axis - 1.3)))
        assert abs(total[i] - 1.0) < 1e-12

    def test_mask_support_and_center(self):
        grid = Grid(1, 8.0, 256)
        at = lambda x: int(np.argmin(np.abs(grid.axis - x)))
        assert oracles.dense(spatial_mask(grid, 0), grid)[at(3.0)] == 0.0
        assert oracles.dense(spatial_mask(grid, 1), grid)[at(2.0)] == 1.0

    def test_partition_identity_random_points(self):
        decomp = DyadicDecomposition(-3, 4)
        rng = np.random.default_rng(1)
        lo, hi = decomp.covered_interval
        r = np.exp(rng.uniform(np.log(lo), np.log(hi), 1000))
        assert np.abs(decomp.partition_sum(r) - 1).max() < 1e-10

    def test_support_discipline(self):
        grid = Grid(2, 8.0, 64)
        shells = list(DyadicDecomposition(-2, 2).shells)
        for i, k in enumerate(shells):
            for m in shells[i + 2 :]:
                qk, qm = (oracles.dense(spatial_mask(grid, j), grid) for j in (k, m))
                assert np.max(qk * qm) == 0.0

    def test_frequency_masks(self):
        # half-width 4 pi puts |xi| = 1 on the lattice with spacing 1/4
        grid = Grid(1, 4 * np.pi, 256)
        decomp = DyadicDecomposition(-1, 3)
        pk = {k: oracles.dense(frequency_mask(grid, k), grid) for k in decomp.shells}
        for k in decomp.shells:
            assert pk[k].flat[0] == 0.0  # zero frequency below all shells
        idx = int(np.argmin(np.abs(grid.freq_axis - 1.0)))
        assert pk[0][idx] == 1.0
        mid = int(np.argmin(np.abs(grid.freq_axis - 1.25)))
        assert abs(sum(pk[k][mid] for k in decomp.shells) - 1.0) < 1e-12

    def test_resolution_audit(self):
        grid = Grid(3, 8.0, 64)
        assert not mask_audit(grid, -3).resolved()  # below grid spacing
        audit = mask_audit(grid, 1)
        assert audit.k == 1
        assert audit.resolved()
        assert 0.5 < audit.mass_ratio < 2.0

    @pytest.mark.parametrize("grid", [Grid(3, 8.0, 16), Grid(3, 8.0, 32), Grid(3, 8.0, 64),
                                      Grid(2, 8.0, 32)], ids=["16^3", "32^3", "64^3", "32^2"])
    def test_spatial_masks_vanish_outside_their_box(self, grid):
        # every grid a suite builds at its default config, and every shell
        # of the commutator scan's widened range: the whole-grid bump
        # vanishes off the cube, and the stored mask is it, bit for bit, on
        # the cube
        for k in DyadicDecomposition(-4, 5).shells:
            box = shell_box(grid, k)
            assert box.start <= grid.points_per_axis // 2 < box.stop
            outside = np.ones(grid.shape, dtype=bool)
            outside[(box,) * grid.dim] = False
            full = oracles.spatial_mask(grid, k)
            assert not full[outside].any()
            q = spatial_mask(grid, k)
            assert q.blocks == (box,)
            assert q.values.tobytes() == full[(box,) * grid.dim].tobytes()
            assert np.abs(grid.axis[box]).max() < 2.0 ** (k + 1)

    @pytest.mark.parametrize("grid", [Grid(3, 8.0, 32), Grid(3, 8.0, 64), Grid(2, 8.0, 32),
                                      Grid(1, 4 * np.pi, 256)],
                             ids=["32^3", "64^3", "32^2", "1d"])
    def test_frequency_masks_vanish_outside_their_band(self, grid):
        n = grid.points_per_axis
        signed = np.abs(np.fft.fftfreq(n, 1.0 / n))
        for k in DyadicDecomposition(-3, 5).shells:
            band = frequency_band(grid, k)
            assert 0 <= band <= n // 2
            outside = np.zeros(grid.shape, dtype=bool)
            for ax in range(grid.dim):
                outside |= (signed > band).reshape([-1 if j == ax else 1 for j in range(grid.dim)])
            full = oracles.frequency_mask(grid, k)
            assert not full[outside].any()
            p = frequency_mask(grid, k)
            assert p.values.size == min(2 * band + 1, n) ** grid.dim
            # the blocks are the band's indices in FFT order, and the stored
            # values the mask there
            on_axis = np.concatenate([np.arange(n)[b] for b in p.blocks])
            assert np.array_equal(on_axis, np.flatnonzero(signed <= band))
            assert p.values.tobytes() == full[np.ix_(*[on_axis] * grid.dim)].tobytes()
            # the band is the widest one with |xi_j| below the mask's edge
            assert np.abs(grid.freq_axis[signed <= band]).max() < 2.0 ** (k + 1)
            assert band == n // 2 or np.abs(grid.freq_axis[signed == band + 1]).min() >= 2.0 ** (k + 1)

    def test_frequency_bands_of_the_phase_shells(self):
        # on the half-width-8 box xi_j = (pi/8) j; phase-localization's
        # frequency shells -2..2 leave 3, 5, 11, 21 and 41 indices per axis
        widths = [2 * frequency_band(Grid(3, 8.0, 64), k) + 1 for k in range(-2, 3)]
        assert widths == [3, 5, 11, 21, 41]
        assert frequency_band(Grid(3, 8.0, 32), 2) == 16  # the whole 32-point axis


#: the grids of every suite default and the 1-d one of the resolvent suite
PRODUCT_GRIDS = [Grid(3, 8.0, 16), Grid(3, 8.0, 32), Grid(3, 8.0, 64), Grid(2, 8.0, 32),
                 Grid(1, 8.0, 64)]


class TestShellMaskTimes:
    """``ShellMask.times`` is the whole-grid product of the mask and a field,
    up to the sign of zeros, which ``np.array_equal`` allows: in place, and
    into a buffer that holds another field's values."""

    @pytest.mark.parametrize("grid", PRODUCT_GRIDS, ids=["16^3", "32^3", "64^3", "32^2", "1d"])
    def test_equals_dense_product_on_every_shell(self, grid):
        rng = np.random.default_rng(5)
        f = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        dirty = np.full(grid.shape, np.nan + 1j)
        bands = set()
        for k in DyadicDecomposition(-4, 5).shells:
            for mask, full in ((spatial_mask(grid, k), oracles.spatial_mask(grid, k)),
                               (frequency_mask(grid, k), oracles.frequency_mask(grid, k))):
                expected = full * f
                assert mask.times(f, dirty) is dirty
                assert np.array_equal(dirty, expected)
                x = f.copy()
                assert mask.times(x, x) is x
                assert np.array_equal(x, expected)
            bands.add(frequency_band(grid, k))
        # the range meets band 0 (the zero mode alone) and the whole axis
        assert {0, grid.points_per_axis // 2} <= bands

    def test_real_field_into_a_real_buffer(self):
        # the partition suite multiplies the real constant 1
        grid = Grid(3, 8.0, 32)
        ones = np.ones(grid.shape)
        got = spatial_mask(grid, 1).times(ones, np.full(grid.shape, 7.0))
        assert np.array_equal(got, oracles.spatial_mask(grid, 1))

    def test_product_makes_no_large_temporary(self):
        # a 63-of-64 cube: a complex temporary of the cube alone would be
        # 3.8 MiB; the block products cast the real mask in small chunks
        grid = Grid(3, 8.0, 64)
        mask = spatial_mask(grid, 2)
        assert mask.blocks == (slice(1, 64),)
        x = np.ones(grid.shape, dtype=complex)
        mask.times(x, x)
        tracemalloc.start()
        try:
            mask.times(x, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestMaskCache:
    """One read-only cached array per (grid value, kind, shell)."""

    def test_decompositions_share_shell_arrays(self):
        # a shell is fetched by (grid, k) alone, so a second fetch on an
        # equal grid, as any shell range holding k makes it, is a cache hit
        grid = Grid(3, 8.0, 16)
        for k in (0, 1):
            first = spatial_mask(grid, k)
            hits = _cached_masks.cache_info().hits
            assert spatial_mask(Grid(3, 8.0, 16), k).values is first.values
            assert _cached_masks.cache_info().hits == hits + 1
            assert np.array_equal(oracles.dense(first, grid), bump(grid.radius / 2.0**k))

    def test_frequency_and_spatial_shells_are_distinct(self):
        grid = Grid(3, 8.0, 16)
        freq = frequency_mask(grid, 0)
        assert freq.values is frequency_mask(grid, 0).values
        assert freq.values is not spatial_mask(grid, 0).values
        assert np.array_equal(oracles.dense(freq, grid), bump(grid.freq_radius))

    def test_cached_masks_are_read_only(self):
        grid = Grid(3, 8.0, 16)
        with pytest.raises(ValueError):
            spatial_mask(grid, 0).values[...] = 0.0
        with pytest.raises(ValueError):
            frequency_mask(grid, 1).values[...] = 0.0
        q = spatial_mask(grid, 1).values
        with pytest.raises(ValueError):
            q *= 2.0

    def test_inner_mask_build_makes_no_grid_sized_temporary(self):
        # Q_-1 at 64^3 spans 7 of the 64 points per axis: its build
        # evaluates the bump on that cube alone, where a whole-grid build
        # takes 2 MiB for |x| and 2 MiB for the mask
        grid = Grid(3, 8.0, 64)
        _cached_masks.cache_clear()
        tracemalloc.start()
        try:
            q = spatial_mask(grid, -1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**19
        assert q.values.shape == (7, 7, 7)

    @pytest.mark.parametrize("fetch", ["spatial_mask", "frequency_mask", "annulus_sup",
                                       "torus_weight"])
    def test_a_fetch_keeps_no_grid_alive(self, fetch):
        # the caches are keyed by the grid's value, so a grid and the
        # coordinate arrays it caches go when its last user drops it
        import smoothlab.dyadic as dyadic
        import smoothlab.norms as norms

        dyadic._cached_masks.cache_clear()  # a miss: the fetch stores an entry
        norms._annulus_mask.cache_clear()
        norms._torus_weight.cache_clear()
        grid = Grid(3, 8.0, 16)
        if fetch == "annulus_sup":
            norms.annulus_sup(np.ones(grid.shape), grid, 0)
        elif fetch == "torus_weight":
            # the 3-point cube of shell 0 is summed on the 8^3 torus
            ones = Field(grid, np.ones(grid.shape))
            norms.lqa_shell_terms((ones,), DyadicDecomposition(0, 1), norms.NormSpec(2, 0.5, 0.5),
                                  "D_then_mask", 2)
            assert norms._torus_weight.cache_info().currsize == 1
            del ones
        else:
            getattr(dyadic, fetch)(grid, 0)
        ref = weakref.ref(grid)
        del grid
        gc.collect()
        assert ref() is None


class TestWeightedSeq:
    def test_impulse_norms(self):
        a = {3: 1.0}
        assert math.isclose(seq_norm(a, 2, 0.5), 2.0**1.5)
        assert math.isclose(seq_norm(a, math.inf, -0.5), 2.0**-1.5)

    def test_flat_l1_weighted(self):
        a = {0: 1.0, 1: 1.0, 2: 1.0}
        assert seq_norm(a, 1, 1.0) == 7.0

    def test_exponent_domain(self):
        with pytest.raises(ValueError):
            seq_norm({0: 1.0}, 0.5, 0.0)

    @given(
        q1=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
        q2=st.sampled_from([2.0, 3.0, 4.0, math.inf]),
        alpha=st.floats(-1.0, 1.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_q(self, q1, q2, alpha):
        if q1 > q2:
            q1, q2 = q2, q1
        a = {-2: 0.3, 0: 1.0, 1: -0.7 + 0.2j, 3: 0.05}
        assert seq_norm(a, q1, alpha) >= seq_norm(a, q2, alpha) - 1e-12

    @given(alpha=st.floats(-1.5, 1.5), q=st.sampled_from([1.0, 2.0, math.inf]))
    @settings(max_examples=50, deadline=None)
    def test_shift_scaling_covariance(self, alpha, q):
        a = {-1: 0.4, 0: 1.0, 2: -0.3j}
        shifted = {k + 1: v for k, v in a.items()}
        lhs = seq_norm(shifted, q, alpha)
        rhs = 2.0**alpha * seq_norm(a, q, alpha)
        assert math.isclose(lhs, rhs, rel_tol=1e-12)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            a = {int(k): complex(*rng.standard_normal(2)) for k in rng.integers(-5, 6, size=4)}
            b = {int(k): complex(*rng.standard_normal(2)) for k in rng.integers(-5, 6, size=4)}
            a_plus_b = {k: a.get(k, 0) + b.get(k, 0) for k in a.keys() | b.keys()}
            for q in (1, 2, math.inf):
                assert seq_norm(a_plus_b, q, 0.25) <= seq_norm(a, q, 0.25) + seq_norm(b, q, 0.25) + 1e-12
