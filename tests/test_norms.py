import math
import tracemalloc
import weakref
from dataclasses import astuple

import numpy as np
import pytest

import oracles
from oracles import lqa_tail_fraction, morrey_campanato
from smoothlab.dyadic import (
    DyadicDecomposition,
    bump,
    seq_norm,
    spatial_mask,
)
from smoothlab.ensembles import band_limited_field, member_rng
from smoothlab.grid import Field, Grid, SpaceTimeField, gaussian
from smoothlab.norms import (
    VARIANTS,
    NormSpec,
    _annulus_mask,
    annulus_l2_terms,
    annulus_sum_norm,
    annulus_sup,
    annulus_sup_norm,
    equivalence_report,
    forcing_norm,
    lqa_shell_terms,
    lqa_sobolev_norm,
    phase_localized_norm,
    smoothing_norm,
    weight_product_mask,
)
from smoothlab.spectral import (
    abs_freq_power,
    apply_multiplier,
    boxed_fft_inplace,
    lp_norm,
    mean_zero,
    power_sum_norm,
)

DEC = DyadicDecomposition(-3, 4)
#: the forward axis passes of one pruned transform on a 3-d grid
PRUNED_PASSES = ["fftn(axes=(0,))", "fftn(axes=(1,))", "fftn(axes=(2,))"]


def indicator(grid, condition):
    return Field(grid, condition.astype(complex))


@pytest.fixture(scope="module")
def grid128():
    return Grid(3, 8.0, 128)


@pytest.fixture(scope="module")
def grid32():
    return Grid(3, 8.0, 32)


class TestLocalEnergyNorms:
    def test_morrey_unit_ball(self, grid128):
        # closed form: max of (R^-1 min(vol B_R, vol B_1)) is 4 pi / 3 at R = 1
        ball = indicator(grid128, grid128.radius <= 1.0)
        expected = math.sqrt(4 * math.pi / 3)
        assert abs(morrey_campanato(ball) - expected) / expected < 0.03

    def test_morrey_zero(self, grid128):
        assert morrey_campanato(indicator(grid128, grid128.radius < 0)) == 0.0

    def test_morrey_dilation_scaling(self, grid128):
        # indicator of radius 1/2 (the dilate f(2x)): value scales by 2^-(n-1)/2 = 1/2
        half = indicator(grid128, grid128.radius <= 0.5)
        expected = 0.5 * math.sqrt(4 * math.pi / 3)
        assert abs(morrey_campanato(half) - expected) / expected < 0.03

    def test_annulus_sum_indicator(self, grid128):
        # support [1, 2] fills shells 0 and 1 fully; volume oracle
        ann = indicator(grid128, (grid128.radius >= 1) & (grid128.radius <= 2))
        expected = (1 + math.sqrt(2)) * math.sqrt(28 * math.pi / 3)
        assert abs(annulus_sum_norm(ann, DEC) - expected) / expected < 0.05

    def test_annulus_sum_zero(self, grid128):
        assert annulus_sum_norm(indicator(grid128, grid128.radius < 0), DEC) == 0.0

    def test_annulus_sum_shift_recompute(self, grid128):
        inner = indicator(grid128, (grid128.radius >= 0.5) & (grid128.radius <= 1))
        outer = indicator(grid128, (grid128.radius >= 1) & (grid128.radius <= 2))
        # shifting the support one dyadic scale: recomputation oracle per shell
        val_inner = annulus_sum_norm(inner, DEC)
        direct = sum(
            2.0 ** (k / 2)
            * math.sqrt(
                np.sum((np.minimum(np.maximum(grid128.radius, 2.0 ** (k - 1)), 2.0 ** (k + 1))
                        == grid128.radius)
                       * (np.abs(inner.values) ** 2))
                * grid128.cell_volume
            )
            for k in DEC.shells
        )
        assert abs(val_inner - direct) / direct < 1e-10
        assert val_inner < annulus_sum_norm(outer, DEC)

    def test_annulus_sup_unit_ball(self, grid128):
        # annulus-volume oracle: the sup sits at shell -1 with value
        # sqrt(2) * sqrt((4 pi/3)(1 - 1/64)), not at shell 0
        ball = indicator(grid128, grid128.radius <= 1.0)
        expected = math.sqrt(2.0) * math.sqrt(4 * math.pi / 3 * (1 - 1 / 64))
        assert abs(annulus_sup_norm(ball, DEC) - expected) / expected < 0.05

    def test_annulus_sup_zero(self, grid128):
        assert annulus_sup_norm(indicator(grid128, grid128.radius < 0), DEC) == 0.0

    def test_annulus_sup_known_bump(self, grid32):
        # -3 phi(|x|) peaks at |x| = 1, a grid point inside shell 0; phi
        # vanishes on the closed shell-2 annulus [2, 8]; shell 10 holds no
        # grid point at all
        values = -3.0 * bump(grid32.radius)
        assert annulus_sup(values, grid32, 0) == 3.0
        assert annulus_sup(values, grid32, 2) == 0.0
        assert annulus_sup(values, grid32, 10) == 0.0

    def test_annulus_pair_equals_hand_written_sums(self, grid32):
        # the weighted sum and sup as written before they went through
        # seq_norm, compared bit for bit; each annulus norm as written when
        # every shell took its own |f|^2
        f = band_limited_field(grid32, member_rng(0, 98))

        def annulus_l2(k):
            m = _annulus_mask(*astuple(grid32), k)
            return float(np.sqrt(np.sum(m * np.abs(f.values) ** 2) * grid32.cell_volume))

        assert annulus_l2_terms(f, DEC) == {k: annulus_l2(k) for k in DEC.shells}
        assert annulus_sum_norm(f, DEC) == sum(
            2.0 ** (k / 2) * annulus_l2(k) for k in DEC.shells
        )
        assert annulus_sup_norm(f, DEC) == max(
            2.0 ** (-k / 2) * annulus_l2(k) for k in DEC.shells
        )

    def test_annulus_mask_cache_is_bounded_read_only_bool(self, grid32):
        # a bool entry costs N^n bytes, so 64 entries bound the cache
        mask = _annulus_mask(*astuple(grid32), 1)
        r = grid32.radius
        assert mask.dtype == bool
        assert np.array_equal(mask, (r >= 1.0) & (r <= 4.0))
        with pytest.raises(ValueError):
            mask[0, 0, 0] = True
        assert _annulus_mask.cache_info().maxsize == 64

    def test_dual_bound_against_morrey(self, grid32):
        # sup_k 2^(-k/2) ||f||_{L^2(annulus)} <= C |||f||| with C <= 2
        dec = DyadicDecomposition(-2, 3)
        for i in range(50):
            f = band_limited_field(grid32, member_rng(0, 99, i))
            lhs = annulus_sup_norm(f, dec)
            rhs = morrey_campanato(f)
            assert lhs <= 2.0 * rhs


class TestWeightedShellNorms:
    def test_zero_field(self, grid32):
        dec = DyadicDecomposition(-2, 3)
        zero = Field(grid32, np.zeros(grid32.shape, dtype=complex))
        for variant in ("mask_then_D", "D_then_mask", "weight_product"):
            assert lqa_sobolev_norm((zero,), dec, NormSpec(2, 0.5, 0.5), variant) == [0.0]

    def test_variant_comparability_single_bump(self):
        # all three forms within a common factor 4 on a bump at |x| = 2,
        # with the measured constant stable under refinement
        dec = DyadicDecomposition(-2, 3)
        spec = NormSpec(2, 0.5, 0.5)
        spreads = []
        for n_pts in (32, 64):
            grid = Grid(3, 8.0, n_pts)
            f = mean_zero(gaussian(grid, width=0.35, center=2.0))
            vals = [
                lqa_sobolev_norm((f,), dec, spec, variant=v)[0]
                for v in ("mask_then_D", "D_then_mask", "weight_product")
            ]
            spreads.append(max(vals) / min(vals))
        assert all(s <= 4.0 for s in spreads)
        assert abs(spreads[1] - spreads[0]) / spreads[0] < 0.15

    def test_dilation_weight_product_scaling(self):
        # f(x) -> f(2x) multiplies the weight-product norm by 2^(s - a - n/2)
        spec = NormSpec(2, 0.5, 0.5)
        coarse = Grid(3, 8.0, 64)
        fine = Grid(3, 4.0, 64)  # same samples represent f(2x)
        f = mean_zero(gaussian(coarse, width=0.35, center=2.0))
        f2 = Field(fine, f.values)
        [base] = lqa_sobolev_norm((f,), DyadicDecomposition(-1, 3), spec, "weight_product")
        [dil] = lqa_sobolev_norm((f2,), DyadicDecomposition(-2, 2), spec, "weight_product")
        factor = 2.0 ** (spec.s - spec.a - 3 / 2)
        assert abs(dil / base - factor) / factor < 0.02

    def test_homogeneity_and_triangle(self, grid32):
        dec = DyadicDecomposition(-2, 3)
        spec = NormSpec(2, 0.5, 0.5)
        rng_pairs = [(band_limited_field(grid32, member_rng(1, 5, i)),
                      band_limited_field(grid32, member_rng(1, 6, i)))
                     for i in range(20)]
        for f, g in rng_pairs:
            f_plus_g = Field(grid32, f.values + g.values)
            nf, nf25, nfg, ng = lqa_sobolev_norm((f, 2.5 * f, f_plus_g, g), dec, spec)
            assert math.isclose(nf25, 2.5 * nf, rel_tol=1e-12)
            assert nfg <= nf + ng + 1e-9 * nf

    @pytest.mark.parametrize("a", [0.5, -0.5])
    def test_weight_product_mask_lives_on_the_cube(self, grid32, a):
        # |x|^a Q_k on the cube of Q_k, bit for bit the whole-grid weight,
        # which vanishes off the cube
        for k in DyadicDecomposition(-3, 4).shells:
            w, full = weight_product_mask(grid32, k, a), oracles.weight_product_mask(grid32, k, a)
            box = spatial_mask(grid32, k).blocks
            assert w.blocks == box
            assert w.values.tobytes() == full[box * grid32.dim].tobytes()
            assert np.array_equal(oracles.dense(w, grid32), full)

    @pytest.mark.parametrize("p", [2, 4])
    @pytest.mark.parametrize("variant", ["D_then_mask", "weight_product"])
    def test_shell_terms_equal_separate_loops(self, grid32, variant, p):
        # one loop per variant, as written before the two were merged; at
        # p = 2 a term is one weighted power sum, on a torus for a small
        # cube, which rounds differently from the dense Plancherel sum
        dec = DyadicDecomposition(-2, 3)
        spec = NormSpec(2, 0.5, 0.5)
        f = band_limited_field(grid32, member_rng(3, 1))
        sym = abs_freq_power(grid32, spec.s)

        def norm(w):
            if p == 2:
                return oracles.dense_shell_term(f, w, spec.s)
            return lp_norm(apply_multiplier(Field(grid32, w * f.values), sym), p)

        expected = {}
        if variant == "D_then_mask":
            for k in dec.shells:
                expected[k] = norm(oracles.spatial_mask(grid32, k))
        else:
            for k in dec.shells:
                expected[k] = norm(oracles.weight_product_mask(grid32, k, spec.a))
        [terms] = lqa_shell_terms((f,), dec, spec, variant, p)
        if p == 2:
            assert terms.keys() == expected.keys()
            assert all(math.isclose(terms[k], expected[k], rel_tol=1e-13) for k in dec.shells)
        else:
            assert terms == expected

    @pytest.mark.parametrize("variant", ["D_then_mask", "weight_product"])
    @pytest.mark.parametrize("grid", [Grid(3, 8.0, 16), Grid(3, 8.0, 32), Grid(3, 8.0, 64),
                                      Grid(2, 8.0, 32), Grid(1, 8.0, 256)],
                             ids=["16^3", "32^3", "64^3", "32^2", "256"])
    @pytest.mark.parametrize("s", [-1, -0.5, 0, 0.5, 1])
    def test_p2_terms_equal_the_dense_plancherel_sum(self, grid, s, variant):
        # every shell from below the grid spacing to past the box: a cube
        # whose torus of 2^ceil(log2(2 m - 1)) points is smaller than the
        # grid is summed there, the others on the grid
        dec = DyadicDecomposition(-4, 5)
        spec = NormSpec(2, 0.5, s)
        f = band_limited_field(grid, member_rng(3, 13))
        widths = [b.stop - b.start for k in dec.shells for b in spatial_mask(grid, k).blocks]
        sides = {2 ** math.ceil(math.log2(2 * m - 1)) < grid.points_per_axis for m in widths}
        assert sides == {True, False}
        [terms] = lqa_shell_terms((f,), dec, spec, variant, 2)
        for k in dec.shells:
            w = (oracles.spatial_mask(grid, k) if variant == "D_then_mask"
                 else oracles.weight_product_mask(grid, k, spec.a))
            assert math.isclose(terms[k], oracles.dense_shell_term(f, w, s), rel_tol=1e-13), k

    @pytest.mark.parametrize("variant", ["D_then_mask", "weight_product"])
    def test_p2_terms_forward_transform_only(self, grid32, variant, fft_calls):
        dec = DyadicDecomposition(-2, 3)
        spec = NormSpec(2, 0.5, 0.5)
        f = band_limited_field(grid32, member_rng(3, 2))
        lqa_shell_terms((f,), dec, spec, variant, 2)  # the torus weights cached
        fft_calls.clear()
        [terms] = lqa_shell_terms((f,), dec, spec, variant, 2)
        # shell -2 holds no grid point at 32^3 and runs no transform; the
        # cubes of shells -1 and 0 (3 and 7 points) are transformed whole
        # on the 8^3 and 16^3 tori, and the other shells axis by axis on
        # the lines of the grid their cubes meet
        assert fft_calls == ["fftn", "fftn"] + PRUNED_PASSES * (len(dec.shells) - 3)
        sym = abs_freq_power(grid32, spec.s)
        for k in dec.shells:
            w = (oracles.spatial_mask(grid32, k) if variant == "D_then_mask"
                 else oracles.weight_product_mask(grid32, k, spec.a))
            spatial = lp_norm(apply_multiplier(Field(grid32, w * f.values), sym), 2)
            assert math.isclose(terms[k], spatial, rel_tol=1e-13)

    @pytest.mark.parametrize("p", [2, 4])
    def test_mask_then_d_keeps_the_spatial_formula(self, grid32, p):
        # its mask comes after |D|^s, so Plancherel does not apply
        dec = DyadicDecomposition(-2, 3)
        spec = NormSpec(2, 0.5, 0.5)
        f = band_limited_field(grid32, member_rng(3, 3))
        df = apply_multiplier(f, abs_freq_power(grid32, spec.s))
        expected = {k: lp_norm(Field(grid32, oracles.spatial_mask(grid32, k) * df.values), p)
                    for k in dec.shells}
        assert lqa_shell_terms((f,), dec, spec, "mask_then_D", p) == [expected]

    @pytest.mark.parametrize("points", [16, 32])
    @pytest.mark.parametrize("p", [2, 4])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_batch_equals_per_field_calls(self, variant, p, points):
        # one call on a generator of fields gives, bit for bit, what one
        # call per field gives
        grid = Grid(3, 8.0, points)
        dec = DyadicDecomposition(-2, 3)
        spec = NormSpec(2, 0.5, 0.5)
        fields = [band_limited_field(grid, member_rng(3, 6, i), mode_radius=(1, 4))
                  for i in range(3)]
        batch = lqa_shell_terms((f for f in fields), dec, spec, variant, p)
        assert batch == [lqa_shell_terms((f,), dec, spec, variant, p)[0] for f in fields]
        assert lqa_sobolev_norm(iter(fields), dec, spec, variant, p) == [
            lqa_sobolev_norm((f,), dec, spec, variant, p)[0] for f in fields]

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_each_field_released_before_the_next_is_drawn(self, grid32, variant):
        dec = DyadicDecomposition(-2, 3)
        refs = []

        def fields():
            for i in range(3):
                assert all(ref() is None for ref in refs), f"a field is alive at draw {i}"
                held = [band_limited_field(grid32, member_rng(3, 7, i))]
                refs.append(weakref.ref(held[0]))
                yield held.pop()

        assert len(lqa_shell_terms(fields(), dec, NormSpec(2, 0.5, 0.5), variant, 2)) == 3

    @pytest.mark.parametrize("p", [2, 4])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_empty_shells_are_zero_without_a_transform(self, grid32, variant, p, fft_calls):
        # the 32^3 spacing is 0.5, so shells -3 and -2 (|x| < 1/2 off the
        # origin, where the masks vanish) hold no grid point
        dec = DyadicDecomposition(-3, -2)
        spec = NormSpec(2, 0.5, 0.5)
        f = band_limited_field(grid32, member_rng(3, 9))
        assert not spatial_mask(grid32, -3).values.any()
        assert not spatial_mask(grid32, -2).values.any()
        fft_calls.clear()
        assert lqa_shell_terms((f,), dec, spec, variant, p) == [{-3: 0.0, -2: 0.0}]
        assert fft_calls == []
        # the pruned transform of the zero field gives the same 0.0
        mask = spatial_mask(grid32, -2)
        spectrum = boxed_fft_inplace(mask.times(f.values, np.empty(grid32.shape, dtype=complex)),
                                     mask.blocks)
        assert power_sum_norm(spectrum * abs_freq_power(grid32, spec.s), grid32) == 0.0

    @pytest.mark.parametrize("p", [2, 4])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_zero_field_is_zero_without_a_transform(self, grid32, variant, p, fft_calls):
        # the t = 0 slice of a Picard difference is exactly zero; -0.0
        # samples count as zero too
        dec = DyadicDecomposition(-2, 3)
        zero = Field(grid32, np.zeros(grid32.shape, dtype=complex))
        zero.values.real[0, 0, 0] = -0.0
        fft_calls.clear()
        assert lqa_shell_terms((zero,), dec, NormSpec(2, 0.5, 0.5), variant, p) == [
            dict.fromkeys(dec.shells, 0.0)]
        assert fft_calls == []

    def test_p2_terms_allocate_their_buffers_once(self, grid32):
        # six live shells and three fields: past the |xi|^(2s) weight the
        # call builds, the terms hold one complex grid buffer and one
        # complex buffer per torus, of (N/2)^n points at most (the 3- and
        # 7-point cubes of shells -1 and 0), plus the operand buffers of
        # numpy's buffered (casting) ufunc loop; one fresh spectrum per
        # shell term, as before, exceeds the bound
        dec = DyadicDecomposition(-1, 4)
        spec = NormSpec(2, 0.5, 0.5)
        assert all(spatial_mask(grid32, k).values.any() for k in dec.shells)
        fields = [band_limited_field(grid32, member_rng(3, 12, i)) for i in range(3)]
        lqa_shell_terms(fields[:1], dec, spec, "D_then_mask", 2)  # masks and |xi| cached
        grid_bytes = 8 * grid32.size
        ufunc_buffers = 3 * np.getbufsize() * 16
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            lqa_shell_terms(fields, dec, spec, "D_then_mask", 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        symbol, spectrum, tori = grid_bytes, 2 * grid_bytes, 2 * (2 * grid_bytes // 2**grid32.dim)
        assert peak - start <= symbol + spectrum + tori + ufunc_buffers + 32 * 1024

    def test_tail_fraction_small_for_windowed_data(self, grid32):
        dec = DyadicDecomposition(-2, 3)
        f = band_limited_field(grid32, member_rng(3, 0))
        assert lqa_tail_fraction(f, dec, NormSpec(2, 0.5, 0.5)) < 0.01

    def test_spec_domain(self):
        with pytest.raises(ValueError):
            NormSpec(2, 0.5, 1.5)
        with pytest.raises(ValueError):
            NormSpec(0.5, 0.5, 0.5)

class TestNormOpProperties:
    # shared invariants: absolute 1-homogeneity to 1e-12 and the triangle
    # inequality on 100 random pairs, for every norm operation

    @staticmethod
    def _norm_ops(grid):
        dec = DyadicDecomposition(-2, 3)
        freq = DyadicDecomposition(-2, 2)
        spec = NormSpec(2, 0.5, 0.5)
        return {
            "morrey": morrey_campanato,
            "annulus_sum": lambda f: annulus_sum_norm(f, dec),
            "annulus_sup": lambda f: annulus_sup_norm(f, dec),
            "lqa": lambda f: lqa_sobolev_norm((f,), dec, spec)[0],
            "lqa_weight": lambda f: lqa_sobolev_norm((f,), dec, spec, "weight_product")[0],
            "phase": lambda f: phase_localized_norm(f, dec, freq, spec),
        }

    def test_absolute_homogeneity(self):
        grid = Grid(3, 8.0, 16)
        ops = self._norm_ops(grid)
        f = band_limited_field(grid, member_rng(11, 0), mode_radius=(1, 4))
        for name, op in ops.items():
            base = op(f)
            scaled = op((-2.5 + 0j) * f)
            assert math.isclose(scaled, 2.5 * base, rel_tol=1e-12), name

    def test_triangle_inequality_hundred_pairs(self):
        grid = Grid(3, 8.0, 16)
        ops = self._norm_ops(grid)
        for i in range(100):
            f = band_limited_field(grid, member_rng(12, i), mode_radius=(1, 4))
            g = band_limited_field(grid, member_rng(13, i), mode_radius=(1, 4))
            for name, op in ops.items():
                lhs = op(Field(grid, f.values + g.values))
                rhs = op(f) + op(g)
                assert lhs <= rhs * (1 + 1e-10), f"{name} at pair {i}"

    def test_spacetime_norm_homogeneity(self):
        grid = Grid(3, 8.0, 16)
        dec = DyadicDecomposition(-2, 3)
        times = np.linspace(0, 1, 5)
        from smoothlab.ensembles import band_limited_spacetime

        F = band_limited_spacetime(grid, times, member_rng(14, 0), mode_radius=(1, 4))
        for op in (lambda u: forcing_norm(u, dec), lambda u: smoothing_norm(u, dec)):
            assert math.isclose(op(4.0 * F), 4.0 * op(F), rel_tol=1e-12)


class TestSpaceTimeNorms:
    def test_constant_in_time_reduces_to_spatial(self, grid32):
        dec = DyadicDecomposition(-2, 3)
        f = band_limited_field(grid32, member_rng(2, 0))
        times = np.linspace(0, 1, 5)
        u = SpaceTimeField(grid32, times, np.broadcast_to(f.values, (5,) + grid32.shape).copy())
        [spatial] = lqa_sobolev_norm((f,), dec, NormSpec(math.inf, -0.5, 0.5))
        assert math.isclose(smoothing_norm(u, dec), spatial, rel_tol=1e-12)

    def test_zero(self, grid32):
        times = np.linspace(0, 1, 4)
        z = SpaceTimeField(grid32, times,
                           np.zeros((4,) + grid32.shape, dtype=complex))
        dec = DyadicDecomposition(-2, 3)
        assert forcing_norm(z, dec) == 0.0
        assert smoothing_norm(z, dec) == 0.0

    def test_needs_two_slices(self, grid32):
        dec = DyadicDecomposition(-2, 3)
        one = SpaceTimeField(grid32, [0.0],
                             np.zeros((1,) + grid32.shape, dtype=complex))
        with pytest.raises(ValueError):
            smoothing_norm(one, dec)

    def test_parabolic_rescaling_exponent(self):
        # u(4t, 2x) changes the smoothing norm by 2^(-n/2), verified by
        # recomputation on the rescaled grid within 10%
        grid = Grid(3, 8.0, 64)
        dec = DyadicDecomposition(-2, 3)
        times = np.linspace(0, 1, 9)
        from smoothlab.ensembles import band_limited_spacetime

        u = band_limited_spacetime(grid, times, member_rng(4, 0))
        half = Grid(3, 4.0, 64)
        u_resc = SpaceTimeField(half, times / 4, u.values)
        base = smoothing_norm(u, dec)
        resc = smoothing_norm(u_resc, dec.shift(-1))
        factor = 2.0 ** (-3 / 2)
        assert abs(resc / base - factor) / factor < 0.10


class TestPhaseLocalization:
    def test_single_shell_function_collapses(self):
        grid = Grid(3, 2 * np.pi, 32)
        space = DyadicDecomposition(-2, 2)
        freq = DyadicDecomposition(-1, 1)
        from smoothlab.grid import _fftn, _ifftn

        rng = member_rng(5, 0)
        f = band_limited_field(grid, rng, window=(0.7, 2.0))
        f0 = Field(grid, _ifftn(oracles.frequency_mask(grid, 0) * _fftn(f.values)))
        spec = NormSpec(2, 0.5, 0.5)
        loc = phase_localized_norm(f0, space, freq, spec)
        # P_0 f0 = f0 only up to the neighbour-shell overlap; compare against
        # the explicit one-term assembly instead of the plain norm
        per_shell = [
            lqa_sobolev_norm((Field(grid, _ifftn(oracles.frequency_mask(grid, k)
                                                 * _fftn(f0.values))),),
                             space, spec)[0]
            for k in freq.shells
        ]
        assert math.isclose(loc, math.sqrt(sum(v**2 for v in per_shell)), rel_tol=1e-12)

    def test_zero(self, grid32):
        space = DyadicDecomposition(-2, 3)
        freq = DyadicDecomposition(-2, 2)
        zero = Field(grid32, np.zeros(grid32.shape, dtype=complex))
        assert phase_localized_norm(zero, space, freq, NormSpec(2, 0.5, 0.5)) == 0.0

    def test_high_q_reverse_direction(self, grid32):
        # q = inf side: the plain norm is bounded by the localized one
        space = DyadicDecomposition(-2, 3)
        freq = DyadicDecomposition(-2, 2)
        spec = NormSpec(math.inf, -0.5, 0.5)
        ratios = []
        for i in range(10):
            f = band_limited_field(grid32, member_rng(6, 100 + i))
            [plain] = lqa_sobolev_norm((f,), space, spec)
            loc = phase_localized_norm(f, space, freq, spec)
            if loc > 0:
                ratios.append(plain / loc)
        assert max(ratios) < 4.0

    def test_low_q_embedding_direction(self, grid32):
        # q = 1 side: localized norm bounded by the plain norm times a
        # stable constant
        space = DyadicDecomposition(-2, 3)
        freq = DyadicDecomposition(-2, 2)
        spec = NormSpec(1, 0.5, -0.5)
        ratios = []
        for i in range(10):
            f = band_limited_field(grid32, member_rng(6, i))
            [plain] = lqa_sobolev_norm((f,), space, spec)
            loc = phase_localized_norm(f, space, freq, spec)
            if plain > 0:
                ratios.append(loc / plain)
        assert max(ratios) < 4.0

    @pytest.mark.parametrize(
        "spec", [NormSpec(2, 0.5, 0.5), NormSpec(1, 0.5, -0.5), NormSpec(math.inf, -0.5, 0.5)]
    )
    def test_orderings_equal_per_shell_oracle(self, grid32, spec):
        # one localization per frequency shell, each by its own transform
        # pair, summed in the order the definition states
        space = DyadicDecomposition(-2, 3)
        freq = DyadicDecomposition(-2, 2)
        f = band_limited_field(grid32, member_rng(7, 2))
        shells = {k2: apply_multiplier(f, oracles.frequency_mask(grid32, k2))
                  for k2 in freq.shells}
        outer = {k2: lqa_sobolev_norm((loc,), space, spec)[0] for k2, loc in shells.items()}
        assert phase_localized_norm(f, space, freq, spec) == seq_norm(outer, 2, 0.0)

    def test_one_forward_transform_per_field(self, grid32, fft_calls):
        space = DyadicDecomposition(-2, 3)
        freq = DyadicDecomposition(-2, 2)
        f = band_limited_field(grid32, member_rng(7, 3))
        phase_localized_norm(f, space, freq, NormSpec(2, 0.5, 0.5))  # torus weights cached
        fft_calls.clear()
        phase_localized_norm(f, space, freq, NormSpec(2, 0.5, 0.5))
        # one forward transform of f; per frequency shell the inverse passes
        # on the lines of its band (|j| <= 1, 2, 5 and 10 take 4, 2 and 1
        # calls for axes 0, 1 and 2; the band of shell 2 covers the 32-point
        # axis and takes one full pass per axis), then the Plancherel norm
        # of each masked spatial shell from its forward transform: whole on
        # the 8^3 and 16^3 tori of the 3- and 7-point cubes of shells -1
        # and 0, and axis by axis on the lines of the grid the other cubes
        # meet; spatial shell -2 holds no grid point at 32^3 and runs none
        banded = [f"ifftn(axes=({ax},))" for ax, calls in enumerate([4, 2, 1])
                  for _ in range(calls)]
        full = [f"ifftn(axes=({ax},))" for ax in range(3)]
        spatial = ["fftn", "fftn"] + PRUNED_PASSES * (len(space.shells) - 3)
        assert fft_calls == ["fftn"] + (banded + spatial) * 4 + full + spatial


class TestEquivalenceReport:
    def test_zero_flagged(self, grid32):
        dec = DyadicDecomposition(-2, 3)
        zero = Field(grid32, np.zeros(grid32.shape, dtype=complex))
        rep = equivalence_report(zero, dec, NormSpec(2, 0.5, 0.5))
        assert rep.degenerate

    def test_admissibility(self, grid32):
        dec = DyadicDecomposition(-2, 3)
        f = band_limited_field(grid32, member_rng(8, 0))
        with pytest.raises(ValueError):
            equivalence_report(f, dec, NormSpec(2, 1.0, 0.9))

    def test_single_bump_ratio(self):
        grid = Grid(3, 8.0, 64)
        dec = DyadicDecomposition(-2, 3)
        f = mean_zero(gaussian(grid, width=0.35, center=2.0))
        rep = equivalence_report(f, dec, NormSpec(2, 0.5, 0.5))
        assert not rep.degenerate
        assert rep.max_ratio < 2.0
