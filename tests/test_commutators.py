import math
import tracemalloc

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothlab.commutators import (
    CommutatorOp,
    decay_scan,
    measure_pair_norm,
    operator_norm,
    predicted_exponent,
)
from oracles import fractional_laplacian, inner_product
from smoothlab.dyadic import DyadicDecomposition, spatial_masks
from smoothlab.ensembles import band_limited_field, member_rng
from smoothlab.grid import Field, Grid
from smoothlab.spectral import (
    abs_freq_power,
    apply_multiplier,
    l2_norm,
    mean_zero,
)


def _spectrum(f):
    return Field(f.grid, scipy.fft.fftn(f.values))


def _physical(spec):
    return Field(spec.grid, scipy.fft.ifftn(spec.values))


@pytest.fixture(scope="module")
def grid():
    return Grid(3, 8.0, 32)


@pytest.fixture(scope="module")
def dec():
    return DyadicDecomposition(-2, 3)


class TestPredictedExponent:
    def test_zero_on_the_diagonal_origin(self):
        assert predicted_exponent(0, 0, 0.5, 3) == 0.0

    def test_direct_substitution_positive_s(self):
        assert predicted_exponent(0, 5, 0.5, 3) == -5.0

    def test_direct_substitution_negative_s(self):
        assert predicted_exponent(5, 0, -0.5, 3) == -7.5

    @given(k=st.integers(-6, 6), m=st.integers(-6, 6), s=st.floats(-0.9, 0.9))
    @settings(max_examples=100, deadline=None)
    def test_shift_invariance(self, k, m, s):
        # t(k+1, m+1) = t(k, m): the predicted constant is shell-uniform
        a = predicted_exponent(k, m, s, 3)
        b = predicted_exponent(k + 1, m + 1, s, 3)
        assert math.isclose(a, b, abs_tol=1e-9)

    @given(k=st.integers(-4, 4), m=st.integers(-4, 4), s=st.floats(-0.9, 0.9))
    @settings(max_examples=100, deadline=None)
    def test_p_two_symmetry(self, k, m, s):
        assert math.isclose(
            predicted_exponent(k, m, s, 3), predicted_exponent(m, k, s, 3),
            abs_tol=1e-9,
        )


class TestApply:
    def test_s_zero_disjoint_masks_annihilate(self, grid, dec):
        op = CommutatorOp(-1, 2, 0.0, dec, grid)
        f = band_limited_field(grid, member_rng(0, 1))
        out = op.apply(_spectrum(f))
        assert np.abs(out.values).max() < 1e-13 * np.abs(f.values).max()

    def test_order_domain(self, grid, dec):
        with pytest.raises(ValueError):
            CommutatorOp(0, 1, 1.0, dec, grid)

    def test_composition_matches_factors(self, grid, dec):
        op = CommutatorOp(0, 1, 0.5, dec, grid)
        f = band_limited_field(grid, member_rng(0, 2))
        masks = spatial_masks(dec, grid)
        step = fractional_laplacian(f, 0.5)
        step = Field(grid, masks[1] * step.values)
        step = fractional_laplacian(step, -0.5)
        step = Field(grid, masks[0] * step.values)
        assert np.abs(op.apply(_spectrum(f)).values - step.values).max() < 1e-14

    def test_adjoint_pairing(self, grid, dec):
        # <A f, g> = <f, A* g>, with apply fed F f and apply_adjoint
        # returning F(A* g)
        op = CommutatorOp(0, 2, 0.5, dec, grid)
        f = band_limited_field(grid, member_rng(0, 3))
        g = band_limited_field(grid, member_rng(0, 4))
        lhs = inner_product(op.apply(_spectrum(f)), g)
        rhs = inner_product(f, _physical(op.apply_adjoint(Field(g.grid, g.values.copy()))))
        assert abs(lhs - rhs) < 1e-10 * max(abs(lhs), 1.0)

    def test_maps_work_in_the_given_array(self, grid, dec):
        op = CommutatorOp(0, 2, 0.5, dec, grid)
        spec = _spectrum(band_limited_field(grid, member_rng(0, 7)))
        av = op.apply(spec)
        assert av.values is spec.values
        assert op.apply_adjoint(av).values is spec.values

    def test_symbols_are_read_only(self, grid, dec):
        # an in-place product that hits a shared factor instead of the
        # iterate must raise, not corrupt every later matvec
        _, _, up, down = CommutatorOp(0, 2, 0.5, dec, grid)._factors
        for symbol in (up, down):
            assert not symbol.flags.writeable
            with pytest.raises(ValueError):
                symbol *= 2.0

    def test_off_shell_input_suppressed(self, grid, dec):
        # data supported away from shell m: output only through |D|^s tails,
        # bounded by the predicted decay value
        op = CommutatorOp(0, 2, 0.5, dec, grid)
        f = band_limited_field(grid, member_rng(0, 5), window=(0.6, 0.9))
        out_norm = l2_norm(op.apply(_spectrum(f)))
        bound = 2.0 ** predicted_exponent(0, 2, 0.5, 3)
        assert out_norm <= 4.0 * bound * l2_norm(f)


class TestOperatorNorm:
    def test_zero_operator(self, grid, dec):
        op = CommutatorOp(-1, 2, 0.0, dec, grid)
        assert operator_norm(op, trials=2, iterations=10, seed=0) == 0.0

    def test_identity_like_diagonal(self, grid, dec):
        # k = m, s = 0 is multiplication by Q_k^2: norm = max Q_k^2 <= 1
        op = CommutatorOp(0, 0, 0.0, dec, grid)
        est = operator_norm(op, trials=3, iterations=60, tol=1e-9, seed=0)
        masks = spatial_masks(dec, grid)
        assert est <= (masks[0] ** 2).max() + 1e-9
        assert est > 0.95 * (masks[0] ** 2).max()

    def test_trials_domain(self, grid, dec):
        with pytest.raises(ValueError):
            operator_norm(CommutatorOp(0, 0, 0.5, dec, grid), trials=0)

    def test_adjoint_norm_agrees(self, grid, dec):
        # ||A|| = ||A*||: estimate the adjoint by iterating the swapped maps
        op = CommutatorOp(0, 2, 0.5, dec, grid)
        fwd = operator_norm(op, trials=3, iterations=60, tol=1e-9, seed=1)
        bwd = operator_norm(_Swapped(op), trials=3, iterations=60, tol=1e-9, seed=1)
        assert abs(fwd - bwd) / fwd < 0.02

    @pytest.mark.parametrize("s", [0.5, -0.5, 0.0])
    def test_zero_mode_exact_after_every_adjoint(self, grid, dec, s):
        # |xi|^s vanishes at xi = 0, and at s = 0 the mode is set to 0, so
        # the iterate stays mean-zero without a projection
        op = _Counted(CommutatorOp(0, 1, s, dec, grid))
        operator_norm(op, trials=2, iterations=8, tol=0.0, seed=7)
        assert len(op.zero_modes) == 2 * 7
        assert all(z == 0.0 for z in op.zero_modes)

    def test_one_trial_holds_few_grid_arrays(self, grid, dec):
        # the iterate, A v and A*A v share one buffer; only the norms'
        # temporaries come on top of it.  The operator's masks and symbols
        # are built before the trace: they live as long as the operator.
        op = CommutatorOp(0, 2, 0.5, dec, grid)
        op._factors
        tracemalloc.start()
        try:
            operator_norm(op, trials=1, iterations=20, tol=1e-9, seed=8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 16 * grid.size


class TestDecayScan:
    def test_s_zero_far_pairs_excluded(self):
        scan = decay_scan(0.0, range(-1, 3), range(-1, 3), points=32,
                          trials=2, iterations=10, seed=0)
        far = [r for r in scan.records if abs(r.k - r.m) >= 3]
        assert far and all(r.measured_log2 == -math.inf for r in far)
        assert all(not r.resolved for r in far)

    def test_monotone_decay_in_separation(self):
        # for fixed k and s = 1/2 the measured norms fall shell by shell
        vals = []
        for d in (3, 4):
            v, res = measure_pair_norm(0, d, 0.5, points=64, trials=2,
                                          iterations=20, seed=1)
            assert res
            vals.append(v)
        assert vals[0] > vals[1] > 0

    def test_dilation_covariance_of_reduction(self):
        # the centered reduction assigns one value per (direction, separation)
        a = measure_pair_norm(-3, 0, 0.5, points=32, trials=2, iterations=15, seed=2)
        b = measure_pair_norm(1, 4, 0.5, points=32, trials=2, iterations=15, seed=2)
        assert math.isclose(a[0], b[0], rel_tol=1e-9)

    def test_scan_regression_bookkeeping(self):
        scan = decay_scan(0.5, range(-1, 4), range(-1, 4), points=32,
                          trials=2, iterations=15, seed=3)
        resolved = [r for r in scan.records if r.resolved]
        assert scan.regression_points == len(resolved)
        for r in scan.records:
            assert r.residual == r.measured_log2 - r.predicted_t
        rows = scan.csv_rows()
        assert set(rows[0]) == {"k", "m", "s", "measured_log2", "predicted_t", "residual"}


class _PhysicalOp:
    """Reference maps of the operator on physical fields, composed from the
    masks and fractional Laplacians: ``apply`` is A v = Q_k |D|^{-s} Q_m
    |D|^s v and ``apply_adjoint`` is A* u; neither touches its argument."""

    def __init__(self, op):
        masks = spatial_masks(op.decomp, op.grid)
        self.grid, self.qk, self.qm = op.grid, masks[op.k], masks[op.m]
        self.up = abs_freq_power(op.grid, op.s) if op.s else None
        self.down = abs_freq_power(op.grid, -op.s) if op.s else None

    @staticmethod
    def _smooth(f, symbol):
        return f if symbol is None else apply_multiplier(f, symbol)

    def apply(self, f):
        g = self._smooth(f, self.up)
        g = self._smooth(Field(self.grid, self.qm * g.values), self.down)
        return Field(self.grid, self.qk * g.values)

    def apply_adjoint(self, f):
        g = self._smooth(Field(self.grid, self.qk * f.values), self.down)
        return self._smooth(Field(self.grid, self.qm * g.values), self.up)


class _PhysicalSwapped:
    """A* for the physical reference: the two maps exchanged."""

    def __init__(self, op):
        self.grid, self.apply, self.apply_adjoint = op.grid, op.apply_adjoint, op.apply


class _Swapped:
    """A* in the spectral-iterate convention of ``operator_norm``: ``apply``
    takes F v to the physical A* v and ``apply_adjoint`` takes u to
    F(A u), with the zero mode dropped."""

    def __init__(self, op):
        self.op, self.grid = op, op.grid

    def apply(self, spec):
        return _physical(self.op.apply_adjoint(_physical(spec)))

    def apply_adjoint(self, f):
        out = _spectrum(self.op.apply(_spectrum(f)))
        out.values.flat[0] = 0.0
        return out


def _reference_operator_norm(op, trials=8, iterations=50, tol=1e-6, seed=0, steps=None):
    """The power iteration on a physical iterate, as it was before the
    last-step adjoint was dropped: every step forms A*(A v), and the
    convergence test follows it.  ``steps`` collects the forward maps of
    each trial."""
    rng = np.random.default_rng(seed)
    grid = op.grid
    results = []
    for _ in range(trials):
        v = Field(grid, rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))
        v = mean_zero(v)
        nv = l2_norm(v)
        if nv == 0:
            continue
        v = v * (1.0 / nv)
        est = 0.0
        for step in range(iterations):
            av = op.apply(v)
            na = l2_norm(av)
            if na == 0:
                est = 0.0
                break
            new_est = na
            w = mean_zero(op.apply_adjoint(av))
            nw = l2_norm(w)
            if nw == 0:
                est = new_est
                break
            v = w * (1.0 / nw)
            if est > 0 and abs(new_est - est) <= tol * est:
                est = new_est
                break
            est = new_est
        if steps is not None:
            steps.append(step + 1)
        results.append(est)
    return max([r for r in results if r > 0], default=0.0)


class _Counted:
    """Duck-typed operator that logs its maps: the forward maps of each
    trial (a trial's first map follows another forward map, or nothing)
    and the zero mode of every adjoint result."""

    def __init__(self, op):
        self.op, self.grid = op, op.grid
        self.trial_maps, self.zero_modes, self._last = [], [], None

    @property
    def applies(self):
        return sum(self.trial_maps)

    def apply(self, f):
        if self._last != "adjoint":
            self.trial_maps.append(0)
        self.trial_maps[-1] += 1
        self._last = "apply"
        return self.op.apply(f)

    def apply_adjoint(self, f):
        self._last = "adjoint"
        out = self.op.apply_adjoint(f)
        self.zero_modes.append(out.values.flat[0])
        return out


class TestOperatorNormSteps:
    """The spectral iterate takes the steps of the physical reference.  The
    transforms it saves round differently, so the norms agree to 1e-13
    relative, not bit for bit; the last power step forms A v only."""

    @pytest.mark.parametrize("iterations, tol", [(60, 1e-4), (3, 1e-12)])
    def test_bit_identical_to_reference(self, grid, dec, iterations, tol):
        # a trial that converges, and one that runs out of iterations
        op = CommutatorOp(0, 2, 0.5, dec, grid)
        counted, steps = _Counted(op), []
        got = operator_norm(counted, trials=2, iterations=iterations, tol=tol, seed=4)
        ref = _reference_operator_norm(_PhysicalOp(op), trials=2, iterations=iterations,
                                       tol=tol, seed=4, steps=steps)
        assert abs(got - ref) <= 1e-13 * ref
        assert counted.trial_maps == steps
        if iterations == 3:
            assert counted.applies == 2 * iterations
        else:
            assert counted.applies < 2 * iterations

    def test_bit_identical_for_swapped_operator(self, grid, dec):
        op = CommutatorOp(1, -1, -0.5, dec, grid)
        counted, steps = _Counted(_Swapped(op)), []
        got = operator_norm(counted, trials=2, iterations=40, tol=1e-5, seed=5)
        ref = _reference_operator_norm(_PhysicalSwapped(_PhysicalOp(op)), trials=2,
                                       iterations=40, tol=1e-5, seed=5, steps=steps)
        assert abs(got - ref) <= 1e-13 * ref
        assert counted.trial_maps == steps

    def test_converged_trial_transform_count(self, grid, dec, fft_calls):
        # one transform enters the spectrum and each map runs three; a
        # trial that stops after j forward maps forms j - 1 adjoints
        op = _Counted(CommutatorOp(0, 2, 0.5, dec, grid))
        operator_norm(op, trials=1, iterations=60, tol=1e-4, seed=6)
        j = op.applies
        assert 1 < j < 60
        assert len(fft_calls) == 6 * j - 2

    def test_empty_mask_pair_is_not_iterated(self, fft_calls):
        # shell -3 of the centered decomposition holds no point of the
        # spacing-0.25 grid, so the operator is exactly zero
        assert measure_pair_norm(-3, 2, 0.5, points=64) == (0.0, False)
        assert fft_calls == []

    def test_symbols_built_at_most_twice(self, grid, dec, monkeypatch):
        import smoothlab.commutators as commutators
        import smoothlab.spectral as spectral

        real, calls = spectral.abs_freq_power, []

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(spectral, "abs_freq_power", counted)
        monkeypatch.setattr(commutators, "abs_freq_power", counted, raising=False)
        op = CommutatorOp(0, 2, 0.5, dec, grid)
        f = band_limited_field(grid, member_rng(0, 6))
        for _ in range(3):
            f = op.apply_adjoint(op.apply(f))
        assert len(calls) <= 2
