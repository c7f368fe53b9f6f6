import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

import smoothlab
from smoothlab.commutators import (
    LANCZOS_MAX_STEPS,
    CommutatorOp,
    _at_or_above_spectrum,
    _top_ritz_pair,
    decay_scan,
    diagonal_scan,
    measure_pair_norm,
    operator_norm,
    predicted_exponent,
)
import oracles
from oracles import fractional_laplacian, inner_product
from smoothlab.dyadic import _cached_masks, spatial_mask
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
    def test_s_zero_disjoint_masks_annihilate(self, grid):
        op = CommutatorOp(-1, 2, 0.0, grid)
        f = band_limited_field(grid, member_rng(0, 1))
        out = op.apply(_spectrum(f))
        assert np.abs(out.values).max() < 1e-13 * np.abs(f.values).max()

    def test_order_domain(self, grid):
        with pytest.raises(ValueError):
            CommutatorOp(0, 1, 1.0, grid)

    def test_composition_matches_factors(self, grid):
        op = CommutatorOp(0, 1, 0.5, grid)
        f = band_limited_field(grid, member_rng(0, 2))
        step = fractional_laplacian(f, 0.5)
        step = Field(grid, oracles.spatial_mask(grid, 1) * step.values)
        step = fractional_laplacian(step, -0.5)
        step = Field(grid, oracles.spatial_mask(grid, 0) * step.values)
        assert np.abs(op.apply(_spectrum(f)).values - step.values).max() < 1e-14

    def test_adjoint_pairing(self, grid):
        # <A f, g> = <f, A* g>, with apply fed F f and apply_adjoint
        # returning F(A* g)
        op = CommutatorOp(0, 2, 0.5, grid)
        f = band_limited_field(grid, member_rng(0, 3))
        g = band_limited_field(grid, member_rng(0, 4))
        lhs = inner_product(op.apply(_spectrum(f)), g)
        rhs = inner_product(f, _physical(op.apply_adjoint(Field(g.grid, g.values.copy()))))
        assert abs(lhs - rhs) < 1e-10 * max(abs(lhs), 1.0)

    def test_maps_work_in_the_given_array(self, grid):
        op = CommutatorOp(0, 2, 0.5, grid)
        spec = _spectrum(band_limited_field(grid, member_rng(0, 7)))
        av = op.apply(spec)
        assert av.values is spec.values
        assert op.apply_adjoint(av).values is spec.values

    def test_symbols_are_read_only(self, grid):
        # an in-place product that hits a shared factor instead of the
        # iterate must raise, not corrupt every later matvec
        _, _, up, down = CommutatorOp(0, 2, 0.5, grid)._factors
        for symbol in (up, down):
            assert not symbol.flags.writeable
            with pytest.raises(ValueError):
                symbol *= 2.0

    def test_off_shell_input_suppressed(self, grid):
        # data supported away from shell m: output only through |D|^s tails,
        # bounded by the predicted decay value
        op = CommutatorOp(0, 2, 0.5, grid)
        f = band_limited_field(grid, member_rng(0, 5), window=(0.6, 0.9))
        out_norm = l2_norm(op.apply(_spectrum(f)))
        bound = 2.0 ** predicted_exponent(0, 2, 0.5, 3)
        assert out_norm <= 4.0 * bound * l2_norm(f)


class TestOperatorNorm:
    def test_zero_operator(self, grid):
        op = CommutatorOp(-1, 2, 0.0, grid)
        assert operator_norm(op, seed=0) == 0.0

    def test_identity_like_diagonal(self, grid):
        # k = m, s = 0 is multiplication by Q_k^2: norm = max Q_k^2 <= 1
        op = CommutatorOp(0, 0, 0.0, grid)
        est = operator_norm(op, seed=0)
        peak = (oracles.spatial_mask(grid, 0) ** 2).max()
        assert est <= peak + 1e-9
        assert est > 0.95 * peak

    def test_matches_dense_top_singular_value(self):
        # on a 16^2 grid the operator is a 256 x 256 matrix, assembled
        # column by column from the physical unit vectors
        g = Grid(2, 8.0, 16)
        op = CommutatorOp(0, 1, 0.5, g)
        cols = []
        for i in range(g.size):
            e = np.zeros(g.size, complex)
            e[i] = 1.0
            cols.append(op.apply(_spectrum(Field(g, e.reshape(g.shape)))).values.ravel())
        dense = np.linalg.svd(np.array(cols).T, compute_uv=False)[0]
        assert abs(operator_norm(op, seed=0) - dense) <= 1e-10 * dense

    def test_adjoint_norm_agrees(self, grid):
        # ||A|| = ||A*||: estimate the adjoint by iterating the swapped maps
        op = CommutatorOp(0, 2, 0.5, grid)
        fwd = operator_norm(op, seed=1)
        bwd = operator_norm(_Swapped(op), seed=1)
        assert abs(fwd - bwd) / fwd < 1e-9

    @pytest.mark.parametrize("s", [0.5, -0.5, 0.0])
    def test_zero_mode_exact_after_every_adjoint(self, grid, s):
        # |xi|^s vanishes at xi = 0, and at s = 0 the mode is set to 0, so
        # the Lanczos vectors stay mean-zero without a projection
        op = _Counted(CommutatorOp(0, 1, s, grid))
        operator_norm(op, seed=7)
        assert len(op.zero_modes) == op.applies > 1
        assert all(z == 0.0 for z in op.zero_modes)

    def test_one_trial_holds_few_grid_arrays(self, grid):
        # the solve holds three grid buffers: the last two Lanczos vectors
        # and the one the maps work in.  The operator's masks and symbols
        # are built before the trace: they live as long as the operator.
        op = CommutatorOp(0, 2, 0.5, grid)
        op._factors
        tracemalloc.start()
        try:
            operator_norm(op, seed=8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # on top: numpy's cast buffer for the complex-by-real products, and
        # the Python lists of the tridiagonal T and its top Ritz vector
        assert peak <= 3 * 16 * grid.size + 16 * np.getbufsize() + 64 * 1024

    def test_bits_do_not_depend_on_blas_threads(self):
        # the inner products avoid BLAS, whose threaded sums round
        # differently with the thread count
        code = (
            "from smoothlab.commutators import CommutatorOp, operator_norm\n"
            "from smoothlab.grid import Grid\n"
            "op = CommutatorOp(2, 2, -0.5, Grid(3, 8.0, 32))\n"
            "print(operator_norm(op, seed=0).hex())\n"
        )
        src = str(Path(smoothlab.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        out = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads}
            proc = subprocess.run([sys.executable, "-c", code], env=env,
                                  capture_output=True, text=True, check=True)
            out.append(proc.stdout)
        assert out[0] == out[1] != ""


class TestDecayScan:
    def test_s_zero_far_pairs_excluded(self):
        scan = decay_scan(0.0, range(-1, 3), range(-1, 3), dim=3, points=32, seed=0)
        far = [r for r in scan.records if abs(r.k - r.m) >= 3]
        assert far and all(r.measured_log2 == -math.inf for r in far)
        assert all(not r.resolved for r in far)

    def test_monotone_decay_in_separation(self):
        # for fixed k and s = 1/2 the measured norms fall shell by shell
        vals = []
        for d in (3, 4):
            v, res = measure_pair_norm(0, d, 0.5, dim=3, points=64, seed=1)
            assert res
            vals.append(v)
        assert vals[0] > vals[1] > 0

    def test_dilation_covariance_of_reduction(self):
        # the centered reduction assigns one value per (direction, separation)
        a = measure_pair_norm(-3, 0, 0.5, dim=3, points=32, seed=2)
        b = measure_pair_norm(1, 4, 0.5, dim=3, points=32, seed=2)
        assert math.isclose(a[0], b[0], rel_tol=1e-9)

    def test_scan_regression_bookkeeping(self):
        scan = decay_scan(0.5, range(-1, 4), range(-1, 4), dim=3, points=32, seed=3)
        resolved = [r for r in scan.records if r.resolved]
        assert scan.regression_points == len(resolved)
        for r in scan.records:
            assert r.residual == r.measured_log2 - r.predicted_t
        rows = scan.csv_rows()
        assert set(rows[0]) == {"k", "m", "s", "measured_log2", "predicted_t", "residual"}


class TestTopRitzPair:
    """The LAPACK-free top Ritz pair against ``np.linalg.eigh``, which the
    solve used before, on tridiagonals grown one row at a time as in a
    Lanczos solve."""

    @staticmethod
    def _check_every_step(alpha_at, beta_at):
        """Grow T from ``alpha_at(j)`` and ``beta_at(j)``, checking each top
        Ritz pair against eigh and its bracket against the Sturm count;
        returns the thetas."""
        alphas, betas, beta_sq, bracket, thetas = [], [], [0.0], None, []
        for j in range(1, 41):
            alphas.append(alpha_at(j))
            below, theta, vector = _top_ritz_pair(alphas, betas, beta_sq, bracket)
            bracket = below, theta
            t = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
            values, vectors = np.linalg.eigh(t)
            assert below == np.nextafter(theta, -np.inf)
            assert _at_or_above_spectrum(alphas, beta_sq, theta)
            assert not _at_or_above_spectrum(alphas, beta_sq, below)
            assert abs(theta - values[-1]) <= 8 * np.finfo(float).eps * values[-1]
            assert len(vector) == j and math.isclose(math.hypot(*vector), 1.0, rel_tol=1e-14)
            assert abs(abs(vector[-1]) - abs(vectors[-1, -1])) <= 1e-12
            thetas.append(theta)
            beta = beta_at(j)
            betas.append(beta)
            beta_sq.append(beta * beta)
        return thetas

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_eigh_at_every_step(self, seed):
        rng, scale = np.random.default_rng(seed), 10.0**-seed
        self._check_every_step(lambda j: float(rng.uniform(0.5, 1.5)) * scale,
                               lambda j: float(rng.uniform(0.1, 0.5)) * scale)

    def test_matches_eigh_as_the_betas_shrink(self):
        # near a Lanczos stop: the first alpha is on top, the betas fall
        # geometrically to about 1e-9 of the alphas, and theta moves by a
        # few ulps, then not at all, from step to step
        moves = []
        for seed in range(4):
            rng = np.random.default_rng(seed)
            thetas = self._check_every_step(
                lambda j: float(rng.uniform(0.5, 1.5)) * (1.0 if j == 1 else 0.5),
                lambda j: float(rng.uniform(0.1, 0.5)) * 10.0 ** (-9 * j / 40))
            moves += [(b - a) / math.ulp(a) for a, b in zip(thetas, thetas[1:])]
        assert min(moves) >= 0
        assert any(0 < m <= 8 for m in moves)

    def test_last_entry_when_a_new_alpha_rises_above_theta(self):
        # seed 0 of the shrinking-beta tridiagonals: at step 27 the new
        # alpha rises above theta_26 while beta_26 is tiny, so theta's
        # eigenvector is nearly e_27, and a solve from (s_26, 0) gave
        # s_27 = 2.1e-57 against eigh's 0.9999999999996
        rng = np.random.default_rng(0)
        all_alphas = rng.uniform(0.5, 1.5, 40)
        all_betas = rng.uniform(0.1, 0.5, 39) * 10.0 ** (-9 * np.arange(1, 40) / 40)
        betas, beta_sq, bracket = [], [0.0], None
        for j in range(1, 41):
            alphas = all_alphas[:j].tolist()
            below, theta, vector = _top_ritz_pair(alphas, betas, beta_sq, bracket)
            bracket = below, theta
            t = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
            last = abs(np.linalg.eigh(t)[1][-1, -1])
            if last > 1e-8:
                assert abs(abs(vector[-1]) - last) <= 1e-6 * last, j
            if j < 40:
                betas.append(float(all_betas[j - 1]))
                beta_sq.append(betas[-1] ** 2)

    def test_zero_pivot_is_moved_below_zero(self):
        # T = [[1, 1/2], [1/2, 1]] has eigenvalues 0.5 and 1.5; at x = 1 the
        # first pivot is exactly 0, at x = 1.5 the second
        assert not _at_or_above_spectrum([1.0, 1.0], [0.0, 0.25], 1.0)
        assert _at_or_above_spectrum([1.0, 1.0], [0.0, 0.25], 1.5)
        below, theta, _ = _top_ritz_pair([1.0], [], [0.0], None)
        below, theta, vector = _top_ritz_pair([1.0, 1.0], [0.5], [0.0, 0.25], (below, theta))
        assert theta == 1.5 and below == math.nextafter(1.5, -math.inf)
        assert np.allclose(np.abs(vector), math.sqrt(0.5), rtol=0, atol=1e-15)

    def test_one_by_one_is_exact(self):
        # the zero operator stops after one step with theta exactly 0
        assert _top_ritz_pair([0.0], [], [0.0], None)[1:] == (0.0, [1.0])


class _PhysicalOp:
    """Reference maps of the operator on physical fields, composed from the
    masks and fractional Laplacians: ``apply`` is A v = Q_k |D|^{-s} Q_m
    |D|^s v and ``apply_adjoint`` is A* u; neither touches its argument."""

    def __init__(self, op):
        self.grid = op.grid
        self.qk, self.qm = (oracles.spatial_mask(op.grid, j) for j in (op.k, op.m))
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
    F(A u).  A* does not annihilate constants, so the zero mode is kept:
    dropping it would measure ||A* P_0|| for the mean-zero projection P_0,
    2e-3 below ||A|| on the (0, 2) pair at s = 1/2."""

    def __init__(self, op):
        self.op, self.grid = op, op.grid

    @property
    def _factors(self):
        return self.op._factors

    def apply(self, spec):
        return _physical(self.op.apply_adjoint(_physical(spec)))

    def apply_adjoint(self, f):
        return _spectrum(self.op.apply(_spectrum(f)))


def _reference_operator_norm(op, iterations, tol, seed):
    """The power iteration on a physical iterate, from the start
    ``operator_norm`` uses for the same seed: every step forms A*(A v), and
    the convergence test follows it.  Its estimate ||A v|| is the square
    root of a Rayleigh quotient of A*A at a power iterate of the start; the
    top Ritz value over a Krylov space that holds that iterate is at least
    as large."""
    rng = np.random.default_rng(seed)
    grid = op.grid
    v = Field(grid, rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))
    v = mean_zero(v)
    v = Field(grid, v.values * (1.0 / l2_norm(v)))
    est = 0.0
    for _ in range(iterations):
        av = op.apply(v)
        new_est = l2_norm(av)
        w = mean_zero(op.apply_adjoint(av))
        v = Field(grid, w.values * (1.0 / l2_norm(w)))
        if est > 0 and abs(new_est - est) <= tol * est:
            return new_est
        est = new_est
    return est


class _Counted:
    """Duck-typed operator that counts its forward maps and logs the zero
    mode of every adjoint result."""

    def __init__(self, op):
        self.op, self.grid = op, op.grid
        self.applies, self.zero_modes = 0, []

    @property
    def _factors(self):
        return self.op._factors

    def apply(self, f):
        self.applies += 1
        return self.op.apply(f)

    def apply_adjoint(self, f):
        out = self.op.apply_adjoint(f)
        self.zero_modes.append(out.values.flat[0])
        return out


class TestOperatorNormSteps:
    """The Lanczos solve against the power iteration it replaced, and its
    transform count."""

    @pytest.mark.parametrize("case", ["converged", "capped", "swapped"])
    def test_not_below_power_iteration_reference(self, grid, case):
        # a reference that converges, one that runs out of iterations, and
        # one on the adjoint's maps, each from the Lanczos start
        if case == "swapped":
            op = CommutatorOp(1, -1, -0.5, grid)
            fast, slow = _Swapped(op), _PhysicalSwapped(_PhysicalOp(op))
            iterations, tol = 40, 1e-5
        else:
            op = CommutatorOp(0, 2, 0.5, grid)
            fast, slow = op, _PhysicalOp(op)
            iterations, tol = (60, 1e-4) if case == "converged" else (3, 1e-12)
        got = operator_norm(fast, seed=4)
        ref = _reference_operator_norm(slow, iterations, tol, seed=4)
        assert 0 < ref <= got

    def test_transforms_per_solve(self, grid, fft_calls, monkeypatch):
        # one full transform enters the spectrum; each step then runs six
        # transforms, each as one pass per axis on the lines that meet the
        # cube of the mask beside it
        lines = []
        for name in ("fftn", "ifftn"):
            real = getattr(scipy.fft, name)

            def sized(values, *args, _real=real, **kwargs):
                lines.append(values.size // grid.points_per_axis)
                return _real(values, *args, **kwargs)

            monkeypatch.setattr(scipy.fft, name, sized)
        op = _Counted(CommutatorOp(0, 2, 0.5, grid))
        operator_norm(op, seed=6)
        steps = op.applies
        assert 1 < steps < LANCZOS_MAX_STEPS
        maps = ("ifftn", "fftn", "ifftn", "fftn", "ifftn", "fftn")
        assert fft_calls == ["fftn"] + [f"{name}(axes=({ax},))"
                                        for name in maps for ax in range(3)] * steps
        # a transform beside a cube of w points runs N^2 + N w + w^2 lines;
        # shell 0 spans 7 of the 32 points per axis and shell 2 spans 31
        n = grid.points_per_axis
        w0, w2 = (len(range(n)[spatial_mask(grid, k).blocks[0]]) for k in (0, 2))
        assert (w0, w2) == (7, 31)
        per_step = sum(n * n + n * w + w * w for w in (w2, w2, w0, w0, w2, w2))
        assert sum(lines[1:]) == per_step * steps
        assert per_step < 6 * 3 * n * n  # below six full transforms

    def test_steps_per_solve_of_a_small_scan(self, grid, monkeypatch):
        # every stop decision of a small commutator scan at 32^3: a change
        # in how theta_j or s_j is found that moves one moves a count
        import smoothlab.commutators as commutators

        real, steps = commutators.operator_norm, []

        def counted(op, seed):
            op = _Counted(op)
            norm = real(op, seed)
            steps.append(op.applies)
            return norm

        monkeypatch.setattr(commutators, "operator_norm", counted)
        for s in (0.5, -0.5):
            decay_scan(s, range(-1, 3), range(-1, 3), dim=3, points=32, seed=0)
            diagonal_scan(s, range(-1, 3), grid, seed=0)
        assert steps == [8, 7, 10, 28, 43, 62, 8, 10, 10, 27, 41, 64]

    def test_empty_mask_pair_is_not_iterated(self, fft_calls):
        # the pair is centered at (-3, 2), and shell -3 holds no point of
        # the spacing-0.25 grid, so the operator is exactly zero
        assert measure_pair_norm(-3, 2, 0.5, dim=3, points=64, seed=0) == (0.0, False)
        assert fft_calls == []

    def test_symbols_built_at_most_twice(self, grid, monkeypatch):
        import smoothlab.commutators as commutators
        import smoothlab.spectral as spectral

        real, calls = spectral.abs_freq_power, []

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(spectral, "abs_freq_power", counted)
        monkeypatch.setattr(commutators, "abs_freq_power", counted, raising=False)
        op = CommutatorOp(0, 2, 0.5, grid)
        f = band_limited_field(grid, member_rng(0, 6))
        for _ in range(3):
            f = op.apply_adjoint(op.apply(f))
        assert len(calls) <= 2


class TestMaskFetches:
    """An operator is named by its shell pair and grid: it builds the masks
    of its two shells and no other.  Each test starts from an empty cache,
    so that every mask it asks for is a miss."""

    def test_factors_build_two_masks(self, grid):
        _cached_masks.cache_clear()
        qk, qm, _, _ = CommutatorOp(-1, 1, 0.5, grid)._factors
        assert _cached_masks.cache_info().misses == 2
        assert qk.values is spatial_mask(grid, -1).values
        assert qm.values is spatial_mask(grid, 1).values

    def test_measure_pair_norm_builds_at_most_two_masks(self):
        # the (0, 3) pair is centered at (-1, 2); its audit and its
        # operator share the two masks
        _cached_masks.cache_clear()
        norm, resolved = measure_pair_norm(0, 3, 0.5, dim=2, points=64, seed=0)
        assert norm > 0 and resolved
        assert _cached_masks.cache_info().misses <= 2
