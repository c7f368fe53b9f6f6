import math

import pytest

from oracles import geometric_edge_value
from smoothlab.discrete import (
    GEOMETRIC_ONE_SIDED,
    OUTPUT_PAD,
    KernelSpec,
    bound_probe,
    geometric_row_value,
    kernel_matrix,
    window_operator_norm,
)
from smoothlab.dyadic import seq_norm

SPEC = KernelSpec(0.5, 0.5, 1.0)


class TestKernelApply:
    def test_impulse_response(self):
        # column k = 0 is the output of the impulse at 0
        K = 12
        b = dict(zip(range(-K - OUTPUT_PAD, K + OUTPUT_PAD + 1), kernel_matrix(SPEC, K)[:, K]))
        for m in range(-12, 13):
            expected = 2.0 ** (-abs(m) / 2) if abs(m) >= 4 else 0.0
            assert abs(b[m] - expected) < 1e-15
        assert seq_norm(b, math.inf, 0.0) == 0.25


class TestBoundProbe:
    def test_flat_input_geometric_values(self):
        K = 64
        flat_out = kernel_matrix(SPEC, K).sum(axis=1)
        sup = flat_out.max()
        assert abs(sup - geometric_row_value(K)) < 1e-12
        assert abs(sup - 2 * GEOMETRIC_ONE_SIDED) < 1e-6
        assert sup == window_operator_norm(SPEC, math.inf, K)
        edge = flat_out[OUTPUT_PAD]  # output index -K
        assert abs(edge - geometric_edge_value(K)) < 1e-12
        assert abs(edge - GEOMETRIC_ONE_SIDED) < 1e-6

    def test_q1_column_sums_uniform(self):
        # column sums are the exact l1 -> l1 norm and stay bounded in K
        vals = [window_operator_norm(SPEC, 1, K) for K in (8, 16, 32, 64)]
        assert vals[-1] <= 2 * GEOMETRIC_ONE_SIDED + 1e-9
        assert abs(vals[-1] - vals[-2]) / vals[-2] < 0.05

    @pytest.mark.parametrize("lam,mu", [(0.5, 0.5), (1.0, 0.25), (0.25, 1.0)])
    @pytest.mark.parametrize("q", [1, 2, math.inf])
    def test_certificate_stabilizes(self, lam, mu, q):
        probe = bound_probe(KernelSpec(lam, mu, lam + mu), q, (8, 16, 32, 64))
        assert probe.stable
        assert probe.drifts[-1] < 0.05
        # the probe is unweighted; its rows keep zero sigma and nu cells
        assert all(row["sigma"] == 0.0 and row["nu"] == 0.0 for row in probe.rows())

    def test_q_domain(self):
        with pytest.raises(ValueError):
            window_operator_norm(SPEC, 0.5, 8)
        # only q = 1, 2 and inf have an exact window formula; q = 3 must
        # not return the q = 2 value
        with pytest.raises(ValueError):
            window_operator_norm(SPEC, 3, 8)

    def test_divergence_when_beta_small(self):
        bad = KernelSpec(0.5, 0.5, 0.9)
        vals = [window_operator_norm(bad, math.inf, K) for K in (8, 16, 32, 64)]
        assert all(b > a for a, b in zip(vals[:-1], vals[1:]))
        assert vals[-1] > 10 * vals[0]
