"""Exact discrete kernel operator on sequences over Z, as a dense window matrix.

The kernel is t_{k,m} = 2^(m lambda) 2^(k mu) 2^(-beta max(m,k)), summed
over |k - m| >= 4.  ``kernel_matrix`` samples it on a finite input window
and a padded output window; everything here is a finite sum in double
precision.  The boundedness certificates check that exact unweighted
l^q -> l^q window operator norms settle as the window grows, and compare
flat-input outputs (the row sums of the matrix) against exact
geometric-series values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .harness import relative_drift

SEPARATION = 4  # the kernel sums over |k - m| >= 4
#: output indices added on each side of the input window; the kernel
#: tails beyond decay geometrically
OUTPUT_PAD = 16
#: largest relative change between the last two window norms that still
#: counts as settled
STABILITY_TOL = 0.05


@dataclass(frozen=True)
class KernelSpec:
    """Kernel exponents (lambda, mu, beta); beta = lambda + mu certifies
    boundedness, beta below that is the divergent control case."""

    lam: float
    mu: float
    beta: float


def kernel_matrix(spec: KernelSpec, window: int) -> np.ndarray:
    """Dense kernel matrix T[m, k] = t_{k,m} on input window [-K, K], output
    window [-K - OUTPUT_PAD, K + OUTPUT_PAD]; row i is output index
    m = i - K - OUTPUT_PAD.  The entries are non-negative."""
    ks = np.arange(-window, window + 1)
    ms = np.arange(-window - OUTPUT_PAD, window + OUTPUT_PAD + 1)
    M, K = np.meshgrid(ms, ks, indexing="ij")
    T = 2.0 ** (M * spec.lam + K * spec.mu - spec.beta * np.maximum(M, K))
    T[np.abs(M - K) < SEPARATION] = 0.0
    return T


# ---------------------------------------------------------------------------
# boundedness probes across windows
# ---------------------------------------------------------------------------


def window_operator_norm(spec: KernelSpec, q: float, window: int) -> float:
    """Exact unweighted l^q -> l^q norm of the kernel on a window, for
    q in {1, 2, inf}.

    q = 1 and q = inf use the column / row sum formulas; q = 2 is the
    largest singular value of the window matrix.  Any other q raises
    ``ValueError``.
    """
    if not (q in (1, 2) or math.isinf(q)):
        raise ValueError(f"q must be 1, 2 or inf, got {q}")
    T = kernel_matrix(spec, window)
    if q == 1:
        return float(np.abs(T).sum(axis=0).max())
    if math.isinf(q):
        return float(np.abs(T).sum(axis=1).max())
    return float(np.linalg.norm(T, 2))


@dataclass
class BoundProbe:
    """Stability report for one (spec, q) probe across windows."""

    spec: KernelSpec
    q: float
    windows: tuple[int, ...]
    estimates: tuple[float, ...]
    drifts: tuple[float, ...]
    stable: bool

    def rows(self) -> list[dict]:
        out = []
        for i, (K, est) in enumerate(zip(self.windows, self.estimates)):
            out.append(
                {
                    "lam": self.spec.lam,
                    "mu": self.spec.mu,
                    "beta": self.spec.beta,
                    # unweighted probe; the zero weights keep the results.csv layout
                    "sigma": 0.0,
                    "nu": 0.0,
                    "q": self.q,
                    "K": K,
                    "estimate": est,
                    "drift": self.drifts[i - 1] if i > 0 else math.nan,
                }
            )
        return out


def bound_probe(
    spec: KernelSpec,
    q: float,
    window_sizes: Sequence[int],
) -> BoundProbe:
    """Probe the window operator norms and declare stability when the last
    consecutive pair of estimates differs by less than ``STABILITY_TOL``.
    """
    estimates = [window_operator_norm(spec, q, K) for K in window_sizes]
    drifts = [relative_drift(b, a) for a, b in zip(estimates[:-1], estimates[1:])]
    stable = bool(drifts) and drifts[-1] < STABILITY_TOL
    return BoundProbe(spec, q, tuple(window_sizes), tuple(estimates), tuple(drifts), stable)


def geometric_row_value(window: int) -> float:
    """Exact sup-norm gain for lambda = mu = 1/2, beta = 1 with a == 1 on
    [-K, K]: the symmetric kernel row sum 2 sum_{j=4}^{K} 2^(-j/2)."""
    r = 2.0**-0.5
    return 2.0 * (r**SEPARATION - r ** (window + 1)) / (1.0 - r)


GEOMETRIC_ONE_SIDED = 0.25 / (1.0 - 2.0**-0.5)  # = 0.8535533905932737
