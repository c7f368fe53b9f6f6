"""Free and magnetic Schrodinger evolution on the periodic grid.

Sign conventions, fixed once: the equation is ``d/dt u = i Lap_A u + F``
with ``Lap_A = Lap - 2i div(A .) - W`` and ``W = |A|^2 - i div A`` (this is
the expansion of ``sum_j (d_j - i A_j)^2`` for real A; it keeps the flow
formally mass-conserving).  The free propagator therefore multiplies
Fourier coefficients by ``exp(-i t |xi|^2)``.

The forced free flow is integrated by an exact-propagator march with
trapezoid forcing, which telescopes to the global trapezoid Duhamel
quadrature; the magnetic solver Strang-splits the local terms around the
exact spectral step and degenerates to the free march when the potential
vanishes, so the consistency ladder holds to rounding.  The potential is
static, the same A at every time.  Every transform goes through
``spectral``: the free steps through its multipliers, and the divergence
of the magnetic term and the smallness audit's partials through its
derivative, along each axis on the lines that meet the potential's
support, which the potential finds once, when it is made.

Every march steps through its own time grid: it starts from the state it
is given at the first time and steps from each time to the next, and
``duhamel(F)`` answers at F's own sample times.  Each solution is one
preallocated ``(n_times, N^n)`` stack, written in place: a march
overwrites its one state array step by step and copies it into its slot
after every step, and the free flow writes each slice as its inverse
transform is made.  No list of slices is stacked after.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .dyadic import DyadicDecomposition, bump
from .grid import Field, Grid, SpaceTimeField
from .norms import annulus_sup
from .spectral import (
    apply_multiplier_inplace,
    apply_multipliers,
    derivative_inplace,
    l2_norm,
    warn_if_boundary_heavy,
)


#: largest growth of the local stage over one Strang half-step, relative
#: to its input and forcing scale, before the solver gives up
GROWTH_BUDGET = 0.10


class StabilityError(RuntimeError):
    """Raised when a splitting step grows the local stage beyond budget."""


Components = tuple[np.ndarray, ...]

#: a component with its support block: the smallest index slice holding
#: every nonzero sample, the same along every axis (``ShellMask.blocks``)
Supported = tuple[np.ndarray, tuple[slice, ...]]


def _support_block(c: np.ndarray) -> tuple[slice, ...]:
    idx = np.concatenate(np.nonzero(c))
    return (slice(int(idx.min()), int(idx.max()) + 1),)


@dataclass
class MagneticPotential:
    """Static real vector potential A(x): the solver, W and the smallness
    audit all see the same A at every time, and read its ``support``: each
    nonzero component by axis with its support block, found once here."""

    grid: Grid
    components: Components
    support: dict[int, Supported] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        comps = []
        for j, c in enumerate(self.components):
            c = np.asarray(c)
            if np.iscomplexobj(c):
                if np.max(np.abs(c.imag)) > 1e-14 * max(1.0, np.max(np.abs(c.real))):
                    raise ValueError(f"component {j} is not real valued")
                c = c.real
            comps.append(c.astype(float))
        if len(comps) != self.grid.dim:
            raise ValueError(
                f"need {self.grid.dim} components, got {len(comps)}"
            )
        self.components = tuple(comps)
        self.support = {j: (c, _support_block(c)) for j, c in enumerate(comps) if c.any()}


def zero_potential(grid: Grid) -> MagneticPotential:
    return MagneticPotential(grid, tuple(np.zeros(grid.shape) for _ in range(grid.dim)))


def bump_potential(grid: Grid, amplitude: float, shell: int) -> MagneticPotential:
    """Single radial bump on one dyadic shell along the first axis."""
    comps = [np.zeros(grid.shape) for _ in range(grid.dim)]
    comps[0] = amplitude * bump(grid.radius / 2.0**shell)
    return MagneticPotential(grid, tuple(comps))


# ---------------------------------------------------------------------------
# free flow
# ---------------------------------------------------------------------------


def _free_symbol(grid: Grid, t: float) -> np.ndarray:
    phase = -1j * t * grid.freq_radius**2
    return np.exp(phase, out=phase)


def free_evolution(f: Field, times: Sequence[float]) -> SpaceTimeField:
    """Exact spectral free flow of f at each of the times, from one forward
    transform."""
    times = np.asarray(times, dtype=float)
    symbols = (_free_symbol(f.grid, t) for t in times)
    return SpaceTimeField.from_slices(f.grid, times, apply_multipliers(f, symbols))


def _forcing_sampler(F: SpaceTimeField | None) -> Callable[[float], np.ndarray | None]:
    """The forcing at time t, None without forcing: F's own slice at a
    sample time or beyond its ends, and between two samples the linear
    interpolant (1 - w) F_j + w F_{j+1}.  The interpolant is written, in
    that operand order, into one buffer of the sampler, with a second for
    the product w F_{j+1}; the next interpolated sample overwrites it."""
    if F is None:
        return lambda t: None
    times, values = F.times, F.values
    buf = term = None

    def sample(t: float) -> np.ndarray:
        nonlocal buf, term
        if t <= times[0]:
            return values[0]
        if t >= times[-1]:
            return values[-1]
        j = int(np.searchsorted(times, t, side="right") - 1)
        if times[j] == t:
            return values[j]
        if buf is None:
            buf, term = np.empty_like(values[0]), np.empty_like(values[0])
        w = (t - times[j]) / (times[j + 1] - times[j])
        np.multiply(1.0 - w, values[j], out=buf)
        buf += np.multiply(w, values[j + 1], out=term)
        return buf

    return sample


def _march(
    grid: Grid,
    u: np.ndarray,
    times: Sequence[float],
    advance: Callable[[np.ndarray, float, float], None],
) -> SpaceTimeField:
    """March the state u, the state at ``times[0]``, through the increasing
    ``times``, keeping the state at every time in its slot of one
    preallocated stack.  ``advance(u, a, b)`` overwrites the state at a
    with the state at b, so u is the march's own complex array."""
    out = SpaceTimeField(grid, times, np.empty((len(times),) + grid.shape, dtype=np.complex128))
    out.values[0] = u
    for j in range(1, len(times)):
        advance(u, out.times[j - 1], out.times[j])
        out.values[j] = u
    return out


def _march_free_forced(
    grid: Grid,
    u0: np.ndarray,
    F: SpaceTimeField | None,
    times: Sequence[float],
) -> SpaceTimeField:
    """Exact free propagation with trapezoid forcing through the times
    (with F sampled at them, this telescopes to the global trapezoid
    Duhamel quadrature).  A step holds one work array besides the state
    u, which it overwrites, and the free symbol; without forcing it
    propagates u in place."""
    last_h, sym = None, None  # the free symbol of the latest step length
    sample = _forcing_sampler(F)

    def advance(u: np.ndarray, a: float, b: float) -> None:
        nonlocal last_h, sym
        h = b - a
        if h != last_h:
            last_h, sym = h, _free_symbol(grid, h)
        if F is None:
            apply_multiplier_inplace(u, sym)
            return
        # u_b = S_h (u_a + h/2 F_a) + h/2 F_b, each sum taken in place
        work = 0.5 * h * sample(a)
        work += u
        apply_multiplier_inplace(work, sym)
        np.multiply(0.5 * h, sample(b), out=u)
        u += work

    return _march(grid, u0, times, advance)


def duhamel(F: SpaceTimeField) -> SpaceTimeField:
    """int_{t_0}^t exp(i (t-s) Lap) F(s) ds at each of F's sample times t,
    trapezoid in s, from zero state at F's first sample time t_0."""
    heaviest = int(np.argmax([np.abs(s).max() for s in F.values]))
    warn_if_boundary_heavy(F.slice(heaviest), "duhamel forcing")
    zero = np.zeros(F.grid.shape, dtype=np.complex128)
    return _march_free_forced(F.grid, zero, F, F.times)


# ---------------------------------------------------------------------------
# effective scalar potential and the smallness audit
# ---------------------------------------------------------------------------


def _divergence(grid: Grid, terms: dict[int, Supported]) -> np.ndarray:
    """Spectral divergence sum_j d_j v_j over the given axes, returned in
    the first term's array.  Each v_j is a complex array that vanishes off
    its block and is overwritten with its derivative, whose passes run only
    on the lines that meet the block.  The callers pass a potential's
    ``support``, which leaves out identically-zero components: their term
    is exactly zero, and x + 0 == x."""
    div = None
    for j, (v, blocks) in terms.items():
        derivative_inplace(v, grid, j, blocks)
        if div is None:
            div = v
        else:
            div += v
    return div


def effective_scalar_potential(A: MagneticPotential) -> np.ndarray:
    """W = |A|^2 - i div A on the grid of A, summed over its support."""
    grid = A.grid
    w = np.zeros(grid.shape, dtype=np.complex128)
    for c, _ in A.support.values():
        w += c.astype(complex) ** 2
    if A.support:  # a vanishing A has div A = 0
        w -= 1j * _divergence(grid, {j: (c.astype(complex), b) for j, (c, b) in A.support.items()})
    return w


def smallness_audit(A: MagneticPotential, decomp: DyadicDecomposition) -> float:
    """Scale-invariant weighted sup budget of a magnetic potential:
    max_j sum_k sum_{|beta|<=1} 2^(k(1+|beta|)) sup_{annulus k} |D^beta A_j|
    over the support's A_j, each partial taken on the lines of A_j's block."""
    grid = A.grid
    sums = []
    for c, block in A.support.values():
        grad = [derivative_inplace(c.astype(complex), grid, j, block) for j in range(grid.dim)]
        terms = []
        for k in decomp.shells:
            term = 2.0**k * annulus_sup(c, grid, k)
            for d in grad:
                term += 2.0 ** (2 * k) * annulus_sup(d, grid, k)
            terms.append(term)
        sums.append(sum(terms))
    return max(sums, default=0.0)


# ---------------------------------------------------------------------------
# magnetic solver
# ---------------------------------------------------------------------------


def _local_rhs(
    grid: Grid,
    u: np.ndarray,
    support: dict[int, Supported],
    iw: np.ndarray,
    f_vals: np.ndarray | None,
) -> np.ndarray:
    """i times the non-Laplacian part of Lap_A, plus forcing:
    2 div(A u) - i W u + F, over the potential's ``support``, with ``iw``
    = i W and no F for None; the terms are combined in place in that
    order.  Each A_j u vanishes off A_j's block, so its derivative runs on
    that block's lines."""
    rhs = _divergence(grid, {j: (c * u, b) for j, (c, b) in support.items()})
    rhs *= 2.0
    rhs -= iw * u
    if f_vals is not None:
        rhs += f_vals
    return rhs


def magnetic_solve(
    f: Field,
    A: MagneticPotential,
    F: SpaceTimeField | None,
    times: Sequence[float],
    dt: float | None = None,
) -> SpaceTimeField:
    """Strang-split magnetic evolution through the times from
    u(times[0]) = f.

    Each step takes a midpoint-rule half-step of the local terms, an exact
    spectral Laplacian step, and a second local half-step (order 2).  A
    vanishing potential degenerates to the exact forced free march.  The
    non-zero components of a non-vanishing one and their support blocks
    are found once per potential (``MagneticPotential.support``), and only
    they are multiplied and differentiated, each along its own axis on the
    lines that meet its block; so a single-axis potential costs 10
    axis-pass transform calls per step, 8 of them on its support's lines
    and the forward/inverse pair of the spectral step over the whole grid.
    The forcing samples between F's times are written into one buffer of
    the solve.  Growth of the local stage beyond ``GROWTH_BUDGET`` per step
    raises StabilityError naming the step.
    """
    grid = f.grid
    warn_if_boundary_heavy(f, "magnetic_solve initial data")
    if not A.support:
        return _march_free_forced(grid, f.values.copy(), F, times)
    if dt is None:
        dt = 0.5 * grid.spacing**2

    iw = np.multiply(1j, effective_scalar_potential(A))
    sample = _forcing_sampler(F)

    def local_half(u: np.ndarray, t_a: float, t_b: float) -> None:
        # overwrites u with one midpoint-rule step of the local terms
        tau = t_b - t_a
        mid = _local_rhs(grid, u, A.support, iw, sample(t_a))
        mid *= 0.5 * tau
        mid += u
        f_mid = sample(0.5 * (t_a + t_b))
        step = _local_rhs(grid, mid, A.support, iw, f_mid)
        step *= tau
        scale = l2_norm(Field(grid, u))
        if f_mid is not None:
            scale += 2.0 * tau * l2_norm(Field(grid, f_mid))
        u += step
        if scale > 0 and l2_norm(Field(grid, u)) > (1.0 + GROWTH_BUDGET) * scale:
            raise StabilityError(
                f"local stage grew beyond {1 + GROWTH_BUDGET:.2f}x during "
                f"[{t_a:.6g}, {t_b:.6g}]; reduce the step size"
            )

    last_h, sym = None, None  # the free symbol of the latest step length

    def advance(u: np.ndarray, a: float, b: float) -> None:
        nonlocal last_h, sym
        n_steps = max(1, math.ceil((b - a) / dt - 1e-12))
        h = (b - a) / n_steps
        if h != last_h:
            last_h, sym = h, _free_symbol(grid, h)
        t = a
        for _ in range(n_steps):
            local_half(u, t, t + 0.5 * h)
            apply_multiplier_inplace(u, sym)
            local_half(u, t + 0.5 * h, t + h)
            t += h

    return _march(grid, f.values.copy(), times, advance)
