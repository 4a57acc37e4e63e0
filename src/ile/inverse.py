"""Planner: recover internal-state weights from target line coefficients.

The coefficients C_n^k generated by weights p_i are, up to scale, the
coefficients of the polynomial prod_i [(1 + p_i) + (1 - p_i) z]; writing
x = (p - 1)/(p + 1), every weight shows up as a root of

    sum_k  C_n^{n-k} x^k  =  0.

By unique factorization the weight multiset is fixed up to order, which does
not change the coefficients, so one eigenvalue solve of the companion pencil
gives the whole realization.  The roots are used as they come: they are
backward stable in the coefficients, while a Newton step spoils repeated
roots (for (1, 2, 1) it raises the forward residual from 2e-16 to 2e-9).

A vanishing edge coefficient is one more root of the same pencil, solved in
homogeneous form (num, den): a zero leading coefficient gives den = 0, the
weight p = -1, and a zero trailing one gives num = 0, p = +1.  A root at
x = 1 means p = infinity, an internal state that is pure |0>, which no finite
weight sequence produces; such targets are rejected explicitly.

Measured range: random targets with weights r ~ U(0.2, 2) of random phase
solve to a forward residual below 1e-9 up to n = 112 (10 targets per n; worst
residual 4.6e-13 at n = 80, 1.3e-12 at n = 96, 1.6e-12 at n = 112).  Past
that 3 of 30 targets fail at n = 128, 11 of 30 at n = 144.  The roots are
still accurate there; the residual check is not.  It rebuilds the line from
the weights sorted by (real, imag), and the partial products of neighbouring
factors grow by about 2^n before they cancel, so rounding in the rebuilt
line, not in the roots, passes 1e-9: x^64 + 1 is refused with residual
2.5e-4.

The pencil is solved by QZ: LAPACK's ``zggev``, called as
``scipy.linalg.eigvals(a, b, homogeneous_eigvals=True)`` calls it, from
scipy's compiled wrapper ``scipy.linalg._flapack`` loaded on its own (see
:func:`_qz_eigvals`), so ``plan`` never runs the ``scipy.linalg`` package
init, about 0.43 s of CPU.  Three numpy-only replacements were tried, and
each failed a target that QZ solves:

1. A Cayley transform at the pole, ``eigvals(solve(B - A, A + B))``, which
   gives p directly: a target with one root at x = 1 + 2e-9 (p near -1e9)
   is refused with a residual near 1e-7, where QZ reaches 3e-16.
2. A balanced companion matrix, dividing by the larger edge coefficient:
   tiny-edge targets such as ``[0, 1j, 1j, 5.2e-121j]`` give residual 0.71,
   and a subnormal edge overflows the companion.
3. A Moebius shift of x to the unit-circle point of largest |P|: one of the
   n = 112 frontier targets is refused at residual 1.13e-9, and the
   balanced cat loses its exact weights +-1.

Also here: ``fit_target``, the least-squares fit of an arbitrary number-basis
state by a line superposition over a fixed component grid.  The grid's Gram
matrix depends on the lag between components alone, and up to a diagonal
phase it is the real Gaussian Toeplitz matrix exp(-2 d^2 |beta|^2), so the
regularized solve is one real symmetric eigensolve.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass

import numpy as np

from .errors import SolverError, check_memory, count, finite_complex, frozen_array
from .fock import FockVector, _unit_parts, coherent_blocks, norm
from .protocol import LineSuperposition, scaled_coeffs, success_probability_nominal

__all__ = [
    "TargetCoefficients",
    "WeightSolution",
    "solve_weights",
    "fit_target",
]

_POLE_GUARD_TOL = 1e-9  # rejection radius around the x = 1 pole of the weight map
_RESIDUAL_TOL = 1e-9  # largest accepted relative forward-reconstruction error
# Memory of one solve, refused up front past the 1 GiB budget, in n x n
# arrays alive at once: 6.1 complex ones for the companion pencil, its LAPACK
# copies and workspace (tracemalloc peaks at n = 500 and 1000); 5.1 real ones for
# fit_target's (n + 1)-square Toeplitz kernel, LAPACK's copy and workspace
# and the eigenvectors (peak RSS at n = 1000-3000; tracemalloc, which does
# not see LAPACK's buffers, counts 3.0).
_LIVE_PENCILS = 7
_LIVE_GRAMS = 6
_FLAPACK = "scipy.linalg._flapack"  # the module name scipy's own lapack wrappers import


@dataclass(frozen=True)
class TargetCoefficients:
    """Desired line coefficients, projective: only the ray matters."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = frozen_array(self.coeffs, "coeffs")
        if not np.any(c != 0):
            raise ValueError("coefficients must not all vanish")
        object.__setattr__(self, "coeffs", c)

    @property
    def n(self) -> int:
        return self.coeffs.size - 1


@dataclass(frozen=True)
class WeightSolution:
    """The realization: weights, their nominal success probability, and the
    relative forward-reconstruction error against the target."""

    weights: np.ndarray
    p_nominal: float
    residual: float

    def __post_init__(self):
        object.__setattr__(self, "weights", frozen_array(self.weights, "weights"))


def solve_weights(target: TargetCoefficients) -> list[WeightSolution]:
    """The weight realization of the target, as a one-element list.

    The pencil reads the target over the power of two of its largest part,
    then over its largest modulus, so any finite target is in range, and
    is solved by QZ (:func:`_qz_eigvals`, the roots of
    ``scipy.linalg.eigvals`` bit for bit).  The weights are sorted by
    (real, imag).  A root at the x = 1 pole, a QZ failure, or a relative
    forward-reconstruction error above 1e-9 raises :class:`SolverError`,
    and so does a target whose pencil would pass the 1 GiB memory budget,
    before it is built.  The reconstruction is the
    weights' line as :func:`ile.protocol.scaled_coeffs` carries it; the
    residual is projective, so its power-of-two scale drops out and the
    check holds at any length.  Built in the sorted order, its partial
    products grow by about 2^n before they cancel, which is what refuses
    accurate roots past n = 112 (see the module docstring).
    """
    if target.n < 1:
        raise ValueError("need at least two coefficients (one weight to solve for)")
    check_memory(16 * _LIVE_PENCILS * target.n**2, f"{target.n}-square companion pencil needs")
    c = _unit_parts(target.coeffs)[0]
    c = c / np.max(np.abs(c))

    # Roots x = a/b of the pencil A - x B: A has first row -c[1:] and ones
    # below the diagonal, B = diag(c[0], 1, ..., 1).  Unlike np.roots this
    # never divides by c[0], so a tiny or zero edge coefficient leaves the
    # other roots accurate, and p = (b + a)/(b - a) needs no huge x.
    a = np.eye(target.n, k=-1, dtype=np.complex128)
    a[0] = -c[1:]
    b = np.eye(target.n, dtype=np.complex128)
    b[0, 0] = c[0]
    num, den = _qz_eigvals(a, b)
    if np.any(np.abs(num - den) <= _POLE_GUARD_TOL * np.abs(den)):
        raise SolverError(
            "no weight realization: a root sits at the x = 1 pole (target needs a "
            "pure-|0> preparation, outside the finite-weight family)"
        )
    weights = np.sort_complex((den + num) / (den - num))

    recon = scaled_coeffs(weights)[0]  # the ray of forward_coeffs, in range at any length
    s = np.vdot(recon, c) / np.vdot(recon, recon)
    residual = float(np.linalg.norm(s * recon - c) / np.linalg.norm(c))
    if not residual <= _RESIDUAL_TOL:
        raise SolverError(f"no weight realization within tolerance: residual {residual:.3e}")
    return [WeightSolution(weights, success_probability_nominal(weights), residual)]


def _qz_eigvals(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Homogeneous eigenvalues (num, den) of the pencil A - x B by LAPACK's
    QZ driver ``zggev``, in the two calls ``scipy.linalg.eigvals(a, b,
    homogeneous_eigvals=True)`` makes: a workspace query at the default
    flags, then the eigenvalues alone with that workspace.  So the roots
    are scipy's bit for bit.

    The wrapper comes from ``sys.modules`` or, the first time, from its
    extension file in scipy's ``linalg`` folder, registered under its own
    name.  ``import scipy`` runs first: it is lazy and loads no subpackage,
    but sets up what the compiled wrappers need (scipy's bundled-library
    search path on Windows wheels).  The ``scipy.linalg`` package init
    never runs here, and a later ``import scipy.linalg`` reuses this
    module.  A LAPACK failure (``info != 0``) raises :class:`SolverError`."""
    module = sys.modules.get(_FLAPACK)
    if module is None:
        import scipy  # here, so commands that never solve a pencil never load scipy

        spec = importlib.machinery.PathFinder.find_spec(_FLAPACK, [os.path.join(scipy.__path__[0], "linalg")])
        module = importlib.util.module_from_spec(spec)
        sys.modules[_FLAPACK] = module
        spec.loader.exec_module(module)
    zggev = module.zggev
    lwork = zggev(a, b, lwork=-1)[-2][0].real.astype(np.int_)
    num, den, _, _, _, info = zggev(a, b, compute_vl=0, compute_vr=0, lwork=lwork)
    if info != 0:
        raise SolverError(f"QZ solve of the companion pencil failed (LAPACK zggev info {info})")
    return num, den


def _component_overlaps(target: FockVector, labels, phases) -> np.ndarray:
    """<phases[k] |labels[k]> | target> for every grid component k: one
    product of each block of :func:`ile.fock.coherent_blocks` with the
    conjugated target.  A far component's truncated state still gives the
    exact overlap: the target has no amplitude above its cutoff."""
    amps = np.conj(target.amps)
    sums = np.concatenate([block @ amps for block in coherent_blocks(labels, target.cutoff)])
    return np.conj(phases * sums)


def fit_target(
    target: FockVector, n: int, alpha: complex, beta: complex
) -> tuple[TargetCoefficients, float]:
    """Best line-superposition approximation of a number-basis target.

    Components sit on the fixed grid alpha + (2k - n) beta, k = 0..n.  The
    optimal coefficients are c = T^+ v with T the Gram matrix of the phased
    components D((2k - n) beta)|alpha> and v their overlaps with the target.
    T[j, k] = line_overlaps(alpha, 2 beta, n)[n + k - j] is Toeplitz and
    factors as Q^H K Q: K[j, k] = exp(-2 (j - k)^2 |beta|^2) is real, and
    Q = diag(q) holds the unit phases e^{i (2k - n) theta / 2},
    theta = 4 Im(conj(alpha) beta).  So the pseudo-inverse comes from one
    real symmetric eigensolve of K, with its eigenvalues floored at 1e-12 of
    the largest (at least 1: K has a unit diagonal), which is what makes
    tightly spaced grids (|beta| small) usable at all.

    Returns the coefficients and the fidelity of the line superposition they
    define, taken from the same eigen-decomposition.  Where the floor acts
    that fidelity can be up to 3.5e-6 off, as measured for dense targets on
    tight grids: the floored eigenvalues carry absolute errors near eps times
    the largest, and the spectral sums weight them by inv^2.  The fidelity
    is invariant under global phase and scale of the target and never
    decreases, up to the floor, when the grid is enlarged from n to n + 2
    (the component set then nests).  A grid whose arrays would pass the
    1 GiB memory budget raises :class:`SolverError` before any is built.
    """
    n = count(n, "n", 0)
    alpha, beta = finite_complex(alpha, "alpha"), finite_complex(beta, "beta")
    if beta == 0:
        raise ValueError("beta must be nonzero; the component grid would collapse")
    # the fit is projective: fit the target scaled into range by a power of two
    units, exp2 = _unit_parts(target.amps)
    target = FockVector(units)
    tn = norm(target)
    if tn == 0.0:
        raise ValueError("target must be nonzero")
    check_memory(8 * _LIVE_GRAMS * (n + 1) ** 2, f"{n + 1}-square component Gram needs")

    grid = LineSuperposition(alpha, beta, np.ones(n + 1))
    with np.errstate(over="ignore", invalid="ignore"):
        labels = grid.labels()
        if not np.all(np.isfinite(np.abs(labels) ** 2)):
            raise SolverError("component |label|^2 is not finite; the grid lies past float range")
        lags = np.exp(-2.0 * (np.arange(n + 1) * abs(beta)) ** 2)  # past float range: 0
    phases = grid.phased_coeffs()  # q = phases^2

    k = np.arange(n + 1)
    evals, evecs = np.linalg.eigh(lags[abs(k[:, None] - k)])  # K[j, k] = lags[|j - k|]
    inv = 1.0 / np.maximum(evals, 1e-12 * evals[-1])
    w = evecs.T @ (phases**2 * _component_overlaps(target, labels, phases))  # U^T Q v
    c = np.conj(phases) ** 2 * (evecs @ (inv * w))
    with np.errstate(over="ignore"):
        c = np.ldexp(c.view(np.float64), exp2).view(np.complex128)
    if not np.all(np.isfinite(c)):
        raise SolverError("regularized Gram solve overflowed; increase |beta|")
    if not np.any(c != 0):
        raise SolverError("target is orthogonal to every grid component; move the grid")
    # <fit|target> = sum inv |w|^2 and <fit|fit> = sum evals inv^2 |w|^2,
    # both in units of |target|^2; they differ only where the floor acts.
    a = np.abs(w / tn) ** 2
    overlap, fit_sq = np.sum(inv * a), np.sum(evals * inv**2 * a)
    fidelity = float(np.clip(overlap**2 / fit_sq, 0.0, 1.0)) if fit_sq > 0 else 0.0
    return TargetCoefficients(c), fidelity
