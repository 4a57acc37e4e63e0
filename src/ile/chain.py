"""Linear ion-crystal structure: equilibrium positions, longitudinal normal
modes, and per-ion sideband coupling strengths.

Everything is dimensionless: lengths in the Coulomb-harmonic length scale,
frequencies in units of the single-ion axial frequency (so the lowest mode
sits exactly at 1), times in the inverse of that frequency.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SolverError, as_array, count, frozen_array, positive

__all__ = [
    "ChainGeometry",
    "ModeTable",
    "potential_gradient",
    "equilibrium_positions",
    "normal_modes",
    "lamb_dicke",
]

_GRAD_TOL = 1e-10


def potential_gradient(positions) -> np.ndarray:
    """Gradient of V(u) = sum u_i^2/2 + sum_{i<j} 1/|u_i - u_j|."""
    return _gradient(as_array(positions, "positions", float))[0]


def _gradient(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The gradient of V at ``u`` and the matrix of pairwise differences
    u_i - u_j (inf on the diagonal) it was taken from."""
    d = u[:, None] - u[None, :]
    np.fill_diagonal(d, np.inf)
    return u - np.sum(np.sign(d) / d**2, axis=1), d


def _pair_field(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The gradient of V at ``u`` and the table 1/|u_i - u_j|^3 (zero on the
    diagonal) the Hessian reads, from the one difference matrix of :func:`_gradient`."""
    g, d = _gradient(u)
    return g, 1.0 / np.abs(d) ** 3


def _hessian(inv3: np.ndarray) -> np.ndarray:
    """Hessian of V from the inverse-cube table of :func:`_pair_field`."""
    h = -2.0 * inv3
    np.fill_diagonal(h, 1.0 + 2.0 * inv3.sum(axis=1))
    return h


@dataclass(frozen=True)
class ChainGeometry:
    """Equilibrium coordinates of the crystal, ascending along the trap axis."""

    positions: np.ndarray

    def __post_init__(self):
        u = frozen_array(self.positions, "positions", float)
        if u.size > 1 and not np.all(np.diff(u) > 0):
            raise ValueError("positions must be strictly ascending")
        if np.max(np.abs(u + u[::-1])) > 1e-10:
            raise ValueError("positions must be antisymmetric about the trap centre")
        if np.max(np.abs(potential_gradient(u))) > _GRAD_TOL:
            raise ValueError("positions are not an equilibrium of the chain potential")
        object.__setattr__(self, "positions", u)

    @property
    def n_ions(self) -> int:
        return self.positions.size


@dataclass(frozen=True)
class ModeTable:
    """Longitudinal normal modes: frequencies (ascending, units of the axial
    frequency) and orthonormal mode vectors, column l = mode l.

    The lowest mode is the in-phase (centre-of-mass) mode; its frequency is
    exactly 1 and its vector exactly uniform; the table refuses other values
    and complex data, so every ion displaces the COM mode alike and each
    mode's displacements are real multiples of one amplitude.
    """

    frequencies: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        mu = frozen_array(self.frequencies, "frequencies", float)
        b = frozen_array(self.vectors, "vectors", float, ndim=2)
        n = mu.size
        if b.shape != (n, n):
            raise ValueError("vectors must be an N x N table matching frequencies")
        if np.any(np.diff(mu) < 0):
            raise ValueError("frequencies must be ascending")
        if mu[0] != 1.0:
            raise ValueError("lowest mode frequency must equal 1 (in-phase mode)")
        if np.max(np.abs(b.T @ b - np.eye(n))) > 1e-10:
            raise ValueError("mode vectors must be orthonormal")
        if np.any(b[:, 0] != 1.0 / np.sqrt(n)):
            raise ValueError("lowest mode vector must be exactly 1/sqrt(N)")
        object.__setattr__(self, "frequencies", mu)
        object.__setattr__(self, "vectors", b)

    @property
    def n_ions(self) -> int:
        return self.frequencies.size


def _line_search(u: np.ndarray, step: np.ndarray, gmax: float):
    """The first of u + step, u + step/2, ... that keeps the ions ordered and
    lowers max|gradient| below ``gmax``, as (positions, gradient, inverse
    cubes, max|gradient|).  At ``gmax <= _GRAD_TOL`` the gradient is at its
    rounding floor: None once the full and the half step are rejected (the
    half step is accepted there at N = 60, shorter ones never by N <= 64).
    SolverError after 60 tries."""
    lam = 1.0
    for _ in range(60):
        trial = u + lam * step
        if np.all(np.diff(trial) > 0):
            g, inv3 = _pair_field(trial)
            gmax_trial = np.max(np.abs(g))
            if gmax_trial < gmax:
                return trial, g, inv3, gmax_trial
        if gmax <= _GRAD_TOL and lam <= 0.5:
            return None
        lam *= 0.5
    raise SolverError(f"equilibrium line search stalled at max|gradient| = {gmax:.3e}")


def equilibrium_positions(n_ions: int) -> ChainGeometry:
    """Equilibrium of the chain potential for 1 <= N <= 64 ions.

    Up to three ions the equilibrium has a closed form (James, Appl. Phys. B
    66, 181 (1998)): 0; +-4^(-1/3); 0 and +-(5/4)^(1/3).  From four ions on a
    damped Newton iteration minimises the potential, starting from uniform
    spacing over a span 2 N^0.56.  Each trial step evaluates the pairwise
    field once (:func:`_pair_field`), and the accepted trial's gradient and
    inverse-cube table serve the next step.  Steps are halved until they
    preserve the ion ordering and lower max|gradient|.  The iteration stops
    at max|gradient| <= 1e-13, or at the rounding floor: a rejected full and
    half step once max|gradient| <= 1e-10.  ``ChainGeometry`` checks the
    gradient of every result.
    """
    if (n_ions := count(n_ions, "n_ions", 1)) > 64:
        raise ValueError("n_ions must lie in 1..64")
    if n_ions == 1:
        return ChainGeometry(np.zeros(1))
    if n_ions == 2:
        a = 4.0 ** (-1.0 / 3.0)
        return ChainGeometry(np.array([-a, a]))
    if n_ions == 3:
        a = 1.25 ** (1.0 / 3.0)
        return ChainGeometry(np.array([-a, 0.0, a]))
    u = np.linspace(-1.0, 1.0, n_ions) * n_ions**0.56
    g, inv3 = _pair_field(u)
    gmax = np.max(np.abs(g))
    for _ in range(200):
        if gmax <= 1e-13:
            break
        accepted = _line_search(u, np.linalg.solve(_hessian(inv3), -g), gmax)
        if accepted is None:
            break
        u, g, inv3, gmax = accepted
    else:
        raise SolverError(
            f"equilibrium iteration budget exhausted, max|gradient| = {gmax:.3e}"
        )
    # The potential is reflection symmetric; remove the solver's rounding skew.
    u = 0.5 * (u - u[::-1])
    return ChainGeometry(u)


def normal_modes(geometry: ChainGeometry) -> ModeTable:
    """Diagonalise the Hessian of the chain potential at equilibrium.

    Frequencies are square roots of the eigenvalues.  Mode vectors carry the
    sign convention that the first entry above 1e-10 in magnitude is
    positive, so downstream coupling signs are reproducible across platforms.
    The Hessian is I + 2L, L the Laplacian of the complete graph with the
    positive weights 1/|u_i - u_j|^3, so at any distinct positions the
    uniform vector spans the simple lowest eigenvalue 1 (solved to within
    3.5e-14 at N = 1..64), stored exactly rather than as the solver's
    rounding; eigenvalues closer than 1e-6 raise :class:`SolverError`.
    """
    n = geometry.n_ions
    h = _hessian(_pair_field(geometry.positions)[1])
    evals, evecs = np.linalg.eigh(h)
    if n > 1 and np.min(np.diff(evals)) < 1e-6:
        raise SolverError("near-degenerate mode spectrum; refusing to pick vectors")
    mu = np.sqrt(evals)
    lead = np.argmax(np.abs(evecs) > 1e-10, axis=0)
    flip = evecs[lead, np.arange(n)] < 0
    evecs[:, flip] = -evecs[:, flip]
    mu[0] = 1.0
    evecs[:, 0] = 1.0 / np.sqrt(n)
    return ModeTable(frequencies=mu, vectors=evecs)


def lamb_dicke(modes: ModeTable, eta: float) -> np.ndarray:
    """Recoil coupling of every ion to every mode characterised by the
    in-phase-mode parameter ``eta``, as a read-only (ions x modes) array:
    entry [i, l] = eta sqrt(N) b[i, l] / sqrt(mu_l), linear in ``eta``.

    The in-phase column is ``eta`` exactly, as :func:`normal_modes` stores mu_0
    and b_0, not the rounding of eta sqrt(N) (1/sqrt(N)).
    """
    eta = positive(eta, "eta")
    n = modes.n_ions
    entries = eta * np.sqrt(n) * modes.vectors / np.sqrt(modes.frequencies)[None, :]
    entries[:, 0] = eta
    entries.flags.writeable = False
    return entries
