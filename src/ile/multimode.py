"""All longitudinal modes at once: exact conditional evolution, the
mode-factorized approximation, spectator-leakage metrics, and a midpoint
integrator that referees the analytic displacement formulas against the
underlying time-dependent Hamiltonian.

Displacement amplitude per ion and mode over a window t, in two variants:

* endpoint form:   beta[i, l] = i Omega t eta[i, l] e^{i (mu_l - delta) t}, with the
  coupling eta[i, l] = eta sqrt(N / mu_l) b[i, l] of :func:`ile.chain.lamb_dicke`
* integrated form: the same prefactor times the actual first-order time
  integral of the drive, t e^{i Delta t / 2} sinc(Delta t / 2 pi) with
  Delta = mu_l - delta.  The two agree as Delta t -> 0; only the integrated
  form is bounded in t and can show the averaging-out of far-detuned
  spectator modes, so it is the default for leakage studies.  The endpoint
  form (CLI name: --paper-beta) reproduces the protocol formula on the COM
  mode exactly.

The exact conditional state is a sum of products of coherent states across
modes.  Since the ions' conditional operators commute (see Collinearity), it
is a product over ions: ion i, with weights w_i over all c cycles, applies
its own line sum_k C^k D((2k - c) beta[i]) with C^k = forward_coeffs(w_i),
the single-ion method of :mod:`ile.protocol` run once per ion.  The
factorized form instead lets every mode branch independently; the two
coincide exactly whenever at most one mode is displaced, and
``leakage_report`` quantifies the gap otherwise.  The factorized state stays
a list of per-mode factors, never their tensor product.

Collinearity: the mode vectors are real, so all displacements of one mode
are real multiples of one amplitude and compose without a phase; hence
displacements, and the ions' conditional operators, commute.  The only
phase left is that of D(g)|alpha> = e^{(g conj(alpha) - conj(g) alpha)/2}
|alpha + g> on the COM mode, applied once per state; ``DisplacementPlanEntry``
refuses tables this does not cover.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .chain import ModeTable, lamb_dicke
from .errors import IntegratorError, SolverError
from .fock import coherent_fock, coherent_gram, displacement_phase
from .protocol import (
    Cycle,
    LineSuperposition,
    PhysicalParams,
    ProtocolPlan,
    checked_norm_sq,
    forward_coeffs,
    log_slot_nominal,
)

__all__ = [
    "MultimodeSuperposition",
    "FactorizedSuperposition",
    "DisplacementPlanEntry",
    "LeakageReport",
    "TrotterConfig",
    "TrotterReport",
    "cycle_displacements",
    "run_conditional_exact",
    "run_conditional_factorized",
    "leakage_report",
    "analyze_plan",
    "trotter_validate",
]

_MERGE_DECIMALS = 10  # labels agreeing to 1e-10 are one component
_COLLINEAR_TOL = 1e-12  # |Im(b_i conj(b_ref))| allowed, relative to |b_ref|^2
# Memory for the T x T complex arrays of one leakage_report, T the exact term
# count.  At most 4 are alive at once: w, s_com, a and a * a.T while the
# purity is summed (3.5 while a Gram is formed).  Peak RSS above the
# interpreter's is 3.9 of them at 7 ions x 2 cycles and at 2 ions x 52 cycles.
_GRAM_BUDGET_BYTES = 1 << 30
_LIVE_GRAMS = 4
# Multiply-adds of one referee step's change of motional basis, 2^n size^(n+1).
_STEP_BUDGET = 4_000_000


@dataclass(frozen=True)
class MultimodeSuperposition:
    """Unnormalized sum_t coeffs[t] (x)_l |labels[t, l]> over all modes."""

    coeffs: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.complex128)
        g = np.asarray(self.labels, dtype=np.complex128)
        if c.ndim != 1 or c.size < 1:
            raise ValueError("coeffs must be a non-empty 1-D sequence")
        if g.ndim != 2 or g.shape[0] != c.size or g.shape[1] < 1:
            raise ValueError("labels must be (n_terms, n_modes) matching coeffs")
        if not (np.all(np.isfinite(c)) and np.all(np.isfinite(g))):
            raise ValueError("coefficients and labels must be finite")
        c = c.copy()
        g = g.copy()
        c.flags.writeable = False
        g.flags.writeable = False
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "labels", g)

    @property
    def n_modes(self) -> int:
        return self.labels.shape[1]

    @property
    def n_terms(self) -> int:
        return self.coeffs.size

    def norm_sq(self) -> float:
        g = _pair_gram(self.labels, self.labels)
        return float(np.real(np.conj(self.coeffs) @ g @ self.coeffs))


@dataclass(frozen=True)
class FactorizedSuperposition:
    """Product state (x)_l factors[l] of single-mode superpositions, held as
    its factors: sum_l T_l terms instead of the prod_l T_l of its expansion."""

    factors: tuple[MultimodeSuperposition, ...]

    def __post_init__(self):
        factors = tuple(self.factors)
        if not factors or any(f.n_modes != 1 for f in factors):
            raise ValueError("factors must be a non-empty sequence of single-mode states")
        object.__setattr__(self, "factors", factors)

    @property
    def n_modes(self) -> int:
        return len(self.factors)

    @property
    def n_terms(self) -> int:
        return sum(f.n_terms for f in self.factors)

    def norm_sq(self) -> float:
        return float(np.prod([f.norm_sq() for f in self.factors]))

    def overlap(self, other: MultimodeSuperposition) -> complex:
        """<self|other> = sum_u other.coeffs[u] prod_l <factors[l]|other.labels[u, l]>."""
        if other.n_modes != self.n_modes:
            raise ValueError("mode-count mismatch")
        amps = np.ones(other.n_terms, dtype=np.complex128)
        for f, column in zip(self.factors, other.labels.T):
            amps *= np.conj(f.coeffs) @ coherent_gram(f.labels[:, 0], column)
        return complex(amps @ other.coeffs)


def _pair_gram(la: np.ndarray, lb: np.ndarray) -> np.ndarray:
    """(Ta, Tb) matrix of prod_l <la[t, l]|lb[u, l]>."""
    ha = np.sum(np.abs(la) ** 2, axis=1)
    hb = np.sum(np.abs(lb) ** 2, axis=1)
    return np.exp(-0.5 * ha[:, None] - 0.5 * hb[None, :] + np.conj(la) @ lb.T)


def _merge_terms(coeffs: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sum coefficients of terms whose labels agree to the merge tolerance.

    Terms are ordered by rounded label tuple, which makes the merge (and
    everything downstream) deterministic regardless of expansion order.
    """
    rounded = np.round(
        np.concatenate([labels.real, labels.imag], axis=1), _MERGE_DECIMALS
    )
    rounded += 0.0  # collapse -0.0 onto 0.0 so the row keys are canonical
    _, first_idx, inverse = np.unique(
        rounded, axis=0, return_index=True, return_inverse=True
    )
    merged_c = np.zeros(first_idx.size, dtype=np.complex128)
    np.add.at(merged_c, inverse, coeffs)
    return merged_c, labels[first_idx]


@dataclass(frozen=True)
class DisplacementPlanEntry:
    """Per-cycle displacement table, rows = ions, columns = modes; each column
    holds real multiples of one amplitude (see the module docstring)."""

    betas: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.betas, dtype=np.complex128)
        if b.ndim != 2:
            raise ValueError("betas must be a 2-D (ions x modes) table")
        if not np.all(np.isfinite(b)):
            raise ValueError("betas must be finite")
        ref = b[np.argmax(np.abs(b), axis=0), np.arange(b.shape[1])]
        skew = np.abs(np.imag(b * np.conj(ref)))
        if np.any(skew > _COLLINEAR_TOL * np.abs(ref) ** 2):
            raise ValueError("each mode's displacements must be real multiples of one amplitude")
        b = b.copy()
        b.flags.writeable = False
        object.__setattr__(self, "betas", b)


@dataclass(frozen=True)
class LeakageReport:
    per_mode_mean_phonon: np.ndarray
    com_fidelity_vs_ideal: float
    com_purity: float
    factorization_gap: float

    def __post_init__(self):
        m = np.asarray(self.per_mode_mean_phonon, dtype=float).copy()
        m.flags.writeable = False
        object.__setattr__(self, "per_mode_mean_phonon", m)


def cycle_displacements(
    modes: ModeTable, params: PhysicalParams, t: float, integrated: bool
) -> DisplacementPlanEntry:
    """Displacement amplitudes of one cycle for every (ion, mode) pair.

    With ``integrated=False`` the endpoint form, whose COM column equals
    :func:`ile.protocol.beta_of` identically; with ``integrated=True`` the
    bounded time-integral form (see module docstring).
    """
    if modes.n_ions != params.n_ions:
        raise ValueError(
            f"mode table is for {modes.n_ions} ions, parameters for {params.n_ions}"
        )
    if not (np.isfinite(t) and t > 0):
        raise ValueError("t must be positive and finite")
    detune = modes.frequencies - params.delta
    if integrated:
        window = t * np.exp(0.5j * detune * t) * np.sinc(detune * t / (2.0 * np.pi))
    else:
        window = t * np.exp(1j * detune * t)
    betas = 1j * params.omega * lamb_dicke(modes, params.eta).entries * window[None, :]
    return DisplacementPlanEntry(betas)


def _conditional_terms(plan: ProtocolPlan, betas: np.ndarray):
    """Expand the conditional state into coherent terms as a product over ions.

    Ion i, with weights w_i over the c cycles, contributes the amplitudes
    a_i = forward_coeffs(w_i) sqrt(success_probability_nominal(w_i)) at the
    shifts (2k - c) b[i]; the square root is taken in logs, since it
    underflows long before a_i does.  The outer product over ions has at most
    (c + 1)^N terms (exactly that many for generic inputs); terms whose
    labels coincide are merged once, at the end.

    Returns phase-free amplitudes and their label rows: by collinearity the
    only phase is the COM mode's D(g)|alpha> phase, which the caller
    applies.  Plans whose Grams could exceed the budget are refused up front;
    an ion whose line coefficients overflow raises :class:`SolverError`.
    """
    n_cycles = len(plan.cycles)
    bound = (n_cycles + 1) ** plan.params.n_ions
    need = 16 * bound**2 * _LIVE_GRAMS
    if need > _GRAM_BUDGET_BYTES:
        raise SolverError(
            f"up to {bound} terms, whose Grams need {need / 2**30:.2f} GiB "
            f"(budget {_GRAM_BUDGET_BYTES / 2**30:.0f} GiB)"
        )
    steps = 2 * np.arange(n_cycles + 1) - n_cycles
    coeffs = np.array([1.0 + 0.0j])
    labels = np.zeros((1, betas.shape[1]), dtype=np.complex128)
    labels[0, 0] = plan.alpha
    for w, b in zip(plan.all_weights.reshape(n_cycles, -1).T, betas):
        line = forward_coeffs(w)
        scale = np.max(np.abs(line))
        amps = line / scale * np.exp(np.log(scale) + 0.5 * np.sum(log_slot_nominal(w)))
        coeffs = np.outer(coeffs, amps).ravel()
        labels = (labels[:, None, :] + np.multiply.outer(steps, b)).reshape(-1, betas.shape[1])
    return _merge_terms(coeffs, labels)


def _marginal_factors(exact: MultimodeSuperposition, alpha: complex) -> FactorizedSuperposition:
    """Mode l's factor: the phase-free amplitudes of ``exact`` summed over
    the terms that share a mode-l label.  Only the COM factor gets the
    D(g)|alpha> phase back."""
    free = exact.coeffs * np.conj(displacement_phase(exact.labels[:, 0] - alpha, alpha))
    factors = [_merge_terms(free, column[:, None]) for column in exact.labels.T]
    c0, g0 = factors[0]
    factors[0] = (c0 * displacement_phase(g0[:, 0] - alpha, alpha), g0)
    return FactorizedSuperposition([MultimodeSuperposition(c, g) for c, g in factors])


def run_conditional_exact(
    plan: ProtocolPlan,
    modes: ModeTable,
    integrated: bool,
    betas: DisplacementPlanEntry | None = None,
) -> tuple[MultimodeSuperposition, float]:
    """Exact conditional state of all modes after the full plan.

    Initial state: coherent ``plan.alpha`` on the COM mode, vacuum elsewhere.
    Projecting ion i onto |1> contributes
    [(1 - p_i) prod_l D_l(+beta[i, l]) + (1 + p_i) prod_l D_l(-beta[i, l])]
    / (2 sqrt(1 + |p_i|^2)); expanding over all ions and cycles gives at most
    (cycles + 1)^ions product-coherent terms, merged whenever all labels
    agree.  Returns the state and the exact post-selection probability (its
    squared norm, the initial state being normalized).

    ``betas`` overrides the computed displacement table; tests use it to
    switch spectator modes off.
    """
    if modes.n_ions != plan.params.n_ions:
        raise ValueError("plan and mode table disagree on the ion count")
    entry = betas if betas is not None else cycle_displacements(
        modes, plan.params, plan.cycles[0].duration, integrated
    )
    if entry.betas.shape != (plan.params.n_ions, modes.n_ions):
        raise ValueError("displacement table has the wrong shape")
    amps, labels = _conditional_terms(plan, entry.betas)
    phase = displacement_phase(labels[:, 0] - plan.alpha, plan.alpha)
    state = MultimodeSuperposition(amps * phase, labels)
    return state, float(np.clip(state.norm_sq(), 0.0, 1.0))


def run_conditional_factorized(
    plan: ProtocolPlan,
    modes: ModeTable,
    integrated: bool,
    betas: DisplacementPlanEntry | None = None,
) -> FactorizedSuperposition:
    """The mode-factorized form of the conditional state.

    Every mode is given its own independent copy of the conditional product;
    the state is their tensor product, returned unexpanded as the single-mode
    factors (sum_l T_l terms, not prod_l T_l), each read off the exact walk
    as its marginal on one mode.  This reproduces the exact state whenever at
    most one mode is displaced; in general the spin branches correlate the
    modes before the projection and the factorized form is only an
    approximation, whose gap ``leakage_report`` measures.
    """
    exact, _ = run_conditional_exact(plan, modes, integrated, betas)
    return _marginal_factors(exact, plan.alpha)


def leakage_report(
    ms_exact: MultimodeSuperposition,
    ideal: LineSuperposition,
    factorized: FactorizedSuperposition,
) -> LeakageReport:
    """How much the spectator modes corrupted the COM-mode preparation.

    All quantities come from the Gram representation, no truncation:
    per-mode mean phonon numbers, the fidelity of the reduced COM state
    against the ideal single-mode result, its purity, and the infidelity
    between the exact state and its mode-factorized form.
    """
    c = ms_exact.coeffs
    labels = ms_exact.labels
    com = labels[:, 0]
    rest = labels[:, 1:]
    w = np.conj(c)[:, None] * c[None, :]
    if rest.shape[1]:
        w *= _pair_gram(rest, rest)  # rho_com = sum w[t,u] |com_u><com_t| / nsq
    s_com = coherent_gram(com)
    full = w * s_com  # full[t, u] = conj(c_t) c_u <labels_t|labels_u>
    nsq = checked_norm_sq(float(np.real(np.sum(full))), c)
    if nsq <= 0:
        raise ValueError("exact state has zero norm")
    mean_phonon = np.array([np.real(np.conj(g) @ full @ g) for g in labels.T]) / nsq
    del full

    a = w.T @ s_com
    purity = float(np.clip(np.real(np.sum(a * a.T)) / nsq**2, 0.0, 1.0))

    o = coherent_gram(com, ideal.labels()) @ ideal.phased_coeffs()  # o[t] = <com[t]|ideal>
    ideal_nsq = ideal.norm_sq()
    fid = float(np.clip(np.real(o @ w @ np.conj(o)) / (nsq * ideal_nsq), 0.0, 1.0))

    if factorized.n_modes != ms_exact.n_modes:
        raise ValueError("factorized state has a different mode count")
    cross = abs(factorized.overlap(ms_exact)) ** 2
    gap = float(np.clip(1.0 - cross / (factorized.norm_sq() * nsq), 0.0, 1.0))

    return LeakageReport(
        per_mode_mean_phonon=mean_phonon,
        com_fidelity_vs_ideal=fid,
        com_purity=purity,
        factorization_gap=gap,
    )


def analyze_plan(
    plan: ProtocolPlan,
    modes: ModeTable,
    integrated: bool,
) -> tuple[LeakageReport, float]:
    """Convenience: one exact walk, its per-mode marginals and the ideal
    single-mode run folded into one report.

    The ideal reference is the single-mode conditional state built with the
    *same* displacement variant's COM amplitude, so ``com_fidelity_vs_ideal``
    isolates what the spectators did to the COM mode instead of conflating it
    with the endpoint/integrated convention difference.  (For the endpoint
    variant the two references coincide: the COM column reproduces the
    single-mode formula identically.)
    """
    entry = cycle_displacements(modes, plan.params, plan.cycles[0].duration, integrated)
    ms, p_exact = run_conditional_exact(plan, modes, integrated, betas=entry)
    fact = _marginal_factors(ms, plan.alpha)
    ideal = LineSuperposition(
        alpha=plan.alpha,
        beta=complex(entry.betas[0, 0]),
        coeffs=forward_coeffs(plan.all_weights),
    )
    return leakage_report(ms, ideal, fact), p_exact


# ---------------------------------------------------------------------------
# Midpoint-rule referee for the analytic displacement formulas.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrotterConfig:
    """Integrator settings: per-mode cutoff, base step count, and whether to
    reinstate the fast terms the rotating-wave step discards (the carrier
    spin-flip term and the counter-rotating sideband terms)."""

    cutoff: int
    steps: int
    include_fast_terms: bool = False

    def __post_init__(self):
        if self.cutoff < 1:
            raise ValueError("cutoff must be at least 1")
        if self.steps < 10:
            raise ValueError("need at least 10 steps for the convergence probe")


@dataclass(frozen=True)
class TrotterReport:
    """Referee output.

    fidelity_integrated / fidelity_endpoint: conditional-state fidelity of
    the integrated and endpoint displacement predictions against the
    numerically propagated state.  step_halving_ratio: deviation shrink per
    step doubling, ~4 for the second-order midpoint rule.
    fast_terms_effect: conditional-state infidelity caused by reinstating
    the discarded fast terms (None unless requested).
    """

    fidelity_integrated: float
    fidelity_endpoint: float
    step_halving_ratio: float
    fast_terms_effect: float | None
    conditional_weight: float


def trotter_validate(
    params: PhysicalParams,
    modes: ModeTable,
    t: float,
    cfg: TrotterConfig,
    weights=None,
    alpha: complex = 0j,
) -> TrotterReport:
    """Propagate the joint spin (x) mode state under the interaction-picture
    Hamiltonian with exponential-midpoint steps and referee the analytic
    displacement predictions.

    The drive couples each mode's quadratures to a collective spin operator
    with slowly rotating coefficients; one cycle of the protocol corresponds
    to propagating for the window ``t`` and projecting every ion onto |1>.
    The projected motional state is compared against the conditional states
    predicted with the integrated and endpoint displacement amplitudes.

    Each step applies exp(-i dt H(tau)) exactly on the truncated space.  Mode
    l's drive f x + g p equals |z| e^{i phi N} x e^{-i phi N} (z = f + i g,
    phi = arg z), the truncated x is V diag(lam) V^T, and every spin
    operator is diagonal in the sigma_y basis except the carrier term's
    sigma_x.  In the basis of the sigma_y eigenvectors and the rotated V, the
    generator at motional eigen-index k is a sum of commuting one-ion terms
    (a_{k,i} Z + c Y') / 2 with a_{k,i} = sum_l eta[i, l] |z_l| lam_{k_l},
    so the step is a product of closed-form 2 x 2 rotations between two
    changes of motional basis.  Only the carrier coefficient c differs with
    ``include_fast_terms``: 4 Omega cos(delta tau) with it, 0 without.
    Against a Krylov exponential of the sparse Hamiltonian the results move
    in the last digits (the step-halving ratio by up to 2.3e-9 relative over
    the benchmark's referee runs, the fidelities by 2e-15).

    One step costs about 2^n (cutoff + 1)^(n + 1) multiply-adds per mode;
    above 4e6 (cutoff 99 at two ions, 1413 at one) a ValueError refuses the
    call before any allocation.  Three resolutions (steps, 2x, 4x) are
    always run; a Richardson limit from the two finest certifies second
    order (deviation ratio near 4) and an :class:`IntegratorError` flags
    anything far off that.
    """
    n = modes.n_ions
    if params.n_ions != n:
        raise ValueError("plan and mode table disagree on the ion count")
    if n > 2:
        raise ValueError("the referee is a desk-scale tool; n_ions <= 2 only")
    size = cfg.cutoff + 1
    if 2**n * size ** (n + 1) > _STEP_BUDGET:
        raise ValueError("one integrator step beyond desk scale; lower the cutoff")
    if not (np.isfinite(t) and t > 0):
        raise ValueError("t must be positive and finite")
    weights = np.zeros(n, dtype=np.complex128) if weights is None else np.asarray(
        weights, dtype=np.complex128
    )
    if weights.shape != (n,):
        raise ValueError("need one weight per ion")
    if not np.all(np.isfinite(weights)):
        raise ValueError("weights must be finite")

    lam, vecs = eigh_tridiagonal(np.zeros(size), np.sqrt(np.arange(1, size) / 2.0))
    number = np.arange(size)
    # eig[l, k]: x's eigenvalue on mode l at the flattened motional index k
    eig = lam[np.indices((size,) * n).reshape(n, -1)]
    coupling = lamb_dicke(modes, params.eta).entries
    drive = -2.0 * np.sqrt(2.0) * params.omega
    slow, quick = modes.frequencies - params.delta, modes.frequencies + params.delta

    # Spins live in the sigma_y basis throughout: rows of to_y map a z-basis
    # spin onto (|+y>, |-y>), and <1| in the z basis reads (i, -i) / sqrt 2.
    to_y = np.array([[1.0, -1.0j], [1.0, 1.0j]]) / np.sqrt(2.0)
    spin0, bra = np.array([1.0]), np.array([1.0])
    for p in weights:
        spin0 = np.kron(spin0, to_y @ np.array([1j * p, 1.0]) / np.sqrt(1.0 + abs(p) ** 2))
        bra = np.kron(bra, np.array([1.0j, -1.0j]) / np.sqrt(2.0))
    motion0 = np.array([1.0])
    for l in range(n):
        motion0 = np.kron(motion0, coherent_fock(alpha if l == 0 else 0j, cfg.cutoff).amps)
    psi0 = np.outer(spin0, motion0)

    def change_modes(psi: np.ndarray, mats: np.ndarray) -> np.ndarray:
        for l in range(n):
            psi = mats[l] @ psi.reshape(2**n * size**l, size, -1)
        return psi.reshape(2**n, -1)

    def step(psi: np.ndarray, tau: float, dt: float, fast: bool) -> np.ndarray:
        z = drive * np.exp(1j * slow * tau)  # f + i g per mode
        c = 0.0
        if fast:
            z += drive * np.exp(1j * quick * tau)
            c = 4.0 * params.omega * np.cos(params.delta * tau)
        phase = np.exp(-1j * np.angle(z)[:, None] * number)  # e^{-i phi N} per mode
        psi = change_modes(psi, vecs.T[None] * phase[:, None, :])
        a = (coupling * np.abs(z)) @ eig
        r = np.hypot(a, c)
        angle = 0.5 * dt * r
        sin = np.sin(angle) / np.where(r > 0, r, 1.0)
        diag = np.cos(angle) - 1j * sin * a  # the |+y> entry; |-y> has its conjugate
        for i in range(n):
            spins = psi.reshape(2**i, 2, -1, size**n)
            up, down = spins[:, 0], spins[:, 1]
            off = sin[i] * c
            psi = np.empty_like(spins)
            psi[:, 0] = diag[i] * up - off * down
            psi[:, 1] = off * up + np.conj(diag[i]) * down
        return change_modes(psi, np.conj(phase)[:, :, None] * vecs[None])

    def evolve(steps: int, fast: bool) -> np.ndarray:
        dt = t / steps
        psi = psi0
        for k in range(steps):
            psi = step(psi, (k + 0.5) * dt, dt, fast)
        return psi.reshape(-1)

    psi_1 = evolve(cfg.steps, False)
    psi_2 = evolve(2 * cfg.steps, False)
    psi_4 = evolve(4 * cfg.steps, False)
    richardson = psi_4 + (psi_4 - psi_2) / 3.0
    dev_1 = np.linalg.norm(psi_1 - richardson)
    dev_2 = np.linalg.norm(psi_2 - richardson)
    floor = 1e-13
    if dev_1 < floor or dev_2 < floor:
        ratio = 4.0  # below the noise floor the probe is vacuous but healthy
    else:
        ratio = float(dev_1 / dev_2)
        if not 2.0 < ratio < 8.0:
            raise IntegratorError(
                f"step-halving ratio {ratio:.2f} is far from the midpoint rule's "
                "order-2 value of 4; the integrator is outside its asymptotic regime"
            )

    def conditional(psi: np.ndarray) -> np.ndarray:
        return bra @ psi.reshape(2**n, -1)

    cond = conditional(psi_4)
    cond_nsq = float(np.real(np.vdot(cond, cond)))

    plan = ProtocolPlan(
        params=params,
        alpha=alpha,
        cycles=(Cycle(duration=t, weights=weights),),
    )

    def predicted(integrated: bool) -> np.ndarray:
        ms, _ = run_conditional_exact(plan, modes, integrated)
        vec = np.zeros(size**n, dtype=np.complex128)
        for c, row in zip(ms.coeffs, ms.labels):
            term = np.array([c])
            for g in row:
                term = np.kron(term, coherent_fock(g, cfg.cutoff).amps)
            vec += term
        return vec

    def fid(u: np.ndarray, v: np.ndarray) -> float:
        nu = np.linalg.norm(u)
        nv = np.linalg.norm(v)
        if nu == 0 or nv == 0:
            raise IntegratorError("conditional state vanished; nothing to compare")
        return float(min(abs(np.vdot(u, v)) ** 2 / (nu**2 * nv**2), 1.0))

    fid_int = fid(cond, predicted(True))
    fid_end = fid(cond, predicted(False))

    effect = None
    if cfg.include_fast_terms:
        cond_fast = conditional(evolve(4 * cfg.steps, True))
        effect = float(np.clip(1.0 - fid(cond, cond_fast), 0.0, 1.0))

    return TrotterReport(
        fidelity_integrated=fid_int,
        fidelity_endpoint=fid_end,
        step_halving_ratio=ratio,
        fast_terms_effect=effect,
        conditional_weight=cond_nsq,
    )
