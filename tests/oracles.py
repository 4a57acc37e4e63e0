"""Brute-force reference computations the library results are checked against.

Everything here goes through truncated number-basis linear algebra or a
plain expansion with its own Gram code, and never touches the Gram-matrix
code paths it is used to certify.
"""

from __future__ import annotations

import math
import warnings
from functools import reduce

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh_tridiagonal
from scipy.sparse.linalg import expm_multiply

from ile import fock
from ile.chain import ModeTable, lamb_dicke, potential_gradient
from ile.errors import IntegratorError, SolverError
from ile.fock import coherent_fock
from ile.multimode import LeakageReport, TrotterConfig, TrotterReport, cycle_displacements
from ile.protocol import (
    Cycle,
    LineSuperposition,
    PhysicalParams,
    ProtocolPlan,
    beta_of,
    cancellation_errors,
)


def conditional_operator(p: complex, d_plus: np.ndarray, d_minus: np.ndarray) -> np.ndarray:
    """Matrix of one ion's no-fluorescence branch given its +/- displacement matrices."""
    return ((1 - p) * d_plus + (1 + p) * d_minus) / (2.0 * np.sqrt(1.0 + abs(p) ** 2))


def unscaled_forward_coeffs(weights) -> np.ndarray:
    """Line coefficients by the slot recurrence without any rescaling, the
    loop ``protocol.forward_coeffs`` must reproduce bitwise while it stays
    in the float range."""
    c = np.array([1.0 + 0.0j])
    with np.errstate(over="ignore", invalid="ignore"):
        for p in np.asarray(weights, dtype=np.complex128):
            nxt = np.zeros(c.size + 1, dtype=np.complex128)
            nxt[:-1] += (1 + p) * c
            nxt[1:] += (1 - p) * c
            c = nxt
    return c


def coherent_fock_array(alpha: complex, cutoff: int) -> np.ndarray:
    """Coherent amplitudes by the ratio recurrence on numpy complex scalars,
    amps[n] = amps[n - 1] * alpha / sqrt(n), the loop ``fock.coherent_fock``
    must reproduce bitwise."""
    alpha = complex(alpha)
    amps = np.zeros(cutoff + 1, dtype=np.complex128)
    amps[0] = np.exp(-0.5 * abs(alpha) ** 2)
    for n in range(1, cutoff + 1):
        amps[n] = amps[n - 1] * alpha / np.sqrt(n)
    return amps


def coherent_fock_scalar(alpha: complex, cutoff: int) -> np.ndarray:
    """Coherent amplitudes by the ratio recurrence on Python complex scalars,
    the signed-zero reference ``fock.coherent_table`` must reproduce bitwise.

    Each part is scaled by the reciprocal root, which is what numpy's
    complex-by-real division computes, so the amplitudes equal bitwise those
    of :func:`coherent_fock_array` (up to the sign of a part that is exactly
    zero)."""
    alpha = complex(alpha)
    mag = abs(alpha)
    # Past |alpha| ~ 1e154 the square overflows; every amplitude is then 0.
    a = complex(np.exp(-0.5 * mag**2)) if mag < 1e150 else 0j
    amps = [a]
    for n in range(1, cutoff + 1):
        a = a * alpha
        s = 1.0 / math.sqrt(n)
        a = complex(a.real * s, a.imag * s)
        amps.append(a)
    return np.array(amps, dtype=np.complex128)


def line_fock_per_component(state, cutoff: int) -> np.ndarray:
    """Number amplitudes of a line superposition, one ``coherent_fock`` per
    component: the loop ``protocol.to_fock`` must reproduce bitwise."""
    amps = np.zeros(cutoff + 1, dtype=np.complex128)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", fock.TruncationWarning)
        for c, g in zip(state.phased_coeffs(), state.labels()):
            if c != 0:
                amps += c * coherent_fock(g, cutoff).amps
    return amps


def coherent_gram(a, b=None) -> np.ndarray:
    """Matrix <a[i]|b[j]> of coherent states (``b`` defaults to ``a``),
    vectorized ``fock.coherent_overlap`` over every pair."""
    a = np.asarray(a, dtype=np.complex128)
    b = a if b is None else np.asarray(b, dtype=np.complex128)
    ha = np.abs(a) ** 2
    hb = np.abs(b) ** 2
    return np.exp(-0.5 * ha[:, None] - 0.5 * hb[None, :] + np.conj(a)[:, None] * b[None, :])


def fit_overlaps_per_component(target, labels, phases) -> np.ndarray:
    """Overlaps of the phased grid components with the target, one
    ``coherent_fock`` per component, which ``inverse.fit_target``'s block
    products must reproduce to rounding."""
    with warnings.catch_warnings():
        # A far component's truncated state still gives the exact overlap:
        # the target has no amplitude above its cutoff.
        warnings.simplefilter("ignore", fock.TruncationWarning)
        v = np.array(
            [
                np.conj(ph) * fock.inner(coherent_fock(g, target.cutoff), target)
                for ph, g in zip(phases, labels)
            ],
            dtype=np.complex128,
        )
    return v


def dense_gram_fit(target, n: int, alpha: complex, beta: complex):
    """``inverse.fit_target`` in the dense form it had before the Toeplitz
    one: the phased Gram T of the grid from :func:`coherent_gram`, its
    pseudo-inverse with eigenvalues floored at 1e-12 of the largest, and the
    fidelity |c^H v|^2 / (c^H T c |t|^2) of the coefficients c it returns.
    Returns (c, T, fidelity)."""
    grid = LineSuperposition(alpha, beta, np.ones(n + 1))
    labels, phases = grid.labels(), grid.phased_coeffs()
    gram = coherent_gram(labels) * np.conj(phases)[:, None] * phases[None, :]
    v = fit_overlaps_per_component(target, labels, phases)
    evals, evecs = np.linalg.eigh(gram)
    inv = 1.0 / np.maximum(evals, 1e-12 * evals[-1])
    c = evecs @ (inv * (np.conj(evecs.T) @ v))
    fit_sq = np.real(np.vdot(c, gram @ c))
    return c, gram, float(abs(np.vdot(c, v)) ** 2 / (fit_sq * fock.norm(target) ** 2))


def dyadic_p_exact(plan, dps: int = 50) -> float:
    """``p_exact`` of a plan whose weights have dyadic real and imaginary
    parts: the line coefficients in exact Gaussian-integer arithmetic (scaled
    by a power of two), the lag sum against <alpha|D(2 d beta)|alpha> at
    ``dps`` digits.  The total telescopes to aleph^2 ||psi_n||^2, so no
    per-cycle norm is needed."""
    import mpmath

    w = plan.all_weights.tolist()
    scale = max(max(x.as_integer_ratio()[1] for x in (p.real, p.imag)) for p in w)
    re = np.array([1], dtype=object)
    im = np.array([0], dtype=object)
    num, den = 1, 1
    for p in w:
        a, b = int(p.real * scale), int(p.imag * scale)
        assert complex(a, b) / scale == p, "weights must be dyadic"
        nre = np.zeros(re.size + 1, dtype=object)
        nim = np.zeros(re.size + 1, dtype=object)
        nre[:-1] += (scale + a) * re - b * im
        nim[:-1] += (scale + a) * im + b * re
        nre[1:] += (scale - a) * re + b * im
        nim[1:] += (scale - a) * im - b * re
        re, im = nre, nim
        num *= scale * scale
        den *= 4 * (scale * scale + a * a + b * b)
    n = re.size - 1
    # lag_re + i lag_im at n + d: sum_k conj(c[k]) c[k + d]
    lag_re = np.convolve(re[::-1], re) + np.convolve(im[::-1], im)
    lag_im = np.convolve(re[::-1], im) - np.convolve(im[::-1], re)
    with mpmath.workdps(dps):
        step = 2 * mpmath.mpc(beta_of(plan.params, plan.cycles[0].duration))
        h = (mpmath.conj(mpmath.mpc(plan.alpha)) * step).imag
        total = mpmath.fsum(
            (mpmath.mpc(x, y) * mpmath.exp(-(d * d) * abs(step) ** 2 / 2 + 2j * d * h)).real
            for d, x, y in zip(range(-n, n + 1), lag_re, lag_im)
        )
        return float(total * num / den / mpmath.mpf(scale) ** (2 * n))


def single_mode_conditional(weights, beta: complex, alpha: complex, cutoff: int) -> np.ndarray:
    """Unnormalized conditional state of one mode after all weights, as a vector."""
    d_plus = fock.displacement_matrix(beta, cutoff).entries
    d_minus = fock.displacement_matrix(-beta, cutoff).entries
    psi = fock.coherent_fock(alpha, cutoff).amps.copy()
    for p in weights:
        psi = conditional_operator(p, d_plus, d_minus) @ psi
    return psi


def two_mode_conditional(weights, betas: np.ndarray, alpha: complex, cutoff: int) -> np.ndarray:
    """Unnormalized two-mode conditional state, shape (cutoff+1, cutoff+1).

    ``betas[i]`` holds ion i's displacement per mode; one cycle per call is
    enough for the tests, which re-apply for multiple cycles.
    """
    size = cutoff + 1
    psi = np.kron(
        fock.coherent_fock(alpha, cutoff).amps, fock.coherent_fock(0j, cutoff).amps
    )
    for i, p in enumerate(weights):
        d_plus = np.kron(
            fock.displacement_matrix(betas[i, 0], cutoff).entries,
            fock.displacement_matrix(betas[i, 1], cutoff).entries,
        )
        d_minus = np.kron(
            fock.displacement_matrix(-betas[i, 0], cutoff).entries,
            fock.displacement_matrix(-betas[i, 1], cutoff).entries,
        )
        psi = conditional_operator(p, d_plus, d_minus) @ psi
    return psi.reshape(size, size)


def two_mode_metrics(psi: np.ndarray, ideal_vec: np.ndarray) -> dict:
    """p_exact, per-mode <n>, reduced first-mode fidelity and purity."""
    nsq = float(np.real(np.vdot(psi, psi)))
    ns = np.arange(psi.shape[0])
    n1 = float(np.einsum("ij,ij,i->", np.conj(psi), psi, ns).real / nsq)
    n2 = float(np.einsum("ij,ij,j->", np.conj(psi), psi, ns).real / nsq)
    rho = np.einsum("ik,jk->ij", psi, np.conj(psi)) / nsq
    phi = ideal_vec / np.linalg.norm(ideal_vec)
    fid = float(np.real(np.conj(phi) @ rho @ phi))
    purity = float(np.real(np.trace(rho @ rho)))
    return {"p_exact": nsq, "mean_phonon": (n1, n2), "com_fidelity": fid, "com_purity": purity}


def multi_mode_conditional(weights, betas: np.ndarray, alpha: complex, cutoffs) -> np.ndarray:
    """Unnormalized L-mode conditional state as a tensor, one axis per mode.

    ``cutoffs`` may differ per mode (the first mode usually needs headroom for
    the accumulated displacement, spectators do not).  One cycle.
    """
    n_ions, n_modes = betas.shape
    psi = fock.coherent_fock(alpha, cutoffs[0]).amps
    psi = psi.reshape(psi.shape + (1,) * (n_modes - 1))
    for l in range(1, n_modes):
        vac = fock.coherent_fock(0j, cutoffs[l]).amps
        psi = psi * vac.reshape((1,) * l + (-1,) + (1,) * (n_modes - 1 - l))

    def apply_product(t, row):
        out = t
        for l in range(n_modes):
            d = fock.displacement_matrix(row[l], cutoffs[l]).entries
            out = np.tensordot(d, out, axes=([1], [l]))
            out = np.moveaxis(out, 0, l)
        return out

    for i, p in enumerate(weights):
        pref = 0.5 / np.sqrt(1.0 + abs(p) ** 2)
        psi = pref * (
            (1 - p) * apply_product(psi, betas[i]) + (1 + p) * apply_product(psi, -betas[i])
        )
    return psi


def multi_mode_metrics(psi: np.ndarray, ideal_vec: np.ndarray) -> dict:
    """p_exact, per-mode <n>, reduced first-mode fidelity and purity, from a tensor."""
    flat = psi.reshape(-1)
    nsq = float(np.real(np.vdot(flat, flat)))
    mean = []
    for l in range(psi.ndim):
        ns = np.arange(psi.shape[l]).reshape(
            (1,) * l + (-1,) + (1,) * (psi.ndim - 1 - l)
        )
        mean.append(float(np.sum(np.abs(psi) ** 2 * ns).real / nsq))
    mat = psi.reshape(psi.shape[0], -1)
    rho = mat @ np.conj(mat.T) / nsq
    phi = ideal_vec / np.linalg.norm(ideal_vec)
    fid = float(np.real(np.conj(phi) @ rho @ phi))
    purity = float(np.real(np.trace(rho @ rho)))
    return {"p_exact": nsq, "mean_phonon": mean, "com_fidelity": fid, "com_purity": purity}


def _product_gram(la: np.ndarray, lb: np.ndarray) -> np.ndarray:
    """(Ta, Tb) matrix of prod_l <la[t, l]|lb[u, l]>, multiplied mode by mode."""
    g = np.ones((la.shape[0], lb.shape[0]), dtype=np.complex128)
    for a, b in zip(la.T, lb.T):
        g *= np.exp(
            -0.5 * np.abs(a[:, None]) ** 2 - 0.5 * np.abs(b[None, :]) ** 2
            + np.conj(a[:, None]) * b[None, :]
        )
    return g


def merge_labels(coeffs, labels, decimals: int = 10):
    """Sum the coefficients of single-mode terms whose labels agree to
    ``decimals`` places; returns (coeffs, labels) of the distinct labels."""
    keys = np.round(np.stack([labels.real, labels.imag], axis=1), decimals) + 0.0
    _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    merged = np.zeros(first.size, dtype=np.complex128)
    np.add.at(merged, inverse.reshape(-1), coeffs)
    return merged, labels[first]


def _conditional_terms(plan: ProtocolPlan, modes: ModeTable, integrated: bool):
    """(amps, shifts) of the exact conditional state's (c + 1)^N terms, ion 0
    slowest: amps[t] = prod_i a_i[k_i], a_i the unscaled line of ion i's
    weights times the root of its nominal probability prod 1/(4 (1 + |p|^2)),
    and shifts[t, l] = sum_i (2 k_i - c) beta[i, l]."""
    n, c = plan.params.n_ions, len(plan.cycles)
    lines = []
    for w in plan.all_weights.reshape(c, n).T:
        nominal = np.prod(0.25 / (1.0 + np.abs(w) ** 2))
        lines.append(unscaled_forward_coeffs(w) * np.sqrt(nominal))
    betas = cycle_displacements(modes, plan.params, plan.cycles[0].duration, integrated)
    k = np.indices((c + 1,) * n).reshape(n, -1)
    return reduce(np.multiply.outer, lines).ravel(), (2 * k.T - c) @ betas


def _shift_phase(g: np.ndarray, alpha: complex) -> np.ndarray:
    """Phase of D(g)|alpha> = phase |alpha + g>."""
    return np.exp(0.5 * (g * np.conj(alpha) - np.conj(g) * alpha))


def exact_terms(plan: ProtocolPlan, modes: ModeTable, integrated: bool):
    """The exact conditional state of all modes, from coherent ``plan.alpha``
    on the COM mode and vacuum elsewhere, as (coeffs, labels): the state is
    sum_t coeffs[t] (x)_l |labels[t, l]> on plain coherent kets, the COM
    phase in coeffs, all (c + 1)^N terms unmerged."""
    amps, shifts = _conditional_terms(plan, modes, integrated)
    labels = shifts.copy()
    labels[:, 0] += plan.alpha
    return amps * _shift_phase(shifts[:, 0], plan.alpha), labels


def factor_terms(plan: ProtocolPlan, modes: ModeTable, integrated: bool) -> list:
    """The mode-factorized state (x)_l f_l, f_l = sum_t a(t) D_l(g_l(t))|init_l>
    the exact state's marginal on mode l, factor l as (coeffs, labels)."""
    amps, shifts = _conditional_terms(plan, modes, integrated)
    factors = [(amps * _shift_phase(shifts[:, 0], plan.alpha), shifts[:, 0] + plan.alpha)]
    return factors + [(amps, g) for g in shifts.T[1:]]


def tensor_product_gap(factors, coeffs, labels, block: int = 256) -> float:
    """1 - |<F|E>|^2 / (||F||^2 ||E||^2) between F = (x)_l f_l, factor l
    given as (coeffs, labels), and the expanded state E = (``coeffs``,
    ``labels``), with F expanded into its full tensor product, one term per
    combination of the (merged) terms of its factors.  The norm of the
    expansion is summed over row blocks so its Gram is never held whole."""
    fact = np.ones(1, dtype=np.complex128)
    fact_labels = np.zeros((1, 0), dtype=np.complex128)
    for fc, fg in factors:
        fc, fg = merge_labels(fc, fg)
        fact = np.kron(fact, fc)
        fact_labels = np.concatenate(
            [np.repeat(fact_labels, fc.size, axis=0), np.tile(fg[:, None], (fact_labels.shape[0], 1))],
            axis=1,
        )
    fact_nsq = sum(
        np.conj(fact[k : k + block]) @ _product_gram(fact_labels[k : k + block], fact_labels) @ fact
        for k in range(0, fact.size, block)
    ).real
    exact_nsq = (np.conj(coeffs) @ _product_gram(labels, labels) @ coeffs).real
    cross = np.conj(fact) @ _product_gram(fact_labels, labels) @ coeffs
    return float(1.0 - abs(cross) ** 2 / (fact_nsq * exact_nsq))


def gram_gap(factors, coeffs, labels) -> float:
    """1 - |<F|E>|^2 / (||F||^2 ||E||^2) as :func:`tensor_product_gap` has it,
    with dense Grams factor by factor: <F|E> sums over E's terms the product
    of every factor's overlap with the term's label on its mode, and
    ||F||^2 is the product of the factors' norms."""
    amps = np.ones(coeffs.size, dtype=np.complex128)
    fact_nsq = 1.0
    for (fc, fg), column in zip(factors, labels.T):
        amps *= np.conj(fc) @ coherent_gram(fg, column)
        fact_nsq *= float(np.real(np.conj(fc) @ coherent_gram(fg) @ fc))
    exact_nsq = float(np.real(np.conj(coeffs) @ _pair_gram(labels, labels) @ coeffs))
    cross = abs(complex(amps @ coeffs)) ** 2
    return float(np.clip(1.0 - cross / (fact_nsq * exact_nsq), 0.0, 1.0))


def _pair_gram(la: np.ndarray, lb: np.ndarray) -> np.ndarray:
    """(Ta, Tb) matrix of prod_l <la[t, l]|lb[u, l]>."""
    ha = np.sum(np.abs(la) ** 2, axis=1)
    hb = np.sum(np.abs(lb) ** 2, axis=1)
    return np.exp(-0.5 * ha[:, None] - 0.5 * hb[None, :] + np.conj(la) @ lb.T)


def gram_leakage_report(
    plan: ProtocolPlan, modes: ModeTable, integrated: bool, ideal: LineSuperposition
) -> tuple[LeakageReport, float]:
    """The plan's leakage report in the Gram form ``multimode`` had before
    the lag lattice: dense T x T Grams over the oracle's own expansion of
    the exact state (:func:`exact_terms`) and of its factors.  Returns the
    report and the exact squared norm."""
    c, labels = exact_terms(plan, modes, integrated)
    com = labels[:, 0]
    rest = labels[:, 1:]
    w = np.conj(c)[:, None] * c[None, :]
    if rest.shape[1]:
        w *= _pair_gram(rest, rest)  # rho_com = sum w[t,u] |com_u><com_t| / nsq
    s_com = coherent_gram(com)
    full = w * s_com  # full[t, u] = conj(c_t) c_u <labels_t|labels_u>
    nsq = float(np.real(np.sum(full)))
    (refused,) = cancellation_errors(np.array([nsq]), c)
    if refused is not None:
        raise refused
    if nsq <= 0:
        raise ValueError("exact state has zero norm")
    mean_phonon = np.array([np.real(np.conj(g) @ full @ g) for g in labels.T]) / nsq
    del full

    a = w.T @ s_com
    purity = float(np.clip(np.real(np.sum(a * a.T)) / nsq**2, 0.0, 1.0))

    o = coherent_gram(com, ideal.labels()) @ ideal.phased_coeffs()  # o[t] = <com[t]|ideal>
    ideal_nsq = ideal.norm_sq()
    fid = float(np.clip(np.real(o @ w @ np.conj(o)) / (nsq * ideal_nsq), 0.0, 1.0))

    gap = gram_gap(factor_terms(plan, modes, integrated), c, labels)

    return LeakageReport(
        per_mode_mean_phonon=mean_phonon,
        com_fidelity_vs_ideal=fid,
        com_purity=purity,
        factorization_gap=gap,
    ), nsq


def per_mode_walk(weights_per_cycle, betas: np.ndarray, alpha: complex):
    """Each mode's own conditional walk with every composition phase tracked.

    Mode l starts at ``alpha`` (mode 0) or vacuum and is displaced by
    +-betas[i, l] for ion i in every cycle; each displacement of a term at
    label g carries the phase exp((s conj(g) - conj(s) g)/2) of D(s)|g>.
    Terms whose labels agree to 10 decimal places are merged after every
    slot.  Returns one (coeffs, labels) pair per mode.
    """
    factors = []
    for l in range(betas.shape[1]):
        coeffs = np.ones(1, dtype=np.complex128)
        labels = np.array([alpha if l == 0 else 0j], dtype=np.complex128)
        for weights in weights_per_cycle:
            for i, p in enumerate(weights):
                pref = 0.5 / np.sqrt(1.0 + abs(p) ** 2)
                s = betas[i, l]
                half = 0.5 * (s * np.conj(labels) - np.conj(s) * labels)
                coeffs = np.concatenate(
                    [coeffs * (1 - p) * pref * np.exp(half), coeffs * (1 + p) * pref * np.exp(-half)]
                )
                labels = np.concatenate([labels + s, labels - s])
                coeffs, labels = merge_labels(coeffs, labels)
        factors.append((coeffs, labels))
    return factors


def product_overlap(ca, la, cb, lb) -> complex:
    """<sum_t ca[t] |la[t]>|sum_u cb[u] |lb[u]>> for single-mode coherent sums."""
    la = np.asarray(la).reshape(-1, 1)
    lb = np.asarray(lb).reshape(-1, 1)
    return complex(np.conj(ca) @ _product_gram(la, lb) @ cb)


def hand_hessian_three_ions() -> np.ndarray:
    """Second-derivative matrix of the three-ion chain at its closed-form
    equilibrium +-(5/4)^(1/3), derived by hand from the pair distances."""
    a3 = 5.0 / 4.0  # nearest-neighbour distance cubed
    off_near = -2.0 / a3
    off_far = -2.0 / (8.0 * a3)
    diag_edge = 1.0 + 2.0 * (1.0 / a3 + 1.0 / (8.0 * a3))
    diag_mid = 1.0 + 4.0 / a3
    return np.array(
        [
            [diag_edge, off_near, off_far],
            [off_near, diag_mid, off_near],
            [off_far, off_near, diag_edge],
        ]
    )


def _newton_hessian(u: np.ndarray) -> np.ndarray:
    n = u.size
    if n == 1:
        return np.array([[1.0]])
    d = np.abs(u[:, None] - u[None, :])
    np.fill_diagonal(d, np.inf)
    inv3 = 1.0 / d**3
    h = -2.0 * inv3
    np.fill_diagonal(h, 1.0 + 2.0 * inv3.sum(axis=1))
    return h


def newton_equilibrium(n_ions: int) -> np.ndarray:
    """Equilibrium positions by the damped Newton iteration at every ion
    count, as ``chain.equilibrium_positions`` computed them before it took
    the closed forms at N <= 3 and one field evaluation per trial: the
    gradient re-evaluated at the top of each step, and up to 60 halvings of
    every step, at the rounding floor too."""
    if not 1 <= n_ions <= 64:
        raise ValueError("n_ions must lie in 1..64")
    if n_ions == 1:
        return np.zeros(1)
    u = np.linspace(-1.0, 1.0, n_ions) * n_ions**0.56
    gmax = np.inf
    for _ in range(200):
        g = potential_gradient(u)
        gmax = np.max(np.abs(g))
        if gmax <= 1e-13:
            break
        step = np.linalg.solve(_newton_hessian(u), -g)
        lam = 1.0
        for _ in range(60):
            trial = u + lam * step
            if np.all(np.diff(trial) > 0) and np.max(
                np.abs(potential_gradient(trial))
            ) < gmax:
                u = trial
                break
            lam *= 0.5
        else:
            if gmax <= 1e-10:
                break  # rounding floor reached inside the documented tolerance
            raise SolverError(
                f"equilibrium line search stalled at max|gradient| = {gmax:.3e}"
            )
    else:
        raise SolverError(
            f"equilibrium iteration budget exhausted, max|gradient| = {gmax:.3e}"
        )
    # The potential is reflection symmetric; remove the solver's rounding skew.
    return 0.5 * (u - u[::-1])


def loop_normal_modes(positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(frequencies, vectors) of ``chain.normal_modes`` with each vector's
    sign picked by a loop over the columns: the first entry above 1e-10 in
    magnitude is made positive, and the in-phase mode is stored exactly."""
    n = positions.size
    evals, evecs = np.linalg.eigh(_newton_hessian(positions))
    mu = np.sqrt(evals)
    for l in range(n):
        col = evecs[:, l]
        lead = np.flatnonzero(np.abs(col) > 1e-10)[0]
        if col[lead] < 0:
            evecs[:, l] = -col
    mu[0] = 1.0
    evecs[:, 0] = 1.0 / np.sqrt(n)
    return mu, evecs


def polynomial_all_roots_weights(coeffs: np.ndarray) -> np.ndarray:
    """One-shot reference for the inverse problem: all weights at once.

    Every weight's transform x = (p - 1)/(p + 1) is a root of the reversed-
    coefficient polynomial, so the full multiset comes straight from a single
    root call with no peel involved.
    """
    c = np.asarray(coeffs, dtype=np.complex128)
    roots = np.roots(c)  # descending powers: c[0] x^n + ... + c[n]
    return (1.0 + roots) / (1.0 - roots)


def _spin_operators(n_ions: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
    sy = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    eye = np.eye(2)
    ys, xs = [], []
    for i in range(n_ions):
        factors_y = [sy if j == i else eye for j in range(n_ions)]
        factors_x = [sx if j == i else eye for j in range(n_ions)]
        oy = factors_y[0]
        ox = factors_x[0]
        for f_y, f_x in zip(factors_y[1:], factors_x[1:]):
            oy = np.kron(oy, f_y)
            ox = np.kron(ox, f_x)
        ys.append(oy)
        xs.append(ox)
    return ys, xs


def sparse_trotter_validate(
    params: PhysicalParams,
    modes: ModeTable,
    t: float,
    cfg: TrotterConfig,
    weights=None,
    alpha: complex = 0j,
) -> TrotterReport:
    """``multimode.trotter_validate`` with every exponential-midpoint step
    taken on the sparse Hamiltonian by ``scipy.sparse.linalg.expm_multiply``.

    The Hamiltonian is rebuilt at each step from sparse Kronecker products of
    the spin and truncated quadrature operators; nothing uses the structure
    the library's step exploits, so the two agree only if that step is right.

    The drive couples each mode's quadratures to a collective spin operator
    with slowly rotating coefficients; one cycle of the protocol corresponds
    to propagating for the window ``t`` and projecting every ion onto |1>.
    The projected motional state is compared against the conditional states
    predicted with the integrated and endpoint displacement amplitudes.

    Three resolutions (steps, 2x, 4x) are always run; a Richardson limit from
    the two finest certifies second order (deviation ratio near 4) and an
    :class:`IntegratorError` flags anything far off that.
    """
    n = modes.n_ions
    if params.n_ions != n:
        raise ValueError("plan and mode table disagree on the ion count")
    if n > 2:
        raise ValueError("the referee is a desk-scale tool; n_ions <= 2 only")
    if cfg.cutoff * n > 10_000:
        raise ValueError("cutoff x modes beyond desk scale")
    if not (np.isfinite(t) and t > 0):
        raise ValueError("t must be positive and finite")
    weights = np.zeros(n, dtype=np.complex128) if weights is None else np.asarray(
        weights, dtype=np.complex128
    )
    if weights.shape != (n,):
        raise ValueError("need one weight per ion")

    size = cfg.cutoff + 1
    dim = 2**n * size**n
    if dim > 40_000:
        raise ValueError("joint Hilbert space beyond desk scale; lower the cutoff")

    # Constant operator skeletons; only scalar coefficients depend on time.
    diag = np.sqrt(np.arange(1, size))
    a = sp.diags(diag, 1, format="csr")
    x1 = ((a + a.T) / np.sqrt(2.0)).tocsr()
    p1 = (1j * (a.T - a) / np.sqrt(2.0)).tocsr()
    eye_m = sp.identity(size, format="csr")
    sy_list, sx_list = _spin_operators(n)
    mu = modes.frequencies
    coupling = lamb_dicke(modes, params.eta)

    def mode_op(op: sp.csr_matrix, slot: int) -> sp.csr_matrix:
        out = None
        for l in range(n):
            f = op if l == slot else eye_m
            out = f if out is None else sp.kron(out, f, format="csr")
        return out

    x_ops, p_ops = [], []
    for l in range(n):
        theta = sp.csr_matrix(sum(coupling[i, l] * sy_list[i] / 2.0 for i in range(n)))
        x_ops.append(sp.kron(theta, mode_op(x1, l), format="csr"))
        p_ops.append(sp.kron(theta, mode_op(p1, l), format="csr"))
    drive = -2.0 * np.sqrt(2.0) * params.omega
    jx = sp.csr_matrix(sum(sx_list) / 2.0)
    jx_full = sp.kron(jx, sp.identity(size**n, format="csr"), format="csr")

    def hamiltonian(tau: float, fast: bool) -> sp.csr_matrix:
        h = sp.csr_matrix((dim, dim), dtype=np.complex128)
        for l in range(n):
            slow = mu[l] - params.delta
            f = drive * np.cos(slow * tau)
            g = drive * np.sin(slow * tau)
            if fast:
                quick = mu[l] + params.delta
                f += drive * np.cos(quick * tau)
                g += drive * np.sin(quick * tau)
            h = h + f * x_ops[l] + g * p_ops[l]
        if fast:
            h = h + (4.0 * params.omega * np.cos(params.delta * tau)) * jx_full
        return h

    spin0 = np.array([1.0])
    for p in weights:
        spin0 = np.kron(spin0, np.array([1j * p, 1.0]) / np.sqrt(1.0 + abs(p) ** 2))
    motion0 = np.array([1.0])
    for l in range(n):
        motion0 = np.kron(motion0, coherent_fock(alpha if l == 0 else 0j, cfg.cutoff).amps)
    psi0 = np.kron(spin0, motion0)

    def evolve(steps: int, fast: bool) -> np.ndarray:
        psi = psi0.astype(np.complex128)
        dt = t / steps
        for k in range(steps):
            h = hamiltonian((k + 0.5) * dt, fast)
            psi = expm_multiply(-1j * dt * h, psi)
        return psi

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
        full = psi.reshape((2,) * n + (size,) * n)
        return full[(1,) * n].reshape(-1)

    cond = conditional(psi_4)
    cond_nsq = float(np.real(np.vdot(cond, cond)))

    plan = ProtocolPlan(
        params=params,
        alpha=alpha,
        cycles=(Cycle(duration=t, weights=weights),),
    )

    def predicted(integrated: bool) -> np.ndarray:
        vec = np.zeros(size**n, dtype=np.complex128)
        for c, row in zip(*exact_terms(plan, modes, integrated)):
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


# Multiply-adds of one referee step's change of motional basis, 2^n size^(n+1).
_STEP_BUDGET = 4_000_000


def stepped_trotter_validate(
    params: PhysicalParams,
    modes: ModeTable,
    t: float,
    cfg: TrotterConfig,
    weights=None,
    alpha: complex = 0j,
) -> TrotterReport:
    """``multimode.trotter_validate`` as it stood before the rotating-wave run
    went mode by mode in each spin sector: every run steps the whole
    ``2^n (cutoff + 1)^n`` state, and the fast terms' rotations are built
    one step at a time.  Verbatim but for the oracle's own :func:`exact_terms`
    in place of the package's private expansion.

    Propagate the joint spin (x) mode state under the interaction-picture
    Hamiltonian with exponential-midpoint steps and referee the analytic
    displacement predictions.

    The drive couples each mode's quadratures to a collective spin operator
    with slowly rotating coefficients; one cycle of the protocol corresponds
    to propagating for the window ``t`` and projecting every ion onto |1>.
    The projected motional state is compared against the conditional states
    predicted with the integrated and endpoint displacement amplitudes.

    Each step applies exp(-i dt H(tau)) exactly on the truncated space.  At
    a midpoint tau mode l's drive f x + g p is rho e^{i w_l tau N} x
    e^{-i w_l tau N} with a real envelope rho: rho = drive, w = mu - delta
    without the fast terms; with them drive (e^{i(mu-delta)tau} +
    e^{i(mu+delta)tau}) gives rho = 2 drive cos(delta tau), w = mu, beside
    the carrier c = 4 Omega cos(delta tau) (0 without).  The truncated x is
    V diag(lam) V^T and every spin operator but the carrier's sigma_x is
    diagonal in the sigma_y basis, so in the frame P(tau) = (x)_l V^T
    e^{-i w_l tau N} the step is a product R of closed-form 2 x 2 rotations
    generated by (a_{k,i} Z + c Y') / 2, a_{k,i} = rho sum_l eta[i, l]
    lam_{k_l}, at each motional eigen-index k.  Consecutive midpoints' frames
    differ by the constant W = (x)_l V^T e^{-i w_l dt N} V, so
    psi_K = P(tau_K)^+ R_K W ... W R_1 P(tau_1) psi_0: one change of motional
    basis per step, and without the fast terms one fixed diagonal R.
    Against two changes per step, the results move in the last digits.

    One step costs about 2^n (cutoff + 1)^(n + 1) multiply-adds per mode;
    above 4e6 (cutoff 99 at two ions, 1413 at one) a ValueError refuses the
    call before any allocation.  Three resolutions (steps, 2x, 4x) are
    always run; a Richardson limit from the two finest certifies second
    order (deviation ratio near 4), an :class:`IntegratorError` flags
    anything far off that, and deviations below 64 eps per finest step
    (rounding noise, as where the step is exact) read as 4.
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
    number = np.indices((size,) * n).reshape(n, -1)  # number[l, k]: N_l at the motional index k
    unit = lamb_dicke(modes, params.eta) @ lam[number]  # a_{k,i} per unit envelope
    drive = -2.0 * np.sqrt(2.0) * params.omega

    # Spins live in the sigma_y basis throughout: rows of to_y map a z-basis
    # spin onto (|+y>, |-y>), and <1| in the z basis reads (i, -i) / sqrt 2.
    to_y = np.array([[1.0, -1.0j], [1.0, 1.0j]]) / np.sqrt(2.0)
    spin0, bra = np.array([1.0]), np.array([1.0])
    for p in weights:
        spin0 = np.kron(spin0, to_y @ np.array([1j * p, 1.0]) / np.hypot(1.0, abs(p)))
        bra = np.kron(bra, np.array([1.0j, -1.0j]) / np.sqrt(2.0))
    motion0 = np.array([1.0])
    for l in range(n):
        motion0 = np.kron(motion0, coherent_fock(alpha if l == 0 else 0j, cfg.cutoff).amps)
    psi0 = np.outer(spin0, motion0)

    def change_modes(psi: np.ndarray, mats) -> np.ndarray:
        for l in range(n):
            psi = mats[l] @ psi.reshape(2**n * size**l, size, -1)
        return psi.reshape(2**n, -1)

    def evolve(steps: int, fast: bool) -> np.ndarray:
        dt = t / steps
        w = modes.frequencies - (0.0 if fast else params.delta)
        phase = dt * (w @ number)  # sum_l w_l N_l dt at each motional index
        turns = dt * np.multiply.outer(w, np.arange(size))
        # V^T e^{-i w_l dt N} V, the frame of one midpoint in that of the previous,
        # from two real products (half the work of one complex product)
        shift = [((vecs.T * np.cos(a)) @ vecs).astype(complex) for a in turns]
        for mat, a in zip(shift, turns):
            mat.imag = -((vecs.T * np.sin(a)) @ vecs)

        def rotation(rho: float, c: float):  # per ion and spin (+y, -y): diagonal, off-diagonal
            a = rho * unit
            r = np.hypot(a, c)
            sin = np.sin(0.5 * dt * r) / np.where(r > 0, r, 1.0)
            diag = np.cos(0.5 * dt * r) - 1j * sin * a
            return np.stack([diag, np.conj(diag)], axis=1), np.stack([sin * c, -sin * c], axis=1)

        if not fast:
            diags, _ = rotation(drive, 0.0)
            rot = reduce(lambda r, d: (r[:, None] * d).reshape(-1, size**n), diags, np.ones(1))
        psi = change_modes(psi0 * np.exp(-0.5j * phase), [vecs.T] * n)
        for k in range(steps):
            if k:
                psi = change_modes(psi, shift)
            if not fast:
                psi = rot * psi
                continue
            cos = np.cos(params.delta * (k + 0.5) * dt)
            diags, offs = rotation(2.0 * drive * cos, 4.0 * params.omega * cos)
            for i in range(n):
                spins = psi.reshape(2**i, 2, -1, size**n)
                psi = diags[i][:, None] * spins - offs[i][:, None] * spins[:, ::-1]
        return (change_modes(psi, [vecs] * n) * np.exp(1j * (steps - 0.5) * phase)).reshape(-1)

    psi_1 = evolve(cfg.steps, False)
    psi_2 = evolve(2 * cfg.steps, False)
    psi_4 = evolve(4 * cfg.steps, False)
    richardson = psi_4 + (psi_4 - psi_2) / 3.0
    dev_1 = np.linalg.norm(psi_1 - richardson)
    dev_2 = np.linalg.norm(psi_2 - richardson)
    # Rounding noise grows with the finest run's 4 * steps steps: at delta = 1,
    # where the one-ion step is exact, it measured 0.6-4.1 eps per step
    # (cutoffs 8-40, 10-640 base steps), at least 15x below this floor.
    floor = 64 * np.finfo(float).eps * 4 * cfg.steps
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
        vec = np.zeros(size**n, dtype=np.complex128)
        for c, row in zip(*exact_terms(plan, modes, integrated)):
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
        conditional_weight=min(cond_nsq, 1.0),  # a probability; rounding can pass 1
    )
