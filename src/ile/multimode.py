"""All longitudinal modes at once: spectator-leakage metrics of the exact
conditional state, and a midpoint integrator that referees the analytic
displacement formulas against the underlying time-dependent Hamiltonian.

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

The exact conditional state is a product over ions: ion i, with weights
w_i over all c cycles, applies its own line sum_k a_i[k] D((2k - c) beta[i]),
a_i being forward_coeffs(w_i) times the root of its nominal probability.
It is held as those lines over their norms and the log of their squared
norms' product (:func:`_ion_lines`, in range at any cycle count), with the
(ions x modes) table of :func:`cycle_displacements`, and never expanded
but by the referee, whose few terms :func:`_expand` writes out.  The
factorized form lets every mode branch on its own: the product of the
exact state's per-mode marginals.  The two coincide whenever at most one
mode is displaced; the report's ``factorization_gap`` quantifies the gap
otherwise.

Collinearity: the mode vectors are real (:class:`ile.chain.ModeTable`
refuses others), so all displacements of one mode are real multiples of one
amplitude and compose without a phase; hence displacements, and the ions'
conditional operators, commute.  So the bra term k and ket
term k' of the expanded state, k, k' in [0, c]^N with amplitudes
a(k) = prod_i a_i[k_i], overlap by G(d) = prod_l <init_l|D(2 sum_i d_i beta[i, l])|init_l>
(init_0 = alpha, vacuum elsewhere), a function of the lag d = k' - k alone.
Every leakage field is a sum over the (2c + 1)^N lags, with no Gram or merge
of terms: the norm pairs G with the autocorrelations of the a_i, each <n_l>
with those tables carrying the step 2k - c on bra or ket, and the gap needs
h_l(k) = sum_k' conj(a(k')) G_l(k - k'), per mode one lag axis at a time
against each ion's shifted bra line, as :func:`_moments` contracts.
The reduced COM state is a matrix over the classes m = sum_i k_i: the COM
mode vector is exactly 1/sqrt(N), so every ion displaces the COM mode by the
same beta_0 and a term's COM label alpha + (2m - Nc) beta_0 depends on m
alone.

Sweeps: a sweep is one plan and two grids of one length, the detuning
delta and the window t of each point, which enter the displacement tables
alone.  ``analyze_points`` takes from the plan once what every point reads:
the ions' lines and the ideal line, the moment tables and class DFTs of
one joint autocorrelation per ion, and the memory check.  It checks the
grids at their extremes alone, so a delta sweep's RegimeWarning comes from
there, not from every point.  It evaluates the points in blocks, slices of
the grids, every lattice, table and COM-class matrix carrying the point on
a leading axis; at the frontier shapes a block is one point.
Each point's arithmetic is the one it has alone: matrix products run per
point over the batch and every per-point matrix is C-contiguous, so a row
of a sweep carries the bits of ``analyze_plan`` on its point, which is the
batch of one.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import errors
from .chain import ModeTable, lamb_dicke
from .errors import IntegratorError, SolverError, check_memory, frozen_array
from .fock import (
    FockVector,
    _check_kept,
    _unit_parts,
    coherent_table,
    displacement_phase,
    fidelity_pure,
    line_overlaps,
)
from .protocol import (
    Cycle,
    PhysicalParams,
    ProtocolPlan,
    _check_detuning,
    cancellation_errors,
    log_slot_nominal,
    scaled_coeffs,
)

__all__ = [
    "cycle_displacements",
    "LeakageReport",
    "analyze_points",
    "analyze_plan",
    "TrotterConfig",
    "TrotterReport",
    "trotter_validate",
]

# Memory of one point's report, refused up front past the 1 GiB budget:
# complex arrays of the (2c + 1)^N lags, of the (Nc + 1) x (2Nc + 1) COM-class
# sums (at most 3), two blocks of _class_matrix (see _class_block) and the
# ions' bra shifts of _Lines.  tracemalloc peaks at 4.5 lattices at 9 x 2 and
# 6.1 at 12 x 1, class blocks included; 7 is kept so that the admitted and
# refused shapes README lists, and the points per block, stay as they are.
# A block of points holds that per point, so the budget sets the points per
# block.
_LIVE_LATTICES = 7
_LIVE_CLASSES = 4
_BLOCK_ENTRIES = 1 << 20
# Lags a block of sweep points spans at most, 0.5 MB per complex lattice, so
# that the few lattices alive at once stay near one core's 2 MB L2 cache.
# Blocks as large as the memory budget allows ran 13% slower per point than
# single points at 6 x 2 (30 points of 15,625 lags) and 38% slower at 8 x 2
# (13 points of 390,625); under this bound no shape from 3 x 4 to 8 x 2 ran
# slower than its points one by one (CPU time, one BLAS thread).
_BLOCK_LAGS = 1 << 15
# Multiply-adds of one referee step's change of motional basis, 2^n size^(n+1).
_STEP_BUDGET = 4_000_000
# Multiply-adds of one whole referee call (see _run_cost), and each step's
# fixed cost in the same unit: fitted so that the slowest admitted call takes
# about a minute.
_RUN_BUDGET = 36_000_000_000
_SECTOR_STEP_OVERHEAD = 3_000
_FULL_STEP_OVERHEAD = 30_000
# Rotation entries the fast-terms run takes per block of steps.
_ROTATION_BLOCK = 1 << 18


@dataclass(frozen=True)
class LeakageReport:
    per_mode_mean_phonon: np.ndarray
    com_fidelity_vs_ideal: float
    com_purity: float
    factorization_gap: float

    def __post_init__(self):
        m = frozen_array(self.per_mode_mean_phonon, "per_mode_mean_phonon", float)
        object.__setattr__(self, "per_mode_mean_phonon", m)


def cycle_displacements(
    modes: ModeTable, params: PhysicalParams, t: float, integrated: bool
) -> np.ndarray:
    """Displacement amplitudes of one cycle for every (ion, mode) pair, as a
    read-only (ions x modes) table, finite, each column real multiples of
    one amplitude and the COM column one value.

    With ``integrated=False`` the endpoint form, whose COM column agrees
    with :func:`ile.protocol.beta_of` to rounding; with ``integrated=True`` the
    bounded time-integral form (see module docstring).
    """
    if modes.n_ions != params.n_ions:
        raise ValueError(
            f"mode table is for {modes.n_ions} ions, parameters for {params.n_ions}"
        )
    if not (np.isfinite(t) and t > 0):
        raise ValueError("t must be positive and finite")
    betas = _displacements(modes, params, [params.delta], [t], integrated)[0]
    betas.flags.writeable = False
    return betas


def _displacements(modes: ModeTable, params: PhysicalParams, deltas, ts, integrated: bool):
    """The tables of :func:`cycle_displacements` at the detunings ``deltas``
    and windows ``ts``, one (ions x modes) table per point; ValueError if a
    phase past the float range leaves one not finite."""
    ts = np.asarray(ts, dtype=float)[:, None]
    detune = modes.frequencies - np.asarray(deltas, dtype=float)[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        if integrated:
            window = ts * np.exp(0.5j * detune * ts) * np.sinc(detune * ts / (2.0 * np.pi))
        else:
            window = ts * np.exp(1j * detune * ts)
        betas = 1j * params.omega * lamb_dicke(modes, params.eta) * window[:, None, :]
    if not np.all(np.isfinite(betas)):
        raise ValueError("betas must be finite")
    return betas


def _class_block(n: int, c: int) -> int:
    """Entries one point's :func:`_class_matrix` block holds: as many of
    the Nc + 1 classes as fit _BLOCK_ENTRIES, one at least, each over the
    (2c + 1)^N lags.  Capped at _BLOCK_ENTRIES, the reservation the frontier
    shapes were measured with, so the budget admits the shapes it did."""
    lattice = (2 * c + 1) ** n
    return min(_BLOCK_ENTRIES, min(n * c + 1, max(1, _BLOCK_ENTRIES // lattice)) * lattice)


def _lattice_need(n: int, c: int) -> int:
    """Bytes one point's report may hold at once (see _LIVE_LATTICES)."""
    lattice, classes = (2 * c + 1) ** n, (n * c + 1) * (2 * n * c + 1)
    shifts = n * (2 * c + 1) * (c + 1)  # _Lines.shifts
    return 16 * (_LIVE_LATTICES * lattice + _LIVE_CLASSES * classes + shifts
                 + 2 * _class_block(n, c))


def _check_lattice(n: int, c: int) -> None:
    """Refuse a report of N = ``n`` ions and ``c`` cycles past the budget."""
    check_memory(_lattice_need(n, c), f"{2 * c + 1}^{n} lag terms need")


def _ion_lines(plan: ProtocolPlan) -> tuple[np.ndarray, float]:
    """(lines, log_scale): row i is ion i's line a_i = forward_coeffs(w_i)
    sqrt(success_probability_nominal(w_i)) over its norm, w_i the ion's weights
    over all cycles, and log_scale = log prod_i ||a_i||^2.  With c * 2**e
    from :func:`ile.protocol.scaled_coeffs`, ||c|| >= 0.5, the row c / ||c||
    is in range at any cycle count; the ion adds 2 (e log 2 + log ||c||) and
    the logs of its nominal factors to log_scale."""
    rows, log_scale = [], 0.0
    for w in plan.all_weights.reshape(len(plan.cycles), -1).T:
        line, exp2 = scaled_coeffs(w)
        norm = np.linalg.norm(line)
        rows.append(line / norm)
        log_scale += 2.0 * (exp2 * np.log(2.0) + np.log(norm)) + np.sum(log_slot_nominal(w))
    return np.array(rows), float(log_scale)


def _expand(alpha: complex, betas: np.ndarray, amps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(coeffs, labels): the unnormalized state
    prod_i (sum_k amps[i, k] D((2k - c) betas[i])) |alpha, 0, ...>, c =
    amps.shape[1] - 1, as sum_t coeffs[t] (x)_l |labels[t, l]> on plain
    coherent kets, COM phase in coeffs, all (c + 1)^N terms unmerged."""
    n, size = amps.shape
    k = np.indices((size,) * n).reshape(n, -1)  # every term's index tuple, ion 0 slowest
    labels = (2 * k.T - (size - 1)) @ betas
    coeffs = reduce(np.multiply.outer, amps).ravel()
    coeffs = coeffs * displacement_phase(labels[:, 0], alpha)
    labels[:, 0] += alpha
    return coeffs, labels


def _mode_overlaps(alpha: complex, betas: np.ndarray, c: int):
    """Mode by mode, <init_l|D(g)|init_l> = exp(-|g|^2 / 2 + 2i Im(conj(init_l) g))
    at g = 2 sum_i d_i betas[p, i, l], over each point's lattice (axis 0: the
    point p; axis i + 1: lag d_i at c + d_i)."""
    points, n = betas.shape[:2]
    lags = 2.0 * np.arange(-c, c + 1)
    for l in range(betas.shape[2]):
        g = betas[:, 0, l, None] * lags
        for i in range(1, n):
            g = g[..., None] + (betas[:, i, l, None] * lags).reshape((points,) + (1,) * i + (-1,))
        log = -0.5 * (g.real**2 + g.imag**2)
        if l == 0 and alpha != 0:
            log = log + 2j * (alpha.real * g.imag - alpha.imag * g.real)
        del g
        yield np.exp(log)


def _ion_tables(lines: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(tables, hats) off each ion's J[k, c + d] = conj(a_i[k]) a_i[k + d]:
    tables[i, c + d] holds its sums over k weighted by 1, s_k, s_{k+d} and
    s_k s_{k+d}, s_k = 2k - c (the step on neither side, the bra, the ket,
    both), that :func:`_moments` contracts, and hats[i, q] its sums times z_q^k
    at the Nc + 1 roots of unity z_q, the factors of :func:`_class_matrix`."""
    n, size = lines.shape
    c, k = size - 1, np.arange(size)
    joint = np.zeros((n, size, 2 * size - 1), dtype=np.complex128)  # [i, k, c + d]
    joint[:, k[:, None], c - k[:, None] + k] = np.conj(lines)[:, :, None] * lines[:, None, :]
    steps = 2.0 * k - c
    ket = joint * (steps[:, None] + 2.0 * np.arange(-c, size))  # s_{k+d} = s_k + 2d at [k, c + d]
    tables = np.stack([joint.sum(1), steps @ joint, ket.sum(1), steps @ ket], axis=-1)
    del ket
    return tables, np.fft.fft(joint, n=n * c + 1, axis=1)


def _moments(overlaps: np.ndarray, tables: np.ndarray) -> np.ndarray:
    """M[p, i, j] = sum_d G_p(d) prod_ion T_ion(d_ion), G_p = ``overlaps[p]``,
    where ion i's table carries the step s_k = 2k - c on the bra, ion j's on
    the ket, and index N is no ion (M[p, N, N] is the squared norm), with
    ``tables`` (N x (2c + 1) x 4) from :func:`_ion_tables`.  One contraction,
    last ion first, keeping a partial sum per placement; each point's
    products are matrix products of their own, as for a point alone."""
    points, (n, w) = overlaps.shape[0], tables.shape[:2]
    x = overlaps.reshape(points, 1, -1)
    pairs = [(n, n)]  # (bra ion, ket ion) of each partial sum
    for i in reversed(range(n)):
        y = (x.reshape(points, -1, w) @ tables[i]).reshape(points, len(pairs), -1, 4)
        plain, bra, ket, both = np.moveaxis(y, 3, 0)
        free_bra = [t for t, (b, _) in enumerate(pairs) if b == n]
        free_ket = [t for t, (_, k) in enumerate(pairs) if k == n]
        x = np.concatenate([plain, bra[:, free_bra], ket[:, free_ket], both[:, :1]], axis=1)
        pairs += [(i, pairs[t][1]) for t in free_bra] + [(pairs[t][0], i) for t in free_ket]
        pairs.append((i, i))
    out = np.zeros((points, n + 1, n + 1), dtype=np.complex128)
    out[(slice(None),) + tuple(zip(*pairs))] = x[:, :, 0]
    return out


def _class_matrix(spectators: np.ndarray, hats: np.ndarray) -> np.ndarray:
    """R[p, m, m'] = sum conj(a(k)) a(k') G_p(k' - k) over the terms of COM
    classes sum k_i = m and sum k'_i = m', G_p = ``spectators[p]``: ion by
    ion, the bra's class is the power of z at the Nc + 1 roots of unity
    (``hats`` from :func:`_ion_tables`), m' - m a lag sum, in blocks of the
    classes that :func:`_class_block` reserves."""
    points, (n, classes, w) = spectators.shape[0], hats.shape
    nc = classes - 1
    sums = np.empty((points, classes, 2 * nc + 1), dtype=np.complex128)  # [p, q, m' - m + nc]
    block = max(1, _class_block(n, w // 2) // spectators[0].size)
    for lo in range(0, classes, block):
        h = hats[:, lo : lo + block]
        x = spectators.reshape(points, 1, w, -1) * h[0][:, :, None]
        for hi in h[1:]:
            x = x.reshape(points, x.shape[1], x.shape[2], w, -1)
            y = np.zeros((points, x.shape[1], x.shape[2] + w - 1, x.shape[4]), dtype=np.complex128)
            for j in range(w):
                y[:, :, j : j + x.shape[2]] += x[:, :, :, j] * hi[:, j, None, None]
            x = y
        sums[:, lo : lo + block] = x[:, :, :, 0]
    m = np.arange(classes)
    # contiguous per point, as a point's matrix is alone: products read it by its strides
    return np.ascontiguousarray(np.fft.ifft(sums, axis=1)[:, m[:, None], m - m[:, None] + nc])


class _Lines:
    """The ions' unit lines and what every point that shares them reads from
    them alone: the product of the lines' squared norms, exp(``log_scale``)
    of :func:`_ion_lines` (at most 1, so it can only underflow, to 0), each
    ion's bra shifts S_i[c + d, k] = conj(a_i[k - d]) (zero where k - d is
    off the line) that carry a lag axis to a term axis, the ket's amplitudes
    over the term lattice, and the :func:`_ion_tables` of :func:`_moments`
    and :func:`_class_matrix`."""

    def __init__(self, lines: np.ndarray, log_scale: float):
        self.lines = lines
        self.scale = float(np.exp(log_scale))
        n, size = lines.shape
        k = np.arange(size)
        self.shifts = np.zeros((n, 2 * size - 1, size), dtype=np.complex128)
        self.shifts[:, size - 1 - k[:, None] + k, k] = np.conj(lines)[:, :, None]
        self.amps = reduce(np.multiply.outer, lines)
        self.tables, self.hats = _ion_tables(lines)


def _report(alpha: complex, betas: np.ndarray, shared: _Lines, ideal: np.ndarray) -> list:
    """Per point, the leakage report and exact probability, or the
    :class:`SolverError` that refuses the point, of points that share
    ``alpha`` and the lines of ``shared`` and differ in their displacement
    tables ``betas`` (points x ions x modes), as lag sums, against the
    ideal line with phase-free coefficients ``ideal`` on each point's own
    COM line (Nc + 1 of them).  Every array carries the point on its
    leading axis; each point's arithmetic is the one it has alone.  A
    point's cancelled norm or non-finite field refuses it."""
    points, (n, size) = len(betas), shared.lines.shape
    nc, c = n * (size - 1), size - 1
    beta0 = betas[:, 0, 0]
    lattice = tuple(range(1, n + 1))  # the lag axes; axis 0 is the point

    cross, fact_nsq = shared.amps, np.ones(points)
    spectators = np.ones((points,) + (2 * size - 1,) * n)
    for l, overlap in enumerate(_mode_overlaps(alpha, betas, c)):
        if l:
            spectators *= overlap
        # h_l(k) = sum_k' conj(a(k')) G_l(k - k'), last ion first: each
        # product turns the trailing lag axis into a term axis, moved to the
        # front of the lattice so that the next lag axis trails
        h = overlap
        for shift in shared.shifts[::-1]:
            h = np.moveaxis(h.reshape(points, -1, 2 * size - 1) @ shift, 2, 1)
        h = h.reshape((points,) + (size,) * n)
        fact_nsq *= np.real(np.sum(shared.amps * h, axis=lattice))  # ||f_l||^2
        cross = cross * h
    del overlap, h

    # the COM factor is taken again rather than held through the loop
    moments = _moments(spectators * next(_mode_overlaps(alpha, betas, c)), shared.tables)
    nsq = np.real(moments[:, n, n])
    refused = cancellation_errors(nsq, *shared.lines)
    # <n_l> nsq = u_l^H M u_l: ion rows hold the displacements, the last alpha
    com = np.broadcast_to(np.eye(1, betas.shape[2]) * alpha, (points, 1, betas.shape[2]))
    u = np.concatenate([betas, com], axis=1)
    # one einsum per point: over the batch, one ion's sums would run in another order
    quad = [np.einsum("il,ij,jl->l", np.conj(v), mp, v) for v, mp in zip(u, moments)]
    mean_phonon = np.real(quad) / nsq[:, None]

    r = _class_matrix(spectators, shared.hats)
    m = np.arange(nc + 1)
    # s[p, m, m'] = <class m|class m'> for point p's COM states
    # D((2m - nc) beta0)|alpha>, the components of the ideal line too
    s = np.ascontiguousarray(line_overlaps(alpha, 2.0 * beta0, nc)[:, m - m[:, None] + nc])
    rs = np.swapaxes(r, 1, 2) @ s
    # squares and moduli of single values are taken scalar by scalar, as a
    # point alone takes them: numpy's array kernels for them round otherwise
    nsq_sq = np.array([x**2 for x in nsq.tolist()])
    purity = np.clip(np.real(np.sum(rs * np.swapaxes(rs, 1, 2), axis=(1, 2))) / nsq_sq, 0.0, 1.0)
    o = s @ ideal  # o[p, m] = <class m|ideal>
    ideal_nsq = np.real(np.conj(ideal) @ o[:, :, None])[:, 0]  # np.vdot(ideal, o[p])
    ideal_errors = cancellation_errors(ideal_nsq, ideal)
    fid = np.real(o[:, None, :] @ r @ np.conj(o)[:, :, None])[:, 0, 0] / (nsq * ideal_nsq)
    fid = np.clip(fid, 0.0, 1.0)
    cross_sq = np.array([abs(z) ** 2 for z in np.sum(cross, axis=lattice)])
    gap = np.clip(1.0 - cross_sq / (fact_nsq * nsq), 0.0, 1.0)
    p_exact = np.clip(nsq * shared.scale, 0.0, 1.0)
    finite = np.isfinite(np.column_stack([fid, purity, gap, p_exact, mean_phonon])).all(axis=1)
    out = []
    for p, error in enumerate(e or f for e, f in zip(refused, ideal_errors)):
        if error is None and not finite[p]:
            error = SolverError(
                "a leakage field is not finite; the displacements lie past float range"
            )
        fields = mean_phonon[p], float(fid[p]), float(purity[p]), float(gap[p])
        out.append(error if error is not None else (LeakageReport(*fields), float(p_exact[p])))
    return out


def analyze_points(
    plan: ProtocolPlan, modes: ModeTable, integrated: bool, deltas, ts
) -> Iterator[tuple[LeakageReport, float] | SolverError]:
    """Per point (deltas[p], ts[p]) of two 1-D grids of one length, in
    order: the leakage report and exact probability :func:`analyze_plan`
    gives for ``plan`` at that detuning and window, or the
    :class:`SolverError` that refuses it.  ValueError for grids of other
    shapes, and for a point :class:`PhysicalParams` or :class:`Cycle` would
    refuse: their constraints on delta and t are monotone, so the grids'
    extremes, where a NaN lands too, are checked for every point.

    What the points share is computed once.  The points are then evaluated
    in blocks: as many as the 1 GiB budget holds at one point's need (see
    _LIVE_LATTICES) and as _BLOCK_LAGS lags hold, at least one, each
    block's results yielded before the next is evaluated.  A shape past the
    budget, or weights whose lines overflow, refuse every point; a point's
    cancelled norm or non-finite field refuses that point alone."""
    deltas, ts = np.asarray(deltas, dtype=float), np.asarray(ts, dtype=float)
    if deltas.ndim != 1 or deltas.shape != ts.shape:
        raise ValueError("the detuning and window grids must be 1-D and of one length")
    if not deltas.size:
        return
    n, c = plan.params.n_ions, len(plan.cycles)
    if modes.n_ions != n:
        raise ValueError("plan and mode table disagree on the ion count")
    # each constraint on delta and t is monotone, so the extremes stand for
    # every point; the plan passed them at its own values when it was built,
    # and warned about its eta then
    params, cycle = plan.params, plan.cycles[0]
    for delta, t in dict.fromkeys([(deltas.min(), ts.min()), (deltas.max(), ts.max())]):
        if delta != params.delta:
            _check_detuning(params.omega, float(delta), stacklevel=2)
        if t != cycle.duration:
            Cycle(float(t), cycle.weights)
    failure = None
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # refused below
        try:
            ideal = scaled_coeffs(plan.all_weights)[0]
            _check_lattice(n, c)
            lines = _Lines(*_ion_lines(plan))
        except SolverError as exc:
            failure = exc  # every point's; their tables are still checked

    block = max(1, min(errors.MEMORY_BUDGET_BYTES // _lattice_need(n, c),
                       _BLOCK_LAGS // (2 * c + 1) ** n))
    for lo in range(0, deltas.size, block):
        betas = _displacements(
            modes, plan.params, deltas[lo : lo + block], ts[lo : lo + block], integrated
        )
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            if failure is not None:
                results = [failure] * len(betas)
            else:
                results = _report(plan.alpha, betas, lines, ideal)
        yield from results  # outside errstate, which would otherwise reach the caller


def analyze_plan(
    plan: ProtocolPlan,
    modes: ModeTable,
    integrated: bool,
) -> tuple[LeakageReport, float]:
    """The leakage report of the plan and its exact probability: the batch of
    one of :func:`analyze_points`.  The ideal reference is the single-mode
    state built with the *same* displacement variant's COM amplitude (for
    the endpoint variant the two coincide), so ``com_fidelity_vs_ideal``
    isolates what the spectators did to the COM mode; its coefficients are
    those of :func:`ile.protocol.scaled_coeffs`, in range at any slot count.
    A field that is not finite, as when displacements past about 1e154
    square out of float range, raises :class:`SolverError`."""
    (result,) = analyze_points(
        plan, modes, integrated, [plan.params.delta], [plan.cycles[0].duration]
    )
    if isinstance(result, SolverError):
        raise result
    return result


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


def _run_cost(n: int, size: int, steps: int, fast: bool) -> int:
    """Work of one referee call in multiply-adds, each step counted with its
    fixed cost on top: 7 x steps rotating-wave steps over the three
    resolutions, n 2^n size^2 each, and with the fast terms 4 x steps
    full-state steps, n 2^n size^(n + 1) each."""
    cost = 7 * steps * (n * 2**n * size**2 + _SECTOR_STEP_OVERHEAD)
    if fast:
        cost += 4 * steps * (n * 2**n * size ** (n + 1) + _FULL_STEP_OVERHEAD)
    return cost


def _position_basis(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors (columns) of the position quadrature x =
    (a + a^+) / sqrt 2 truncated to ``size`` levels: the symmetric
    tridiagonal with zero diagonal and sqrt(k / 2) beside it."""
    off = np.sqrt(np.arange(1, size) / 2.0)
    return np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))


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
    differ by the constant W = (x)_l W_l, W_l = V^T e^{-i w_l dt N} V, so
    psi_K = P(tau_K)^+ R_K W ... W R_1 P(tau_1) psi_0.

    Without the fast terms nothing mixes the sigma_y sectors.  In the sector
    with signs s_i = +-1, R = prod_l diag(r_l), r_l = exp(-i dt drive g_l
    lam / 2) with g_l = sum_i s_i eta[i, l]; W and the initial spin (x)
    coherent (x) vacuum state are products over modes too.  So the sector
    holds its initial spin amplitude times (x)_l v_l, each v_l a
    (cutoff + 1)-vector that takes K steps of diag(r_l) W_l on its own: the
    n 2^n vectors step together, one batched product and one multiply per
    step at n 2^n (cutoff + 1)^2 multiply-adds, and the 2^n (cutoff + 1)^n
    state is built once per resolution, for the step-halving probe and the
    projection.  With the fast terms the carrier mixes the sectors and the
    whole state steps: a change of motional basis, n 2^n (cutoff + 1)^(n + 1)
    multiply-adds, and n spin rotations, whose entries are taken for a block
    of steps at once (at most 2^18 of them, so memory does not grow with the
    step count).

    The weights, the window and alpha are checked as the one-cycle
    :class:`ProtocolPlan` they make.  Both predictions read that plan's one
    exact state, the endpoint one with its own displacement table (the
    ions' lines depend on the weights alone), and each mode's kets, the
    initial one and every term's, are rows of one :func:`coherent_table`;
    one :class:`TruncationWarning` reports the row furthest off norm 1, past 1e-8.

    More than two ions are refused (ValueError) for cost: uncapped, the run
    matches full-state oracles at 3 and 4 ions, but from 5 on
    :func:`_run_cost` leaves out the fast-terms step's n spin rotations of
    the 2^n (cutoff + 1)^n state, and the slowest admitted call would take
    about 99 s at 5 ions and 1,150 s at 10 (CPU, one BLAS thread).

    Three guards refuse a call as bad input (ValueError) before its state
    is allocated: a full-state step past 2^n (cutoff + 1)^(n + 1) = 4e6
    multiply-adds (cutoff 99 at two ions, 1413 at one), a whole run past
    3.6e10 (:func:`_run_cost`, about a minute at a desk), and a step phase
    whose bound passes the float range: max(1, t) times the largest of
    cutoff |mu_l - delta| and 8 (cutoff + 1) omega and, with the fast terms,
    cutoff sum_l mu_l and 4 steps delta.  (The window's own phase
    (1 - delta) t is :func:`ile.protocol.beta_of`'s to check.)  Three
    resolutions (steps, 2x, 4x) are always run; a Richardson limit from the
    two finest certifies second order (deviation ratio near 4), an
    :class:`IntegratorError` flags anything far off that, and deviations
    below 64 eps per finest step (rounding noise, as where the step is
    exact) read as 4.
    """
    n = modes.n_ions
    if n > 2:
        raise ValueError("the referee is a desk-scale tool; n_ions <= 2 only")
    size = cfg.cutoff + 1
    if 2**n * size ** (n + 1) > _STEP_BUDGET:
        raise ValueError("one integrator step beyond desk scale; lower the cutoff")
    # in Python integers, so that a numpy step count cannot wrap round under the budget
    if _run_cost(n, size, int(cfg.steps), cfg.include_fast_terms) > _RUN_BUDGET:
        raise ValueError(
            "the whole integrator run beyond desk scale; lower the steps or the cutoff"
        )
    weights = np.zeros(params.n_ions) if weights is None else weights
    plan = ProtocolPlan(params, alpha, (Cycle(duration=t, weights=weights),))
    # The two predictions differ in their displacement tables alone.
    amps = _ion_lines(plan)[0]
    coeffs, labels = _expand(plan.alpha, cycle_displacements(modes, params, t, True), amps)
    endpoint = cycle_displacements(modes, params, t, integrated=False)
    coeffs_end, labels_end = _expand(plan.alpha, endpoint, amps)
    # Each phase a step forms is a window t, or a part of it, times a rate
    # times a count: (mu_l - delta) N up to the cutoff, the drive's omega
    # lambda g below 8 (cutoff + 1) omega, and with the fast terms sum_l mu_l
    # N_l and delta k for k < 4 steps.  Bounded with max(1, t) in place of t,
    # the bound also covers the partial products on the way.
    mu, omega, delta = modes.frequencies, float(params.omega), float(params.delta)
    rates = [cfg.cutoff * float(np.max(np.abs(mu - delta))), 8.0 * (cfg.cutoff + 1) * omega]
    name = "cutoff |mu - delta|, 8 (cutoff + 1) omega"
    if cfg.include_fast_terms:
        rates += [cfg.cutoff * float(mu.sum()), 4.0 * int(cfg.steps) * delta]
        name += ", cutoff sum(mu), 4 steps delta"
    phase = max(1.0, float(t)) * max(rates)
    if not np.isfinite(phase):
        raise ValueError(f"integrator phase max(1, t) max({name}) must be finite, got {phase!r}")
    # Row 0 of each mode's table holds the initial motion, then the terms.
    labels = np.vstack([np.zeros((1, n), dtype=np.complex128), labels, labels_end])
    labels[0, 0] = plan.alpha
    tables = [coherent_table(column, cfg.cutoff) for column in labels.T]
    kept = np.sum(np.abs(tables) ** 2, axis=2).ravel()
    _check_kept(float(kept[np.argmax(np.abs(kept - 1.0))]), cfg.cutoff, stacklevel=3)
    motion = np.array([table[0] for table in tables])

    lam, vecs = _position_basis(size)
    coupling = lamb_dicke(modes, params.eta)  # [i, l]
    drive = -2.0 * np.sqrt(2.0) * params.omega

    # Spins live in the sigma_y basis throughout: rows of to_y map a z-basis
    # spin onto (|+y>, |-y>), and <1| in the z basis reads (i, -i) / sqrt 2.
    # Ion 0's spin is the slowest index, and index 0 is +y (s_i = 1).  Each
    # spin (i p, 1) is normalized over its largest part, exact, so a finite
    # p whose modulus passes the float range keeps its state.
    to_y = np.array([[1.0, -1.0j], [1.0, 1.0j]]) / np.sqrt(2.0)
    spins = [_unit_parts(np.array([1j * p, 1.0]))[0] for p in plan.cycles[0].weights]
    spin0 = reduce(np.multiply.outer, [
        to_y @ s / np.hypot(abs(s[0]), abs(s[1])) for s in spins
    ]).ravel()
    bra = reduce(np.multiply.outer, [np.array([1.0j, -1.0j]) / np.sqrt(2.0)] * n).ravel()
    signs = 1 - 2 * np.indices((2,) * n).reshape(n, -1)  # signs[i, sector]

    def frame(w: np.ndarray, dt: float):
        """Per mode the turns w_l dt N and W_l, each from two real products
        (half the work of one complex product)."""
        turns = dt * np.multiply.outer(w, np.arange(size))
        shift = ((vecs.T * np.cos(turns)[:, None]) @ vecs).astype(complex)
        shift.imag = -((vecs.T * np.sin(turns)[:, None]) @ vecs)
        return turns, shift

    def evolve(steps: int) -> np.ndarray:
        """The rotating-wave run, mode by mode in each sector."""
        dt = t / steps
        turns, shift = frame(modes.frequencies - params.delta, dt)
        # v[l, :, sector] is v_l in the eigenbasis of x, r likewise r_l
        r = np.exp((-0.5j * dt * drive) * lam[:, None] * (coupling.T @ signs)[:, None])
        v = r * (vecs.T @ (motion * np.exp(-0.5j * turns))[:, :, None])
        for _ in range(steps - 1):
            v = shift @ v
            v *= r
        v = (vecs @ v) * np.exp(1j * (steps - 0.5) * turns)[:, :, None]
        # psi[sector] = spin0[sector] (x)_l v[l, :, sector], mode 0 slowest
        return reduce(
            lambda x, f: (x[:, :, None] * f[:, None]).reshape(2**n, -1),
            np.swapaxes(v, 1, 2),
            spin0[:, None],
        ).reshape(-1)

    def evolve_fast(steps: int) -> np.ndarray:
        """The run with the fast terms, on the whole state."""
        dt = t / steps
        turns, shift = frame(modes.frequencies, dt)
        number = np.indices((size,) * n).reshape(n, -1)  # number[l, k]: N_l at the motional index k
        phase = dt * (modes.frequencies @ number)  # sum_l w_l N_l dt at each motional index
        unit = coupling @ lam[number]  # a_{k,i} per unit envelope

        def change_modes(psi: np.ndarray, mats) -> np.ndarray:
            for l in range(n - 1):
                psi = mats[l] @ psi.reshape(2**n * size**l, size, -1)
            # the last mode's index runs fastest: one product from the right
            return (psi.reshape(-1, size) @ mats[n - 1].T).reshape(2**n, -1)

        psi0 = np.multiply.outer(spin0, reduce(np.multiply.outer, motion).ravel())
        psi = change_modes(psi0 * np.exp(-0.5j * phase), [vecs.T] * n)
        block = max(1, _ROTATION_BLOCK // unit.size)
        for lo in range(0, steps, block):
            cos = np.cos(params.delta * (np.arange(lo, min(lo + block, steps)) + 0.5) * dt)
            a = (2.0 * drive * cos)[:, None, None] * unit
            c = (4.0 * params.omega * cos)[:, None, None]
            r = np.hypot(a, c)
            sin = np.sin(0.5 * dt * r) / np.where(r > 0, r, 1.0)
            diag = np.cos(0.5 * dt * r) - 1j * sin * a
            # per step, ion and spin (+y, -y): the rotation's diagonal and off-diagonal
            diags = np.stack([diag, np.conj(diag)], axis=2)
            offs = np.stack([sin * c, -sin * c], axis=2)
            for k, (d, o) in enumerate(zip(diags, offs), lo):
                if k:
                    psi = change_modes(psi, shift)
                for i in range(n):
                    spins = psi.reshape(2**i, 2, -1, size**n)
                    psi = d[i][:, None] * spins - o[i][:, None] * spins[:, ::-1]
        return (change_modes(psi, [vecs] * n) * np.exp(1j * (steps - 0.5) * phase)).reshape(-1)

    psi_1 = evolve(cfg.steps)
    psi_2 = evolve(2 * cfg.steps)
    psi_4 = evolve(4 * cfg.steps)
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

    def predicted(coeffs: np.ndarray, first: int) -> np.ndarray:
        vec = np.zeros(size**n, dtype=np.complex128)
        for k, c in enumerate(coeffs, first):
            vec += reduce(np.multiply.outer, [table[k] for table in tables], c).ravel()
        return vec

    others = [predicted(coeffs, 1), predicted(coeffs_end, 1 + coeffs.size)]
    if cfg.include_fast_terms:
        others.append(conditional(evolve_fast(4 * cfg.steps)))
    try:
        ket = FockVector(cond)
        fid_int, fid_end, *fast = [fidelity_pure(ket, FockVector(v)) for v in others]
    except ValueError as exc:  # a zero-norm state
        raise IntegratorError("conditional state vanished; nothing to compare") from exc
    effect = float(np.clip(1.0 - fast[0], 0.0, 1.0)) if fast else None

    return TrotterReport(
        fidelity_integrated=fid_int,
        fidelity_endpoint=fid_end,
        step_halving_ratio=ratio,
        fast_terms_effect=effect,
        conditional_weight=min(cond_nsq, 1.0),  # a probability; rounding can pass 1
    )
