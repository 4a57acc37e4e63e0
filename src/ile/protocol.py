"""The conditional-measurement protocol on the centre-of-mass mode alone.

Each cycle prepares every ion's internal state as (|1> + i p |0>), drives all
ions with the bichromatic pair for a common window t, and post-selects on
seeing no fluorescence anywhere.  The surviving motional state is a
superposition of coherent components on a line,

    sum_k  C^k  D[(2k - n) beta] |alpha>,       n = (ions) x (cycles),

with C^k generated from the weights p_i by a two-term recurrence.  This
module builds that state, plus two success probabilities for the
post-selection record:

* ``p_nominal``, the closed-form product (1/4)^n prod 1/(1+|p_i|^2).  It
  ignores both the size of the surviving superposition and the overlaps of
  its displaced components, so it is reported but never treated as the
  physical probability.
* ``p_exact``, the true post-selection probability: the squared norm of each
  cycle's conditional state over the previous one, evaluated analytically
  (no truncation anywhere) as a sum over lags, see ``LineSuperposition.norm_sq``.

Phase bookkeeping: displacements generated within a run are collinear
(integer multiples of one beta), so their mutual composition phases vanish
identically and the product-to-sum step above is exact.  The only phases
that survive are those of D(gamma)|alpha> = exp((gamma conj(alpha) -
conj(gamma) alpha)/2) |alpha + gamma>, which ``to_fock`` and the norm
computations apply; the stored C^k themselves stay phase-free.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import SolverError, finite_complex, frozen_array
from .fock import (
    FockVector,
    TruncationWarning,
    _check_kept,
    _ldexp,
    _unit_parts,
    coherent_blocks,
    displacement_phase,
    fidelity_pure,
    line_overlaps,
)

__all__ = [
    "RegimeWarning",
    "PhysicalParams",
    "Cycle",
    "ProtocolPlan",
    "LineSuperposition",
    "ProtocolResult",
    "beta_of",
    "forward_coeffs",
    "scaled_coeffs",
    "success_probability_nominal",
    "log_slot_nominal",
    "success_probability_exact",
    "run_ideal",
    "to_fock",
    "fidelity_to_target",
    "cancellation_errors",
]

# A squared norm summed over coherent overlaps is refused when ||c||_1^2
# exceeds it by more than this: every overlap has modulus at most 1, so the
# summed terms reach ||c||_1^2, and rounding then leaves the norm fewer than
# about 16 - 8 = 8 correct digits.
_CANCELLATION_LIMIT = 1e8
_LOG_LIMIT = np.log(_CANCELLATION_LIMIT)
_FLOAT = np.finfo(np.float64)
_LN2 = math.log(2.0)
# Most slots between two rescalings of the recurrence: rescaling after every
# slot slows a planner pass by about 8%.  A slot multiplies the largest
# coefficient by at most 2 (1 + |p|), so fewer than _RESCALE_BITS / (1 +
# log2(1 + max |p|)) slots grow it by at most 2^1000, within the float range.
_BLOCK_SLOTS = 64
_RESCALE_BITS = 1000


class RegimeWarning(UserWarning):
    """Parameters are legal but outside the regime the scheme was derived in."""


@dataclass(frozen=True)
class PhysicalParams:
    """Drive parameters, all in units of the COM frequency.

    eta     recoil (Lamb-Dicke) parameter of the COM mode
    omega   Rabi frequency of the bichromatic pair, identical for all ions
    delta   detuning of the pair from the internal transition
    n_ions  number of ions addressed simultaneously
    """

    eta: float
    omega: float
    delta: float
    n_ions: int

    def __post_init__(self):
        if not (np.isfinite(self.eta) and self.eta > 0):
            raise ValueError("eta must be positive and finite")
        if self.eta > 0.25:
            raise ValueError(
                "eta > 0.25 breaks the first-order recoil expansion this model rests on"
            )
        if self.eta > 0.1:
            warnings.warn(
                f"eta = {self.eta} stretches the small-recoil expansion",
                RegimeWarning,
                stacklevel=3,
            )
        if not (np.isfinite(self.omega) and self.omega > 0):
            raise ValueError("omega must be positive and finite")
        _check_detuning(self.omega, self.delta, stacklevel=4)
        if int(self.n_ions) != self.n_ions or self.n_ions < 1:
            raise ValueError("n_ions must be a positive integer")


def _check_detuning(omega: float, delta: float, stacklevel: int) -> None:
    """The checks of :class:`PhysicalParams` that read ``delta``: ValueError
    unless it is positive, finite and above ``omega``, and a
    :class:`RegimeWarning` at ``stacklevel`` where ``omega`` passes delta / 10."""
    if not (np.isfinite(delta) and delta > 0):
        raise ValueError("delta must be positive and finite")
    if omega >= delta:
        raise ValueError("omega must stay below the detuning delta")
    if omega > delta / 10:
        warnings.warn(
            f"omega = {omega} is not small against delta = {delta}; "
            "the weak-drive elimination is marginal",
            RegimeWarning,
            stacklevel=stacklevel,
        )


def beta_of(params: PhysicalParams, t: float) -> complex:
    """Displacement amplitude accumulated by the COM mode over a window t.

    beta = i eta omega t exp(i (1 - delta) t); at delta = 1 the phase factor
    freezes and |beta| grows linearly with t.  A phase (1 - delta) t past the
    float range raises ValueError.
    """
    if not (np.isfinite(t) and t >= 0):
        raise ValueError("t must be non-negative and finite")
    phase = (1.0 - params.delta) * t
    if not np.isfinite(phase):
        raise ValueError(f"detuning phase (1 - delta) t must be finite, got {phase!r}")
    return complex(1j * params.eta * params.omega * t * np.exp(1j * phase))


@dataclass(frozen=True)
class Cycle:
    """One drive-and-measure round: a window length and one weight per ion."""

    duration: float
    weights: np.ndarray

    def __post_init__(self):
        if not (np.isfinite(self.duration) and self.duration > 0):
            raise ValueError("cycle duration must be positive and finite")
        object.__setattr__(self, "weights", frozen_array(self.weights, "weights"))


@dataclass(frozen=True)
class ProtocolPlan:
    """Full experiment description: drive parameters, initial coherent
    amplitude of the COM mode, and the cycle list.

    All cycles must share one duration, exactly: the line structure of the
    result holds only for a single displacement step, so unequal windows are
    rejected rather than silently producing something else.
    """

    params: PhysicalParams
    alpha: complex
    cycles: tuple

    def __post_init__(self):
        object.__setattr__(self, "alpha", finite_complex(self.alpha, "alpha"))
        cycles = tuple(self.cycles)
        if not cycles:
            raise ValueError("plan must contain at least one cycle")
        t0 = cycles[0].duration
        for c in cycles:
            if not isinstance(c, Cycle):
                raise ValueError("cycles must be Cycle instances")
            if c.duration != t0:
                raise ValueError("all cycle durations must be equal")
            if c.weights.size != self.params.n_ions:
                raise ValueError(
                    f"cycle carries {c.weights.size} weights for {self.params.n_ions} ions"
                )
        object.__setattr__(self, "cycles", cycles)

    @property
    def all_weights(self) -> np.ndarray:
        """Weights of every (cycle, ion) slot, cycle-major."""
        return np.concatenate([c.weights for c in self.cycles])


@dataclass(frozen=True)
class LineSuperposition:
    """Unnormalized sum_k coeffs[k] D[(2k - n) beta] |alpha> with n = len(coeffs) - 1."""

    alpha: complex
    beta: complex
    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "alpha", finite_complex(self.alpha, "alpha"))
        object.__setattr__(self, "beta", finite_complex(self.beta, "beta"))
        c = frozen_array(self.coeffs, "coeffs")
        if not np.any(c != 0):
            raise ValueError("at least one coefficient must be nonzero")
        object.__setattr__(self, "coeffs", c)

    @property
    def n(self) -> int:
        return self.coeffs.size - 1

    def displacements(self) -> np.ndarray:
        """The component displacements (2k - n) beta."""
        k = np.arange(self.coeffs.size)
        return (2 * k - self.n) * self.beta

    def labels(self) -> np.ndarray:
        """Coherent amplitudes alpha + (2k - n) beta of the components."""
        return self.alpha + self.displacements()

    def phased_coeffs(self) -> np.ndarray:
        """Coefficients with the D(gamma)|alpha> phases folded in, so that the
        state is exactly sum_k phased[k] |labels()[k]> on plain coherent kets."""
        return self.coeffs * displacement_phase(self.displacements(), self.alpha)

    def norm_sq(self) -> float:
        """Squared norm as a sum over lags; exact, no truncation.

        The Gram entry of components k and k + d is
        <alpha|D(2 d beta)|alpha>, a function of the lag d alone
        (:func:`ile.fock.line_overlaps`), so the norm is its sum against the
        autocorrelation of the phase-free coefficients: O(n^2) products and
        2n + 1 exponentials.  The sum is taken over the power of two 2^e of
        the largest coefficient part and scaled back by 4^e, which is exact,
        so coefficients at any scale give the value of scale 1 times their
        squared scale.  A sum cancelled past float precision, or a squared
        norm that is not a normal float, raises :class:`SolverError`."""
        nsq, e = self._scaled_norm_sq()
        with np.errstate(over="ignore"):
            out = float(np.ldexp(nsq, 2 * e))
        if not _FLOAT.tiny <= out <= _FLOAT.max:
            raise SolverError(
                f"squared norm {nsq:.6g} * 4^{e} lies outside the normal float range "
                f"[{_FLOAT.tiny:.3g}, {_FLOAT.max:.3g}]"
            )
        return out

    def _scaled_norm_sq(self) -> tuple[float, int]:
        """(nsq, e): the squared norm is nsq * 4**e, nsq the lag sum over the
        coefficients divided by 2**e, the power of two of their largest part
        (:func:`ile.fock._unit_parts`).  A sum the gate of
        :func:`cancellation_errors` refuses raises its :class:`SolverError`."""
        units, e = _unit_parts(self.coeffs)
        return _lag_norm_sq(units, line_overlaps(self.alpha, 2.0 * self.beta, self.n)), e


def _lag_norm_sq(c: np.ndarray, overlaps: np.ndarray) -> float:
    """Squared norm of a line with phase-free coefficients ``c`` and lag
    overlaps ``overlaps`` (lags -n..n); where the gate of
    :func:`cancellation_errors` refuses it, its :class:`SolverError` is
    raised.

    A positive sum is judged by the gate's comparison written for one
    scalar: the same numpy calls on the same values, so it passes exactly
    the sums the gate passes, and the logs of positive finite values need
    no ``np.errstate``.  Only a refused sum, or one that is not positive,
    goes through :func:`cancellation_errors`, which words the error."""
    lags = np.correlate(c, c, "full")  # lags[n + d] = sum_k conj(c[k]) c[k + d]
    nsq = float(np.real(lags @ overlaps))
    if nsq > 0.0 and 2.0 * np.log(np.sum(np.abs(c))) <= _LOG_LIMIT + np.log(nsq):
        return nsq
    raise cancellation_errors(np.array([nsq]), c)[0]


def cancellation_errors(nsq: np.ndarray, *factors) -> list:
    """Per squared norm in ``nsq`` of coherent sums whose coefficients are
    the outer product of ``factors``: the :class:`SolverError` that refuses
    it, where it is NaN or more than ``_CANCELLATION_LIMIT`` times below
    ||c||_1^2 = prod ||factor||_1^2 (compared in logs, free of overflow),
    else None."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        log_l1_sq = 2.0 * sum(np.log(np.sum(np.abs(f))) for f in factors)
        cancelled = ~(log_l1_sq <= _LOG_LIMIT + np.log(nsq))
        return [
            SolverError(
                f"coherent Gram sum cancelled past float precision: squared norm {x:.3g} "
                f"against ||c||_1^2 = {np.exp(log_l1_sq):.3g} "
                f"(limit ratio {_CANCELLATION_LIMIT:.0e})"
            ) if bad else None
            for x, bad in zip(nsq.tolist(), cancelled.tolist())
        ]


@dataclass(frozen=True)
class ProtocolResult:
    state: LineSuperposition
    p_nominal: float
    p_exact: float
    per_cycle_p_exact: np.ndarray


def forward_coeffs(weights) -> np.ndarray:
    """Line coefficients C^k generated by the weight sequence.

    Built by the two-term recurrence

        C_m^k = (1 + p_m) C_{m-1}^k + (1 - p_m) C_{m-1}^{k-1},

    starting from C_0^0 = 1; O(m^2) and exact for the all-zero row (binomial
    coefficients).  The result is symmetric under permutations of the weights.
    It is ``c * 2**e`` of :func:`scaled_coeffs`, so coefficients past the
    float range (about 1,030 zero weights) raise :class:`SolverError`.
    """
    return _ldexp(*scaled_coeffs(weights))


def scaled_coeffs(weights) -> tuple[np.ndarray, int]:
    """The line coefficients of ``weights`` as (c, e): forward_coeffs is
    c * 2**e, and the largest real or imaginary part of c lies in
    [0.5, 1).  The recurrence rescales itself as it runs, so c stays in
    range past the slot count where the coefficients themselves overflow;
    a slot that takes them past the float range all the same raises
    :class:`SolverError`."""
    w = frozen_array(weights, "weights")
    return next(_recurrence(w, w.size))


def _recurrence(weights: np.ndarray, block: int):
    """The recurrence of :func:`forward_coeffs`, the package's one loop over
    the slots.  After every ``block`` slots it yields (c, e), the prefix's
    coefficients being c * 2**e with the largest part of c in [0.5, 1); c is
    a view of the walk's buffer, valid until the generator resumes.

    One preallocated buffer holds the prefix, and one scratch row the
    shifted term, so a slot allocates nothing and makes three numpy calls:

        scratch = (1 - p) * c;  c = (1 + p) * c;  buf[1 : m + 2] += scratch.

    Each product is written scalar first, as ``(1 + p) * c`` spells it (and
    ``tests/oracles.unscaled_forward_coeffs`` with it): numpy's fused complex
    multiply gives other bits for ``c * (1 + p)``.  A slot of the allocating
    loop adds each term to a fresh row of zeros, 0 + a, which turns a -0.0
    part into +0.0.  The buffer adds 0.0 once per run of slots instead: a
    signed zero changes no nonzero sum or product, so only the signs of the
    zeros differ in between, and that one addition restores them.

    The walk divides the prefix by the power of two of its largest part
    (:func:`ile.fock._unit_parts`, in place) at every yield and after every
    run of slots short enough to stay in the float range (at most 64, fewer
    for weights past about 2.5e4), whatever the block.  Scaling by a power
    of two is exact, so c * 2**e is bitwise the unscaled recurrence while no
    value is subnormal or past the float range.  A run that overflows all
    the same (a weight past about 2^1000) raises :class:`SolverError`."""
    bits = 1.0 + math.log2(1.0 + float(np.abs(weights).max()))
    run = max(1, min(_BLOCK_SLOTS, int(_RESCALE_BITS / bits)))
    buf = np.zeros(weights.size + 1, dtype=np.complex128)
    buf[0] = 1.0
    scratch = np.empty(weights.size, dtype=np.complex128)
    e = 0
    for lo in range(0, weights.size, block):
        hi = min(lo + block, weights.size)
        for start in range(lo, hi, run):
            stop = min(start + run, hi)
            with np.errstate(over="ignore", invalid="ignore"):
                for m, p in enumerate(weights[start:stop], start):
                    c, s = buf[: m + 1], scratch[: m + 1]
                    np.multiply(1 - p, c, out=s)
                    np.multiply(1 + p, c, out=c)
                    buf[1 : m + 2] += s
            c = buf[: stop + 1]
            c += 0.0
            e += _unit_parts(c, out=c)[1]
        yield buf[: hi + 1], e


def success_probability_nominal(weights) -> float:
    """Closed-form probability estimate (1/4)^n prod 1/(1 + |p_i|^2).

    This is the squared prefactor of the unnormalized conditional state.  It
    neglects the norm of the surviving coefficient vector and all overlaps
    between displaced components, so it can sit far below the true
    post-selection probability; see ``success_probability_exact``.  Weights
    that are not a non-empty, finite 1-D sequence raise ValueError.
    """
    w = frozen_array(weights, "weights")
    with np.errstate(over="ignore"):  # past |p| ~ 1e154 the factor is 1/inf = 0
        return float(0.25 ** w.size * np.prod(1.0 / (1.0 + np.abs(w) ** 2)))


def log_slot_nominal(weights) -> np.ndarray:
    """log(1 / (4 (1 + |p|^2))) per weight, 1 + |p|^2 taken as hypot(1, |p|)^2:
    the logs of the factors of :func:`success_probability_nominal`, whose
    product underflows long before their sum does, finite for finite p."""
    return np.log(0.25) - 2.0 * np.log(np.hypot(1.0, np.abs(weights)))


def _line_pass(plan: ProtocolPlan) -> tuple[np.ndarray, int, np.ndarray]:
    """One pass of the slot recurrence over the whole plan, read once per
    cycle.

    Returns (c, e, per_cycle): the line coefficients are c * 2**e, and
    per_cycle[j] is cycle j's post-selection probability, read off the
    prefix of the recurrence that ends with that cycle.  At every cycle
    boundary the prefix is c_j 2**e_j with the largest part of c_j in [0.5, 1)
    (see :func:`scaled_coeffs`), so it neither over- nor underflows, and
    c * 2**e equals :func:`forward_coeffs` of all weights bitwise while that
    is finite and no coefficient is subnormal.

    The prefix's state has squared norm 4**e_j N_j, N_j the lag sum of c_j,
    and

        per_cycle[j] = aleph_j^2 4**(e_j - e_{j-1}) N_j / N_{j-1},

    aleph_j^2 the product of the cycle's slot factors 1/(4 (1 + |p|^2)).  Its
    log is summed from quantities of order one per cycle (the log of aleph_j^2,
    the exponent step times log 2 and the logs of N_j and N_{j-1}), never
    from running totals that grow with the plan and cancel.
    """
    weights = plan.all_weights
    n = weights.size
    # lag overlaps of the whole line; the prefix of m slots reads the middle 2m + 1
    overlaps = line_overlaps(plan.alpha, 2.0 * beta_of(plan.params, plan.cycles[0].duration), n)
    log_a = log_slot_nominal(weights.reshape(len(plan.cycles), -1)).sum(axis=1)
    exp2, log_prev = 0, 0.0
    per_cycle = np.empty(len(plan.cycles))
    for j, (c, e) in enumerate(_recurrence(weights, plan.params.n_ions)):
        m = c.size - 1
        log_cur = math.log(_lag_norm_sq(c, overlaps[n - m : n + m + 1]))
        # exp(min(x, 0)) = min(exp(x), 1), a NaN stays NaN
        per_cycle[j] = math.exp(min(log_a[j] + 2.0 * (e - exp2) * _LN2 + log_cur - log_prev, 0.0))
        exp2, log_prev = e, log_cur
    return c, exp2, per_cycle


def success_probability_exact(plan: ProtocolPlan) -> tuple[float, np.ndarray]:
    """True probability of the all-no-fluorescence record, cycle by cycle.

    Each cycle applies the conditional operator
    prod_i [(1 - p_i) D(beta) + (1 + p_i) D(-beta)] / (2 sqrt(1 + |p_i|^2));
    the cycle's probability is the squared-norm ratio after/before, each
    norm a sum over lags (``LineSuperposition.norm_sq``) of a prefix of the
    one coefficient recurrence.  Coinciding components (beta = 0) reduce to
    the scalar case automatically since the lag overlaps are then all ones.
    The prefixes are carried scaled by powers of two, so long plans neither
    under- nor overflow, past the slot count where the coefficients
    themselves leave the float range too.

    Returns (total, per-cycle array); the total is the product of the
    per-cycle values.
    """
    per_cycle = _line_pass(plan)[2]
    return float(np.prod(per_cycle)), per_cycle


def run_ideal(plan: ProtocolPlan) -> ProtocolResult:
    """Run the whole plan on the COM mode alone.

    The weights of all cycles concatenate into one sequence of length
    n = (ions) x (cycles); a plan with one ion and 2m cycles therefore
    produces exactly the same coefficients as two ions and m cycles carrying
    the same sequence.  One pass of the recurrence gives the coefficients
    (those of :func:`forward_coeffs`) and, at each cycle boundary, that
    cycle's ``p_exact`` (see :func:`success_probability_exact`).
    Coefficients past the float range raise :class:`SolverError`.
    """
    c, exp2, per_cycle = _line_pass(plan)
    return ProtocolResult(
        state=LineSuperposition(
            alpha=plan.alpha,
            beta=beta_of(plan.params, plan.cycles[0].duration),
            coeffs=_ldexp(c, exp2),
        ),
        p_nominal=success_probability_nominal(plan.all_weights),
        p_exact=float(np.prod(per_cycle)),
        per_cycle_p_exact=per_cycle,
    )


def to_fock(state: LineSuperposition, cutoff: int) -> FockVector:
    """Expand the line superposition on the truncated number basis.

    Each component enters as phased_coeffs()[k] |labels()[k]>, its number
    amplitudes a row of the blocks of :func:`ile.fock.coherent_blocks`,
    added in the order of k.  A TruncationWarning reports a dump whose
    squared norm is off the state's exact one (``norm_sq``) by more than 1e-8
    of it, both taken over the coefficients' power of two (the one
    truncation test of :mod:`ile.fock`), or one left unchecked as that norm
    is refused; pick the cutoff with
    :func:`ile.fock.recommended_cutoff` for |alpha| + n |beta|.  A cutoff
    below 1 raises ValueError before anything is allocated; a displacement
    phase (:func:`ile.fock.displacement_phase`) or an amplitude past the
    float range raises :class:`SolverError`.
    """
    if cutoff < 1:
        raise ValueError("cutoff must be at least 1")
    amps = np.zeros(cutoff + 1, dtype=np.complex128)
    phased = state.phased_coeffs()
    rows = itertools.chain.from_iterable(coherent_blocks(state.labels(), cutoff))
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        for c, row in zip(phased, rows):
            if c != 0:
                amps += c * row
    if not np.all(np.isfinite(amps)):
        raise SolverError(f"number amplitudes at cutoff {cutoff} pass the float range")
    out = FockVector(amps)
    try:
        exact, exp2 = state._scaled_norm_sq()
    except SolverError as exc:
        note = f"cutoff {cutoff}: dump unchecked, as the state's exact norm is refused ({exc})"
        warnings.warn(note, TruncationWarning, stacklevel=2)
    else:
        dump = _ldexp(amps, -exp2)
        _check_kept(float(np.real(np.vdot(dump, dump))) / exact, cutoff, stacklevel=3)
    return out


def fidelity_to_target(state: LineSuperposition, target: FockVector) -> float:
    """Fidelity of the line superposition to a number-basis target.

    Evaluated at the target's own cutoff; both inputs may be unnormalized,
    and the value is invariant under a global phase or scale of either.
    """
    return fidelity_pure(to_fock(state, target.cutoff), target)
