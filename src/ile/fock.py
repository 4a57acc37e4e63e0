"""Truncated Fock-space numerics for a single bosonic mode.

Coherent amplitudes, displacement matrices, overlaps and fidelities.  The
only approximation anywhere in this module is the number-basis cutoff, and
every object that can suffer from it exposes an explicit tail-weight
diagnostic instead of hiding the truncation.

States are stored unnormalized; norms are computed on demand.  All values
are immutable after construction and safe to share between threads: the
records hold read-only copies made by :func:`ile.errors.frozen_array`, and
complex inputs pass :func:`ile.errors.finite_complex`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import SolverError, finite_complex, frozen_array

__all__ = [
    "TruncationWarning",
    "FockVector",
    "DisplacementMatrix",
    "recommended_cutoff",
    "coherent_fock",
    "coherent_table",
    "coherent_blocks",
    "displacement_matrix",
    "apply_displacement",
    "coherent_overlap",
    "line_overlaps",
    "displacement_phase",
    "inner",
    "norm",
    "fidelity_pure",
]


# Amplitudes per block of ``coherent_blocks``; two blocks make 2^20.
_ROW_BLOCK = 1 << 19


class TruncationWarning(UserWarning):
    """A truncated-basis result carries non-negligible tail weight."""


def recommended_cutoff(gamma_max: float) -> int:
    """Cutoff that keeps the Poisson tail of every coherent component below
    ~1e-10: :func:`_cutoff_bound` rounded up, where no TruncationWarning is
    issued.  ``gamma_max`` is the largest coherent amplitude magnitude
    reachable in the computation (initial amplitude plus all accumulated
    displacements)."""
    return int(np.ceil(_cutoff_bound(abs(float(gamma_max)))))


def _cutoff_bound(mag: float) -> float:
    """g^2 + 6g + 10 at g = ``mag`` (inf past g ~ 1e154): the cutoff whose
    Poisson tail is near 1e-10, which :func:`recommended_cutoff` rounds up."""
    return mag * mag + 6.0 * mag + 10.0


@dataclass(frozen=True)
class FockVector:
    """Pure state of one mode on the number basis ``|0..M>``, unnormalized.

    ``amps[n]`` is the amplitude on phonon number ``n``; the cutoff is
    ``len(amps) - 1``.  ``tail_weight`` reports the probability weight on the
    top three levels, the standard proxy for truncation damage.
    """

    amps: np.ndarray

    def __post_init__(self):
        arr = frozen_array(self.amps, "amplitudes")
        if arr.size < 2:
            raise ValueError("cutoff must be at least 1")
        object.__setattr__(self, "amps", arr)

    @property
    def cutoff(self) -> int:
        return self.amps.size - 1

    @property
    def tail_weight(self) -> float:
        """Weight |amps[n]|^2 summed over the levels n >= cutoff - 2."""
        return float(np.sum(np.abs(self.amps[-3:]) ** 2))


@dataclass(frozen=True)
class DisplacementMatrix:
    """Number-basis matrix of D(beta) = exp(beta a^+ - beta* a), truncated.

    ``entries[m, n]`` holds <m|D(beta)|n>.  The matrix is unitary up to
    truncation; the error is confined to columns within a few |beta|^2 of
    the cutoff.
    """

    beta: complex
    entries: np.ndarray

    def __post_init__(self):
        arr = frozen_array(self.entries, "entries", ndim=2)
        if arr.shape[0] != arr.shape[1] or arr.shape[0] < 2:
            raise ValueError("entries must be a square matrix of size >= 2")
        object.__setattr__(self, "entries", arr)
        object.__setattr__(self, "beta", finite_complex(self.beta, "beta"))


def coherent_fock(alpha: complex, cutoff: int) -> FockVector:
    """Coherent state |alpha> truncated at ``cutoff`` phonons.

    amplitude(n) = exp(-|alpha|^2/2) alpha^n / sqrt(n!) via the ratio
    recurrence of :func:`coherent_table`, whose one row it is; the
    recurrence stays stable far beyond where explicit factorials overflow.
    When |alpha|^2 > cutoff/2 the Poisson peak crowds the cutoff, and below
    :func:`recommended_cutoff` a :class:`TruncationWarning` is issued; the
    state is still returned, with ``tail_weight`` quantifying the damage.
    """
    alpha = finite_complex(alpha, "alpha")
    if cutoff < 1:
        raise ValueError("cutoff must be at least 1")
    _warn_crowded(abs(alpha), cutoff, stacklevel=3)
    return FockVector(coherent_table([alpha], cutoff)[0])


def _warn_crowded(mag: float, cutoff: int, stacklevel: int) -> None:
    """:class:`TruncationWarning` when a coherent amplitude of modulus ``mag``
    passes sqrt(cutoff/2), where the Poisson peak crowds the cutoff, and the
    cutoff is below the recommended :func:`_cutoff_bound`."""
    if mag > math.sqrt(cutoff / 2) and cutoff < _cutoff_bound(mag):
        warnings.warn(
            f"|alpha| = {mag:.3g} exceeds sqrt(cutoff/2) = {math.sqrt(cutoff / 2):.3g}; "
            "truncation is unreliable",
            TruncationWarning,
            stacklevel=stacklevel,
        )


def coherent_table(labels, cutoff: int) -> np.ndarray:
    """Coherent states |labels[j]> truncated at ``cutoff`` phonons, one per
    row of a (len(labels), cutoff + 1) array.

    The package's one coherent-ket recurrence: amplitude n of row j is
    amplitude n - 1 times g = labels[j], then times 1/sqrt(n), from the seed
    exp(-|g|^2/2), run down the levels for all rows at once on separate real
    and imaginary parts, as re gr - im gi and im gr + re gi.  Each row is
    therefore bitwise, signs of zero included, the same recurrence on Python
    complex scalars.  (A complex-array multiply is not bitwise equal to the
    scalar product.)  Unlike :func:`coherent_fock` it issues no
    :class:`TruncationWarning`; a caller whose labels may crowd the cutoff
    checks them, or the tail weight of what it builds.
    """
    labels = np.asarray(labels, dtype=np.complex128)
    if labels.ndim != 1:
        raise ValueError("labels must be a 1-D sequence")
    if not np.all(np.isfinite(labels)):
        raise ValueError("labels must be finite")
    if cutoff < 1:
        raise ValueError("cutoff must be at least 1")
    rows = labels.size
    table = np.empty((rows, cutoff + 1, 2))  # (re, im) of row j at level n
    # z holds (re, im, re) of the current level, so that its first 2 rows
    # entries are the parts and its last 2 rows the swapped parts, both
    # contiguous: the next level is parts (gr, gr) + swapped (-gi, gi).
    z = np.zeros(3 * rows)
    # The seed exp(-|g|^2 / 2); past |g| ~ 1e154 the square overflows, and
    # every amplitude is 0.
    mags = [abs(g) for g in labels.tolist()]
    z[:rows] = [float(np.exp(-0.5 * m**2)) if m < 1e150 else 0.0 for m in mags]
    z[2 * rows :] = z[:rows]
    parts, swapped, head, tail = z[: 2 * rows], z[rows:], z[:rows], z[2 * rows :]
    by_parts = np.concatenate([labels.real, labels.real])
    by_swapped = np.concatenate([-labels.imag, labels.imag])
    left = np.empty(2 * rows)
    right = np.empty(2 * rows)
    level = parts.reshape(2, rows).T
    table[:, 0] = level
    for n in range(1, cutoff + 1):
        np.multiply(parts, by_parts, out=left)
        np.multiply(swapped, by_swapped, out=right)
        np.add(left, right, out=parts)
        parts *= 1.0 / math.sqrt(n)
        tail[:] = head
        table[:, n] = level
    return table.view(np.complex128).reshape(rows, cutoff + 1)


def coherent_blocks(labels, cutoff: int):
    """``coherent_table(labels, cutoff)`` in consecutive blocks of rows, each
    of at most ``_ROW_BLOCK`` amplitudes (one row at least): a caller holding
    one block while the next is built keeps two blocks alive at most,
    however long the grid and large the cutoff."""
    labels = np.asarray(labels, dtype=np.complex128)
    step = max(1, _ROW_BLOCK // (cutoff + 1))
    for start in range(0, labels.size, step):
        yield coherent_table(labels[start : start + step], cutoff)


def displacement_matrix(beta: complex, cutoff: int) -> DisplacementMatrix:
    """Displacement operator on the truncated number basis.

    Column 0 is the coherent ket |beta> and row 0, <0|D|n> =
    (-beta*)^n exp(-|beta|^2/2)/sqrt(n!), the ket |-beta*>, both rows of one
    :func:`coherent_table`.  They seed a two-term ladder recurrence,

        sqrt(m+1) <m+1|D|n> = beta <m|D|n> + sqrt(n) <m|D|n-1>,

    equivalent to the associated-Laguerre closed form but free of the
    factorial-ratio cancellation that corrupts the naive formula past
    n ~ 20.  D(0) is the identity exactly, which the ladder misses by an ulp.
    """
    beta = finite_complex(beta, "beta")
    if cutoff < 1:
        raise ValueError("cutoff must be at least 1")
    size = cutoff + 1
    if beta == 0:
        return DisplacementMatrix(beta=beta, entries=np.eye(size, dtype=np.complex128))
    d = np.zeros((size, size), dtype=np.complex128)
    d[:, 0], d[0] = coherent_table([beta, -beta.conjugate()], cutoff)
    root = np.sqrt(np.arange(size))
    for m in range(1, size):
        d[m, 1:] = (beta * d[m - 1, 1:] + root[1:] * d[m - 1, :-1]) / root[m]
    return DisplacementMatrix(beta=beta, entries=d)


def apply_displacement(state: FockVector, beta: complex) -> FockVector:
    """Apply D(beta) to ``state``, the matrix built at the state's cutoff."""
    return FockVector(displacement_matrix(beta, state.cutoff).entries @ state.amps)


def coherent_overlap(g1: complex, g2: complex) -> complex:
    """Analytic overlap <g1|g2> of two coherent states.

    exp(-|g1|^2/2 - |g2|^2/2 + conj(g1) g2); the truncation-free twin of the
    Fock inner product, used as an independent cross-check throughout.
    """
    g1 = finite_complex(g1, "g1")
    g2 = finite_complex(g2, "g2")
    return complex(np.exp(-0.5 * (abs(g1) ** 2 + abs(g2) ** 2) + np.conj(g1) * g2))


def line_overlaps(alpha: complex, step, n: int) -> np.ndarray:
    """<alpha|D(d step)|alpha> = exp(-d^2 |step|^2 / 2 + 2i d Im(conj(alpha) step))
    for the lags d = -n..n, in that order; for an array of steps, one such
    row per step (shape ``step.shape + (2n + 1,)``).

    Every component of a line superposition sum_k c[k] D((2k - n) beta)|alpha>
    is a multiple of one step, and collinear displacements compose without a
    phase, so its Gram entries depend on the lag k' - k alone: with
    step = 2 beta, the squared norm is the lag sum of these values against
    the autocorrelation np.correlate(c, c, "full").  Each step's |step|^2
    and phase are taken in Python complex arithmetic, so a row does not
    depend on the other steps beside it."""
    alpha = finite_complex(alpha, "alpha")
    steps = np.asarray(step, dtype=np.complex128)
    if np.isnan(steps).any():
        raise ValueError(f"step must not be NaN, got {step!r}")
    d = np.arange(-n, n + 1, dtype=float)
    half_sq, turn = [], []
    for s in steps.ravel().tolist():
        try:
            half_sq.append(-0.5 * abs(s) ** 2)
        except OverflowError:
            half_sq.append(-math.inf)
        turn.append(2j * (alpha.conjugate() * s).imag)
    half_sq = np.array(half_sq)[:, None]
    with np.errstate(over="ignore", invalid="ignore"):  # rows past the range are replaced
        out = np.exp(d * (half_sq * d + np.array(turn)[:, None]))
    # |step|^2 past float range: the exact limit, 1 at lag 0, else 0
    out[half_sq[:, 0] == -math.inf] = d == 0
    return out.reshape(steps.shape + d.shape)


def displacement_phase(beta, alpha: complex) -> np.ndarray:
    """Phase e^{(beta conj(alpha) - conj(beta) alpha)/2} in
    D(beta)|alpha> = phase |alpha + beta>, elementwise over ``beta``.  An
    exponent past the float range (|alpha| |beta| past about 1e308) raises
    :class:`SolverError`."""
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        turn = 0.5 * (beta * np.conj(alpha) - np.conj(beta) * alpha)
    if not np.all(np.isfinite(turn)):
        raise SolverError("displacement phase Im(beta conj(alpha)) passes the float range")
    return np.exp(turn)


def _unit_parts(x: np.ndarray) -> tuple[np.ndarray, int]:
    """(x * 2**-e, e), exact, the largest real or imaginary part of complex
    ``x`` (not its modulus, which may overflow) in [0.5, 1); e = 0 at x = 0."""
    e = math.frexp(float(np.max(np.abs(x.view(np.float64)))))[1]
    return _ldexp(x, -e), e


def _ldexp(c: np.ndarray, e: int) -> np.ndarray:
    """c * 2**e on the real and imaginary parts separately: exact, signs of
    zero kept; a result past the float range raises :class:`SolverError`."""
    with np.errstate(over="ignore"):
        out = np.ldexp(c.view(np.float64), e).view(np.complex128)
    if not np.all(np.isfinite(out)):
        raise SolverError(f"line coefficients overflow at {c.size - 1} slots")
    return out


def inner(a: FockVector, b: FockVector) -> complex:
    """Hermitian inner product <a|b> (conjugate-linear in the first slot)."""
    if a.cutoff != b.cutoff:
        raise ValueError(f"cutoff mismatch: {a.cutoff} vs {b.cutoff}")
    return complex(np.vdot(a.amps, b.amps))


def norm(a: FockVector) -> float:
    """||a||, summed over the power of two of its largest part, so it is in
    range wherever the result is, amplitudes past 1e+-154 included."""
    units, e = _unit_parts(a.amps)
    return float(np.ldexp(np.linalg.norm(units), e))


def fidelity_pure(a: FockVector, b: FockVector) -> float:
    """|<a|b>|^2 / (|a|^2 |b|^2); the inputs may be unnormalized, at any
    scale: each is taken over the power of two of its largest part."""
    a, b = (FockVector(_unit_parts(v.amps)[0]) for v in (a, b))
    na = norm(a)
    nb = norm(b)
    if na == 0.0 or nb == 0.0:
        raise ValueError("fidelity undefined for a zero-norm state")
    val = abs(inner(a, b)) ** 2 / (na * na * nb * nb)
    return float(min(val, 1.0))
