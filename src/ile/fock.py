"""Truncated Fock-space numerics for a single bosonic mode.

Coherent amplitudes, displacement matrices, overlaps and fidelities.  The
only approximation anywhere in this module is the number-basis cutoff.

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

from .errors import SolverError, as_array, count, finite_complex, frozen_array, real

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
    """A truncated ket's squared norm is off its exact state's by over 1e-8."""


def recommended_cutoff(gamma_max: float) -> int:
    """ceil(g^2 + 6g + 10) at g = |``gamma_max``|, the largest coherent
    amplitude magnitude reachable (initial amplitude plus all accumulated
    displacements).  There a coherent ket's squared norm is within 4.7e-10
    of 1 up to g = 38.0; from about g = 38.2 the seed exp(-g^2/2) is too
    small to hold the ket, which is wrong, and a TruncationWarning says so.
    A NaN, an infinity or a g whose square passes the float range raises
    ValueError."""
    mag = abs(real(gamma_max, "gamma_max"))
    if not math.isfinite(mag * mag):
        raise ValueError(f"gamma_max must be finite, its square in the float range, got {gamma_max!r}")
    return math.ceil(mag * mag + 6.0 * mag + 10.0)


_KEPT_TOL = 1e-8


def _check_kept(kept: float, cutoff: int, stacklevel: int) -> None:
    """The package's one truncation test: :class:`TruncationWarning` when
    ``kept``, the share of a state's exact squared norm that its ket at
    ``cutoff`` holds, is off 1 by more than ``_KEPT_TOL``, lost or gained."""
    if not abs(kept - 1.0) <= _KEPT_TOL:  # NaN warns too
        warnings.warn(
            f"cutoff {cutoff} keeps {kept:.3g} of the state's squared norm, off 1 by {kept - 1.0:.3g}",
            TruncationWarning,
            stacklevel=stacklevel,
        )


@dataclass(frozen=True)
class FockVector:
    """Pure state of one mode on the number basis ``|0..M>``, unnormalized.

    ``amps[n]`` is the amplitude on phonon number ``n``; the cutoff is
    ``len(amps) - 1``.
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

    amplitude(n) = exp(-|alpha|^2/2) alpha^n / sqrt(n!), the one row of
    :func:`coherent_table`, whose ratio recurrence stays stable far beyond
    where explicit factorials overflow.  A ket whose squared norm is off the
    exact 1 by more than 1e-8 issues a :class:`TruncationWarning` that
    states the share it keeps (see :func:`recommended_cutoff`); the state is
    still returned.
    """
    out = FockVector(coherent_table([finite_complex(alpha, "alpha")], cutoff)[0])
    _check_kept(float(np.real(np.vdot(out.amps, out.amps))), out.cutoff, stacklevel=3)
    return out


def coherent_table(labels, cutoff: int) -> np.ndarray:
    """Coherent states |labels[j]> truncated at ``cutoff`` phonons, one per
    row of a (len(labels), cutoff + 1) array, the transposed view of the
    level-major table the recurrence fills.

    The package's one coherent-ket recurrence: from the seed exp(-|g|^2/2),
    amplitude n of row j is amplitude n - 1 times g = labels[j], then times
    1/sqrt(n), run down the levels for all rows at once.  A row depends on
    its own label alone, so a block of rows is bitwise those rows of a
    larger table.  Unlike :func:`coherent_fock` it issues no
    :class:`TruncationWarning`; a caller that needs the rows whole checks
    the share of the squared norm, 1 for each exact row, that they keep.
    """
    labels = as_array(labels, "labels")
    if labels.ndim != 1:
        raise ValueError("labels must be a 1-D sequence")
    if not np.all(np.isfinite(labels)):
        raise ValueError("labels must be finite")
    cutoff = count(cutoff, "cutoff", 1)
    table = np.empty((cutoff + 1, labels.size), dtype=np.complex128)  # [level, row]
    prev = table[0]
    # The seed exp(-|g|^2 / 2), 0 from |g| ~ 38.6; |g| is cut at 1e150, as
    # past ~1e154 its square overflows.
    prev[:] = np.exp(-0.5 * np.minimum(np.abs(labels), 1e150) ** 2)
    for n, row in enumerate(table[1:], 1):
        np.multiply(prev, labels, out=row)
        row *= 1.0 / math.sqrt(n)
        prev = row
    return table.T


def coherent_blocks(labels, cutoff: int):
    """``coherent_table(labels, cutoff)`` in consecutive blocks of rows, each
    of at most ``_ROW_BLOCK`` amplitudes (one row at least): a caller holding
    one block while the next is built keeps two blocks alive at most,
    however long the grid and large the cutoff."""
    labels, cutoff = as_array(labels, "labels"), count(cutoff, "cutoff", 1)
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
    size = count(cutoff, "cutoff", 1) + 1
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
    Fock inner product, used as an independent cross-check throughout.  A
    |g|^2 past the float range raises ValueError.
    """
    g1, g2 = finite_complex(g1, "g1"), finite_complex(g2, "g2")
    try:
        return complex(np.exp(-0.5 * (abs(g1) ** 2 + abs(g2) ** 2) + np.conj(g1) * g2))
    except OverflowError:
        raise ValueError(f"|g|^2 must lie in the float range, got {g1!r}, {g2!r}") from None


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
    steps, n = as_array(step, "step"), count(n, "n", 0)
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
    beta, alpha = as_array(beta, "beta"), finite_complex(alpha, "alpha")
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        turn = 0.5 * (beta * np.conj(alpha) - np.conj(beta) * alpha)
    if not np.all(np.isfinite(turn)):
        raise SolverError("displacement phase Im(beta conj(alpha)) passes the float range")
    return np.exp(turn)


def _unit_parts(x: np.ndarray, out: np.ndarray | None = None) -> tuple[np.ndarray, int]:
    """(x * 2**-e, e), exact, the largest real or imaginary part of complex
    ``x`` (not its modulus, which may overflow) in [0.5, 1); e = 0 at x = 0.
    The result is written to ``out`` where given (``x`` itself for an
    in-place rescale).

    A NaN or infinite part raises :class:`SolverError` before anything is
    scaled.  Otherwise no value can leave the float range, as scaling into
    [0.5, 1) never grows the largest part past 1, so numpy has no overflow
    to report and the split needs no ``np.errstate``; parts far below the
    largest may round into the subnormals or to zero, signs kept."""
    parts = x.view(np.float64)
    top = float(np.abs(parts).max())
    if not math.isfinite(top):
        raise SolverError(f"line coefficients overflow at {x.size - 1} slots")
    e = math.frexp(top)[1]
    scaled = np.ldexp(parts, -e, out=None if out is None else out.view(np.float64))
    return scaled.view(np.complex128), e


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
    if a.cutoff != b.cutoff:
        raise ValueError(f"cutoff mismatch: {a.cutoff} vs {b.cutoff}")
    u, v = (_unit_parts(x.amps)[0] for x in (a, b))
    nu, nv = float(np.linalg.norm(u)), float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        raise ValueError("fidelity undefined for a zero-norm state")
    return min(abs(complex(np.vdot(u, v))) ** 2 / (nu**2 * nv**2), 1.0)
