"""Failure types shared across the package, the memory refusal that raises
one, and the input checks every record builds its data through: a read-only
array (:func:`frozen_array`) and a finite complex scalar
(:func:`finite_complex`)."""

import decimal

import numpy as np

# Largest allocation a command plans for, checked before it allocates.
MEMORY_BUDGET_BYTES = 1 << 30

# Three significant digits, rounded up: a need just past the budget must not
# print as the budget itself.
_GIB_DIGITS = decimal.Context(prec=3, rounding=decimal.ROUND_CEILING)


class SolverError(RuntimeError):
    """A numerical procedure failed to reach its target tolerance."""


class IntegratorError(SolverError):
    """The time-stepping integrator did not behave at its nominal order."""


def check_memory(need: int, what: str) -> None:
    """Raise :class:`SolverError` "<what> <GiB> GiB (budget 1 GiB)" when
    ``need`` bytes pass the budget; ``what`` names the arrays and its verb.
    The GiB are rounded up to three significant digits."""
    if need > MEMORY_BUDGET_BYTES:
        gib = float(_GIB_DIGITS.divide(need, 1 << 30)) if need.bit_length() < 1000 else float("inf")
        raise SolverError(f"{what} {gib:.3g} GiB (budget 1 GiB)")


def frozen_array(value, name: str, dtype=np.complex128, ndim: int = 1) -> np.ndarray:
    """``value`` as a read-only C-ordered copy of ``dtype``.  ValueError
    "<name> must be a non-empty <ndim>-D sequence" for another shape or no
    entries, "<name> must be finite" for a NaN or an infinity."""
    arr = np.asarray(value, dtype=dtype)
    if arr.ndim != ndim or arr.size < 1:
        raise ValueError(f"{name} must be a non-empty {ndim}-D sequence")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


def finite_complex(z, name: str) -> complex:
    """``z`` as a complex; ValueError "<name> must be finite, got <z>" for a
    NaN or infinite part."""
    z = complex(z)
    if not np.isfinite(z):
        raise ValueError(f"{name} must be finite, got {z!r}")
    return z
