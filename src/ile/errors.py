"""Failure types shared across the package, the memory refusal that raises
one, and the one rule for arguments, taken once where each value enters: a
real is an int or a float, numpy's scalars included; a count an int or an
integral float; a complex scalar a finite number; a flag a bool, and a bool is
nothing else.  A number that breaks the rule, an int past the float range
included, raises ValueError "<name> must be ..., got <value>"; a non-number in
a number's place raises TypeError.  Arrays enter through :func:`as_array`."""

import cmath
import decimal
import math
import numbers

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


def real(value, name: str, kind: str = "a number") -> float:
    """``value``, a real, as a float, "<name> must be <kind>" if it is none."""
    if type(value) is float:  # first: an abstract-base-class check per JSON number is slow
        return value
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:  # an int past the float range
            pass
    error = ValueError if isinstance(value, (numbers.Real, np.bool_)) else TypeError
    raise error(f"{name} must be {kind}, got {value!r}")


def positive(value, name: str) -> float:
    """A finite :func:`real` above 0; ValueError "<name> must be positive and finite"."""
    if not 0.0 < (x := real(value, name)) < math.inf:
        raise ValueError(f"{name} must be positive and finite")
    return x


def count(value, name: str, least: int) -> int:
    """``value``, a count, as an int, "<name> must be at least <least>" below ``least``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        if not (value := real(value, name, "an integer")).is_integer():
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value!r}")
    return int(value)


def flag(value, name: str) -> bool:
    """``value``, a flag, as a bool, "<name> must be a bool" if it is none."""
    if not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be a bool, got {value!r}")
    return bool(value)


def as_array(value, name: str, dtype=np.complex128) -> np.ndarray:
    """``np.asarray(value, dtype)``, "<name> must be finite" for an int past the float range."""
    try:
        return np.asarray(value, dtype=dtype)
    except OverflowError:
        raise ValueError(f"{name} must be finite") from None


def frozen_array(value, name: str, dtype=np.complex128, ndim: int = 1) -> np.ndarray:
    """``value`` as a read-only C-ordered copy of ``dtype``.  ValueError
    "<name> must be real" for complex data and a real ``dtype``, "<name>
    must be a non-empty <ndim>-D sequence" for another shape or no entries,
    "<name> must be finite" for a NaN or an infinity."""
    if np.dtype(dtype).kind != "c" and np.iscomplexobj(value):
        raise ValueError(f"{name} must be real")
    arr = as_array(value, name, dtype)
    if arr.ndim != ndim or arr.size < 1:
        raise ValueError(f"{name} must be a non-empty {ndim}-D sequence")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


def finite_complex(z, name: str) -> complex:
    """``z``, a complex scalar, as a complex, "<name> must be finite, got <z>" if not finite."""
    if isinstance(z, bool) or not isinstance(z, numbers.Complex):
        real(z, name, "a complex number")  # raises: ValueError for a bool, else TypeError
    try:
        if cmath.isfinite(w := complex(z)):
            return w
    except OverflowError:  # an int past the float range
        w = z
    raise ValueError(f"{name} must be finite, got {w!r}")
