"""Failure types shared across the package, and the memory refusal that
raises one."""

import decimal

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
