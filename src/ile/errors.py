"""Failure types shared across the package, and the memory refusal that
raises one."""

# Largest allocation a command plans for, checked before it allocates.
MEMORY_BUDGET_BYTES = 1 << 30


class SolverError(RuntimeError):
    """A numerical procedure failed to reach its target tolerance."""


class IntegratorError(SolverError):
    """The time-stepping integrator did not behave at its nominal order."""


def check_memory(need: int, what: str) -> None:
    """Raise :class:`SolverError` "<what> <GiB> GiB (budget 1 GiB)" when
    ``need`` bytes pass the budget; ``what`` names the arrays and its verb."""
    if need > MEMORY_BUDGET_BYTES:
        gib = need / 2**30 if need.bit_length() < 1000 else float("inf")
        raise SolverError(f"{what} {gib:.3g} GiB (budget 1 GiB)")
