"""Exception types used across the package, and its one scalar bound check."""

import math
import operator

__all__ = ["ConfigError", "ConvergenceError"]


class ConfigError(ValueError):
    """A configuration file or parameter set violates its invariants.

    The message lists every violated field so a user can fix the file in
    one pass instead of replaying validation errors one at a time; the
    individual findings are kept on `violations`.
    """

    def __init__(self, message: str, violations: list[str] | None = None):
        super().__init__(message)
        self.violations = list(violations) if violations is not None else []


class ConvergenceError(RuntimeError):
    """A numerical routine (integral, root solve) failed to converge."""


_BOUND_TESTS = {
    ">=": operator.ge, ">": operator.gt, "<=": operator.le, "<": operator.lt,
    "in": lambda value, limit: limit[0] < value < limit[1],
}


def bound_violation(value, bounds) -> str | None:
    """The first of `bounds` that `value` breaks, as "must be <op> <limit>, got <value>".

    `bounds` are (op, limit) pairs checked in order; op is one of ">=",
    ">", "<=", "<" and "in", an open interval (low, high). A value that
    is not finite breaks every bound. None when every bound holds.
    """
    finite = math.isfinite(value)
    for op, limit in bounds:
        if not (finite and _BOUND_TESTS[op](value, limit)):
            return f"must be {op} {limit}, got {value}"
    return None


def check_bound(name: str, value, op: str, limit) -> None:
    """Raise ValueError("<name> must be <op> <limit>, got <value>") if `value` breaks the bound."""
    problem = bound_violation(value, ((op, limit),))
    if problem is not None:
        raise ValueError(f"{name} {problem}")
