"""Exception types used across the package."""

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
