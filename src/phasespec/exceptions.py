"""Exception types shared across the package.

The CLI maps these onto process exit codes: usage errors (``ValueError``,
including :class:`NonNegligibleCrossTermsError`) exit with 2, resource-guard
refusals with 3, and numerical failures (any ``ArithmeticError``: a
non-finite result, an overflow or a division by zero) with 4.
"""


class NonNegligibleCrossTermsError(ValueError):
    """Branch-mixture sampling was requested for a state whose branch pairs
    interfere above the cross-term threshold.

    The neglect policy is only valid for well separated branches.  Use the
    exact policy (importance-weighted estimation, at any d) or increase the
    branch separation.
    """


class ResourceGuardError(RuntimeError):
    """A projected run exceeds the configured time/memory budget and no
    override was given."""


class NonFiniteResultError(ArithmeticError):
    """A computation produced NaN or infinity."""
