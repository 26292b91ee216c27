"""Exception types shared across the package.

The CLI maps these onto process exit codes: usage errors (``ValueError``)
exit with 2, resource-guard refusals with 3, and numerical failures (any
``ArithmeticError``: a non-finite result, an overflow or a division by zero)
with 4.  Interfering branches are no error: the sampler weights them.
"""


class ResourceGuardError(RuntimeError):
    """A projected run exceeds the configured time/memory budget and no
    override was given."""


class NonFiniteResultError(ArithmeticError):
    """A computation produced NaN or infinity."""
