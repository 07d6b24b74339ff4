"""Exception types shared across the package.

Grouped by how the CLI reports them: ``UsageError`` and ``ConfigError``
exit with status 1, every ``EconError`` subclass with status 2.
"""


class EconError(Exception):
    """Base class for domain and computation failures."""


class ContractViolationError(EconError):
    """A precondition was broken by the caller (missing factor, wrong record type)."""


class NonFiniteOutputError(EconError):
    """Output has no finite value (zero base with negative exponent, or overflow).

    Also raised for a finite limit that lies outside the float range, one that
    would overflow to inf or underflow to 0.
    """


class NonFiniteDerivativeError(EconError):
    """Marginal product requested at a point where the power rule diverges."""


class UndefinedIndexError(EconError):
    """A labor-income share was requested where total labor income is zero."""


class UndefinedBaselineError(EconError):
    """Collapse detection needs a positive initial human wage."""


class DomainError(EconError):
    """A value lies outside the domain of definition."""


class RankDeficiencyError(EconError):
    """The least-squares design matrix is numerically rank deficient."""


class SimulationFailureError(EconError):
    """A scenario produced a non-finite value; the message names the step."""


class SerializationError(EconError):
    """A non-finite value reached the fixed-format number serializer."""


class UsageError(Exception):
    """Bad command line (unknown subcommand, missing or invalid flag)."""


class ConfigError(Exception):
    """Invalid or unreadable config document; message names section and key."""
