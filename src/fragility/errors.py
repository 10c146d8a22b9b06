"""Exception types shared across the package."""


class FragilityError(Exception):
    """Base class for all package errors."""


class EmptyInput(FragilityError):
    """An operation that needs at least one element got none."""


class SelfComparison(FragilityError):
    """An element was compared against itself."""


class UnknownElement(FragilityError):
    """An element id is not an index into this session's values."""


class RankOutOfRange(FragilityError):
    """A selection rank k is outside [0, n)."""


class InfeasibleTarget(FragilityError):
    """A generator target (Inv, Runs, ...) cannot be realized at this size."""


class CountMismatch(FragilityError):
    """A ledger's per-element counts do not sum to twice its total."""


class ConfigError(FragilityError):
    """An experiment spec or CLI invocation is inconsistent."""
