"""Fragile-complexity algorithms behind an instrumented counting comparator.

Every algorithm performs ordering queries through a ComparisonLedger, which
records how many comparisons each element participates in; the harness runs
seeded experiments and checks the per-element bounds empirically.
"""

from .errors import (
    ConfigError,
    EmptyInput,
    FragilityError,
    InfeasibleTarget,
    RankOutOfRange,
    SelfComparison,
    UnknownElement,
)
from .ledger import (
    ComparisonLedger,
    audit_sorted,
    new_session,
)

__all__ = [
    "ComparisonLedger",
    "ConfigError",
    "EmptyInput",
    "FragilityError",
    "InfeasibleTarget",
    "RankOutOfRange",
    "SelfComparison",
    "UnknownElement",
    "audit_sorted",
    "new_session",
]

__version__ = "0.1.0"
