"""Exception types shared across the package.

Every error carries a short machine-readable ``code`` so the CLI can map
failures onto exit codes without string matching.
"""

from __future__ import annotations


class PerimeterPhaseError(Exception):
    """Base class for all package-specific errors."""

    code = "error"


class DomainError(PerimeterPhaseError):
    """Invalid domain description (bad kind, resolution, extent)."""

    code = "domain"


class UnsupportedRegionError(PerimeterPhaseError):
    """A region/domain combination with no exact perimeter formula."""

    code = "unsupported-region"


class ResolutionError(PerimeterPhaseError):
    """Grid too coarse to resolve the requested transition layer."""

    code = "resolution"


class InvalidPairError(PerimeterPhaseError):
    """A sharp-interface pair that violates its sign-consistency contract."""

    code = "invalid-pair"


class NumericError(PerimeterPhaseError):
    """An internal numerical routine left its validity envelope."""

    code = "numeric"


class BudgetExceededError(PerimeterPhaseError):
    """Glued competitor exceeded its allowed energy overshoot.

    ``excess`` is the measured overshoot beyond the allowed budget.
    """

    code = "budget-exceeded"

    def __init__(self, message: str, excess: float | None = None):
        super().__init__(message)
        self.excess = excess


class ConfigError(PerimeterPhaseError):
    """Invalid experiment configuration.

    ``violations`` lists every problem found, not just the first, so a
    bad config can be fixed in one pass.
    """

    code = "config"

    def __init__(self, violations):
        self.violations = list(violations)
        lines = "\n".join(f"  - {v}" for v in self.violations)
        super().__init__(f"invalid configuration:\n{lines}")
