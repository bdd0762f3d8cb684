"""Exception types shared across the library."""

from __future__ import annotations


class ExpertmixError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(ExpertmixError):
    """Operands defined over different outcome spaces or lengths."""


class InvalidDistribution(ExpertmixError):
    """Probability vector fails nonnegativity or normalization."""


class InvalidLossVector(ExpertmixError):
    """Loss vector contains negative entries or NaN."""


class SubstitutionFailure(ExpertmixError):
    """A mixed vector was not dominated by any legal decision.

    Signals a realizability violation: the (c, eta) pair used for mixing
    is outside the game's contract.
    """


class NotRealizable(ExpertmixError):
    """Radial projection found no scaling r <= c landing in the
    superprediction set."""


class ContractViolation(ExpertmixError):
    """A solver's caller-side contract (expectation bound, continuity,
    endpoint signs) failed during the solve."""


class SlackExceeded(ExpertmixError):
    """Interior simplex solve stalled above the (1+epsilon)*C target."""

    def __init__(self, message: str, best_point=None, best_value=None):
        super().__init__(message)
        self.best_point = best_point
        self.best_value = best_value


class NonExtendable(ExpertmixError):
    """The interior proper loss has no continuous extension to a
    boundary face; ``face`` is the support of the offending point."""

    def __init__(self, message: str, face=None, point=None):
        super().__init__(message)
        self.face = face
        self.point = point


class DomainError(ExpertmixError):
    """A user-supplied callback returned a value outside its declared
    codomain."""


class PreconditionUnverified(ExpertmixError):
    """A protocol step ran on a state whose preconditions were skipped."""


class AllExpertsDead(ExpertmixError, ZeroDivisionError):
    """Every expert carries zero weight (each has suffered infinite loss),
    so there is no posterior to mix or forecast with."""

    def __init__(self, message: str = "all experts carry zero weight (infinite loss)"):
        super().__init__(message)


class ConfigError(ExpertmixError):
    """Scenario configuration failed to resolve."""
