"""Exception types shared across the package."""


class EvocontrolError(Exception):
    """Base class for all package-specific errors."""


class OutOfDomainError(EvocontrolError):
    """A closed-form expression was evaluated outside its domain of validity."""


class QuadratureError(EvocontrolError):
    """Adaptive quadrature failed to reach the requested tolerance.

    The achieved absolute-error estimate is stored in ``achieved``.
    """

    def __init__(self, message: str, achieved: float):
        super().__init__(f"{message} (achieved abs error estimate {achieved:.3e})")
        self.achieved = achieved


class BracketError(EvocontrolError):
    """A bisection bracket does not straddle the crossing it is meant to locate."""


class NotApplicableError(EvocontrolError):
    """A criterion's hypotheses are not met, so its conclusion cannot be invoked."""


class GridDisagreementError(EvocontrolError):
    """Two grid resolutions disagree beyond the allowed relative gap."""


class StepBudgetError(EvocontrolError):
    """An integration used up its step budget before reaching a verdict.

    The number of steps taken is stored in ``steps``.
    """

    def __init__(self, steps: int):
        super().__init__(f"step budget of {steps} steps exhausted")
        self.steps = steps
