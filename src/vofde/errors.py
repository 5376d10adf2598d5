"""Exception types shared across the toolkit."""


class OrderDomainError(ValueError):
    """The fractional order left the open interval (0, 1).

    Carries the offending node index and, when raised inside a root solve,
    the trial acceleration that produced the bad order value.
    """

    def __init__(self, message, node=None, trial_q=None):
        super().__init__(message)
        self.node = node
        self.trial_q = trial_q


class DegenerateProblemError(ValueError):
    """Problem data makes the governing equations singular.

    ``step`` is the 1-based index of the step whose data is degenerate, or
    None when the initial data already is.
    """

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class StepFailureError(RuntimeError):
    """A time step could not be completed.

    ``step`` is the 1-based index of the failing step; ``last_q`` and
    ``residual`` hold the final iterate of a root solve when applicable.
    """

    def __init__(self, message, step, last_q=None, residual=None):
        super().__init__(message)
        self.step = step
        self.last_q = last_q
        self.residual = residual
