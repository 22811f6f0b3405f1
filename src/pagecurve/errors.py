"""Exception hierarchy shared by all pagecurve modules.

The CLI maps these onto exit codes: usage/input errors exit 1, numerical and
capacity errors exit 2, verification failures exit 3.
"""


class PageCurveError(Exception):
    """Base class for all pagecurve errors."""


class InputError(PageCurveError, ValueError):
    """Invalid argument values or inconsistent dimensions."""


class NumericalError(PageCurveError, ArithmeticError):
    """A numerical contract was violated (non-PD matrix, uncertainty-bound violation, ...)."""


class CapacityError(PageCurveError):
    """Request exceeds a configured combinatorial capacity limit."""


class TruncationError(NumericalError):
    """The exact density series could not reach its fixed tail bound within
    its term cap.

    Carries the tail bound that *was* achieved and the term count at which it
    stopped, so callers can decide whether the partial result is still useful.
    """

    def __init__(self, message, achieved_bound, terms):
        super().__init__(message)
        self.achieved_bound = achieved_bound
        self.terms = terms
