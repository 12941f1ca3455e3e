"""Exception types shared across the package."""


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


class NonConvergentError(RuntimeError):
    """A quadrature or series failed to reach the requested tolerance.

    Carries the best available value and its error estimate so callers can
    decide whether the partial result is still usable.  A batched engine
    also gives every row's values and err_ests and the indices of the
    failed_rows.
    """

    def __init__(self, message, value=None, err_est=None, values=None,
                 err_ests=None, failed_rows=None):
        super().__init__(message)
        self.value = value
        self.err_est = err_est
        self.values = values
        self.err_ests = err_ests
        self.failed_rows = failed_rows


class PrecisionLossError(RuntimeError):
    """Cancellation in a compensated sum exceeded the trust threshold."""


class SlowConvergenceError(RuntimeError):
    """Series argument too close to the convergence boundary."""


class SchurNoConvergenceError(RuntimeError):
    """The QR iteration inside the real Schur factorization did not converge."""
