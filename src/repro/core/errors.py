"""Exception hierarchy for the repro package.

Every exception raised deliberately by this library derives from
:class:`ReproError`, so callers can catch one type to handle all
library-level failures while letting genuine bugs (``TypeError`` etc.)
propagate.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """An invalid or inconsistent user-supplied configuration."""


class GridError(ReproError):
    """A grid, mask, or stencil could not be constructed as requested."""


class DecompositionError(ReproError):
    """A block decomposition of the global domain is impossible or invalid."""


class KernelError(ReproError):
    """A kernel implementation other than ``numpy`` / ``fused`` was named."""


class SolverError(ReproError):
    """A linear solver was misused (bad operator, bad preconditioner, ...)."""


class BreakdownError(SolverError):
    """An iteration produced a scalar that makes continuing meaningless.

    Raised from inside a solver's ``_iterate`` hook (vanished or
    non-finite inner products); the shared convergence loop converts it
    into a diagnosed :class:`ConvergenceError` that carries the partial
    result, so callers never see a bare breakdown from ``solve``.
    """


class ConvergenceError(SolverError):
    """An iterative method failed to converge within its iteration budget.

    Attributes
    ----------
    iterations:
        Number of iterations performed before giving up.
    residual_norm:
        Final residual norm achieved.
    result:
        The partial :class:`~repro.solvers.result.SolveResult` at the
        point of failure -- iterate, residual history, setup and loop
        events -- so callers can inspect (or restart from) whatever the
        solver had before it gave up.  ``None`` only when the failure
        predates any solver state.
    diagnosis:
        A structured :class:`~repro.solvers.health.SolverDiagnosis`
        explaining *why* the solve stopped (non-finite residual,
        divergence, breakdown, exhausted budget, ...); ``None`` for
        failures raised outside the guarded convergence loop.
    """

    def __init__(self, message, iterations=None, residual_norm=None,
                 result=None, diagnosis=None):
        super().__init__(message)
        self.iterations = iterations
        self.residual_norm = residual_norm
        self.result = result
        self.diagnosis = diagnosis

    def __reduce__(self):
        # Default exception pickling re-inits from ``args`` only, which
        # would drop the attached result/diagnosis when the error
        # crosses a process boundary (the report runner's worker pool).
        return (self.__class__,
                (self.args[0] if self.args else "",
                 self.iterations, self.residual_norm,
                 self.result, self.diagnosis))
