"""Barotropic linear solvers (the paper's core algorithms).

* :mod:`repro.solvers.context` -- the vector-space abstraction solvers
  are written against: :class:`SerialContext` (global arrays, event
  counts derived from the decomposition) and
  :class:`DistributedContext` (real per-rank execution over the virtual
  machine); both record the same event stream.
* :mod:`repro.solvers.result` -- the :class:`SolveResult` record.
* :mod:`repro.solvers.chrongear` -- Chronopoulos-Gear PCG (paper Alg. 1,
  POP's default).
* :mod:`repro.solvers.csi` -- the Preconditioned Classical Stiefel
  Iteration, P-CSI (paper Alg. 2), with its eigenbound acquisition
  and divergence recovery.
* :mod:`repro.solvers.pcg` -- textbook PCG (two reductions/iteration),
  the pre-ChronGear baseline.
* :mod:`repro.solvers.lanczos` -- eigenvalue-bound estimation for
  P-CSI's Chebyshev interval (paper section 3).
* :mod:`repro.solvers.health` -- structured diagnoses for abnormal
  stops (the guarded convergence loop's vocabulary).
"""

from repro.solvers.context import SolverContext, SerialContext, DistributedContext
from repro.solvers.result import SolveResult
from repro.solvers.health import (
    SolverDiagnosis,
    DIAGNOSIS_KINDS,
    RECOVERABLE_KINDS,
    NONFINITE_INPUT,
    NONFINITE_RESIDUAL,
    DIVERGED,
    BREAKDOWN,
    BUDGET_EXHAUSTED,
    RANK_LOST,
    SDC_DETECTED,
)
from repro.solvers.base import IterativeSolver
from repro.solvers.pcg import PCGSolver
from repro.solvers.chrongear import ChronGearSolver
from repro.solvers.csi import PCSISolver
from repro.solvers.lanczos import LanczosEstimator, estimate_eigenbounds

__all__ = [
    "SolverContext",
    "SerialContext",
    "DistributedContext",
    "SolveResult",
    "IterativeSolver",
    "PCGSolver",
    "ChronGearSolver",
    "PCSISolver",
    "LanczosEstimator",
    "estimate_eigenbounds",
    "SolverDiagnosis",
    "DIAGNOSIS_KINDS",
    "RECOVERABLE_KINDS",
    "NONFINITE_INPUT",
    "NONFINITE_RESIDUAL",
    "DIVERGED",
    "BREAKDOWN",
    "BUDGET_EXHAUSTED",
    "RANK_LOST",
    "SDC_DETECTED",
    "make_solver",
    "SOLVER_REGISTRY",
]

SOLVER_REGISTRY = {
    "pcg": PCGSolver,
    "chrongear": ChronGearSolver,
    "pcsi": PCSISolver,
    "csi": PCSISolver,
}


def make_solver(kind, context, **kwargs):
    """Factory: instantiate a solver by name over ``context``."""
    kind = kind.lower()
    if kind not in SOLVER_REGISTRY:
        raise ValueError(
            f"unknown solver {kind!r}; known: {sorted(SOLVER_REGISTRY)}"
        )
    return SOLVER_REGISTRY[kind](context, **kwargs)
