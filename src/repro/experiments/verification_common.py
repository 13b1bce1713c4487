"""Shared setup for the section-6 verification experiments (Figs 12-13).

Defines the *verification configuration*: a small MiniPOP tuned into its
chaotic regime (strong thermal feedback; an O(1e-14) temperature
perturbation saturates within a few simulated months -- the analogue of
the real ocean's sensitivity that motivates the paper's ensemble
methodology), plus factories for solver variants and a cached reference
ensemble.

Scaling note: the paper runs 40-member, 12-month ensembles of 1-degree
CESM-POP; we run the same protocol on the mini model (DESIGN.md
section 3).  Sizes are parameters, with paper values as defaults.
"""

from repro.barotropic import MiniPOP
from repro.core.constants import DEFAULT_ENSEMBLE_SIZE, ENSEMBLE_PERTURBATION
from repro.grid import test_config
from repro.precond import make_preconditioner
from repro.precond.evp import evp_for_config
from repro.solvers import ChronGearSolver, PCSISolver, SerialContext
from repro.verification import run_perturbed_ensemble

#: Verification grid: small, earthlike, 4 solves/day.
VERIFICATION_SHAPE = (24, 32)
VERIFICATION_SEED = 11
VERIFICATION_DT = 10800.0

#: Chaos parameters (measured: e-folding of a 1e-14 perturbation in a
#: few days; saturation within ~5 months).
CHAOS_PARAMS = dict(
    gamma_feedback=1.0e-7,
    kappa=300.0,
    restore_days=365.0,
    velocity_gain=1.5,
)

#: Default solver tolerance (POP default, paper section 6).
DEFAULT_TOL = 1.0e-13

#: The tolerance sweep of Figures 12-13.
TOLERANCE_CASES = (1e-10, 1e-11, 1e-12, 1e-13, 1e-14, 1e-15, 1e-16)

#: Reference case for RMSE (the strictest tolerance, as in the paper).
REFERENCE_TOL = 1e-16


def make_model(solver="chrongear", precond="diagonal", tol=DEFAULT_TOL,
               max_iterations=4000):
    """A fresh verification-configuration MiniPOP.

    Tolerances at or below ~1e-15 relative cannot always be met in
    double precision (exactly as in POP); the solver then returns its
    stagnated best, which is the intended behavior for the strict-
    tolerance cases.
    """
    config = test_config(*VERIFICATION_SHAPE, seed=VERIFICATION_SEED,
                         dt=VERIFICATION_DT)
    if precond == "evp":
        pre = evp_for_config(config)
    else:
        pre = make_preconditioner(precond, config.stencil)
    cls = {"chrongear": ChronGearSolver, "pcsi": PCSISolver}[solver]
    linear = cls(SerialContext(config.stencil, pre), tol=tol,
                 max_iterations=max_iterations, raise_on_failure=False)
    return MiniPOP(config, linear, **CHAOS_PARAMS)


def verification_mask():
    """The open-ocean mask used by the metrics (paper: open seas only).

    The verification grid's isolated-basin cleanup already removed
    marginal seas, so this is simply the ocean mask.
    """
    config = test_config(*VERIFICATION_SHAPE, seed=VERIFICATION_SEED,
                         dt=VERIFICATION_DT)
    return config.mask


def run_case(months, solver="chrongear", precond="diagonal",
             tol=DEFAULT_TOL, days_per_month=30, perturb_seed=None):
    """Run one candidate case; returns monthly-mean temperature fields."""
    model = make_model(solver=solver, precond=precond, tol=tol)
    if perturb_seed is not None:
        model.perturb_temperature(ENSEMBLE_PERTURBATION, seed=perturb_seed)
    return model.run_months(months, days_per_month=days_per_month)


_ENSEMBLE_CACHE = {}


def reference_ensemble(months, size=DEFAULT_ENSEMBLE_SIZE,
                       days_per_month=30, base_seed=2015):
    """The cached perturbed-initial-condition reference ensemble.

    Built with the default configuration (ChronGear+diagonal at the
    default tolerance), as the paper's reference was built with the
    released solver.
    """
    key = (months, size, days_per_month, base_seed)
    if key not in _ENSEMBLE_CACHE:
        _ENSEMBLE_CACHE[key] = run_perturbed_ensemble(
            make_model, months, size=size, base_seed=base_seed,
            days_per_month=days_per_month,
        )
    return _ENSEMBLE_CACHE[key]
