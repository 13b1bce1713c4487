"""Analytic machine models: event counts -> modeled wall-clock time.

This package is the substitution for the paper's Yellowstone and Edison
testbeds (DESIGN.md section 3).  The algorithms run for real on the
virtual machine and produce per-phase event counts; the machine models
here price those events:

* :mod:`repro.perfmodel.machines` -- machine parameter sets (flop time
  ``theta``, point-to-point latency ``alpha``, bandwidth ``beta``,
  all-reduce scaling, run-to-run noise),
* :mod:`repro.perfmodel.timing` -- :class:`EventCounts` -> seconds,
* :mod:`repro.perfmodel.equations` -- the paper's closed-form cost
  models, Eqs. (2), (3), (5), (6), kept separate so tests can check the
  instrumented counts *against* the paper's algebra,
* :mod:`repro.perfmodel.pop` -- the whole-model (baroclinic +
  barotropic) time, percentage breakdowns and simulated-years-per-day.
"""

from repro.perfmodel.machines import (
    MachineSpec,
    YELLOWSTONE,
    EDISON,
    get_machine,
)
from repro.perfmodel.timing import (
    PhaseTimes,
    event_totals,
    phase_times,
    phase_times_overlapped,
    solve_time,
    solver_day_time,
)
from repro.perfmodel.equations import (
    chrongear_step_time,
    pcsi_step_time,
    chrongear_evp_step_time,
    pcsi_evp_step_time,
)
from repro.perfmodel.pop import (
    PopCostModel,
    baroclinic_day_time,
    simulation_rate_sypd,
)
from repro.perfmodel.analysis import (
    amdahl_serial_fraction,
    crossover_cores,
    degradation_onset,
    parallel_efficiency,
    speedup_series,
    sweet_spot,
)

__all__ = [
    "MachineSpec",
    "YELLOWSTONE",
    "EDISON",
    "get_machine",
    "PhaseTimes",
    "event_totals",
    "phase_times",
    "phase_times_overlapped",
    "solve_time",
    "solver_day_time",
    "chrongear_step_time",
    "pcsi_step_time",
    "chrongear_evp_step_time",
    "pcsi_evp_step_time",
    "PopCostModel",
    "baroclinic_day_time",
    "simulation_rate_sypd",
    "speedup_series",
    "parallel_efficiency",
    "crossover_cores",
    "sweet_spot",
    "degradation_onset",
    "amdahl_serial_fraction",
]
