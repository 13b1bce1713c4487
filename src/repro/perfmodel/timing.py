"""Convert recorded event counts into modeled wall-clock time.

The bridge between the instrumented algorithms and the machine models:
each phase's :class:`~repro.parallel.events.EventCounts` is priced with
the :class:`~repro.perfmodel.machines.MachineSpec` and the rank count.
"""

from dataclasses import dataclass

from repro.parallel.events import EventCounts


@dataclass
class PhaseTimes:
    """Modeled seconds per phase for one solve (or one day, etc.)."""

    computation: float = 0.0
    preconditioning: float = 0.0
    boundary: float = 0.0
    reduction: float = 0.0
    setup: float = 0.0

    @property
    def total(self):
        """Total excluding one-time setup (the paper's per-solve time)."""
        return (self.computation + self.preconditioning + self.boundary
                + self.reduction)

    @property
    def total_with_setup(self):
        """Total including setup."""
        return self.total + self.setup

    def scaled(self, factor):
        """All phases multiplied by ``factor`` (setup *not* scaled --
        it is one-time by construction)."""
        return PhaseTimes(
            computation=self.computation * factor,
            preconditioning=self.preconditioning * factor,
            boundary=self.boundary * factor,
            reduction=self.reduction * factor,
            setup=self.setup,
        )

    def asdict(self):
        return {
            "computation": self.computation,
            "preconditioning": self.preconditioning,
            "boundary": self.boundary,
            "reduction": self.reduction,
            "setup": self.setup,
        }


def _price(counts, machine, p):
    """Seconds for one phase's event counts.

    A single rank communicates with nobody: halo and reduction events
    are free at ``p == 1``.
    """
    t = machine.compute_time(counts.flops)
    if p > 1 and counts.halo_exchanges:
        t += counts.halo_exchanges * 4 * machine.alpha
        t += counts.halo_words * 8 * machine.beta
    if p > 1 and counts.allreduces:
        t += counts.allreduces * machine.allreduce_time(p)
    return t


def allreduce_seconds(events, machine, p):
    """Pure all-reduce (synchronization) seconds across all phases.

    This is what an MPI timer around ``MPI_Allreduce`` reports -- the
    quantity the paper's Figures 2 and 10 plot -- as opposed to the
    full reduction-phase cost, which also carries the masking flops of
    Eq. (2).
    """
    if p <= 1:
        return 0.0
    total = 0
    for counts in events.values():
        total += counts.allreduces
    return total * machine.allreduce_time(p)


def halo_seconds(events, machine, p):
    """Pure halo-update seconds across all phases (Figures 2/10)."""
    if p <= 1:
        return 0.0
    t = 0.0
    for counts in events.values():
        t += counts.halo_exchanges * 4 * machine.alpha
        t += counts.halo_words * 8 * machine.beta
    return t


def phase_times(events, machine, p):
    """Price a per-phase event dict; returns :class:`PhaseTimes`.

    ``events`` maps phase name -> :class:`EventCounts` (as stored on
    :class:`~repro.solvers.result.SolveResult`).
    """
    out = PhaseTimes()
    for phase, counts in events.items():
        seconds = _price(counts, machine, p)
        if phase == "computation":
            out.computation += seconds
        elif phase == "preconditioning":
            out.preconditioning += seconds
        elif phase == "boundary":
            out.boundary += seconds
        elif phase in ("reduction", "reduction_overlap"):
            # overlapped reductions (PipeCG) are priced at full cost
            # here; use :func:`phase_times_overlapped` for the discount.
            out.reduction += seconds
        else:
            out.setup += seconds
    return out


def phase_times_overlapped(events, machine, p):
    """Like :func:`phase_times`, but all-reduces recorded under the
    ``"reduction_overlap"`` phase are hidden behind computation.

    Pipelined CG issues its fused reduction non-blocking and completes
    it after the preconditioner apply and matrix-vector product of the
    same iteration, so in aggregate the synchronization cost is only the
    part that exceeds the computation it overlaps:

    ``max(0, T_allreduce_total - (T_computation + T_preconditioning))``.

    The masking flops of the reduction remain fully charged.
    """
    out = PhaseTimes()
    overlap_ar = 0.0
    for phase, counts in events.items():
        if phase == "reduction_overlap":
            out.reduction += machine.compute_time(counts.flops)
            if p > 1 and counts.allreduces:
                overlap_ar += counts.allreduces * machine.allreduce_time(p)
            continue
        seconds = _price(counts, machine, p)
        if phase == "computation":
            out.computation += seconds
        elif phase == "preconditioning":
            out.preconditioning += seconds
        elif phase == "boundary":
            out.boundary += seconds
        elif phase == "reduction":
            out.reduction += seconds
        else:
            out.setup += seconds
    budget = out.computation + out.preconditioning
    out.reduction += max(0.0, overlap_ar - budget)
    return out


def solve_time(result, machine, p):
    """Modeled time of one solve (loop only) plus its setup separately.

    Returns a :class:`PhaseTimes` whose ``setup`` field holds the
    one-time costs (initial residual, Lanczos, ...).
    """
    times = phase_times(result.events, machine, p)
    setup = phase_times(result.setup_events, machine, p)
    times.setup = setup.total + setup.setup
    return times


def solver_day_time(result, machine, p, solves_per_day):
    """Modeled barotropic time for one simulated day.

    One solve's loop time is scaled by the number of barotropic solves
    per day (``dt_count``); setup (eigenvalue estimation, preconditioner
    factorization) happens once per *run*, not per day, and is excluded
    -- the paper likewise reports per-day solver time with setup
    amortized away ("the cost of setting up the preconditioning matrix
    is less than that of one call to the solver").
    """
    return solve_time(result, machine, p).scaled(solves_per_day)


def event_totals(events):
    """Sum a per-phase event dict into one :class:`EventCounts`.

    The aggregate behind ``repro solve --show-events``: total global
    reductions, reduction words, halo exchanges and halo words a solve
    issued, regardless of which phase charged them.
    """
    total = EventCounts()
    for counts in events.values():
        total = total + counts
    return total
