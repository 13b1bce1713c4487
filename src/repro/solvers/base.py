"""Shared scaffolding for the iterative solvers: one guarded loop.

Handles the pieces the paper holds fixed across solvers so comparisons
are fair (section 5.2): the convergence criterion (masked residual
2-norm vs a tolerance relative to ``|b|``), the *check frequency* (POP
checks every 10 iterations -- each check is an extra global reduction,
which is P-CSI's only reduction), and the iteration budget.

One loop, any width
-------------------
:meth:`IterativeSolver.solve` runs every right-hand side through the
same loop.  Its control state (:class:`_LoopState`) is always
per-column: a single ``(ny, nx)`` field is a batch of width one, a
``(ny, nx, nrhs)`` array (or a list of fields) is a batch of width
``nrhs``.  The two differ only in the field layout the kernels see --
a 2-D ``b`` stays on the 2-D layout (``context.nrhs`` is ``None``), a
3-D ``b`` runs on the trailing-axis layout -- and in how the final
:class:`~repro.solvers.result.SolveResult` is assembled.

In a batch all columns share each halo exchange, stencil application,
preconditioner application and (fused, ``nrhs``-word) global reduction,
which is where the batching speedup comes from.  Per column, the
arithmetic stream is *bit-identical* to a standalone single-RHS solve
on the same engine and kernel backend: every elementwise update
broadcasts scalar-identical coefficients over the trailing axis, and
reductions run per column on contiguous copies.

Guardrails
----------
The loop is *guarded*, per column: it refuses non-finite inputs at
entry, retires zero right-hand sides at iteration 0 (``x = 0`` is the
exact solution of the SPD system), and watches every checked residual
norm for convergence, NaN/Inf, divergence (growth past
``divergence_factor * |b|`` across consecutive checks) and stagnation.
A column that finishes -- for any of those reasons -- is frozen into
the output at that iteration and the remaining columns are *compacted*,
so later iterations do no work for it.  An in-iteration
:class:`~repro.core.errors.BreakdownError` is a batch-level verdict
(SPD violation) and fails every still-active column.

One recurrence per column
-------------------------
A solver's coefficient step (ChronGear's ``beta``/``sigma``/``alpha``,
PCG's, PipeCG's) is written once as scalar arithmetic on one column's
floats and run by :func:`per_column` over every column -- a 2-D solve
is one column.  The anomaly rule is therefore the same at every width:

* an exact zero reduction (an exactly solved column) freezes that
  column through zero coefficients; when every column is frozen the
  iteration makes no update at all;
* a non-finite reduction poisons only its own column, which the next
  convergence check diagnoses as a non-finite residual (or a
  resilience runtime rolls back);
* a vanished denominator on a live, finite column is an SPD violation
  and raises :class:`~repro.core.errors.BreakdownError` for the batch.

Every abnormal stop produces a
:class:`~repro.solvers.health.SolverDiagnosis` per failed column --
carrying the last finite checked residual and the loop's event ledger
at the point of failure -- and a *partial* result (iterates, residual
history, setup and loop events) attached to the
:class:`~repro.core.errors.ConvergenceError` (or returned directly with
``raise_on_failure=False``), so no diagnostic the ledger collected is
ever discarded.  For a batch the result's scalar fields summarize it
(worst residual norm, max iterations, ``converged`` = every column
converged), ``extra`` carries the per-column truth (``per_rhs_*``), and
the first failing column's diagnosis is the one raised.

The guardrail checks reuse residual norms the solver already reduced
and local ``isfinite`` scans of data already in memory; they add no
communication or ledger events, so modeled timings and engine parity
are unaffected.

Spans
-----
Nothing the loop does happens between a convergence check, a due
checkpoint and the end of the budget, so before each call it asks the
solver (:meth:`IterativeSolver._span`) how many iterations it may run
up to the next such boundary, and hands them to one
:meth:`IterativeSolver._iterate_span` call.  A solver that declares a
span kind (``_SPAN``; :data:`~repro.solvers.context.SPANS`) answers up
to ``check_freq`` when its context runs that span in kernel calls --
P-CSI with a diagonal ``M`` serially, or with the block EVP ``M``
serially or on the batched engine's stacks; ChronGear with a diagonal
``M`` serially, or with the block EVP ``M`` serially or on the stacks --
with the same bits and ledger events as iteration by
iteration.  A breakdown inside a span stops the loop's count at the
iteration that broke down (``BreakdownError.iteration``), its head
charged and its recurrences not, as one iteration a call would.  Every
other solver and context answers 1.  A resilience runtime attached to
the batched engine does not stop a span: its halo and row-sum checks
run inside it after each iteration's halo copy and sweep, where the
calls run them, and one that fails raises with the iteration it failed
in (``ResilienceEvent.iteration``), which the rollback records, that
iteration charged as far as the check.

Checkpoint/restart
------------------
``solve`` accepts a :class:`~repro.core.checkpoint.CheckpointPolicy`
(``checkpoint=``) and a snapshot path (``resume_from=``).  There is one
snapshot kind, ``"solver"``, for every solver and width.  It captures
the *complete* loop: the :class:`_LoopState` (the same snapshot an
in-solve rollback restores), the solver ``state`` dict serialised by
value type -- scalars, ``(width,)`` recurrence arrays, context vectors
exported to global layout -- the per-phase event ledger so far, and
solver-specific state (P-CSI's Chebyshev interval and Lanczos
configuration).  A resumed solve replays the exact arithmetic the
uninterrupted run would have performed: the final result (iterates,
iteration counts, residual history, event stream) is **bit-identical**
on every engine and kernel backend.  Vectors round-trip through
``context.to_global``/``from_global`` (pure data movement), which also
makes snapshots engine-portable: a checkpoint written under the
batched engine resumes under per-rank (and vice versa) while staying
bit-identical, since those engines share one arithmetic stream.  A
serial-context snapshot resumes under the virtual machine too, but
the continued run then follows the distributed reduction ordering --
bit-identity holds per arithmetic stream, not across them.

The loop builds each snapshot from copies and hands it to the policy's
writer thread, which writes the file while the loop goes on; the next
snapshot and the end of ``solve`` wait for it, and a write that failed
raises its :class:`~repro.core.checkpoint.CheckpointError` from
``solve``.  ``solve`` stops the writer thread before it returns
(:meth:`~repro.core.checkpoint.CheckpointPolicy.close`).

With ``policy.on_failure`` a diagnosed failure snapshots the loop as it
stopped: columns that ran out of budget are still active, so a resume
under a larger ``max_iterations`` continues them; columns a guardrail
stopped stay frozen with their diagnosis.

Snapshots are refused on mismatch: a different solver, grid shape,
batch width, right-hand side (content digest) or resume knob
(``_RESUME_KNOBS``: tolerance, check frequency, ...) raises
:class:`~repro.core.checkpoint.CheckpointError` instead of silently
producing a non-reproducible run.  Snapshots from another
``CHECKPOINT_FORMAT_VERSION`` are refused by the storage layer.
"""

import abc
import math

import numpy as np

from repro.core.cache import digest_of
from repro.core.checkpoint import (
    CheckpointError,
    read_checkpoint,
    sanitize_meta,
)
from repro.core.constants import (
    DEFAULT_CONVERGENCE_CHECK_FREQ,
    DEFAULT_SOLVER_TOLERANCE,
)
from repro.core.errors import BreakdownError, ConvergenceError, SolverError
from repro.parallel.events import EventCounts
from repro.parallel.halo import BlockField
from repro.parallel.resilience import ResilienceEvent, ResilienceRuntime
from repro.solvers.health import (
    BREAKDOWN,
    BUDGET_EXHAUSTED,
    DIVERGED,
    NONFINITE_INPUT,
    NONFINITE_RESIDUAL,
    SolverDiagnosis,
)
from repro.solvers.result import SolveResult


class _LoopState:
    """Per-column control state of the guarded loop.

    ``width`` is what the caller passed: ``None`` for a single 2-D
    right-hand side, ``nrhs`` for a batch.  ``active`` holds the
    original ids of the columns still iterating; the guardrail arrays
    (``b_norms`` .. ``growing``) are ``(active.size,)`` and shrink with
    it.  The frozen outputs (``x_full``, ``per_*``) are indexed by
    original column id; ``x_full`` is allocated when the first column retires.

    :meth:`snapshot` / :meth:`restore` are the one serialisation of the
    loop: in-solve rollback keeps a copy of the snapshot, the
    checkpoint writer stores the same dict on disk.
    """

    def __init__(self, width, b_norms_all, tol, divergence_factor):
        self.width = width
        self.iterations = 0
        self.checked_at = -1
        self.b_norms_all = b_norms_all
        # Zero columns are solved by x = 0 and never become active.
        self.active = np.flatnonzero(b_norms_all != 0.0)
        n = self.active.size
        self.b_norms = b_norms_all[self.active]
        self.thresholds = tol * self.b_norms
        self.div_limits = (divergence_factor * self.b_norms
                           if divergence_factor > 0 else np.full(n, np.inf))
        self.res_norms = np.full(n, np.inf)
        self.best = np.full(n, np.inf)
        self.cwp = np.zeros(n, dtype=np.int64)   # checks without progress
        self.prev = np.full(n, np.nan)
        self.growing = np.zeros(n, dtype=np.int64)
        self.x_full = None
        self.per_iter = np.zeros(b_norms_all.size, dtype=np.int64)
        self.per_conv = b_norms_all == 0.0
        self.per_norm = np.zeros(b_norms_all.size)
        self.per_stag = np.zeros(b_norms_all.size, dtype=bool)
        self.history = []            # (iteration, worst active |r|)
        self.per_hist = [[] for _ in range(b_norms_all.size)]
        self.per_diag = {}           # column id -> SolverDiagnosis

    def snapshot(self):
        """Everything the loop needs to continue exactly from here.

        The values are references: the rollback replica copies them
        (into buffers it keeps, its histories extended), the checkpoint
        writer serialises them on the spot.
        """
        return dict(vars(self))

    def restore(self, doc):
        vars(self).update(doc)
        return self

    def record_check(self, res_norms):
        """Log one convergence check of the active columns.

        A NaN norm is logged as the one ``math.nan`` object, so the
        histories of two identical runs compare equal with ``==``.
        """
        self.res_norms = res_norms
        self.checked_at = self.iterations
        k = self.iterations
        self.history.append((k, _canonical_nan(float(np.max(res_norms)))))
        for pos, col in enumerate(self.active):
            self.per_hist[col].append(
                (k, _canonical_nan(float(res_norms[pos]))))

    def retire(self, positions, xg, conv=False, stag=False):
        """Freeze the active columns at ``positions`` into the outputs
        and shrink the active set to the rest, whose positions in the
        old active set are returned.

        ``xg`` is the current global iterate (2-D at width ``None``).
        """
        if xg.ndim == 2:
            xg = xg[..., None]
        if self.x_full is None:
            self.x_full = np.zeros(xg.shape[:2] + (self.per_iter.size,))
        cols = self.active[positions]
        self.x_full[..., cols] = xg[..., positions]
        self.per_iter[cols] = self.iterations
        self.per_norm[cols] = self.res_norms[positions]
        self.per_conv[cols] = conv
        self.per_stag[cols] = stag
        keep = np.setdiff1d(np.arange(self.active.size), positions)
        for name in ("active", "b_norms", "thresholds", "div_limits",
                     "res_norms", "best", "cwp", "prev", "growing"):
            setattr(self, name, getattr(self, name)[keep])
        return keep


class IterativeSolver(abc.ABC):
    """Base class for ChronGear, P-CSI and PCG.

    Parameters
    ----------
    context:
        A :class:`~repro.solvers.context.SolverContext`.
    tol:
        Convergence tolerance; the solve stops when
        ``|r| <= tol * |b|``.  POP's default is ``1e-13`` (paper
        section 6).  A zero right-hand side returns ``x = 0`` with
        ``iterations=0`` immediately (``extra["zero_rhs"]``).
    max_iterations:
        Iteration budget; exceeded budgets raise
        :class:`~repro.core.errors.ConvergenceError` unless
        ``raise_on_failure=False``.
    check_freq:
        Iterations between convergence checks (paper: 10).  Each check
        costs one global reduction.
    raise_on_failure:
        Return the non-converged result instead of raising when False.
        Guardrail stops (non-finite residual, divergence, breakdown)
        honor the same switch; either way the result carries its
        :class:`~repro.solvers.health.SolverDiagnosis`.
    stagnation_checks:
        Stop early when the checked residual norm has not improved over
        this many consecutive checks -- the explicit residual
        ``b - A x`` has a round-off floor (~eps * |A||x|), and asking
        for a tolerance below it would otherwise burn the whole
        iteration budget.  A stagnated stop sets ``extra["stagnated"]``
        and reports ``converged`` by the usual criterion -- stagnation
        is a round-off floor, not a failure, so it *returns* the result
        even with ``raise_on_failure=True``.  ``0`` disables the
        detector.
    divergence_factor:
        Declare divergence when the checked residual norm exceeds
        ``divergence_factor * |b|`` on consecutive checks while still
        growing.  ``0`` disables the detector.
    """

    #: Name used in experiment tables; subclasses override.
    name = "iterative"

    #: ``(kind, *state keys)``: the :data:`~repro.solvers.context.SPANS`
    #: kind of this solver's iterations and the state vectors its span
    #: loop takes, in order; ``None``: every iteration is its own call.
    _SPAN = None

    #: Consecutive above-threshold, still-growing checks that confirm
    #: divergence (one spike at a check boundary is not a verdict).
    divergence_checks = 2

    #: Constructor knobs a snapshot records and a resume must match:
    #: under any other value the resumed run would not be bit-identical.
    _RESUME_KNOBS = ("tol", "check_freq")

    def __init__(self, context, tol=DEFAULT_SOLVER_TOLERANCE,
                 max_iterations=10000,
                 check_freq=DEFAULT_CONVERGENCE_CHECK_FREQ,
                 raise_on_failure=True, stagnation_checks=5,
                 divergence_factor=1.0e4):
        if tol <= 0:
            raise SolverError(f"tolerance must be positive, got {tol}")
        if max_iterations < 1:
            raise SolverError(f"max_iterations must be >= 1, got {max_iterations}")
        if check_freq < 1:
            raise SolverError(f"check_freq must be >= 1, got {check_freq}")
        if divergence_factor < 0:
            raise SolverError(
                f"divergence_factor must be >= 0, got {divergence_factor}")
        self.context = context
        self.tol = float(tol)
        self.max_iterations = int(max_iterations)
        self.check_freq = int(check_freq)
        self.raise_on_failure = bool(raise_on_failure)
        self.stagnation_checks = int(stagnation_checks)
        self.divergence_factor = float(divergence_factor)

    # ------------------------------------------------------------------
    def solve(self, b, x0=None, checkpoint=None, resume_from=None,
              resilience=None):
        """Solve ``A x = b``.

        ``b`` is a global ``(ny, nx)`` field, or a batch: a
        ``(ny, nx, nrhs)`` array or a list/tuple of fields, solved as
        columns of one loop (see the module docstring).  ``x0`` defaults
        to zero; for a batch it is either batch-shaped or one ``(ny,
        nx)`` guess shared by every column.  Values on land are ignored
        (masked).  A mis-shaped ``b`` or ``x0`` raises
        :class:`~repro.core.errors.SolverError`.

        Returns a :class:`~repro.solvers.result.SolveResult` (``x`` has
        the shape of ``b``; a batch carries its per-column accounting in
        ``extra["per_rhs_*"]``); abnormal stops raise a
        :class:`~repro.core.errors.ConvergenceError` carrying the
        partial result and a structured diagnosis.

        ``checkpoint`` is an optional
        :class:`~repro.core.checkpoint.CheckpointPolicy`: the loop
        snapshots its full state every ``policy.every`` iterations (and
        on diagnosed failure when ``policy.on_failure``).
        ``resume_from`` names a snapshot to continue from instead of
        running setup; the resumed run is bit-identical to an
        uninterrupted one.

        ``resilience`` enables the in-solve fault-tolerance layer
        (``True``, a dict of :class:`~repro.parallel.resilience.
        ResiliencePolicy` fields, or a policy object): the loop
        replicates its state to buddy ranks at the policy's cadence,
        runs the ABFT corruption checks, and recovers rank deaths and
        detected corruption by rolling back to the last verified
        replica instead of failing the solve -- recoveries are recorded
        in ``result.extra["resilience"]``.  Requires a distributed
        (virtual-machine) context.
        """
        b, x0, width = self._normalise_entry(b, x0)
        runtime = None
        if resilience is not None:
            runtime = ResilienceRuntime.create(resilience, self.context)
        saved_nrhs = self.context.nrhs
        try:
            return self._solve_guarded(b, x0, width, checkpoint,
                                       resume_from, runtime)
        finally:
            self.context.nrhs = saved_nrhs
            if runtime is not None:
                runtime.detach()
            if checkpoint is not None:
                # No snapshot writer outlives the solve.
                checkpoint.close()

    def _normalise_entry(self, b, x0):
        """Validate shapes; returns ``(b, x0, width)``.

        ``width`` is ``None`` for a 2-D ``b`` and ``nrhs`` for a batch.
        """
        grid = self.context.mask.shape
        if isinstance(b, (list, tuple)):
            b = np.stack([np.asarray(col, dtype=np.float64) for col in b],
                         axis=-1)
        b = np.asarray(b)
        if b.ndim not in (2, 3) or b.shape[:2] != grid:
            raise SolverError(
                f"b must be a {grid} field or a ({grid[0]}, {grid[1]}, nrhs) "
                f"batch on this context's grid, got shape {b.shape}")
        width = None if b.ndim == 2 else int(b.shape[2])
        if width == 0:
            raise SolverError(
                f"empty batch: b has shape {b.shape}, expected at least "
                f"one {grid} column")
        if x0 is not None:
            x0 = np.asarray(x0, dtype=np.float64)
            if width is not None and x0.shape == grid:
                # One shared initial guess for every column.
                x0 = np.repeat(x0[:, :, None], width, axis=2)
            if x0.shape != b.shape:
                raise SolverError(
                    f"x0 has shape {x0.shape}; expected {b.shape} to "
                    f"match b on the {grid} grid")
        return b, x0, width

    def _solve_guarded(self, b, x0, width, checkpoint, resume_from,
                       runtime):
        ctx = self.context
        ledger = ctx.ledger
        ocean = ctx.mask if width is None else ctx.mask[..., None]

        def x_entry():
            return (np.zeros(b.shape) if x0 is None
                    else np.where(ocean, x0, 0.0))

        entry_diag = self._check_entry(b, x0, ctx.mask)
        if entry_diag is not None:
            return self._stillborn(entry_diag, x_entry(), {})

        # np.where, not multiplication: NaN * 0 is NaN, so a (legitimate)
        # non-finite land value would survive `b * mask` and poison the
        # solve the entry guard just vetted.
        b_masked = np.where(ocean, b, 0.0)
        b_digest = digest_of("solve-checkpoint", b_masked)

        ctx.nrhs = width
        if resume_from is not None:
            state, loop, acct = self._restore_checkpoint(
                resume_from, b_digest, width)
        else:
            before_setup = ledger.snapshot()
            b_vec = ctx.from_global(b_masked)
            loop = _LoopState(
                width, np.atleast_1d(ctx.norm2(b_vec, phase="setup")),
                self.tol, self.divergence_factor)
            acct = {"loop_base": {}, "b_digest": b_digest}
            state = None     # stays None for an all-zero batch: no loop
            if loop.active.size:
                if width is not None:
                    ctx.nrhs = int(loop.active.size)
                    if loop.active.size < width:
                        b_vec = ctx.compact(b_vec, loop.active)
                if x0 is None:
                    x_vec = ctx.new_vector()
                elif width is None:
                    x_vec = ctx.from_global(x_entry())
                else:
                    x_vec = ctx.from_global(np.ascontiguousarray(
                        x_entry()[..., loop.active]))
                try:
                    state = self._setup(b_vec, x_vec)
                except BreakdownError as exc:
                    diagnosis = SolverDiagnosis(
                        kind=BREAKDOWN, solver=self.name,
                        message=f"setup: {exc}", iteration=0,
                        b_norm=float(np.max(loop.b_norms_all)))
                    return self._stillborn(diagnosis, x_entry(),
                                           ledger.since(before_setup))
            acct["setup_events"] = ledger.since(before_setup)
            acct["after_setup"] = ledger.snapshot()

        if state is None:
            runtime = None
        if runtime is not None:
            # Bind to the vm and capture the initial replica.
            runtime.attach()
            runtime.capture(state, loop.snapshot(),
                            solver_meta=self._snapshot_solver_meta())

        while loop.active.size and loop.iterations < self.max_iterations:
            first = loop.iterations + 1
            span = self._span(state, first, checkpoint)
            loop.iterations += span
            k = loop.iterations
            try:
                try:
                    self._iterate_span(state, first, span)
                except BreakdownError as exc:
                    # A span stops at the iteration that broke down.
                    if exc.iteration is not None:
                        loop.iterations = k = exc.iteration
                    if runtime is not None and runtime.intercept(
                            "breakdown", k):
                        # A transient corruption often presents as a
                        # breakdown (non-finite inner products); roll
                        # back once and replay -- a genuine numerical
                        # breakdown recurs and takes the normal path.
                        raise runtime.suspect(
                            f"breakdown suspected as corruption: {exc}",
                            detail={"check": "breakdown"}) from exc
                    # Batch-level verdict: the recurrence broke for
                    # every still-active column (SPD violation).
                    self._fail_active(loop, state, acct, BREAKDOWN,
                                      str(exc))
                    break
                if k % self.check_freq == 0:
                    self._check(loop, state, acct, runtime)
                    if (runtime is not None and loop.active.size
                            and runtime.capture_due(k)):
                        # Verify (residual cross-check), then replicate:
                        # a replica only ever copies vetted state.
                        runtime.verify_and_capture(
                            state, loop.snapshot(),
                            solver_meta=self._snapshot_solver_meta())
            except ResilienceEvent as event:
                if runtime is None:
                    raise
                if event.iteration is not None:
                    # A span stops at the iteration whose check failed.
                    loop.iterations = k = event.iteration
                restored = runtime.rollback(event, k)
                if restored is None:
                    self._fail_active(
                        loop, state, acct, runtime.kind_of(event),
                        f"{event} (rollback budget of "
                        f"{runtime.policy.max_rollbacks} exhausted)",
                        rollbacks=runtime.counters["rollbacks"],
                        **event.detail)
                    break
                state, meta, solver_meta = restored
                self._restore_solver_meta(solver_meta or {})
                loop.restore(meta)
                if width is not None:
                    ctx.nrhs = int(loop.active.size)
                continue
            if (checkpoint is not None and loop.active.size
                    and checkpoint.due(k)):
                self._write_checkpoint(checkpoint, state, loop, acct)

        if checkpoint is not None:
            # The snapshot in flight is on disk: a write that failed
            # fails the solve here, never masked by what follows.
            checkpoint.wait()
        # Budget exhausted with columns still running: one final
        # explicit check decides which of the holdouts made it.
        holdouts = np.arange(loop.active.size)
        late = {}
        if holdouts.size:
            if loop.checked_at != loop.iterations:
                loop.record_check(np.atleast_1d(self._residual_norm(state)))
            conv = (np.isfinite(loop.res_norms)
                    & (loop.res_norms <= loop.thresholds))
            for pos in np.flatnonzero(~conv):
                if not np.isfinite(loop.res_norms[pos]):
                    late[int(loop.active[pos])] = self._diagnose(
                        loop, acct, pos, NONFINITE_RESIDUAL,
                        f"final residual norm is {loop.res_norms[pos]}")
                else:
                    late[int(loop.active[pos])] = self._diagnose(
                        loop, acct, pos, BUDGET_EXHAUSTED,
                        f"failed to reach |r| <= "
                        f"{loop.thresholds[pos]:.3e} after "
                        f"{loop.iterations} iterations (|r| = "
                        f"{loop.res_norms[pos]:.3e})",
                        threshold=float(loop.thresholds[pos]),
                        max_iterations=self.max_iterations)
        failed = {**loop.per_diag, **late}
        if failed and checkpoint is not None and checkpoint.on_failure:
            # Snapshot before the holdouts are frozen, so a resume under
            # a larger budget continues them.
            try:
                self._write_checkpoint(checkpoint, state, loop, acct,
                                       failure=failed[min(failed)])
                checkpoint.wait()
            except CheckpointError:
                # A failing snapshot must not mask the solver failure.
                pass
        if holdouts.size:
            loop.per_diag.update(late)
            loop.retire(holdouts, ctx.to_global(state["x"]), conv=conv)
        return self._assemble(loop, state, acct, runtime, b.shape)

    # ------------------------------------------------------------------
    # guardrail plumbing
    # ------------------------------------------------------------------
    def _check_entry(self, b, x0, mask):
        """Entry guard: NaN/Inf on ocean points of ``b`` or ``x0``."""
        for label, arr in (("b", b), ("x0", x0)):
            if arr is None:
                continue
            values = np.asarray(arr)[mask]
            if not np.all(np.isfinite(values)):
                bad = int(np.count_nonzero(~np.isfinite(values)))
                return SolverDiagnosis(
                    kind=NONFINITE_INPUT, solver=self.name,
                    message=(f"{label} carries {bad} non-finite ocean "
                             f"value(s) at solve entry"),
                    iteration=0,
                    data={"operand": label, "count": bad},
                )
        return None

    def _stillborn(self, diagnosis, x, setup_events):
        """Fail before the loop has any state: a minimal partial result
        (``x`` is the initial guess as given)."""
        result = SolveResult(
            x=x, iterations=0, converged=False,
            residual_norm=float("nan"), b_norm=diagnosis.b_norm,
            residual_history=[], solver=self.name,
            preconditioner=self.context.preconditioner.name,
            events={}, setup_events=setup_events,
            extra={"diagnosis": diagnosis.to_dict()},
            diagnosis=diagnosis,
        )
        return self._raise_or_return(diagnosis, result)

    def _check(self, loop, state, acct, runtime):
        """One convergence check: the per-column guardrails, vectorized
        over the active columns; finished columns are frozen and the
        batch compacted."""
        k = loop.iterations
        res_norms = np.atleast_1d(self._residual_norm(state))
        loop.record_check(res_norms)
        nonfin = ~np.isfinite(res_norms)
        if (runtime is not None and nonfin.any()
                and runtime.intercept("nonfinite", k)):
            raise runtime.suspect(
                f"checked residual norm is non-finite in "
                f"{int(nonfin.sum())} column(s); suspected corruption",
                detail={"check": "nonfinite_residual"})
        conv = ~nonfin & (res_norms <= loop.thresholds)
        live = ~nonfin & ~conv
        grow = (live & (res_norms > loop.div_limits)
                & ~np.isnan(loop.prev) & (res_norms > loop.prev))
        loop.growing[grow] += 1
        loop.growing[live & ~grow] = 0
        div = live & (loop.growing >= self.divergence_checks)
        upd = live & ~div
        loop.prev[upd] = res_norms[upd]
        improved = upd & (res_norms < loop.best * (1.0 - 1e-6))
        loop.best[improved] = res_norms[improved]
        loop.cwp[improved] = 0
        loop.cwp[upd & ~improved] += 1
        stag = upd & ~improved & (loop.cwp >= self.stagnation_checks)
        if not self.stagnation_checks:
            stag[:] = False
        finished = nonfin | conv | div | stag
        if not finished.any():
            return
        for pos in np.flatnonzero(nonfin):
            loop.per_diag[int(loop.active[pos])] = self._diagnose(
                loop, acct, pos, NONFINITE_RESIDUAL,
                f"checked residual norm is {res_norms[pos]}")
        for pos in np.flatnonzero(div):
            col = int(loop.active[pos])
            loop.per_diag[col] = self._diagnose(
                loop, acct, pos, DIVERGED,
                f"|r| = {res_norms[pos]:.3e} grew past "
                f"{self.divergence_factor:g} * |b| = "
                f"{loop.div_limits[pos]:.3e} over "
                f"{int(loop.growing[pos]) + 1} consecutive checks",
                divergence_factor=self.divergence_factor,
                limit=float(loop.div_limits[pos]),
                history_tail=loop.per_hist[col][-4:])
        done = np.flatnonzero(finished)
        keep = loop.retire(done, self.context.to_global(state["x"]),
                           conv=conv[done], stag=stag[done])
        if keep.size:
            self.context.nrhs = int(keep.size)
            self._compact_state(state, keep, finished.size)

    def _diagnose(self, loop, acct, pos, kind, message, **data):
        """Diagnosis for the active column at ``pos``.

        It always carries the last *finite* checked residual and the
        per-phase event ledger at the point of failure, so a
        checkpoint-resume after diagnosis loses no accounting.
        """
        col = int(loop.active[pos])
        if loop.width is not None:
            message = f"column {col}: {message}"
            data = {"column": col, **data}
        data["last_finite_residual"] = _last_finite(loop.per_hist[col])
        data["ledger"] = _events_to_meta(self._loop_events(acct))
        return SolverDiagnosis(
            kind=kind, solver=self.name, message=message,
            iteration=loop.iterations,
            residual_norm=float(loop.res_norms[pos]),
            b_norm=float(loop.b_norms[pos]), data=data)

    def _fail_active(self, loop, state, acct, kind, message, **data):
        """Fail every still-active column with the same verdict."""
        everyone = np.arange(loop.active.size)
        for pos in everyone:
            loop.per_diag[int(loop.active[pos])] = self._diagnose(
                loop, acct, pos, kind, message, **data)
        loop.retire(everyone, self.context.to_global(state["x"]))

    def _raise_or_return(self, diagnosis, result):
        if self.raise_on_failure:
            raise ConvergenceError(
                diagnosis.describe(),
                iterations=result.iterations,
                residual_norm=result.residual_norm,
                result=result, diagnosis=diagnosis,
            )
        return result

    def _loop_events(self, acct):
        """Loop events so far: pre-resume base + everything since."""
        return _add_events(acct["loop_base"],
                           self.context.ledger.since(acct["after_setup"]))

    def _assemble(self, loop, state, acct, runtime, shape):
        """The final :class:`SolveResult` -- the one place that branches
        on what the caller passed: scalar fields and ``extra`` for a 2-D
        ``b``, the ``per_rhs_*`` block for a batch."""
        extra = dict(state.get("extra", {})) if state is not None else {}
        if runtime is not None:
            extra["resilience"] = runtime.summary()
        zero_cols = [int(c) for c in np.flatnonzero(loop.b_norms_all == 0.0)]
        if len(zero_cols) == loop.b_norms_all.size:
            extra["zero_rhs"] = True
        stagnated = [int(c) for c in np.flatnonzero(loop.per_stag)]
        if stagnated:
            # Stagnation is a round-off floor, not a failure: record it
            # and return the result as documented.
            extra["stagnated"] = True
        diagnosis = (loop.per_diag[min(loop.per_diag)] if loop.per_diag
                     else None)
        if diagnosis is not None:
            extra["diagnosis"] = diagnosis.to_dict()
        x = loop.x_full if loop.x_full is not None else np.zeros(
            shape[:2] + (loop.per_iter.size,))
        if loop.width is None:
            x = x[..., 0]
        else:
            extra["multi_rhs"] = loop.width
            extra["per_rhs_iterations"] = [int(v) for v in loop.per_iter]
            extra["per_rhs_converged"] = [bool(v) for v in loop.per_conv]
            extra["per_rhs_residual_norm"] = [
                float(v) for v in loop.per_norm]
            extra["per_rhs_b_norm"] = [float(v) for v in loop.b_norms_all]
            if zero_cols:
                extra["zero_rhs_columns"] = zero_cols
            if stagnated:
                extra["stagnated_columns"] = stagnated
            if loop.per_diag:
                extra["per_rhs_diagnosis"] = {
                    str(col): diag.to_dict()
                    for col, diag in sorted(loop.per_diag.items())}
        result = SolveResult(
            x=x, iterations=loop.iterations,
            converged=bool(loop.per_conv.all()),
            residual_norm=float(np.max(loop.per_norm)),
            b_norm=float(np.max(loop.b_norms_all)),
            residual_history=loop.history,
            solver=self.name,
            preconditioner=self.context.preconditioner.name,
            events=self._loop_events(acct) if state is not None else {},
            setup_events=dict(acct["setup_events"]),
            extra=extra,
            diagnosis=diagnosis,
        )
        if diagnosis is not None:
            return self._raise_or_return(diagnosis, result)
        return result

    def _compact_state(self, state, keep, old_width):
        """Drop finished columns from every entry of the loop state.

        Context vectors compact through :meth:`SolverContext.compact`
        (pure data movement); ``(old_width,)`` recurrence arrays (the
        batched rho/sigma/...) compact by indexing; true scalars pass
        through untouched.
        """
        ctx = self.context
        for name, value in list(state.items()):
            if name == "extra":
                continue
            if (isinstance(value, np.ndarray) and value.ndim == 1
                    and value.shape[0] == old_width):
                state[name] = value[keep]
            elif isinstance(value, BlockField) or (
                    isinstance(value, np.ndarray) and value.ndim == 3):
                state[name] = ctx.compact(value, keep)

    # ------------------------------------------------------------------
    # checkpoint/restart plumbing
    # ------------------------------------------------------------------
    def _snapshot_solver_meta(self):
        """Solver-specific state to checkpoint (hook; JSON-able dict).

        A fresh document on every call, sharing nothing the solver
        changes later: the rollback replica keeps it as it is.
        Subclasses whose behavior depends on state outside the loop
        ``state`` dict (P-CSI's Chebyshev interval, Lanczos seeds and
        step counts) override this and :meth:`_restore_solver_meta`.
        """
        return {}

    def _restore_solver_meta(self, meta):
        """Restore what :meth:`_snapshot_solver_meta` captured (hook)."""

    def _write_checkpoint(self, policy, state, loop, acct, failure=None):
        """Snapshot the complete loop and hand it to ``policy``'s
        writer (:meth:`~repro.core.checkpoint.CheckpointPolicy.begin`).

        The solver ``state`` dict is serialised by value type: scalars
        go to the JSON metadata; 1-D recurrence arrays are stored raw;
        everything else is a context vector exported to the
        engine-independent global layout -- snapshots resume on any
        engine.  Every array and document handed over is a copy the
        loop never touches again: the file is written while it goes on.
        """
        ctx = self.context
        arrays, scalars = {}, {}
        for name, value in state.items():
            if name == "extra":
                continue
            if value is None or isinstance(value, (bool, int, float)):
                scalars[name] = value
            elif isinstance(value, np.generic):
                scalars[name] = value.item()
            elif isinstance(value, np.ndarray) and value.ndim == 1:
                arrays[f"raw_{name}"] = value.copy()
            else:
                arrays[f"vec_{name}"] = ctx.to_global(value)
        loop_meta = {}
        for name, value in loop.snapshot().items():
            if isinstance(value, np.ndarray):
                arrays[f"loop_{name}"] = value.copy()
            else:
                loop_meta[name] = value
        loop_meta["per_diag"] = {str(col): diag.to_dict() for col, diag
                                 in loop.per_diag.items()}
        meta = {
            "solver": self.name,
            "preconditioner": ctx.preconditioner.name,
            "shape": [int(s) for s in ctx.mask.shape],
            "b_digest": acct["b_digest"],
            "knobs": {knob: getattr(self, knob)
                      for knob in self._RESUME_KNOBS},
            "scalars": sanitize_meta(scalars),
            "extra": sanitize_meta(state.get("extra", {})),
            "solver_state": sanitize_meta(self._snapshot_solver_meta()),
            "loop": sanitize_meta(loop_meta),
            "setup_events": _events_to_meta(acct["setup_events"]),
            "loop_events": _events_to_meta(self._loop_events(acct)),
            "failure": failure.to_dict() if failure is not None else None,
        }
        policy.begin(loop.iterations, "solver", arrays, meta,
                     failure=failure is not None)

    def _restore_checkpoint(self, path, b_digest, width):
        """Load and verify a snapshot; returns ``(state, loop, acct)``."""
        arrays, meta = read_checkpoint(path, kind="solver")
        ctx = self.context
        if meta.get("solver") != self.name:
            raise CheckpointError(
                f"checkpoint {path} belongs to solver "
                f"{meta.get('solver')!r}, not {self.name!r}")
        if tuple(meta.get("shape", ())) != tuple(ctx.mask.shape):
            raise CheckpointError(
                f"checkpoint {path} grid shape {meta.get('shape')} does "
                f"not match context {list(ctx.mask.shape)}")
        if meta["loop"]["width"] != width:
            raise CheckpointError(
                f"checkpoint {path} holds a batch of width "
                f"{meta['loop']['width']} (None = one 2-D field), this "
                f"solve has {width}")
        if meta.get("b_digest") != b_digest:
            raise CheckpointError(
                f"checkpoint {path} was written for a different "
                f"right-hand side -- resuming would not reproduce the "
                f"original solve")
        for knob in self._RESUME_KNOBS:
            if meta["knobs"].get(knob) != getattr(self, knob):
                raise CheckpointError(
                    f"checkpoint {path} was written with "
                    f"{knob}={meta['knobs'].get(knob)!r}, this solver "
                    f"uses {getattr(self, knob)!r}; a resumed run would "
                    f"not be bit-identical")
        doc = dict(meta["loop"])
        doc["history"] = [tuple(e) for e in doc["history"]]
        doc["per_hist"] = [[tuple(e) for e in h] for h in doc["per_hist"]]
        doc["per_diag"] = {int(col): SolverDiagnosis.from_dict(d)
                           for col, d in doc["per_diag"].items()}
        state = {}
        for name, value in arrays.items():
            kind, _, key = name.partition("_")
            if kind == "loop":
                doc[key] = np.array(value)
            elif kind == "vec":
                state[key] = ctx.from_global(value)
            elif kind == "raw":
                state[key] = np.array(value)
        state.update(meta["scalars"])
        state["extra"] = dict(meta["extra"])
        loop = _LoopState.__new__(_LoopState).restore(doc)
        if width is not None and loop.active.size:
            ctx.nrhs = int(loop.active.size)
        self._restore_solver_meta(meta["solver_state"])
        acct = {
            "after_setup": ctx.ledger.snapshot(),
            "setup_events": _events_from_meta(meta["setup_events"]),
            "loop_base": _events_from_meta(meta["loop_events"]),
            "b_digest": b_digest,
        }
        return state, loop, acct

    # ------------------------------------------------------------------
    # hooks
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _setup(self, b, x):
        """Initialize solver state; returns a dict with at least
        ``x`` (current iterate) and ``r`` (current residual)."""

    @abc.abstractmethod
    def _iterate(self, state, k):
        """Perform iteration ``k`` in place on ``state``.

        May raise :class:`~repro.core.errors.BreakdownError`; the
        guarded loop converts it into a diagnosed failure carrying the
        partial result."""

    def _span(self, state, k, checkpoint):
        """How many iterations, from ``k`` on, the loop hands to one
        :meth:`_iterate_span` call (the span rule in the module
        docstring): up to the next boundary when the context runs this
        solver's declared :attr:`_SPAN` in kernel calls, else one."""
        if self._SPAN is None:
            return 1
        kind, *names = self._SPAN
        if not self.context.spans(kind, *(state[name] for name in names)):
            return 1
        return self._until_boundary(k, checkpoint)

    def _until_boundary(self, k, checkpoint):
        """Iterations from ``k`` up to and including the next one the
        loop must stop after: a convergence check, a due checkpoint or
        the last of the budget."""
        for last in range(k, k + self.check_freq):
            if (last % self.check_freq == 0 or last >= self.max_iterations
                    or (checkpoint is not None and checkpoint.due(last))):
                return last - k + 1

    def _iterate_span(self, state, first, n):
        """Iterations ``first .. first + n - 1``, one :meth:`_iterate`
        each (a solver that can run a span in one call overrides
        this)."""
        for k in range(first, first + n):
            self._iterate(state, k)

    def _residual_norm(self, state):
        """Masked residual 2-norm (one global reduction -- the
        convergence check the paper charges to all solvers)."""
        return self.context.norm2(state["r"], phase="reduction")


def _canonical_nan(norm):
    return math.nan if norm != norm else norm


def per_column(step, *values, coefficients=2):
    """Run a solver's scalar recurrence ``step`` once per column.

    ``values`` are reduced inner products and recurrence state: floats
    for a 2-D solve (one column), ``(w,)`` arrays for a batch, where a
    non-array state entry (a batch's initial ``rho``) is every
    column's.  ``step`` maps one column's floats to ``(live,
    *outputs)``, the first ``coefficients`` outputs being update
    coefficients.  Returns ``None`` when no column is live (every
    column exactly solved: the iteration makes no update), else the
    outputs -- floats for one column, ``(w,)`` arrays for a batch,
    except that a batch one column wide hands its coefficients over as
    floats, so its updates take the scalar chain.
    """
    if not isinstance(values[0], np.ndarray):
        live, *outputs = step(*values)
        return outputs if live else None
    width = values[0].shape[0]
    results = [step(*column) for column in zip(*(
        v.tolist() if isinstance(v, np.ndarray) else (v,) * width
        for v in values))]
    if not any(result[0] for result in results):
        return None
    outputs = list(zip(*results))[1:]
    return [out[0] if i < coefficients and width == 1 else np.array(out)
            for i, out in enumerate(outputs)]


def ieee_div(a, b):
    """``a / b`` with numpy's IEEE result where Python raises: a
    non-finite reduction over a vanished denominator gives NaN or
    +-Inf, exactly as the same division on arrays does."""
    if b != 0.0:
        return a / b
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.divide(a, b))


def _add_events(base, delta):
    """Per-phase sum of two event dicts (either may be empty)."""
    if not base:
        return dict(delta)
    out = dict(base)
    for name, counts in delta.items():
        out[name] = out.get(name, EventCounts()) + counts
    return out


def _events_to_meta(events):
    """Event dict -> JSON-able nested dict (checkpoint metadata)."""
    return {name: dict(vars(counts)) for name, counts in events.items()}


def _events_from_meta(meta):
    """Inverse of :func:`_events_to_meta`."""
    return {name: EventCounts(**{k: int(v) for k, v in counts.items()})
            for name, counts in meta.items()}


def _last_finite(history):
    """Last finite residual norm in a check history (or ``None``)."""
    for _iteration, value in reversed(history):
        if np.isfinite(value):
            return float(value)
    return None
