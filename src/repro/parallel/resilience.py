"""In-solve fault tolerance: buddy replication + ABFT SDC detection.

Running the barotropic solver on tens of thousands of ranks makes two
failure modes routine that a workstation never sees: a rank dies
mid-iteration (node failure), and a bit flips silently in a halo
payload or Krylov vector (silent data corruption, SDC).  This module
gives the virtual machine a local-failure-local-recovery story for
both, so neither requires a global restart:

* **Buddy replication** -- at every convergence-check boundary that
  falls on the replication cadence, each rank's block state (iterate,
  recurrence vectors, solver scalars) is deep-copied in memory.  The
  copy models each rank shipping its block to a *buddy rank* --
  :func:`buddy_of` picks the diametrically opposite rank of the
  decomposition so a single node loss never takes out a block and its
  replica together -- and the send is charged to the ``"resilience"``
  ledger phase.  When a :class:`~repro.parallel.faults.RankDeathFault`
  kills a rank, the guarded convergence loop restores the lost block
  (and every survivor's matching snapshot) from the replica and
  resumes from the captured iteration: no other rank recomputes
  anything it had not already passed.

* **ABFT checksums** -- three algorithm-based fault-tolerance
  invariants run alongside the solve: (1) halo-payload checksums
  computed when an exchange completes and re-verified after the
  (fault-injectable) delivery step, modelling a sender checksum
  carried with the message; (2) a weighted row-sum invariant on the
  operator apply, ``sum(A x) == dot(A 1, x)`` for the symmetric
  barotropic operator, verified every ``abft_every``-th matvec; and
  (3) a residual cross-check ``b - A x`` vs the recurrence residual
  at every replication point, so a replica is only captured after the
  state it copies has been verified.  Any violation raises
  :class:`SDCDetectedError`; the loop rolls back to the last verified
  replica, re-executes, and records the event as a structured
  recovery diagnosis.

Replicas restore bit-identically (deep copies of the exact float
state), so a solve that survives an injected fault produces the same
iterate, byte for byte, as an undisturbed run -- the property
``tests/test_resilience.py`` pins across both engines.
"""

import math
import time

import numpy as np

from repro.core.errors import SolverError

__all__ = [
    "ResilienceEvent",
    "RankLostError",
    "SDCDetectedError",
    "ResiliencePolicy",
    "ResilienceRuntime",
    "SpanChecks",
    "buddy_of",
]


class ResilienceEvent(SolverError):
    """A detected in-solve fault (rank loss or silent corruption).

    Raised from inside the virtual machine or the ABFT checks; the
    guarded convergence loop catches it, rolls the solve back to the
    last verified replica and resumes.  ``rank`` names the failed rank
    when known; ``detail`` carries structured context for the recovery
    diagnosis.  ``iteration`` is set by a check that failed inside a
    span of several iterations: the one it failed in.
    """

    def __init__(self, message, rank=None, detail=None):
        super().__init__(message)
        self.rank = rank
        self.detail = dict(detail or {})
        self.iteration = None


class RankLostError(ResilienceEvent):
    """A simulated rank died; its block state is gone."""


class SDCDetectedError(ResilienceEvent):
    """An ABFT invariant failed: the state can no longer be trusted."""


def buddy_of(rank, num_ranks):
    """Buddy rank holding ``rank``'s replica.

    The buddy sits half the rank space away, so neighbors in the
    decomposition (which tend to share hardware) never hold each
    other's replicas.
    """
    if num_ranks <= 1:
        return 0
    return (rank + max(1, num_ranks // 2)) % num_ranks


class ResiliencePolicy:
    """Knobs of the in-solve fault-tolerance layer.

    Parameters
    ----------
    replicate_every:
        Minimum iterations between replica captures.  Captures only
        happen at convergence-check boundaries, so the effective
        cadence is ``replicate_every`` rounded up to the solver's
        ``check_freq``; rank loss and detected corruption roll back at
        most this many iterations.
    abft:
        Enable the SDC checks (halo checksums, matvec row sums, the
        residual cross-check).  Replication alone still recovers rank
        deaths.
    abft_every:
        Verify the matvec row-sum invariant on every Nth operator
        apply.
    rowsum_tol:
        Relative tolerance of the row-sum invariant (scaled by the
        magnitude of the exact sum).
    crosscheck_tol:
        Relative tolerance of the true-vs-recurrence residual
        cross-check (scaled by ``||b||``); legitimate recurrence drift
        stays orders of magnitude below it.
    max_rollbacks:
        Rollback budget for one solve; once spent, the next event
        surfaces as a failed solve with a structured diagnosis.
    """

    def __init__(self, replicate_every=10, abft=True, abft_every=4,
                 rowsum_tol=1.0e-7, crosscheck_tol=1.0e-6,
                 max_rollbacks=8):
        self.replicate_every = int(replicate_every)
        self.abft = bool(abft)
        self.abft_every = int(abft_every)
        self.rowsum_tol = float(rowsum_tol)
        self.crosscheck_tol = float(crosscheck_tol)
        self.max_rollbacks = int(max_rollbacks)
        if self.replicate_every < 1:
            raise SolverError("resilience: replicate_every must be >= 1")
        if self.abft_every < 1:
            raise SolverError("resilience: abft_every must be >= 1")
        if self.max_rollbacks < 0:
            raise SolverError("resilience: max_rollbacks must be >= 0")
        # Non-positive tolerances fail every check and burn the whole
        # rollback budget replaying healthy state -- reject them here
        # instead of diagnosing the resulting "corruption" downstream.
        if not self.rowsum_tol > 0.0:
            raise SolverError("resilience: rowsum_tol must be > 0")
        if not self.crosscheck_tol > 0.0:
            raise SolverError("resilience: crosscheck_tol must be > 0")

    @classmethod
    def from_any(cls, value):
        """Coerce ``True``/dict/:class:`ResiliencePolicy` to a policy."""
        if isinstance(value, ResiliencePolicy):
            return value
        if value is True:
            return cls()
        if isinstance(value, dict):
            try:
                return cls(**value)
            except TypeError as exc:
                raise SolverError(
                    f"bad resilience policy {value!r}: {exc}") from None
        raise SolverError(
            f"resilience must be True, a dict of policy fields or a "
            f"ResiliencePolicy, got {type(value).__name__}")

    def to_dict(self):
        return {
            "replicate_every": self.replicate_every,
            "abft": self.abft,
            "abft_every": self.abft_every,
            "rowsum_tol": self.rowsum_tol,
            "crosscheck_tol": self.crosscheck_tol,
            "max_rollbacks": self.max_rollbacks,
        }


def _copy_value(value):
    """Deep-copy one piece of solver state for the replica.

    Understands the shapes solver state dicts are built from: block
    fields (layout-preserving ``copy``), numpy arrays, containers of
    either, and immutable scalars.
    """
    if hasattr(value, "locals_"):
        return value.copy()
    if isinstance(value, np.ndarray):
        return value.copy()
    if isinstance(value, dict):
        return {k: _copy_value(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_copy_value(v) for v in value]
    if isinstance(value, tuple):
        return tuple(_copy_value(v) for v in value)
    return value


def _finite_or_none(value):
    """A measured size for a recovery document: ``None`` when it is not
    finite (the message says which), so that documents of two runs
    compare equal and stay strict JSON."""
    value = float(value)
    return value if np.isfinite(value) else None


def _field_words(value):
    """Words a piece of state contributes to the buddy-send payload."""
    if hasattr(value, "locals_"):
        widths = [math.prod(arr.shape) for arr in value.locals_]
        return max(widths) if widths else 0
    if isinstance(value, np.ndarray):
        return int(value.size)
    if isinstance(value, dict):
        return sum(_field_words(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return sum(_field_words(v) for v in value)
    return 0


class ResilienceRuntime:
    """Per-solve state of the fault-tolerance layer.

    Built by the guarded convergence loop when ``solve(resilience=...)``
    is passed, attached to the virtual machine for the duration of the
    loop (``vm.resilience``), and detached when the solve returns.  It
    owns the replica, the ABFT checks, the rollback budget, the
    resilience counters surfaced in ``result.extra["resilience"]``,
    and the self-timed overhead measurement the fault-smoke benchmark
    asserts against.
    """

    def __init__(self, policy, context):
        vm = getattr(context, "vm", None)
        if vm is None:
            raise SolverError(
                "resilience requires a distributed context over a "
                "VirtualMachine; the serial context has no ranks to "
                "replicate")
        self.policy = policy
        self.context = context
        self.vm = vm
        self.counters = {
            "replications": 0,
            "rollbacks": 0,
            "rank_deaths": 0,
            "sdc_detected": 0,
            "halo_checks": 0,
            "rowsum_checks": 0,
            "residual_crosschecks": 0,
        }
        self.seconds = 0.0
        self.recoveries = []
        self._replica = None
        self._mark = None
        self._last_capture = None
        self._matvecs = 0
        self._rowsum_stacked = None
        self._rowsum_charged = False
        self._bnorms = {}
        self._state_words = None
        # The ring checksums run one stacked reduction per block shape;
        # the interior sums one over every rank when blocks are uniform
        # and rank by rank when ragged (the stacked form would change
        # their summation order).  No check sums a pad cell.
        self._shape_groups = vm.decomp.shape_groups()
        self._uniform = vm.decomp.is_uniform
        self._intercepted = set()

    @classmethod
    def create(cls, spec, context):
        return cls(ResiliencePolicy.from_any(spec), context)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def attach(self):
        """Bind to the virtual machine for the duration of one solve."""
        self.vm.resilience = self

    def detach(self):
        if getattr(self.vm, "resilience", None) is self:
            self.vm.resilience = None

    # ------------------------------------------------------------------
    # replication
    # ------------------------------------------------------------------
    def capture(self, state, meta, solver_meta=None):
        """Replicate the verified solver state to the buddy ranks.

        ``meta`` is the guarded loop's own snapshot (iteration counter,
        per-column guardrail state, frozen outputs, residual
        histories).  The buddy send is charged to the ``"resilience"``
        ledger phase.
        """
        t0 = time.perf_counter()
        self._replica = (
            _copy_value(state),
            _copy_value(meta),
            _copy_value(solver_meta),
        )
        self._last_capture = int(meta.get("iterations", 0))
        self.counters["replications"] += 1
        ledger = self.vm.ledger
        if self._state_words is None:
            # State shapes are fixed for the lifetime of one solve, so
            # the payload size is computed once, not per capture.
            self._state_words = _field_words(state)
        words = self._state_words
        if words:
            ledger.record_halo("resilience", words=words, exchanges=1)
            # The buddy also memcpy's the payload into its replica slot.
            ledger.record_flops("resilience", words)
        self._mark = ledger.snapshot()
        self.seconds += time.perf_counter() - t0

    def capture_due(self, iterations):
        """Is a replication (and cross-check) due at this boundary?"""
        if self._last_capture is None:
            return True
        return iterations - self._last_capture >= self.policy.replicate_every

    def verify_and_capture(self, state, meta, solver_meta=None):
        """Cross-check the residual, then replicate the verified state.

        Ordering matters: the replica must never copy corrupted state,
        so the ABFT residual cross-check runs first and a violation
        (raised as :class:`SDCDetectedError`) leaves the previous
        replica in place for the rollback.
        """
        if self.policy.abft and self._last_capture is not None:
            # The very first capture sees the freshly initialised state,
            # where the recurrence residual *is* ``b - A x`` by
            # construction -- cross-checking it against itself would
            # spend a matvec to learn nothing.
            self.crosscheck_residual(state, meta["active"])
        self.capture(state, meta, solver_meta=solver_meta)

    # ------------------------------------------------------------------
    # rollback
    # ------------------------------------------------------------------
    def can_rollback(self):
        return (self._replica is not None
                and self.counters["rollbacks"] < self.policy.max_rollbacks)

    def intercept(self, reason, iterations):
        """Should a breakdown/nonfinite at this iteration be treated as
        suspected SDC and rolled back?

        One-shot per ``(reason, iteration)``: if the same failure
        recurs after a rollback replayed the exact same state, it is a
        genuine numerical event and surfaces through the normal
        diagnosis path instead.
        """
        key = (reason, int(iterations))
        if key in self._intercepted or not self.can_rollback():
            return False
        self._intercepted.add(key)
        return True

    def suspect(self, message, rank=None, detail=None):
        """Wrap a suspected corruption into an :class:`SDCDetectedError`."""
        self.counters["sdc_detected"] += 1
        return SDCDetectedError(message, rank=rank, detail=detail)

    def on_rank_death(self, rank):
        """Called by the vm when an injected rank death fires."""
        self.counters["rank_deaths"] += 1
        raise RankLostError(
            f"rank {rank} died mid-iteration; block state lost",
            rank=rank,
            detail={"buddy": buddy_of(rank, self.vm.num_ranks)})

    def rollback(self, event, detected_at):
        """Restore the last verified replica after ``event``.

        Returns ``(state, meta, solver_meta)`` -- fresh
        deep copies, so the replica survives further rollbacks -- or
        ``None`` when the budget is spent (the loop then fails the
        solve with a structured diagnosis).  Work performed since the
        replica was captured is re-charged from its original ledger
        phases to ``"resilience"``, so rolled-back progress shows up
        as fault-tolerance overhead rather than useful computation.
        """
        if not self.can_rollback():
            return None
        t0 = time.perf_counter()
        state, meta, solver_meta = self._replica
        restored = (_copy_value(state), _copy_value(meta),
                    _copy_value(solver_meta))
        self.counters["rollbacks"] += 1
        if self._mark is not None:
            self.vm.ledger.transfer(self._mark, "resilience")
            self._mark = self.vm.ledger.snapshot()
        self.recoveries.append(self._recovery_doc(event, detected_at,
                                                  meta.get("iterations", 0)))
        self.seconds += time.perf_counter() - t0
        return restored

    def _recovery_doc(self, event, detected_at, resumed_from):
        from repro.solvers.health import RANK_LOST, SDC_DETECTED

        kind = (RANK_LOST if isinstance(event, RankLostError)
                else SDC_DETECTED)
        data = dict(event.detail)
        data["resumed_from_iteration"] = int(resumed_from)
        if event.rank is not None:
            data["rank"] = int(event.rank)
        return {
            "kind": kind,
            "message": str(event),
            "iteration": int(detected_at),
            "recovered": True,
            "data": data,
        }

    def kind_of(self, event):
        from repro.solvers.health import RANK_LOST, SDC_DETECTED

        return (RANK_LOST if isinstance(event, RankLostError)
                else SDC_DETECTED)

    # ------------------------------------------------------------------
    # ABFT checks
    # ------------------------------------------------------------------
    def ring_checksums(self, field):
        """Per-rank checksums of the halo rings of ``field``.

        Exact floating-point sums over the ring cells only -- interior
        corruption must not trip the *halo* check (the residual
        cross-check owns that), so the ring is summed piecewise rather
        than as ``local - interior``.
        """
        h = self.vm.decomp.halo_width
        groups = self._shape_groups
        sums = None
        for ranks, ny, nx in groups:
            # One stacked reduction per block shape (one group when
            # uniform): each rank's window keeps the exact layout of its
            # local array -- a slot of the stack, or a standalone block
            # stacked contiguously -- so the per-rank pairwise summation
            # order, and hence the checksum, is that of the rank alone.
            # No pad cell of a ragged stack is summed.
            if field.is_stacked:
                stack = field.stack if len(groups) == 1 else field.stack[ranks]
                stack = stack[:, :ny + 2 * h, :nx + 2 * h]
            else:
                stack = np.stack([field.locals_[r] for r in ranks])
            axes = (1, 2)
            group = (stack[:, :h].sum(axis=axes)
                     + stack[:, -h:].sum(axis=axes)
                     + stack[:, h:-h, :h].sum(axis=axes)
                     + stack[:, h:-h, -h:].sum(axis=axes))
            if len(groups) == 1:
                return group
            if sums is None:
                sums = np.empty((len(field.locals_),) + group.shape[1:])
            sums[ranks] = group
        return sums

    def pre_exchange(self, field):
        """Checksum the freshly exchanged halos (the sender's truth)."""
        if not self.policy.abft:
            return None
        t0 = time.perf_counter()
        sums = self.ring_checksums(field)
        self.seconds += time.perf_counter() - t0
        return sums

    def post_exchange(self, field, pre):
        """Re-verify the halo checksums after (injectable) delivery."""
        if pre is None:
            return
        t0 = time.perf_counter()
        post = self.ring_checksums(field)
        self.seconds += time.perf_counter() - t0
        self.halo_verdict(pre, post)

    def halo_verdict(self, pre, post):
        """Judge one halo update by its per-rank sums before and after
        delivery (first axis: ranks); raises on a mismatch."""
        self.counters["halo_checks"] += 1
        # NaN-aware: a ring that was already non-finite before delivery
        # still matches its own checksum, so the solver's non-finite
        # residual check diagnoses it instead of a false SDC suspect.
        if pre.tobytes() == post.tobytes() \
                or np.array_equal(pre, post, equal_nan=True):
            return
        bad = [r for r in range(len(pre))
               if not np.array_equal(pre[r], post[r], equal_nan=True)]
        rank = bad[0] if bad else None
        raise self.suspect(
            f"halo payload checksum mismatch on rank(s) {bad}",
            rank=rank, detail={"check": "halo_checksum", "ranks": bad})

    def on_matvec(self, x, y):
        """Row-sum ABFT on an operator apply: ``sum(A x) == dot(A 1, x)``.

        The barotropic operator is symmetric, so its column sums equal
        its row sums and the invariant costs one cached ``A 1`` plus
        two local sums per check.  It holds whatever ``x`` contains
        (both sides see the same ``x``), so it guards the *apply*
        itself; corrupted iterates are the cross-check's job.
        """
        if not self.count_matvec():
            return
        t0 = time.perf_counter()
        rowsums = self._ensure_rowsum()
        lhs = self._interior_sum(y)
        xs = self._interior_stack(x)
        rhs = self._weighted_sum(rowsums, xs, x.nrhs)
        scale = self._weighted_sum(rowsums, xs, x.nrhs, absolute=True)
        self.seconds += time.perf_counter() - t0
        self.rowsum_verdict(lhs, rhs, scale)

    def rowsum_verdict(self, lhs, rhs, scale):
        """Judge one operator apply by ``sum(A x)``, ``dot(A 1, x)`` and
        ``sum |(A 1) x|`` over every block's interior, per column;
        raises where the first two differ by more than ``rowsum_tol``
        relative to the third."""
        self.counters["rowsum_checks"] += 1
        self.vm.ledger.record_allreduce("resilience", words=2)
        err = np.abs(np.asarray(lhs) - np.asarray(rhs))
        bound = self.policy.rowsum_tol * (np.asarray(scale) + 1.0)
        bad = ~np.isfinite(err) | (err > bound)
        if np.any(bad):
            raise self.suspect(
                "matvec row-sum checksum violated "
                f"(|sum(Ax) - dot(A1, x)| = {np.max(err):.3e})",
                detail={"check": "matvec_rowsum",
                        "error": _finite_or_none(np.max(err))})

    def count_matvec(self):
        """Count one operator apply; whether it gets the row-sum check
        (never with ABFT off, when nothing is counted)."""
        if not self.policy.abft:
            return False
        self._matvecs += 1
        return self._matvecs % self.policy.abft_every == 0

    def rowsum_due(self):
        """Whether the next operator apply gets the row-sum check."""
        return (self.policy.abft
                and (self._matvecs + 1) % self.policy.abft_every == 0)

    def crosscheck_residual(self, state, active):
        """Verify the recurrence residual against ``b - A x``.

        A bit flipped into any vector the recurrence is built from
        breaks the agreement between the recurrence residual and the
        directly recomputed one.  Runs at replication boundaries only
        (one extra matvec per capture); its cost is re-charged to the
        ``"resilience"`` ledger phase.  ``active`` names the original
        columns the state's columns hold: each column's drift is bounded
        by that column's own ``||b||``.
        """
        ctx = self.context
        ledger = self.vm.ledger
        t0 = time.perf_counter()
        snap = ledger.snapshot()
        true_r = ctx.residual(state["b"], state["x"])
        if self._uniform:
            # Uniform blocks: one stacked reduction for the drift norm
            # (both residuals come from the same masked pipeline, so
            # land cells cancel exactly).  One allreduce on the wire.
            drift = self._interior_drift(true_r, state["r"])
            np.multiply(drift, drift, out=drift)
            dnorm = np.asarray(np.sqrt(drift.sum(axis=(0, 1, 2))))
            self.vm.ledger.record_allreduce("resilience", words=1)
        else:
            diff = ctx._sub(true_r, state["r"], out=true_r)
            dnorm = np.asarray(ctx.norm2(diff))
        active = [int(col) for col in active]
        if not self._bnorms.keys() >= set(active):
            # A column's ``b`` is loop-invariant: one reduction serves
            # the whole solve, however many columns retire after it.
            self._bnorms.update(zip(active, np.atleast_1d(
                ctx.norm2(state["b"]))))
        bnorm = np.array([self._bnorms[col] for col in active])
        ledger.transfer(snap, "resilience")
        self.counters["residual_crosschecks"] += 1
        self.seconds += time.perf_counter() - t0
        bound = self.policy.crosscheck_tol * (bnorm + 1.0)
        bad = ~np.isfinite(dnorm) | (dnorm > bound)
        if np.any(bad):
            raise self.suspect(
                "residual cross-check failed: recurrence residual "
                f"disagrees with b - Ax by {np.max(dnorm):.3e}",
                detail={"check": "residual_crosscheck",
                        "drift": _finite_or_none(np.max(dnorm))})

    def _ensure_rowsum(self):
        """:meth:`_build_rowsum`'s ``A 1``; its flops are charged once
        per solve, by the first check that reads it."""
        rowsums = self._build_rowsum()
        if not self._rowsum_charged:
            self._rowsum_charged = True
            self.vm.ledger.record_flops("resilience",
                                        9 * self.vm.max_block_points)
        return rowsums

    def _build_rowsum(self):
        """``(A 1 per rank, their stack on uniform blocks or None)``,
        uncharged: built once per context, whose operator and
        decomposition never change, and read by every later solve."""
        ctx = self.context
        if ctx.abft_rowsum is None:
            vm = self.vm
            ones = vm.scatter(np.ones((vm.decomp.ny, vm.decomp.nx)))
            # Fill interior halos directly (domain boundary stays 0);
            # the raw exchanger skips the ledger and the fault hooks --
            # building the checker must not itself be injectable.
            vm.exchanger.exchange_via_global(ones)
            out = vm.zeros()
            ctx.operator.apply(ones, out)
            rowsum = [np.asarray(out.interior(rank)).copy()
                      for rank in range(vm.num_ranks)]
            ctx.abft_rowsum = (
                rowsum, np.stack(rowsum) if self._uniform else None)
        return ctx.abft_rowsum

    def stacked_rowsum(self):
        """``(weights, extents)``: ``A 1`` on the stacked block
        interiors, C-contiguous ``(p, bny, bnx)`` with 0.0 in the pad of
        ragged slots, and every rank's ``(ny, nx)`` window on a ragged
        stack (``None``: whole blocks) -- what a span's row-sum terms
        read; built once, uncharged (:meth:`_ensure_rowsum` charges)."""
        if self._rowsum_stacked is None:
            t0 = time.perf_counter()
            rowsum, weights = self._build_rowsum()
            extents = None
            if not self._uniform:
                blocks = self.vm.decomp.active_blocks
                extents = np.array([(b.ny, b.nx) for b in blocks],
                                   dtype=np.int64)
                weights = np.zeros((len(rowsum),)
                                   + self.vm.decomp.max_block_shape())
                for w, (ny, nx), a in zip(weights, extents, rowsum):
                    w[:ny, :nx] = a
            self._rowsum_stacked = (weights, extents)
            self.seconds += time.perf_counter() - t0
        return self._rowsum_stacked

    def _interior_drift(self, a, b):
        """``a - b`` on uniform blocks' interiors, into one new
        C-contiguous ``(p, ny, nx)`` stack."""
        if a.is_stacked and b.is_stacked:
            ia = a.interior_stack()
            return np.subtract(ia, b.interior_stack(),
                               out=np.empty(ia.shape))
        drift = np.empty((self.vm.num_ranks,) + a.interior(0).shape)
        for rank, out in enumerate(drift):
            np.subtract(a.interior(rank), b.interior(rank), out=out)
        return drift

    def _interior_stack(self, field):
        """``(stack, interiors)``: on uniform blocks the interiors
        stacked over ranks as one C-contiguous array -- a stacked
        field's interior rows copied, the very array ``np.stack`` of the
        rank interiors builds, so every sum over it is the same -- and
        ``None``; else ``None`` and the rank interiors, summed rank by
        rank."""
        if self._uniform and field.is_stacked:
            return np.ascontiguousarray(field.interior_stack()), None
        interiors = [field.interior(rank)
                     for rank in range(self.vm.num_ranks)]
        if self._uniform:
            return np.stack(interiors), interiors
        return None, interiors

    def _interior_sum(self, field):
        """Sum of all block interiors; per-column for multi-RHS."""
        stack, interiors = self._interior_stack(field)
        if stack is not None:
            return stack.sum(axis=(0, 1, 2))
        width = field.nrhs
        total = 0.0 if width is None else np.zeros(width)
        for a in interiors:
            total = total + a.sum(axis=(0, 1))
        return total

    def _weighted_sum(self, rowsums, stacked, width, absolute=False):
        """``dot(A 1, field)`` per column, from :meth:`_build_rowsum`'s
        pair and the field's :meth:`_interior_stack` (``width`` its
        ``nrhs``)."""
        stack, interiors = stacked
        rowsum, w = rowsums
        if stack is not None and w is not None:
            if width is not None:
                w = w[..., None]
            prod = w * stack
            if absolute:
                prod = np.abs(prod)
            return prod.sum(axis=(0, 1, 2))
        total = 0.0 if width is None else np.zeros(width)
        for rank, a in enumerate(interiors):
            w = rowsum[rank]
            if width is not None:
                w = w[..., None]
            prod = w * a
            if absolute:
                prod = np.abs(prod)
            total = total + prod.sum(axis=(0, 1))
        return total

    # ------------------------------------------------------------------
    def summary(self):
        """The ``result.extra["resilience"]`` document."""
        return {
            "policy": self.policy.to_dict(),
            "counters": dict(self.counters),
            "seconds": float(self.seconds),
            "buddy_stride": max(1, self.vm.num_ranks // 2),
            "last_capture_iteration": self._last_capture,
            "recoveries": list(self.recoveries),
        }


class SpanChecks:
    """The runtime's checks inside a span of several iterations, made
    where the primitive calls make them, from sums the span's kernel
    makes as it goes.

    An iteration's matvec exchanges the halo of the vector it sweeps
    (P-CSI's ``x``, ChronGear's ``r'``) and applies the operator to it;
    the calls check the exchange's checksums
    (:meth:`ResilienceRuntime.pre_exchange` then
    :meth:`~ResilienceRuntime.post_exchange`) and then the apply
    (:meth:`~ResilienceRuntime.on_matvec`).  A span hands this object,
    once per iteration after that iteration's halo copy and sweep, the
    copy's per-slot sums of what it wrote and of what the cells then
    hold (with :attr:`abft`) and -- where :meth:`due` said so before the
    sweep, reading :attr:`rowsum` -- the apply's row-sum terms, and it
    judges them with the runtime's own verdicts
    (:meth:`~ResilienceRuntime.halo_verdict`,
    :meth:`~ResilienceRuntime.rowsum_verdict`): same counters, ledger
    and documents as the calls.

    A check that fails raises with its iteration (counted from
    ``first``); ``passed`` counts the iterations whose checks passed,
    and ``cut`` says where the failed one stopped -- ``"halo"`` (its
    halo update made, its apply not) or ``"matvec"`` (both) -- so the
    span charges what the calls had charged by then.
    """

    def __init__(self, runtime, first):
        self.runtime = runtime
        #: Whether the halo sums are judged (ABFT on).
        self.abft = runtime.policy.abft
        self.first, self.passed, self.cut = first, 0, None

    def due(self):
        """Whether the next iteration's apply gets the row-sum check."""
        return self.runtime.rowsum_due()

    @property
    def rowsum(self):
        """``(weights, extents)`` of the row-sum terms
        (:meth:`ResilienceRuntime.stacked_rowsum`)."""
        return self.runtime.stacked_rowsum()

    def __call__(self, pre, post, terms):
        """Judge one iteration: the halo sums ``pre`` and ``post``
        (``None`` with ABFT off) and the row-sum terms ``(lhs, rhs,
        scale)`` (``None`` where none were due)."""
        runtime = self.runtime
        t0 = time.perf_counter()
        try:
            self.cut = "halo"
            if pre is not None:
                runtime.halo_verdict(pre, post)
            self.cut = "matvec"
            if runtime.count_matvec():
                runtime._ensure_rowsum()
                runtime.rowsum_verdict(*terms)
        except ResilienceEvent as event:
            event.iteration = self.first + self.passed
            raise
        finally:
            runtime.seconds += time.perf_counter() - t0
        self.cut = None
        self.passed += 1
