"""In-solve fault tolerance: buddy replication + ABFT SDC detection.

Running the barotropic solver on tens of thousands of ranks makes two
failure modes routine that a workstation never sees: a rank dies
mid-iteration (node failure), and a bit flips silently in a halo
payload or Krylov vector (silent data corruption, SDC).  This module
gives the virtual machine a local-failure-local-recovery story for
both, so neither requires a global restart:

* **Buddy replication** -- at every convergence-check boundary that
  falls on the replication cadence, each rank's block state (iterate,
  recurrence vectors, solver scalars) is copied in memory, into buffers
  the replica keeps from one capture to the next (:class:`_Replica`:
  one ``copyto`` per stack, the residual histories extended).  The
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

Replicas restore bit-identically (copies of the exact float state,
handed out afresh by every rollback), so a solve that survives an
injected fault produces the same
iterate, byte for byte, as an undisturbed run -- the property
``tests/test_resilience.py`` pins across both engines.
"""

import math
import threading
import time
import weakref

import numpy as np

from repro.core.errors import SolverError
from repro.parallel.halo import BlockField

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
    span of several iterations: the one it failed in.  A check judged
    by :meth:`ResilienceRuntime.judge` sets ``at`` and ``cut`` (see
    there).
    """

    def __init__(self, message, rank=None, detail=None):
        super().__init__(message)
        self.rank = rank
        self.detail = dict(detail or {})
        self.iteration = self.at = self.cut = None


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


#: Values a copy may share with what it copies.
_SCALARS = (bool, int, float, str, type(None), np.generic)
#: The exact types of the commonest of them.
_PLAIN = frozenset((bool, int, float, str, type(None), np.float64, np.int64))


def _is_record(value):
    """A residual history's entry: a tuple of scalars."""
    return type(value) is tuple and all(isinstance(e, _SCALARS)
                                        for e in value)


def _copy_value(value):
    """Deep-copy one piece of solver state for the replica.

    Understands the shapes solver state dicts are built from: block
    fields (layout-preserving ``copy``), numpy arrays, containers of
    either, and immutable scalars.  A list of records -- tuples of
    scalars, as the residual histories hold -- is copied shallowly.
    """
    if type(value) in _PLAIN:
        return value
    if isinstance(value, BlockField):
        return value.copy()
    if isinstance(value, np.ndarray):
        return value.copy()
    if isinstance(value, dict):
        return {k: v if type(v) in _PLAIN else _copy_value(v)
                for k, v in value.items()}
    if isinstance(value, list):
        if all(_is_record(v) for v in value):
            return list(value)
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
    if isinstance(value, BlockField):
        if not value.is_stacked:
            return max((math.prod(arr.shape) for arr in value.locals_),
                       default=0)
        # The largest rank's local array, a window of the stack.
        h = value.decomp.halo_width
        return max(((b.ny + 2 * h) * (b.nx + 2 * h)
                    for b in value.decomp.active_blocks),
                   default=0) * (value.nrhs or 1)
    if isinstance(value, np.ndarray):
        return int(value.size)
    if isinstance(value, dict):
        return sum(_field_words(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return sum(_field_words(v) for v in value)
    return 0


class _Stale(Exception):
    """A capture no longer has the shapes its copy plan was built for."""


class _Replica:
    """The buddy copy of one solve's state and loop snapshot, kept from
    one capture to the next.

    The first capture walks the two dicts once and files every entry
    under a rule, making what the rule keeps: a stacked block field gets
    a stack of its own that each capture fills with one ``copyto`` --
    the state's ``b``, the right-hand side, which no solver writes, only
    when it is another field than the last capture's; an array is
    copied (the loop's are a few words each); a residual history -- a
    list of records, or a list of such lists -- gets a list that each
    capture extends by the records added since (the loop only appends
    to a history, and a rollback restores it from this one); a scalar is
    shared; anything else, a per-rank field among them, is deep-copied
    (:func:`_copy_value`).  Nothing walks the state again, and no
    per-rank view of a stack is made.  A capture whose shapes differ --
    a compaction, a new or a retyped entry -- raises :class:`_Stale`
    (:meth:`ResilienceRuntime.capture` then builds a new plan).

    :attr:`state` and :attr:`meta` are the copies; a rollback deep-copies
    them, so they stay this object's alone."""

    _FIELD, _ARRAY, _LOG, _LOGS, _SCALAR, _OTHER, _RHS = range(7)

    def __init__(self, state, meta):
        self.state, self.meta = {}, {}
        self._rhs = None
        self._plans = (self._plan(state, self.state),
                       self._plan(meta, self.meta))
        self.capture(state, meta)

    def _plan(self, source, copy):
        plan = []
        for name, value in source.items():
            if isinstance(value, BlockField) and value.is_stacked:
                kept = BlockField.from_stack(value.decomp,
                                             np.empty_like(value.stack))
                rule = (self._RHS if copy is self.state and name == "b"
                        else self._FIELD)
                plan.append((name, rule, kept))
                copy[name] = kept
            elif type(value) is np.ndarray:
                plan.append((name, self._ARRAY, None))
            elif isinstance(value, list) and all(_is_record(v) for v in value):
                copy[name] = []
                plan.append((name, self._LOG, copy[name]))
            elif isinstance(value, list) and value and all(
                    isinstance(v, list) and all(_is_record(e) for e in v)
                    for v in value):
                copy[name] = [[] for _ in value]
                plan.append((name, self._LOGS, copy[name]))
            elif isinstance(value, _SCALARS):
                plan.append((name, self._SCALAR, None))
            else:
                plan.append((name, self._OTHER, None))
        return tuple(plan)

    def capture(self, state, meta):
        """Copy ``state`` and ``meta`` into the kept copies; raises
        :class:`_Stale` where their shapes left the plan."""
        for source, copy, plan in zip((state, meta), (self.state, self.meta),
                                      self._plans):
            if len(source) != len(plan):
                raise _Stale
            for name, rule, kept in plan:
                try:
                    value = source[name]
                except KeyError:
                    raise _Stale from None
                if rule == self._FIELD:
                    _fill_field(kept, value)
                elif rule == self._RHS:
                    if value is not self._rhs:
                        _fill_field(kept, value)
                        self._rhs = value
                elif rule == self._ARRAY:
                    if type(value) is not np.ndarray:
                        raise _Stale
                    copy[name] = value.copy()
                elif rule == self._LOG:
                    _extend_log(kept, value)
                elif rule == self._LOGS:
                    if type(value) is not list or len(value) != len(kept):
                        raise _Stale
                    for log, records in zip(kept, value):
                        _extend_log(log, records)
                elif rule == self._SCALAR:
                    if not isinstance(value, _SCALARS):
                        raise _Stale
                    copy[name] = value
                else:
                    copy[name] = _copy_value(value)


def _fill_field(kept, value):
    """One ``copyto`` of stacked ``value``'s stack into ``kept``'s."""
    if (not isinstance(value, BlockField) or not value.is_stacked
            or value.decomp is not kept.decomp
            or value.stack.shape != kept.stack.shape
            or value.stack.dtype != kept.stack.dtype):
        raise _Stale
    np.copyto(kept.stack, value.stack)


def _extend_log(kept, records):
    """Bring the kept copy of a history up to ``records``: append what
    was added since (the copy is a prefix of it -- the entry at its end
    is the very same record), or copy it anew."""
    if type(records) is not list:
        raise _Stale
    n = len(kept)
    if n and (len(records) < n or records[n - 1] is not kept[-1]):
        n = 0
        kept.clear()
    added = records[n:]
    if not all(_is_record(v) for v in added):
        raise _Stale
    kept += added


class _RowSums:
    """``A 1`` of one operator over one decomposition, for the row-sum
    check: per rank (``rowsum``), stacked on uniform blocks
    (``stacked``, else ``None``), and in a span's layout (``weights``,
    C-contiguous ``(p, bny, bnx)`` with 0.0 in the pad of ragged slots,
    and ``extents``, every rank's ``(ny, nx)`` window on a ragged stack
    or ``None``: whole blocks; ``span`` is the pair)."""

    def __init__(self, rowsum, decomp):
        self.rowsum = rowsum
        self.stacked = np.stack(rowsum) if decomp.is_uniform else None
        if decomp.is_uniform:
            self.weights, self.extents = self.stacked, None
        else:
            self.extents = np.array([(b.ny, b.nx) for b in decomp.active_blocks],
                                    dtype=np.int64)
            self.weights = np.zeros((len(rowsum),) + decomp.max_block_shape())
            for w, (ny, nx), a in zip(self.weights, self.extents, rowsum):
                w[:ny, :nx] = a
        self.span = self.weights, self.extents


#: ``A 1`` per decomposition and stencil -- one operator's row sums,
#: built once, uncharged, and read by every later solve of any context
#: over the two (:meth:`ResilienceRuntime._build_rowsum`): decomposition
#: -> ``[(weak reference to the stencil, _RowSums)]``.
_ROWSUMS = weakref.WeakKeyDictionary()
_ROWSUMS_LOCK = threading.Lock()


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
        self._copies = None
        self._mark = None
        self._last_capture = None
        self._matvecs = 0
        self._rowsums = None
        self._rowsum_charged = False
        self._bnorms = {}
        self._bound = (None, None)
        self._drift = None
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
        histories).  Both are copied into the replica's kept buffers
        (:class:`_Replica`, whose plan is built by the first capture and
        again after a compaction); ``solver_meta``, a document the
        solver makes afresh for each capture, is kept as it is.  The
        buddy send is charged to the ``"resilience"`` ledger phase.
        """
        t0 = time.perf_counter()
        try:
            if self._copies is None:
                raise _Stale
            self._copies.capture(state, meta)
        except _Stale:
            self._copies = _Replica(state, meta)
        self._replica = (self._copies.state, self._copies.meta,
                         solver_meta)
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
        self.judge(halo=(pre[None], post[None]))

    def halo_verdict(self, pre, post):
        """Judge halo updates by their per-rank sums before (``pre``) and
        after (``post``) delivery, stacked one update a row -- ``(updates,
        ranks[, columns])``: ``(index, event)`` of the first update whose
        sums differ, or ``(len(pre), None)``.  Counts nothing
        (:meth:`judge` counts)."""
        # NaN-aware: a ring that was already non-finite before delivery
        # still matches its own checksum, so the solver's non-finite
        # residual check diagnoses it instead of a false SDC suspect.
        if pre.tobytes() == post.tobytes():
            return len(pre), None
        for at, (before, after) in enumerate(zip(pre, post)):
            if np.array_equal(before, after, equal_nan=True):
                continue
            bad = [r for r in range(len(before))
                   if not np.array_equal(before[r], after[r], equal_nan=True)]
            return at, SDCDetectedError(
                f"halo payload checksum mismatch on rank(s) {bad}",
                rank=bad[0] if bad else None,
                detail={"check": "halo_checksum", "ranks": bad})
        return len(pre), None

    def on_matvec(self, x, y):
        """Row-sum ABFT on an operator apply: ``sum(A x) == dot(A 1, x)``.

        The barotropic operator is symmetric, so its column sums equal
        its row sums and the invariant costs one cached ``A 1`` plus
        two local sums per check.  It holds whatever ``x`` contains
        (both sides see the same ``x``), so it guards the *apply*
        itself; corrupted iterates are the cross-check's job.
        """
        if not self.policy.abft:
            return
        if not self.due(1):
            self._matvecs += 1   # counted, not checked
            return
        t0 = time.perf_counter()
        rowsums = self._build_rowsum()
        lhs = self._interior_sum(y)
        xs = self._interior_stack(x)
        rhs = self._weighted_sum(rowsums, xs, x.nrhs)
        scale = self._weighted_sum(rowsums, xs, x.nrhs, absolute=True)
        self.seconds += time.perf_counter() - t0
        self.judge(terms=np.stack([lhs, rhs, scale])[None], applies=1,
                   due=range(1))

    def rowsum_verdict(self, lhs, rhs, scale):
        """Judge operator applies by ``sum(A x)`` (``lhs``), ``dot(A 1,
        x)`` (``rhs``) and ``sum |(A 1) x|`` (``scale``) over every
        block's interior, stacked one apply a row -- ``(applies[,
        columns])``: ``(index, event)`` of the first apply where, in some
        column, the first two differ by more than ``rowsum_tol``
        relative to the third (or not finitely), or ``(len(lhs),
        None)``.  Counts nothing (:meth:`judge` counts)."""
        # A few words each: judged as Python floats, the same IEEE
        # arithmetic as numpy's, without a ufunc call per operation.
        tol, applies = self.policy.rowsum_tol, len(lhs)
        rows = (np.reshape(v, (applies, -1)).tolist()
                for v in (lhs, rhs, scale))
        for at, terms in enumerate(zip(*rows)):
            for sa, sw, sabs in zip(*terms):
                err = abs(sa - sw)
                if math.isfinite(err) and not err > tol * (sabs + 1.0):
                    continue
                worst = np.max(np.abs(lhs[at] - rhs[at]))
                return at, SDCDetectedError(
                    "matvec row-sum checksum violated "
                    f"(|sum(Ax) - dot(A1, x)| = {worst:.3e})",
                    detail={"check": "matvec_rowsum",
                            "error": _finite_or_none(worst)})
        return applies, None

    def judge(self, halo=None, terms=None, applies=0, due=()):
        """Judge one or more iterations' checks in the order the calls
        make them, and count them as the calls do.

        Each of ``applies`` iterations -- or one halo update with no
        apply, ``applies == 0`` -- is its halo update, judged by its sums
        ``halo = (pre, post)`` (:meth:`halo_verdict`, one row an update;
        ``None``: none is checked), then its operator apply, counted and,
        at the positions ``due`` names (ascending), judged by its
        row-sum terms: ``terms``, one row ``(lhs, rhs, scale)`` a
        position in ``due`` (:meth:`rowsum_verdict`).  The first check
        that fails is raised with ``event.at``, its iteration's index,
        and ``event.cut``: ``"halo"`` (its halo update judged, its apply
        not made) or ``"matvec"`` (both); what came before it is counted,
        it too, and nothing after it.
        """
        n = len(halo[0]) if halo is not None else applies
        stop, event, cut = n, None, None
        if halo is not None:
            stop, event = self.halo_verdict(*halo)
            cut = None if event is None else "halo"
        checked = sum(1 for at in due if at < stop)
        if checked:
            rows = terms[:checked]
            k, failed = self.rowsum_verdict(rows[:, 0], rows[:, 1], rows[:, 2])
            if failed is not None:
                stop, event, cut = due[k], failed, "matvec"
                checked = k + 1
        judged = n if event is None else stop + 1
        counters = self.counters
        if halo is not None:
            counters["halo_checks"] += judged
        if applies:
            self._matvecs += judged - (cut == "halo")
        if checked:
            ledger = self.vm.ledger
            if not self._rowsum_charged:
                # ``A 1``'s flops, once per solve, by its first check.
                self._rowsum_charged = True
                ledger.record_flops("resilience",
                                    9 * self.vm.max_block_points)
            counters["rowsum_checks"] += checked
            ledger.record_allreduce("resilience", words=2, count=checked)
        if event is not None:
            counters["sdc_detected"] += 1
            event.at, event.cut = stop, cut
            raise event

    def due(self, applies):
        """The positions, among the next ``applies`` operator applies,
        of those that get the row-sum check (every ``abft_every``-th
        apply of the solve; none with ABFT off): a ``range``."""
        if not self.policy.abft:
            return range(0)
        every = self.policy.abft_every
        return range(every - 1 - self._matvecs % every, applies, every)

    def crosscheck_residual(self, state, active):
        """Verify the recurrence residual against ``b - A x``.

        A bit flipped into any vector the recurrence is built from
        breaks the agreement between the recurrence residual and the
        directly recomputed one.  Runs at replication boundaries only
        (one extra matvec per capture, whose halo exchange and apply are
        checked like any other: the context's
        :meth:`~repro.solvers.context.DistributedContext.checked_residual`,
        one native pass where a span runner sweeps ``x``); its cost is
        charged to the ``"resilience"`` ledger phase.  ``active`` names
        the original columns the state's columns hold: each column's
        drift is bounded by that column's own ``||b||``.
        """
        ctx = self.context
        ledger = self.vm.ledger
        t0 = time.perf_counter()
        true_r = ctx.checked_residual(state["b"], state["x"])
        if self._uniform:
            # Uniform blocks: one stacked reduction for the drift norm
            # (both residuals come from the same masked pipeline, so
            # land cells cancel exactly).  One allreduce on the wire.
            drift = self._interior_drift(true_r, state["r"])
            np.multiply(drift, drift, out=drift)
            dnorm = np.sqrt(drift.sum(axis=(0, 1, 2)))
            ledger.record_allreduce("resilience", words=1)
        else:
            snap = ledger.snapshot()
            diff = ctx._sub(true_r, state["r"], out=true_r)
            dnorm = np.asarray(ctx.norm2(diff))
            ledger.transfer(snap, "resilience")
        bound = self._crosscheck_bound(state["b"], active)
        self.counters["residual_crosschecks"] += 1
        self.seconds += time.perf_counter() - t0
        if not all(math.isfinite(drift) and not drift > limit
                   for drift, limit in zip(np.atleast_1d(dnorm).tolist(),
                                           bound.tolist())):
            raise self.suspect(
                "residual cross-check failed: recurrence residual "
                f"disagrees with b - Ax by {np.max(dnorm):.3e}",
                detail={"check": "residual_crosscheck",
                        "drift": _finite_or_none(np.max(dnorm))})

    def _crosscheck_bound(self, b, active):
        """Each active column's drift bound, ``crosscheck_tol * (||b|| +
        1)``: kept while the active columns stay the same."""
        key = active.tobytes()
        if self._bound[0] != key:
            cols = [int(col) for col in active]
            if not self._bnorms.keys() >= set(cols):
                # A column's ``b`` is loop-invariant: one reduction
                # serves the whole solve, however many columns retire
                # after it.
                ledger = self.vm.ledger
                snap = ledger.snapshot()
                self._bnorms.update(zip(cols, np.atleast_1d(
                    self.context.norm2(b))))
                ledger.transfer(snap, "resilience")
            bnorm = np.array([self._bnorms[col] for col in cols])
            self._bound = key, self.policy.crosscheck_tol * (bnorm + 1.0)
        return self._bound[1]

    def _build_rowsum(self):
        """``A 1`` of the context's operator over its decomposition
        (:class:`_RowSums`), uncharged (:meth:`judge` charges its first
        check): built by the first guarded solve on the two and kept for
        every later solve, in any context, while both live."""
        if self._rowsums is None:
            decomp, stencil = self.vm.decomp, self.context.stencil
            with _ROWSUMS_LOCK:
                entries = _ROWSUMS.setdefault(decomp, [])
                entries[:] = [(ref, rs) for ref, rs in entries
                              if ref() is not None]
                for ref, rowsums in entries:
                    if ref() is stencil:
                        break
                else:
                    t0 = time.perf_counter()
                    rowsums = _RowSums(self._apply_to_ones(), decomp)
                    entries.append((weakref.ref(stencil), rowsums))
                    self.seconds += time.perf_counter() - t0
            self._rowsums = rowsums
        return self._rowsums

    def _apply_to_ones(self):
        """``A 1`` per rank: the operator applied to a field of ones whose
        halos hold their neighbours' ones (the domain boundary's stay
        0)."""
        ctx, vm = self.context, self.vm
        ones = vm.scatter(np.ones((vm.decomp.ny, vm.decomp.nx)))
        # The raw exchanger skips the ledger and the fault hooks --
        # building the checker must not itself be injectable.
        vm.exchanger.exchange_via_global(ones)
        out = vm.zeros()
        ctx.operator.apply(ones, out)
        return [np.asarray(out.interior(rank)).copy()
                for rank in range(vm.num_ranks)]

    def stacked_rowsum(self):
        """``(weights, extents)``: ``A 1`` in a span's layout
        (:class:`_RowSums`) -- what a span's row-sum terms read."""
        return self._build_rowsum().span

    def _interior_drift(self, a, b):
        """``a - b`` on uniform blocks' interiors, into a C-contiguous
        ``(p, ny, nx)`` stack the runtime keeps (the next call
        overwrites it)."""
        shape = ((self.vm.num_ranks,) + a.interior(0).shape
                 if not a.is_stacked else a.interior_stack().shape)
        if self._drift is None or self._drift.shape != shape:
            self._drift = np.empty(shape)
        drift = self._drift
        if a.is_stacked and b.is_stacked:
            return np.subtract(a.interior_stack(), b.interior_stack(),
                               out=drift)
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
        ``A 1`` and the field's :meth:`_interior_stack` (``width`` its
        ``nrhs``)."""
        stack, interiors = stacked
        w = rowsums.stacked
        if stack is not None and w is not None:
            if width is not None:
                w = w[..., None]
            prod = w * stack
            if absolute:
                prod = np.abs(prod)
            return prod.sum(axis=(0, 1, 2))
        total = 0.0 if width is None else np.zeros(width)
        for rank, a in enumerate(interiors):
            w = rowsums.rowsum[rank]
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
    (:meth:`~ResilienceRuntime.on_matvec`).  A span asks :meth:`due`,
    before its iterations, which of their applies get the row-sum check
    -- reading :attr:`rowsum` for those -- and hands this object, after
    one or more of them (a whole P-CSI span at once; a ChronGear tail
    before its coefficients are formed), what its halo copies and
    sweeps made, stacked one iteration a row: the copies' per-slot sums
    of what they wrote and of what the cells then hold, and the due
    applies' row-sum terms.  They are judged by the runtime's own
    verdicts (:meth:`~ResilienceRuntime.judge`): same counters, ledger
    and documents as the calls.  A cross-check's residual made in the
    span's runner between spans is judged the same way, as one
    iteration.

    A check that fails raises with its iteration (counted from
    ``first``; ``None``: the checks of a cross-check's residual, made
    between iterations, name none); ``passed`` counts the iterations
    whose checks passed,
    and ``cut`` says where the failed one stopped -- ``"halo"`` (its
    halo update made, its apply not) or ``"matvec"`` (both) -- so the
    span charges what the calls had charged by then.
    """

    def __init__(self, runtime, first=None):
        self.runtime = runtime
        self.first, self.passed, self.cut = first, 0, None

    def due(self, n):
        """The positions, among the next ``n`` iterations, of those
        whose applies get the row-sum check."""
        return self.runtime.due(n)

    @property
    def rowsum(self):
        """``(weights, extents)`` of the row-sum terms
        (:meth:`ResilienceRuntime.stacked_rowsum`)."""
        return self.runtime.stacked_rowsum()

    def __call__(self, pre, post, terms, due):
        """Judge ``len(pre)`` iterations: their halo sums ``pre`` and
        ``post``, ``(iterations, slots, columns)``, and the row-sum terms
        ``terms``, ``(iterations, 3, columns)``, of the iterations at
        the positions ``due`` (:meth:`due`'s ``range``)."""
        runtime = self.runtime
        t0 = time.perf_counter()
        try:
            runtime.judge(halo=(pre, post),
                          terms=terms[due.start:due.stop:due.step],
                          applies=len(pre), due=due)
        except ResilienceEvent as event:
            self.cut = event.cut
            if self.first is not None:
                event.iteration = self.first + self.passed + event.at
            self.passed += event.at
            raise
        finally:
            runtime.seconds += time.perf_counter() - t0
        self.passed += len(pre)
