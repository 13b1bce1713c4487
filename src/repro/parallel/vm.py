"""The virtual machine façade.

:class:`VirtualMachine` bundles a decomposition, a halo exchanger and an
event ledger into the object the distributed solver context talks to.
It exposes exactly the operations POP's barotropic mode needs:

* ``scatter`` / ``gather``  -- move fields between global and block form,
* ``exchange``              -- halo update (recorded as a boundary event),
* ``global_dot``            -- masked inner product (recorded as a
  reduction event, including the masking flops),
* ``local_mask``            -- per-rank interior ocean masks.

Event accounting follows the bulk-synchronous convention documented in
:mod:`repro.parallel.events`: flop counts are for the critical-path rank
(the one owning the largest block).

Execution engines
-----------------
The product engine is ``"batched"`` (``engine="auto"``, the default,
selects it): the structure-of-arrays engine.  Per-rank tiles are
stacked into one dense ``(p, bny + 2h, bnx + 2h)`` ndarray and every
primitive runs as one pass over the stack (a compiled kernel of
:mod:`repro.kernels`, or a few vectorized numpy calls).  It runs every
decomposition: ``p`` counts active ranks only (eliminated land blocks
have no slot) and ragged tiles are zero-padded to the largest block
shape (see :class:`~repro.parallel.halo.BlockField`).

``engine="perrank"`` is the test oracle, not a product choice: every
operation is a Python-level loop over simulated ranks.  The
conformance and parity suites (and the fault smoke benchmarks)
construct it by name; no CLI option or service request selects it.
Both engines produce bit-identical results and identical event-ledger
streams -- the batching is an execution detail, not a cost-model
change.
"""

import numpy as np

from repro.core.errors import DecompositionError
from repro.kernels import resolve_kernels
from repro.parallel.events import EventLedger
from repro.parallel.halo import BlockField, HaloExchanger
from repro.parallel.reduction import (
    masked_column_partials_stacked,
    masked_global_sum_blocks,
    masked_local_dot,
    masked_partials_stacked,
)

#: Valid values of the ``engine`` constructor argument.
ENGINES = ("auto", "batched", "perrank")


class VirtualMachine:
    """In-process stand-in for POP's MPI layer over one decomposition.

    Parameters
    ----------
    decomp:
        The block decomposition (one simulated rank per active block).
    mask:
        Global boolean ocean mask of shape ``(ny, nx)``; used for masked
        reductions.  Defaults to all-ocean.
    ledger:
        Optional shared :class:`EventLedger`; a fresh one is created if
        omitted.
    fast_exchange:
        For the per-rank engine: use the bulk-synchronous
        global-assembly halo update (identical result, fewer
        Python-level copies).  The direct point-to-point path remains
        available for validation.
    engine:
        ``"auto"`` (default) or ``"batched"``; ``"perrank"`` builds the
        test oracle -- see the module docstring.
    faults:
        Optional iterable of :class:`~repro.parallel.faults.FaultInjector`
        instances to attach (see :meth:`inject`).  Faults observe the
        machine's communication events and corrupt data deterministically
        -- the test harness for the solver guardrails.
    """

    def __init__(self, decomp, mask=None, ledger=None, fast_exchange=True,
                 engine="auto", faults=None):
        self.decomp = decomp
        self.exchanger = HaloExchanger(decomp)
        self.ledger = ledger if ledger is not None else EventLedger()
        self.fast_exchange = fast_exchange
        if engine not in ENGINES:
            raise DecompositionError(
                f"unknown engine {engine!r}; expected one of {ENGINES}"
            )
        self.engine = "perrank" if engine == "perrank" else "batched"
        if mask is None:
            mask = np.ones((decomp.ny, decomp.nx), dtype=bool)
        self.mask = np.asarray(mask, dtype=bool)
        # Per-rank interior mask views as float (for masking multiplies).
        self._mask_blocks = [
            self.mask[block.slices].astype(np.float64)
            for block in decomp.active_blocks
        ]
        self._mask_stack = None
        # Ragged decompositions only: every rank's exact (ny, nx)
        # window, and per block shape the ranks and their mask windows
        # (the kernels' window_dots / masked_partials_stacked).
        self._extents = self._mask_groups = None
        #: Kernels of the stacked reductions -- the shared fused
        #: instance; a test substitutes the oracle by assignment.
        self.kernels = resolve_kernels(None)
        if self.engine == "batched":
            self._mask_stack = decomp.stack_interiors(
                self.mask.astype(np.float64))
            if not decomp.is_uniform:
                self._extents = np.array(
                    [(b.ny, b.nx) for b in decomp.active_blocks],
                    dtype=np.int64)
                self._mask_groups = [
                    (ranks, self._mask_stack[ranks, :ny, :nx])
                    for ranks, ny, nx in decomp.shape_groups()]
        self._max_points = decomp.max_block_points()
        self.faults = []
        self._halo_rounds = 0
        self._reductions = 0
        # In-solve fault-tolerance runtime (buddy replication + ABFT);
        # attached by the guarded convergence loop for the duration of
        # a ``solve(resilience=...)`` call, detached afterwards.
        self.resilience = None
        self.dead_ranks = []
        for fault in faults or ():
            self.inject(fault)

    def inject(self, fault):
        """Attach a fault injector (see :mod:`repro.parallel.faults`)."""
        self.faults.append(fault)
        return fault

    # ------------------------------------------------------------------
    @property
    def num_ranks(self):
        """Number of simulated ranks (active blocks)."""
        return self.decomp.num_active

    @property
    def max_block_points(self):
        """Grid points on the critical-path rank."""
        return self._max_points

    @property
    def is_batched(self):
        """Whether the batched (structure-of-arrays) engine is active."""
        return self.engine == "batched"

    def local_mask(self, rank):
        """Interior ocean mask (float 0/1 array) of ``rank``."""
        return self._mask_blocks[rank]

    @property
    def mask_stack(self):
        """Stacked ``(p, bny, bnx)`` float interior masks, zero on pad
        cells (batched only)."""
        return self._mask_stack

    # ------------------------------------------------------------------
    # data movement
    # ------------------------------------------------------------------
    def scatter(self, global_field):
        """Distribute a global field into block-local form (halos zero)."""
        return self.exchanger.scatter(global_field, stacked=self.is_batched)

    def gather(self, field, fill=0.0):
        """Assemble a global field from block interiors."""
        return self.exchanger.gather(field, fill=fill)

    def zeros(self, dtype=np.float64, nrhs=None):
        """A zero block field over this machine's decomposition.

        ``nrhs`` adds a trailing batch axis holding that many RHS
        columns.
        """
        return BlockField.zeros(self.decomp, dtype=dtype,
                                stacked=self.is_batched, nrhs=nrhs)

    # ------------------------------------------------------------------
    # communication
    # ------------------------------------------------------------------
    def exchange(self, field, phase="boundary"):
        """Halo update; records one boundary event on the ledger.

        A multi-RHS field moves ``nrhs`` words per halo point in the
        *same* exchange -- one latency charge, ``nrhs``-fold payload --
        which is exactly the amortization batched solves buy.
        """
        if self.is_batched and field.is_stacked:
            self.exchanger.exchange_stacked(field, self.kernels)
        elif self.fast_exchange:
            self.exchanger.exchange_via_global(field)
        else:
            self.exchanger.exchange(field)
        width = field.nrhs or 1
        self.ledger.record_halo(
            phase,
            words=width * self.decomp.halo_words_per_exchange(),
            exchanges=1,
        )
        # ABFT halo checksums: the sums taken here are the sender's
        # truth (the exchange just completed); the fault hooks below
        # model in-flight corruption, and the post-verify models the
        # receiver checking the payload it was handed.
        resilience = self.resilience
        checksums = (resilience.pre_exchange(field)
                     if resilience is not None else None)
        if self.faults:
            self._halo_rounds += 1
            for fault in self.faults:
                fault.on_exchange(field, self._halo_rounds, self)
        if resilience is not None:
            resilience.post_exchange(field, checksums)
        return field

    def notify_rank_death(self, rank):
        """Record that a simulated rank died (its block data is gone).

        With a resilience runtime attached this raises
        :class:`~repro.parallel.resilience.RankLostError` so the
        guarded convergence loop can rebuild the block from its buddy
        replica; without one, the wiped (NaN) block simply propagates
        into the existing non-finite guardrails.
        """
        self.dead_ranks.append(int(rank))
        if self.resilience is not None:
            self.resilience.on_rank_death(int(rank))

    def _column_partials(self, a, b):
        """Rank-ordered partials of a pair, one list per RHS column (one
        list for scalar fields).

        Each list is bit-identical to the single-RHS partials of that
        column.  Stacked fields take a single kernel pass over every
        block's exact window, or the reduction module's numpy form; the
        per-rank oracle reduces each column window by window on a
        *contiguous* copy, so the pairwise summation blocking matches
        the scalar reduction exactly.
        """
        if self.is_batched and a.is_stacked and b.is_stacked:
            ai, bi = a.interior_stack(), b.interior_stack()
            partials = self.kernels.window_dots(ai, bi, self._mask_stack,
                                                self._extents)
            if partials is not None:
                return partials.tolist()
            if a.nrhs is None:
                return [masked_partials_stacked(ai, bi, self._mask_stack,
                                                self._mask_groups)]
            return masked_column_partials_stacked(ai, bi, self._mask_stack,
                                                  self._mask_groups)

        def column(v, rank, j):
            block = v.interior(rank)
            return block if j is None else np.ascontiguousarray(block[..., j])

        return [[masked_local_dot(column(a, r, j), column(b, r, j),
                                  self._mask_blocks[r])
                 for r in range(self.num_ranks)]
                for j in ((None,) if a.nrhs is None else range(a.nrhs))]

    def _allreduce(self, columns, phase):
        """One fused all-reduce of ``columns`` -- an ordered list of
        rank-ordered partial lists, one per reduced value -- returning
        their global sums as a list of floats.

        The ledger records a single all-reduce carrying one word per
        list (the multi-RHS and Gram amortization of reduction latency)
        while flops scale with the list count.  Every list passes
        through the fault hooks, in order, under one reduction count,
        and *before* the global sums, so a poisoned partial really
        poisons its value (a ``ReductionFault`` with ``entry=k``
        poisons exactly the k-th list).
        """
        words = len(columns)
        # Paper convention (Eq. 2): the product-and-sum is computation
        # (part of the 15 n^2), the masking multiply belongs to the
        # reduction cost (the 2 n^2 of T_g).
        self.ledger.record_flops("computation", words * self._max_points)
        self.ledger.record_flops(phase, words * self._max_points)
        self.ledger.record_allreduce(phase, words=words)
        if self.faults:
            self._reductions += 1
            for fault in self.faults:
                for partials in columns:
                    fault.on_reduction(partials, self._reductions)
        return [masked_global_sum_blocks(partials) for partials in columns]

    def global_dot(self, a, b, phase="reduction"):
        """Masked global inner product with reduction-event accounting.

        The masking multiply plus local product-and-sum is ``~2 n^2``
        flops on the critical rank (paper Eq. 2); the all-reduce carries
        one word per rank.  Batched multi-RHS fields return an
        ``(nrhs,)`` array from one fused all-reduce of ``nrhs`` words.
        """
        values = self._allreduce(self._column_partials(a, b), phase)
        return values[0] if a.nrhs is None else np.array(values)

    def global_dot_block(self, xs, ys, phase="reduction"):
        """All pairwise masked inner products in **one** all-reduce.

        ``xs``/``ys`` are sequences of block fields; returns a
        ``(len(xs), len(ys))`` array (trailing ``(nrhs,)`` axis for
        multi-RHS fields) with ``out[i, j] = <xs[i], ys[j]>``.  Every
        pair is reduced on the same per-column path as
        :meth:`global_dot`, so each entry is bit-identical to a
        standalone reduction; the ledger records a **single** fused
        all-reduce carrying the whole Gram payload -- the
        communication-avoiding s-step assembly.  The fault hooks see
        the lists in ``(i, j, column)`` order.
        """
        xs = list(xs)
        ys = list(ys)
        values = self._allreduce(
            [partials for a in xs for b in ys
             for partials in self._column_partials(a, b)], phase)
        nrhs = xs[0].nrhs
        shape = (len(xs), len(ys)) + (() if nrhs is None else (nrhs,))
        return np.array(values).reshape(shape)

    def global_dot_pair(self, a1, b1, a2, b2, phase="reduction"):
        """Two masked inner products fused into a single all-reduce.

        This is the heart of the ChronGear reformulation: rho and delta
        share one reduction (Algorithm 1 step 9).  Batched multi-RHS
        fields return a pair of ``(nrhs,)`` arrays from one fused
        all-reduce of ``2 * nrhs`` words; the fault hooks see each
        column's two lists together, column by column.
        """
        values = self._allreduce(
            [partials for pair in zip(self._column_partials(a1, b1),
                                      self._column_partials(a2, b2))
             for partials in pair], phase)
        if a1.nrhs is None:
            return values[0], values[1]
        return np.array(values[0::2]), np.array(values[1::2])
