"""The preconditioner interface.

A preconditioner ``M`` approximates the operator ``A`` and must be cheap
to apply.  Solvers call it through one of two entry points:

* :meth:`Preconditioner.apply_global` -- ``z = M^-1 r`` on a full
  ``(ny, nx)`` field (used by the serial solver context),
* :meth:`Preconditioner.apply_block` -- the same restricted to one
  simulated rank's interior (used by the distributed context).

A built preconditioner is shared: the artifact cache hands one instance
to every solve of its configuration, and the service runs those solves
on several threads at once.  So whatever an application writes between
applications is kept per thread (a solve runs on one thread); the
instance itself holds only what every solve may read.

Every preconditioner in this package is *block-local or point-local*:
applying it requires **no halo communication** (the defining property
that makes block preconditioning attractive in POP -- paper section 4.1).
Cost accounting mirrors the paper's conventions: ``apply_flops(rank)``
returns the flop units one application costs on a rank, and
``setup_flops(rank)`` the one-time preprocessing cost (e.g. EVP's
influence-matrix construction, Eq. ``C_pre`` in section 4.2).
"""

import abc

import numpy as np

from repro.core.errors import GridError, SolverError
from repro.core.fields import fold_rows
from repro.kernels import resolve_kernels


class Preconditioner(abc.ABC):
    """Abstract base class for all preconditioners.

    Parameters
    ----------
    stencil:
        The global :class:`~repro.grid.stencil.StencilCoeffs` of ``A``.
    decomp:
        Optional :class:`~repro.parallel.decomposition.Decomposition`.
        Point-local preconditioners ignore it except for flop
        accounting; block preconditioners require it to know the block
        boundaries (``None`` means "one block covering the whole grid").
    kernels:
        ``"numpy"``, ``"fused"``, a kernel instance, or ``None`` for
        the fused default -- see :func:`repro.kernels.resolve_kernels`.
        The implementations change the execution strategy, never the
        operator ``M``, so this is not part of :meth:`cache_token`.
    """

    #: Short name used in experiment tables ("diagonal", "evp", ...).
    name = "abstract"

    def __init__(self, stencil, decomp=None, kernels=None):
        self.stencil = stencil
        self.decomp = decomp
        self.kernels = resolve_kernels(kernels)
        self.mask = np.asarray(stencil.mask, dtype=bool)
        #: Planes repeated along the folded row axis (see :meth:`_times`).
        self._folded = {}

    # ------------------------------------------------------------------
    # application
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def apply_global(self, r, out=None):
        """``z = M^-1 r`` over the full grid.  ``z`` is masked (zero on land)."""

    @abc.abstractmethod
    def apply_block(self, rank, r_interior, out=None):
        """``z = M^-1 r`` restricted to ``rank``'s block interior."""

    def apply_stack(self, r_stack, out=None):
        """``z = M^-1 r`` on stacked interiors of shape ``(p, bny, bnx)``.

        The batched execution engine's entry point: subclasses override
        it with a fully vectorized implementation; this base fallback
        loops over ranks through :meth:`apply_block` on each rank's
        exact ``(ny, nx)`` window, so every preconditioner works under
        both engines.  Results are bit-identical to the per-rank loop by
        construction.  Pad cells of ``out`` (ragged decompositions) are
        zero or left as passed in; nothing reads them.
        """
        if out is None:
            out = np.zeros_like(r_stack)
        for rank in range(r_stack.shape[0]):
            block = self._rank_block(rank)
            ny, nx = (r_stack.shape[1:3] if block is None
                      else (block.ny, block.nx))
            self.apply_block(rank, r_stack[rank, :ny, :nx],
                             out=out[rank, :ny, :nx])
        return out

    def span_operands(self, stacked, n, mask=None):
        """``M``'s part of a fused span
        (:data:`repro.solvers.context.SPANS`): ``(kind, *operands)``,
        whose ``kind`` picks the kernels' runner
        (:meth:`~repro.kernels.base.KernelBackend.span_runner`), for the
        global grid or, with ``stacked``, the batched engine's stacked
        rank interiors, at batch width ``n``.  ``mask`` is the context's
        ocean mask when the span's dots weigh cells by ``M``'s operands
        instead (a span that replaces ``dot_pair``).  ``None`` (the
        default): ``M`` has no part in a span, which runs as its
        primitive calls."""
        return None

    # ------------------------------------------------------------------
    # caching
    # ------------------------------------------------------------------
    def cache_token(self):
        """A digestable token of the parameters that shape ``M``.

        Folded into artifact-cache keys (e.g. for memoized eigenvalue
        bounds) alongside the stencil digest and decomposition
        signature.  Subclasses with tunable parameters must override it
        so differently configured preconditioners never share entries.
        """
        return (type(self).__name__, self.name)

    # ------------------------------------------------------------------
    # cost accounting (flop units per the paper's theta-bookkeeping)
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def apply_flops(self, rank=None):
        """Flop units one application costs on ``rank``.

        ``rank=None`` means the critical-path rank (maximum over ranks).
        """

    def setup_flops(self, rank=None):
        """One-time preprocessing flop units (0 unless overridden)."""
        return 0

    # ------------------------------------------------------------------
    # helpers shared by subclasses
    # ------------------------------------------------------------------
    def _rank_block(self, rank):
        """The :class:`Block` of ``rank`` (the whole grid if no decomp)."""
        if self.decomp is None:
            if rank not in (None, 0):
                raise SolverError(
                    f"preconditioner has no decomposition; rank {rank} undefined"
                )
            return None
        return self.decomp.active_blocks[rank]

    def _max_block_points(self):
        if self.decomp is None:
            return self.stencil.shape[0] * self.stencil.shape[1]
        return self.decomp.max_block_points()

    def _times(self, data, plane, out, key):
        """``out = data * plane`` for a grid-shaped ``plane``.

        A batch carries one more (trailing) axis than the plane.
        Broadcasting the plane over it would run inner loops of
        ``nrhs`` elements, so the batch is multiplied in the folded row
        layout (:func:`repro.core.fields.fold_rows`) by the plane
        repeated ``nrhs``-fold -- the same products on full-length
        rows.  ``key`` names the plane (each keeps one width: a batch
        only narrows within a solve); matching ranks multiply directly,
        the single-RHS arithmetic byte-for-byte unchanged.
        """
        if out is None:
            out = np.empty(data.shape, dtype=np.result_type(data, plane))
        if data.ndim == plane.ndim:
            return np.multiply(data, plane, out=out)
        rows = self._folded.get(key)
        if rows is None or rows.shape[-1] != plane.shape[-1] * data.shape[-1]:
            rows = self._folded[key] = np.repeat(plane, data.shape[-1],
                                                 axis=-1)
        try:
            data = fold_rows(data)
        except GridError:  # an operand that is only read may be copied
            data = fold_rows(np.ascontiguousarray(data))
        np.multiply(data, rows, out=fold_rows(out))
        return out

    @property
    def is_spd(self):
        """Whether ``M`` is symmetric positive definite on the ocean
        subspace (all shipped preconditioners are)."""
        return True
