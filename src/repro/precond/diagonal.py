"""Diagonal (Jacobi) preconditioning.

POP's historical choice (Smith, Dukowicz & Malone 1992; still the CESM
default the paper improves on): ``M = diag(A)``, applied as a point-wise
multiply by the reciprocal diagonal.  Costs ``1`` flop unit per point
per application (the ``T_p = n^2 * theta`` of paper Eq. 2) and needs no
communication or setup.
"""

import numpy as np

from repro.core.errors import SolverError
from repro.precond.base import Preconditioner


class DiagonalPreconditioner(Preconditioner):
    """``z = r / diag(A)`` on ocean points, ``0`` on land."""

    name = "diagonal"

    def __init__(self, stencil, decomp=None, kernels=None):
        super().__init__(stencil, decomp=decomp, kernels=kernels)
        diag = stencil.c
        if np.any(diag[self.mask] <= 0.0):
            raise SolverError(
                "operator diagonal must be positive on ocean points for "
                "diagonal preconditioning"
            )
        # Reciprocal once; land entries produce zero output via the mask.
        safe = np.where(diag > 0.0, diag, 1.0)
        self._inv_diag = np.where(self.mask, 1.0 / safe, 0.0)
        self._inv_diag_stack = None
        #: The last mask :meth:`span_operands` was handed, and whether it
        #: is exactly where ``inv_diag`` is non-zero.
        self._ocean = (None, False)

    @property
    def inv_diag(self):
        """The masked reciprocal diagonal (read-only view)."""
        return self._inv_diag

    def apply_global(self, r, out=None):
        return self._times(r, self._inv_diag, out, None)

    def apply_block(self, rank, r_interior, out=None):
        block = self._rank_block(rank)
        inv = self._inv_diag if block is None else self._inv_diag[block.slices]
        return self._times(r_interior, inv, out, rank)

    def apply_stack(self, r_stack, out=None):
        """One vectorized reciprocal-diagonal multiply over the stack."""
        if self.decomp is None:
            return super().apply_stack(r_stack, out=out)
        if self._inv_diag_stack is None:
            self._inv_diag_stack = self.decomp.stack_interiors(self._inv_diag)
        return self._times(r_stack, self._inv_diag_stack, out, "stack")

    def span_operands(self, stacked, n, mask=None):
        """``("diagonal", inv_diag)`` on the global grid.  A span's dots
        weigh cells by ``inv_diag != 0``, which gives the masked dots'
        bits only where that is exactly ``mask`` (checked once per
        mask)."""
        if stacked:
            return None
        if mask is not None:
            seen, ours = self._ocean   # one read: solves share it
            if seen is not mask:
                ours = np.array_equal(self._inv_diag != 0.0, mask)
                self._ocean = (mask, ours)
            if not ours:
                return None
        return "diagonal", self._inv_diag

    def apply_flops(self, rank=None):
        """One multiply per point: the paper's ``T_p = n^2 theta``."""
        if rank is None or self.decomp is None:
            return self._max_block_points()
        return self.decomp.active_blocks[rank].npoints
