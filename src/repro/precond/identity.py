"""The identity (no-op) preconditioner.

``M = I`` turns P-CSI back into the plain CSI solver of Hu et al. 2013
and ChronGear into unpreconditioned CG-with-fused-reductions.  Kept as
the baseline for every preconditioning comparison.
"""

from repro.precond.base import Preconditioner


class IdentityPreconditioner(Preconditioner):
    """``z = r`` (masked)."""

    name = "identity"

    def __init__(self, stencil, decomp=None, kernels=None):
        super().__init__(stencil, decomp=decomp, kernels=kernels)
        self._mask_stack = None

    def apply_global(self, r, out=None):
        return self._times(r, self.mask, out, None)

    def apply_block(self, rank, r_interior, out=None):
        block = self._rank_block(rank)
        local_mask = self.mask if block is None else self.mask[block.slices]
        return self._times(r_interior, local_mask, out, rank)

    def apply_stack(self, r_stack, out=None):
        """One vectorized masking multiply over the whole stack."""
        if self.decomp is None:
            return super().apply_stack(r_stack, out=out)
        if self._mask_stack is None:
            self._mask_stack = self.decomp.stack_interiors(self.mask)
        return self._times(r_stack, self._mask_stack, out, "stack")

    def apply_flops(self, rank=None):
        """Identity costs nothing in the paper's accounting."""
        return 0
