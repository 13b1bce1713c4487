"""The distributed nine-point operator over a block decomposition.

Each simulated rank applies the *true* operator rows for its block,
reading neighbor values out of its exchanged halo -- exactly POP's
``btrop_operator`` followed by ``update_halo``.  The blocked operator is
validated against the global one: ``gather(blocked(x)) == global(x)``
bit-for-bit on every grid the test suite generates.

The nine per-rank coefficient slices are also kept stacked as
``(p, bny, bnx)`` arrays (zero on the pad cells of ragged tiles), so
that :meth:`BlockedOperator.apply` on stacked fields runs the whole
multiply-accumulate sequence as one kernel-backend call over the stack
(nine vectorized passes in the reference backend, one compiled sweep in
the fused one) instead of a Python loop over ranks -- bit-identical,
since every point sees the same operation sequence in the same order.
"""

from repro.core.errors import SolverError
from repro.kernels import resolve_kernels

#: Coefficient application order shared by the per-rank and stacked
#: paths (and by :func:`~repro.operators.stencil_op.apply_stencil`);
#: keeping it fixed is what makes the two engines bit-identical.
_COEFF_ORDER = ("c", "n", "s", "e", "w", "ne", "nw", "se", "sw")


class BlockedOperator:
    """Per-rank stencil application bound to a decomposition.

    Parameters
    ----------
    coeffs:
        Global :class:`~repro.grid.stencil.StencilCoeffs`.
    decomp:
        The block :class:`~repro.parallel.decomposition.Decomposition`.
    kernels:
        Kernels executing the multiply-accumulate passes (``"numpy"``,
        ``"fused"``, an instance, or ``None`` for the fused default);
        see :mod:`repro.kernels`.
    """

    def __init__(self, coeffs, decomp, kernels=None):
        if coeffs.shape != (decomp.ny, decomp.nx):
            raise SolverError(
                f"stencil shape {coeffs.shape} does not match decomposition "
                f"grid ({decomp.ny}, {decomp.nx})"
            )
        self.coeffs = coeffs
        self.decomp = decomp
        self.kernels = resolve_kernels(kernels)
        # Slice the nine coefficient arrays once per rank.
        self._local_coeffs = [
            _LocalCoeffs(coeffs, block) for block in decomp.active_blocks
        ]
        # Stacked (p, bny, bnx) copies of the same slices, built lazily
        # the first time a stacked field comes through.
        self._stacked_coeffs = None

    def _get_stacked_coeffs(self):
        if self._stacked_coeffs is None:
            self._stacked_coeffs = {
                name: self.decomp.stack_interiors(getattr(self.coeffs, name))
                for name in _COEFF_ORDER
            }
        return self._stacked_coeffs

    def apply(self, x_field, out_field):
        """``out = A @ x`` per rank; halos of ``x_field`` must be current.

        Writes block interiors of ``out_field`` (its halos are left
        stale; exchange afterwards if the next operation reads them).
        Stacked fields dispatch to the vectorized stacked path.
        """
        if x_field.is_stacked and out_field.is_stacked:
            return self.apply_stacked(x_field, out_field)
        h = self.decomp.halo_width
        kernels = self.kernels
        for rank in range(self.decomp.num_active):
            kernels.stencil_apply_local(
                self._local_coeffs[rank],
                x_field.local(rank),
                h,
                out_field.interior(rank),
            )
        return out_field

    def apply_stacked(self, x_field, out_field):
        """``out = A @ x`` over the whole stack in one backend call."""
        h = self.decomp.halo_width
        bny, bnx = self.decomp.max_block_shape()
        self.kernels.stencil_apply_stacked(
            self._get_stacked_coeffs(), x_field.stack, h, bny, bnx,
            out_field.interior_stack())
        return out_field


class _LocalCoeffs:
    """The nine coefficient arrays sliced to one block's interior."""

    __slots__ = ("c", "n", "s", "e", "w", "ne", "nw", "se", "sw")

    def __init__(self, coeffs, block):
        sl = block.slices
        for name in self.__slots__:
            setattr(self, name, getattr(coeffs, name)[sl])
