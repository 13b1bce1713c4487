"""Masked global reductions over block fields.

POP's barotropic inner products are global sums over ocean points: each
rank multiplies its local partial products by the land mask, reduces
locally, then joins an ``MPI_Allreduce``.  The paper models the
all-reduce as a binomial tree of depth ``log2 p`` (Eq. 2); the masking
multiply contributes ``2 n^2`` flops per rank.

Numerical determinism
---------------------
The simulated reduction sums per-rank partials in rank order.  This is a
fixed, reproducible order -- real MPI reductions have their own fixed
tree order, which is why running the same configuration on the same
machine is bit-for-bit reproducible, while changing the rank count (or
the solver!) is not.  That non-associativity is precisely what motivates
the paper's section 6 ensemble-consistency machinery.

The two ``*_stacked`` functions are the numpy form of the batched
engine's local partials -- product, mask pass, (for a batch) planar
transpose, ``np.sum`` -- and the definition of their bits.  The virtual
machine asks its kernels' ``window_dots`` first
(:meth:`repro.kernels.base.KernelBackend.window_dots`: the same
products reduced in the same pairwise order in one compiled pass, no
temporaries) and comes here when the kernels have no such form.
"""

import math

import numpy as np


def binomial_tree_depth(p):
    """Depth of a binomial reduction tree over ``p`` ranks: ``ceil(log2 p)``."""
    if p < 1:
        raise ValueError(f"rank count must be >= 1, got {p}")
    return int(math.ceil(math.log2(p))) if p > 1 else 0


def masked_local_dot(a_interior, b_interior, mask_interior):
    """One rank's masked partial inner product (``sum(a*b*mask)``)."""
    return float(np.sum(a_interior * b_interior * mask_interior))


def masked_global_sum_blocks(partials):
    """Combine per-rank partial sums in rank order.

    ``partials`` is a sequence ordered by rank; the return value is the
    deterministic left-to-right sum, standing in for the fixed-topology
    MPI reduction.
    """
    total = 0.0
    for value in partials:
        total += value
    return total


def masked_partials_stacked(a_interiors, b_interiors, mask_stack,
                            mask_groups=None):
    """Per-rank masked partial products from stacked interiors.

    ``a_interiors``/``b_interiors``/``mask_stack`` have shape
    ``(p, bny, bnx)``.  One vectorized elementwise product plus one
    ``np.sum(axis=(1, 2))`` replaces the per-rank Python loop.  The
    result is bit-identical to computing ``sum(a * b * mask)`` rank by
    rank: numpy's pairwise summation reduces each rank's contiguous
    ``bny * bnx`` chunk exactly as it reduces the standalone 2-D
    product.  (``einsum`` was rejected here -- it accumulates serially
    and differs from the per-rank sums in the last bits.)

    ``mask_groups`` (``None`` when uniform) handles ragged stacks:
    pairwise summation blocks by element count, so summing a padded slot
    would change the bits even though the pad contributes zeros.  It
    lists, per block shape, ``(ranks, mask_window)`` with
    ``mask_window = mask_stack[ranks, :ny, :nx]``; each group's exact
    ``(ny, nx)`` windows are multiplied and reduced on their own -- at
    most four groups, and no pad cell is ever read.

    Returns a list of Python floats ordered by rank, ready for
    :func:`masked_global_sum_blocks`.
    """
    if mask_groups is None:
        prod = a_interiors * b_interiors * mask_stack
        return np.sum(prod, axis=(1, 2)).tolist()
    partials = np.empty(mask_stack.shape[0])
    for ranks, mask_window in mask_groups:
        _, ny, nx = mask_window.shape
        prod = (a_interiors[ranks, :ny, :nx] * b_interiors[ranks, :ny, :nx]
                * mask_window)
        partials[ranks] = np.sum(prod, axis=(1, 2))
    return partials.tolist()


def masked_column_partials_stacked(a_interiors, b_interiors, mask_stack,
                                   mask_groups=None):
    """Per-column, per-rank masked partials of a stacked multi-RHS pair.

    ``a_interiors``/``b_interiors`` are ``(p, bny, bnx, nrhs)`` interior
    stacks.  The product is formed once in the batch layout and masked
    *into* a planar ``(nrhs, p, bny, bnx)`` array -- one transposing
    pass for all columns -- so every ``(column, rank)`` chunk is
    contiguous and one ``np.sum`` over the trailing axes reduces it
    exactly as :func:`masked_partials_stacked` reduces that column on
    its own (same ``(a * b) * mask`` products, same pairwise blocking).
    ``mask_groups`` selects the exact windows of ragged stacks, as
    there.

    Returns ``nrhs`` lists of Python floats ordered by rank.
    """
    planar = (a_interiors * b_interiors).transpose(3, 0, 1, 2)
    nrhs = planar.shape[0]
    if mask_groups is None:
        masked = np.empty(planar.shape)
        np.multiply(planar, mask_stack, out=masked)
        return np.sum(masked, axis=(2, 3)).tolist()
    partials = np.empty(planar.shape[:2])
    for ranks, mask_window in mask_groups:
        _, ny, nx = mask_window.shape
        masked = np.empty((nrhs,) + mask_window.shape)
        np.multiply(planar[:, ranks, :ny, :nx], mask_window, out=masked)
        partials[:, ranks] = np.sum(masked, axis=(2, 3))
    return partials.tolist()


def masked_global_dot_blockfields(a, b, mask_blocks):
    """Masked global inner product of two :class:`BlockField` values.

    ``mask_blocks`` is a list (by rank) of interior mask arrays.  Returns
    the scalar product over all ocean points, reduced in rank order.
    """
    partials = []
    for rank in range(len(a.locals_)):
        partials.append(
            masked_local_dot(a.interior(rank), b.interior(rank), mask_blocks[rank])
        )
    return masked_global_sum_blocks(partials)
