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

The batched engine's local partials are its kernels' ``window_dots``
(:meth:`repro.kernels.base.KernelBackend.window_dots`): every block's
window reduced in the pairwise order :func:`masked_local_dot` reduces
it, so the partials are the per-rank oracle's.
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
