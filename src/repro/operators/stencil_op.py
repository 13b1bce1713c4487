"""Vectorized application of the nine-point stencil.

The matrix-vector product is the computational core of every solver
iteration (Algorithm 1 step 5, Algorithm 2 step 9 of the paper) and the
paper's cost model charges it ``9 n^2`` multiply-add pairs per block.
We count one fused multiply-add as 1 "flop unit" to match the paper's
``theta`` bookkeeping, so :data:`MATVEC_FLOPS_PER_POINT` is 9.

The arithmetic is executed by a pluggable kernel backend (see
:mod:`repro.kernels`); the default hands the whole product to one
compiled sweep over the nine coefficient planes.  Deterministic
backends are bit-identical, so callers may treat the backend as an
execution detail.
"""

import numpy as np

from repro.kernels import resolve_kernels

#: Flop units charged per grid point per matrix-vector product, matching
#: the paper's ``9 n^2`` accounting (one unit per stencil coefficient).
MATVEC_FLOPS_PER_POINT = 9


def apply_stencil(coeffs, x, out=None, kernels=None):
    """Global ``A @ x`` for a nine-point :class:`StencilCoeffs`.

    Out-of-domain neighbors contribute zero (closed boundary).  ``x``
    may carry a trailing ``nrhs`` axis, batching independent fields
    through one pass.  ``out`` (any layout) may alias neither ``x`` nor
    the coefficient arrays; without one the result is a new array.
    ``kernels`` substitutes the reference implementation
    (``"numpy"``); the default ``None`` is the fused kernels.
    """
    return resolve_kernels(kernels).stencil_apply(coeffs, x, out)


def apply_stencil_local(coeffs, local, halo_width, out=None, kernels=None):
    """``A @ x`` on one block's interior, reading neighbors from halos.

    Parameters
    ----------
    coeffs:
        :class:`StencilCoeffs` restricted to this block's interior (the
        *true* operator rows, including couplings into the halo -- not
        the block-diagonal approximation).
    local:
        Padded local array of shape ``(bny + 2h, bnx + 2h)`` with halos
        already exchanged.
    halo_width:
        ``h``.
    out:
        Optional output array of shape ``(bny, bnx)``.

    Returns
    -------
    The interior result, shape ``(bny, bnx)``.
    """
    h = halo_width
    bny = local.shape[0] - 2 * h
    bnx = local.shape[1] - 2 * h
    if out is None:
        out = np.empty((bny, bnx) + local.shape[2:], dtype=local.dtype)
    return resolve_kernels(kernels).stencil_apply_local(coeffs, local, h, out)


def residual(coeffs, x, b, out=None, kernels=None):
    """``b - A @ x`` (the solver's residual), vectorized."""
    ax = apply_stencil(coeffs, x, kernels=kernels)
    return np.subtract(b, ax, out=ax if out is None else out)
