"""Vectorized application of the nine-point stencil.

The matrix-vector product is the computational core of every solver
iteration (Algorithm 1 step 5, Algorithm 2 step 9 of the paper) and the
paper's cost model charges it ``9 n^2`` multiply-add pairs per block.
We count one fused multiply-add as 1 "flop unit" to match the paper's
``theta`` bookkeeping, so :data:`MATVEC_FLOPS_PER_POINT` is 9.

The arithmetic is executed by a pluggable kernel backend (see
:mod:`repro.kernels`); the default is pure ``numpy`` slicing over a
single padded copy of the input -- no Python-level loops -- per the HPC
guide idioms.  Deterministic backends are bit-identical, so callers may
treat the backend as an execution detail.
"""

import numpy as np

from repro.kernels import resolve_kernels

#: Flop units charged per grid point per matrix-vector product, matching
#: the paper's ``9 n^2`` accounting (one unit per stencil coefficient).
MATVEC_FLOPS_PER_POINT = 9

#: Cached padded scratch buffers for :func:`apply_stencil`, keyed by
#: grid shape, layout (2-D or batch) and dtype.  The matvec is the
#: serial hot loop; reusing the ``(ny + 2, nx + 2[, nrhs])`` buffer
#: avoids one full-grid allocation per call.  The zero border (the
#: closed boundary) is written once at creation and never touched
#: afterwards, so no re-zeroing is needed.  A batch keeps one width per
#: grid: widths only shrink within a solve (8, 7, 6, ... as columns
#: retire), so a narrower batch replaces the buffer instead of adding
#: an entry per width.
_PADDED_SCRATCH = {}


def _padded_scratch(shape, dtype):
    key = (shape[:2], len(shape), np.dtype(dtype).str)
    buf = _PADDED_SCRATCH.get(key)
    if buf is None or buf.shape[2:] != shape[2:]:
        ny, nx = shape[:2]
        buf = np.zeros((ny + 2, nx + 2) + shape[2:], dtype=dtype)
        _PADDED_SCRATCH[key] = buf
    return buf


def apply_stencil(coeffs, x, out=None, kernels=None):
    """Global ``A @ x`` for a nine-point :class:`StencilCoeffs`.

    Out-of-domain neighbors contribute zero (closed boundary).  ``x``
    may carry a trailing ``nrhs`` axis, batching independent fields
    through one vectorized pass; a batch ``out`` must then keep its
    ``(nx, nrhs)`` axes C-contiguous (any array allocated in that shape
    does).  ``out`` may alias neither ``x`` nor the coefficient arrays.
    ``kernels`` selects the executing backend (default:
    ``$REPRO_KERNELS``/auto).
    """
    padded = _padded_scratch(x.shape, x.dtype)
    padded[1:-1, 1:-1] = x

    if out is None:
        out = np.empty(x.shape, dtype=x.dtype)
    return resolve_kernels(kernels).stencil_apply(coeffs, x, padded, out)


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
    if out is None:
        out = np.empty_like(b)
    np.subtract(b, ax, out=out)
    return out
