"""The numpy reference backend.

Straightforward vectorized numpy: the stencil matvec as nine
slice-multiply-accumulate passes (the global form is the local one on a
zero-bordered copy, :meth:`KernelBackend.stencil_apply`), the EVP solve
as the engine's reference marching sweep (`EVPTileEngine._march`) with
per-step fancy indexing.  The fused kernels are validated against this
one, bit for bit, and run it for every loop whose ``native.c`` entry
point was not adopted.

The coefficient application order (center, compass, corners -- the
module-level tuple in :mod:`repro.operators.blocked`) is part of the
reference semantics: the fused kernels must accumulate in the
same order, since floating-point addition does not commute in the last
bit.

Multi-RHS batches ride a trailing ``nrhs`` axis: the slice programs are
unchanged except that the 2-D coefficient arrays gain an explicit
trailing broadcast axis, so every element of every column sees exactly
the operation sequence the single-RHS path performs -- batched results
are bit-identical per column.  The EVP sweep always runs on such an
axis: a single right-hand side is one column.

The vector kernels are the contexts' numpy calls: a chain of updates
step by step (``y *= b``, then ``y += a * x``), the windowed dots as
product, mask pass and ``np.sum`` per block shape, the halo copy as one
``take`` and one zero fill over the stack's flat cells.
"""

import numpy as np

from repro.core.fields import fold_update
from repro.kernels.base import KernelBackend, validate_evp_shapes


class NumpyKernels(KernelBackend):
    """Reference implementations (see module docstring)."""

    name = "numpy"

    # ------------------------------------------------------------------
    # nine-point stencil
    # ------------------------------------------------------------------
    def stencil_apply_local(self, coeffs, local, h, out):
        bny, bnx = out.shape[:2]
        cv = (lambda c: c[..., None]) if local.ndim == 3 else (lambda c: c)

        def view(dj, di):
            return local[h + dj:h + dj + bny, h + di:h + di + bnx]

        np.multiply(cv(coeffs.c), view(0, 0), out=out)
        out += cv(coeffs.n) * view(1, 0)
        out += cv(coeffs.s) * view(-1, 0)
        out += cv(coeffs.e) * view(0, 1)
        out += cv(coeffs.w) * view(0, -1)
        out += cv(coeffs.ne) * view(1, 1)
        out += cv(coeffs.nw) * view(1, -1)
        out += cv(coeffs.se) * view(-1, 1)
        out += cv(coeffs.sw) * view(-1, -1)
        return out

    def stencil_apply_stacked(self, coeffs, stack, h, bny, bnx, out):
        cv = (lambda c: c[..., None]) if stack.ndim == 4 else (lambda c: c)

        def view(dj, di):
            return stack[:, h + dj:h + dj + bny, h + di:h + di + bnx]

        np.multiply(cv(coeffs["c"]), view(0, 0), out=out)
        out += cv(coeffs["n"]) * view(1, 0)
        out += cv(coeffs["s"]) * view(-1, 0)
        out += cv(coeffs["e"]) * view(0, 1)
        out += cv(coeffs["w"]) * view(0, -1)
        out += cv(coeffs["ne"]) * view(1, 1)
        out += cv(coeffs["nw"]) * view(1, -1)
        out += cv(coeffs["se"]) * view(-1, 1)
        out += cv(coeffs["sw"]) * view(-1, -1)
        return out

    # ------------------------------------------------------------------
    # vector kernels
    # ------------------------------------------------------------------
    def window_dots(self, a, b, mask, extents=None):
        # Pairwise summation blocks by element count, so each window is
        # reduced on its own -- summing a padded slot would change the
        # bits although the pad adds zeros -- and by ``np.sum``, not
        # ``einsum``, which accumulates serially.
        out = np.empty((a.shape[3] if a.ndim == 4 else 1, mask.shape[0]))
        for blocks, ny, nx in _windows(mask.shape, extents):
            prod = a[blocks, :ny, :nx] * b[blocks, :ny, :nx]
            if prod.ndim == 4:
                prod = prod.transpose(3, 0, 1, 2)
            # Planar ``(nrhs, blocks, ny, nx)``: every (column, block)
            # window contiguous, as a standalone product would be.
            masked = np.empty(prod.shape)
            np.multiply(prod, mask[blocks, :ny, :nx], out=masked)
            out[:, blocks] = np.sum(masked, axis=(-2, -1))
        return out

    def update_chain(self, steps):
        for kind, a, b, x, y in steps:
            if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
                (a, b), (x, y) = fold_update((a, b), (x, y))
            if kind:
                y *= b
            if kind == 1:
                y += x
            else:
                y += a * x

    def halo_copy(self, stack, tables):
        if not stack.flags.c_contiguous:
            raise ValueError("halo_copy needs a C-contiguous stack")
        dst, src, zero = tables
        # Cells as rows of a flat view; one value per cell stays 1-D
        # (fancy indexing a trailing axis of one is 2.5x slower).
        tail = stack.shape[3:]
        flat = stack.reshape((-1,) + (tail if tail != (1,) else ()))
        flat[dst] = flat.take(src, axis=0)
        if zero.size:
            flat[zero] = 0.0

    # ------------------------------------------------------------------
    # EVP tile solves
    # ------------------------------------------------------------------
    def evp_solve(self, engine, plan, y, out=None):
        """March -> edge residuals -> ring correction -> march again, on
        the columns of a trailing axis (one for a 3-D ``y``)."""
        y = validate_evp_shapes(engine, y)
        cols = y if y.ndim == 4 else y[..., None]
        my, mx = engine.my, engine.mx
        p = np.zeros((engine.batch, my + 2, mx + 2, cols.shape[3]))
        engine._march(p, cols)
        ring = engine.ring_correction(engine._edge_residuals(p, cols))
        p.fill(0.0)
        p[:, engine._ring_rows, engine._ring_cols] = ring
        engine._march(p, cols)
        x = p[:, 1:my + 1, 1:mx + 1]
        if y.ndim == 3:
            x = x[..., 0]
        if out is None:
            return x.copy()
        out[...] = x
        return out


def _windows(shape, extents):
    """``(blocks, ny, nx)`` per window shape of a ``(blocks, rows,
    cols)`` layout: the blocks (a slice, or an index array) whose
    window is ``(ny, nx)``."""
    if extents is None:
        return [(slice(None), shape[1], shape[2])]
    shapes, which = np.unique(extents, axis=0, return_inverse=True)
    return [(np.flatnonzero(which.ravel() == k), int(ny), int(nx))
            for k, (ny, nx) in enumerate(shapes)]
