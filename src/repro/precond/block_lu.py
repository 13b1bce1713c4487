"""Block-Jacobi preconditioning with exact sparse-LU block solves.

The comparator the paper positions EVP against (section 4.1): the same
block-diagonal approximation ``M = diag(B_1, ..., B_m^2)``, but each
``B_i x_i = y_i`` is solved through a pre-computed LU factorization.
Arithmetically this is the *same preconditioner* as EVP without the
epsilon-land embedding (so with identical blocks the two must agree to
round-off -- a test asserts exactly that on all-ocean tiles); the
difference is cost: LU's solve step is ``O(n^4)`` work per block versus
EVP's ``O(n^2)`` (paper section 4.2), which is why EVP wins.

Implementation notes: blocks are factorized with
``scipy.sparse.linalg.splu`` over the block's *ocean* unknowns only
(land rows are inert identity), so no land embedding is needed.
"""

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from repro.core.fields import NEIGHBOR_OFFSETS
from repro.parallel.decomposition import _split_extent
from repro.precond.base import Preconditioner


class BlockLUPreconditioner(Preconditioner):
    """Block-Jacobi with exact LU block solves.

    Parameters mirror :class:`EVPBlockPreconditioner`: blocks come from
    ``decomp`` (the whole grid when ``None``) and may be sub-tiled via
    ``tile_size`` so the two block preconditioners can be compared at
    identical granularity.  ``tile_size=None`` (default) keeps whole
    process blocks -- the classical block-Jacobi configuration.
    """

    name = "block_lu"

    def __init__(self, stencil, decomp=None, tile_size=None, kernels=None):
        super().__init__(stencil, decomp=decomp, kernels=kernels)
        self.tile_size = tile_size
        self._tiles = self._make_tiles()
        self._factors = []
        for rank, j0, j1, i0, i1 in self._tiles:
            self._factors.append(self._factorize(j0, j1, i0, i1))
        self._mask_f = self.mask.astype(np.float64)
        self._mask_f_stack = None

    def _make_tiles(self):
        tiles = []
        if self.decomp is None:
            ny, nx = self.stencil.shape
            blocks = [(0, 0, ny, 0, nx)]
        else:
            blocks = [(rank, b.j0, b.j1, b.i0, b.i1)
                      for rank, b in enumerate(self.decomp.active_blocks)]
        for rank, j0, j1, i0, i1 in blocks:
            if self.tile_size is None:
                tiles.append((rank, j0, j1, i0, i1))
                continue
            ny, nx = j1 - j0, i1 - i0
            nty = max(1, -(-ny // self.tile_size))
            ntx = max(1, -(-nx // self.tile_size))
            for tj0, tj1 in _split_extent(ny, nty):
                for ti0, ti1 in _split_extent(nx, ntx):
                    tiles.append((rank, j0 + tj0, j0 + tj1, i0 + ti0, i0 + ti1))
        return tiles

    def _factorize(self, j0, j1, i0, i1):
        """LU-factorize one block's ocean submatrix.

        Returns ``(lu, ocean_flat_idx, shape)`` or ``None`` for all-land
        blocks.
        """
        sub = self.stencil.extract_block(j0, j1, i0, i1)
        my, mx = sub.shape
        mask = sub.mask.ravel()
        idx = np.flatnonzero(mask)
        if idx.size == 0:
            return None
        rows, cols, vals = [], [], []
        numbering = np.arange(my * mx).reshape(my, mx)
        jj, ii = np.meshgrid(np.arange(my), np.arange(mx), indexing="ij")
        rows.append(numbering.ravel())
        cols.append(numbering.ravel())
        vals.append(sub.c.ravel())
        for name, (dj, di) in NEIGHBOR_OFFSETS.items():
            coeff = getattr(sub, name)
            jn, in_ = jj + dj, ii + di
            ok = (0 <= jn) & (jn < my) & (0 <= in_) & (in_ < mx) & (coeff != 0.0)
            rows.append(numbering[jj[ok], ii[ok]])
            cols.append(numbering[jn[ok], in_[ok]])
            vals.append(coeff[ok])
        full = sparse.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(my * mx, my * mx),
        ).tocsc()
        ocean = full[np.ix_(idx, idx)].tocsc()
        return splu(ocean), idx, (my, mx)

    # ------------------------------------------------------------------
    def _solve_tile(self, factor, y_block):
        if factor is None:
            return np.zeros_like(y_block)
        lu, idx, shape = factor
        if y_block.ndim == 3:
            # Multi-RHS: one triangular solve per column on a contiguous
            # copy, so each column's arithmetic stream matches its
            # single-RHS solve exactly.
            nrhs = y_block.shape[2]
            out = np.zeros((shape[0] * shape[1], nrhs), dtype=y_block.dtype)
            for j in range(nrhs):
                flat = np.ascontiguousarray(y_block[..., j]).ravel()
                out[idx, j] = lu.solve(flat[idx])
            return out.reshape(shape + (nrhs,))
        flat = y_block.ravel()
        out = np.zeros_like(flat)
        out[idx] = lu.solve(flat[idx])
        return out.reshape(shape)

    def apply_global(self, r, out=None):
        if out is None:
            out = np.zeros_like(r)
        else:
            out[...] = 0.0
        for (rank, j0, j1, i0, i1), factor in zip(self._tiles, self._factors):
            out[j0:j1, i0:i1] = self._solve_tile(factor, r[j0:j1, i0:i1])
        return self._times(out, self._mask_f, out, None)

    def apply_block(self, rank, r_interior, out=None):
        block = self._rank_block(rank)
        if block is None:
            return self.apply_global(r_interior, out=out)
        if out is None:
            out = np.zeros_like(r_interior)
        else:
            out[...] = 0.0
        for (trank, j0, j1, i0, i1), factor in zip(self._tiles, self._factors):
            if trank != rank:
                continue
            y = r_interior[j0 - block.j0:j1 - block.j0, i0 - block.i0:i1 - block.i0]
            out[j0 - block.j0:j1 - block.j0,
                i0 - block.i0:i1 - block.i0] = self._solve_tile(factor, y)
        return self._times(out, self._mask_f[block.slices], out, rank)

    def apply_stack(self, r_stack, out=None):
        """Stacked application: one pass over all tiles.

        LU back-substitution is inherently per-tile (scipy's ``splu``),
        so the solve itself stays a loop; the win over the per-rank path
        is visiting each tile exactly once instead of scanning the full
        tile list once per rank, and masking the whole stack in one
        multiply.
        """
        if self.decomp is None:
            return super().apply_stack(r_stack, out=out)
        if out is None:
            out = np.zeros_like(r_stack)
        else:
            out[...] = 0.0
        blocks = self.decomp.active_blocks
        for (rank, j0, j1, i0, i1), factor in zip(self._tiles, self._factors):
            block = blocks[rank]
            y = r_stack[rank, j0 - block.j0:j1 - block.j0,
                        i0 - block.i0:i1 - block.i0]
            out[rank, j0 - block.j0:j1 - block.j0,
                i0 - block.i0:i1 - block.i0] = self._solve_tile(factor, y)
        if self._mask_f_stack is None:
            self._mask_f_stack = self.decomp.stack_interiors(self._mask_f)
        return self._times(out, self._mask_f_stack, out, "stack")

    # ------------------------------------------------------------------
    def apply_flops(self, rank=None):
        """LU triangular solves cost ``O(n^4)`` per ``n x n`` block.

        Charged as ``2 * npts^2`` per tile (two dense-equivalent
        triangular sweeps), the cost model under which the paper calls
        LU-based block preconditioning impractical.
        """
        def tile_cost(j0, j1, i0, i1):
            pts = (j1 - j0) * (i1 - i0)
            return 2 * pts * pts

        totals = {}
        for trank, j0, j1, i0, i1 in self._tiles:
            totals[trank] = totals.get(trank, 0) + tile_cost(j0, j1, i0, i1)
        if rank is not None:
            return totals.get(rank, 0)
        return max(totals.values())

    def setup_flops(self, rank=None):
        """Factorization cost ``O(n^6)``-ish charged as ``npts^3 / 3``."""
        totals = {}
        for trank, j0, j1, i0, i1 in self._tiles:
            pts = (j1 - j0) * (i1 - i0)
            totals[trank] = totals.get(trank, 0) + pts ** 3 // 3
        if rank is not None:
            return totals.get(rank, 0)
        return max(totals.values())
