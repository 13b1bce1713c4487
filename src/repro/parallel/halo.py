"""Halo (ghost-cell) exchange over block-local arrays.

Each simulated rank owns one block, stored as a local array of shape
``(bny + 2h, bnx + 2h)`` where ``h`` is the halo width (POP default 2).
After a stencil operation, the halo rings must be refreshed from
neighboring blocks before the next operation can read them -- that is
POP's ``update_halo`` (Algorithm 1 step 6 / Algorithm 2 step 10 of the
paper).

Three implementations are provided and tested against each other:

* :meth:`HaloExchanger.exchange` -- true point-to-point semantics: every
  block copies edge strips directly from each of its eight neighbors
  (four messages per rank in POP's counting, since corner data rides
  along with the edge strips).
* :meth:`HaloExchanger.exchange_via_global` -- a bulk-synchronous
  shortcut that reassembles the global field and re-slices every block's
  padded window from it.  Semantically identical under BSP, considerably
  faster in this in-process simulation, and used by default for per-rank
  fields.
* :meth:`HaloExchanger.exchange_stacked` -- the batched engine's: halo
  cells of a stack copied straight from their owners' interior cells
  through cell tables built once from the decomposition (one compiled
  loop where the kernels have it, numpy fancy indexing otherwise);
  nothing is assembled and no owned cell moves.

Out-of-domain halos (beyond the global grid edge, or adjacent to an
eliminated all-land block) are filled with zeros: the closed lateral
boundary of the barotropic operator.
"""

import numpy as np

from repro.core.errors import DecompositionError


class BlockField:
    """Per-rank local arrays (with halos) for one distributed 2-D field.

    Two storage layouts exist:

    * **per-rank**: ``locals_`` is a list of independent arrays, one per
      rank -- the layout of the ``engine="perrank"`` parity oracle.
    * **stacked** (structure-of-arrays): all local arrays live in one
      dense ``(num_ranks, bny + 2h, bnx + 2h)`` ndarray (``stack``),
      ``(bny, bnx)`` being the largest block shape, and ``locals_``
      holds *views* into it.  Works for every decomposition: the rank
      axis counts active ranks only (eliminated land blocks have no
      slot), and a block smaller than the largest occupies the low
      corner of its slot, the rest being pad.  The per-rank accessors
      work identically on both layouts; the batched execution engine
      additionally operates on the whole stack with single vectorized
      numpy calls.

    Pad cells (and the part of a smaller block's north/east halo that
    falls inside the stack's interior window) may hold stale finite
    values after elementwise updates.  Nothing reads them: stencil and
    mask coefficients are zero there, the halo exchange rewrites every
    cell a rank does not own (pad cells with zero) before every
    operator apply, and reductions, gathers, checksums and checkpoints
    touch exact per-rank windows only.

    Attributes
    ----------
    decomp:
        The :class:`~repro.parallel.decomposition.Decomposition` this
        field is distributed over.
    locals_:
        List indexed by rank of local arrays, each of shape
        ``(block.ny + 2h, block.nx + 2h)``.
    stack:
        The backing ``(num_ranks, bny + 2h, bnx + 2h)`` ndarray for
        stacked fields, ``None`` for per-rank fields.
    """

    def __init__(self, decomp, locals_, stack=None):
        self.decomp = decomp
        self.locals_ = locals_
        self.stack = stack

    @classmethod
    def from_stack(cls, decomp, stack):
        """Wrap a ``(num_ranks, bny + 2h, bnx + 2h[, nrhs])`` stack."""
        if decomp.is_uniform:
            return cls(decomp, list(stack), stack=stack)
        h = decomp.halo_width
        locals_ = [stack[rank, :b.ny + 2 * h, :b.nx + 2 * h]
                   for rank, b in enumerate(decomp.active_blocks)]
        return cls(decomp, locals_, stack=stack)

    @classmethod
    def zeros(cls, decomp, dtype=np.float64, stacked=False, nrhs=None):
        """A zero-valued block field over ``decomp``.

        ``stacked=True`` requests the structure-of-arrays layout.
        ``nrhs`` adds a trailing batch axis so the field holds that many
        independent RHS columns (``None`` keeps the scalar 2-D layout).
        """
        h = decomp.halo_width
        trailing = () if nrhs is None else (int(nrhs),)
        if stacked:
            bny, bnx = decomp.max_block_shape()
            stack = np.zeros(
                (decomp.num_active, bny + 2 * h, bnx + 2 * h) + trailing,
                dtype=dtype,
            )
            return cls.from_stack(decomp, stack)
        locals_ = [
            np.zeros((b.ny + 2 * h, b.nx + 2 * h) + trailing, dtype=dtype)
            for b in decomp.active_blocks
        ]
        return cls(decomp, locals_)

    @property
    def nrhs(self):
        """Trailing batch width, or ``None`` for a scalar 2-D field."""
        arr = self.stack if self.stack is not None else self.locals_[0]
        base = 3 if self.stack is not None else 2
        return arr.shape[base] if arr.ndim > base else None

    @property
    def is_stacked(self):
        """Whether this field uses the stacked (SoA) layout."""
        return self.stack is not None

    def local(self, rank):
        """The full padded local array of ``rank``."""
        return self.locals_[rank]

    def interior(self, rank):
        """View of ``rank``'s owned (non-halo) points."""
        h = self.decomp.halo_width
        block = self.decomp.active_blocks[rank]
        return self.locals_[rank][h:h + block.ny, h:h + block.nx]

    def interior_stack(self):
        """View of all ranks' interior slots, shape ``(p, bny, bnx[, nrhs])``.

        Only available on stacked fields.  On a ragged decomposition
        the slot of a smaller block also covers its pad (see the class
        docstring).
        """
        if self.stack is None:
            raise DecompositionError(
                "interior_stack() requires a stacked BlockField"
            )
        h = self.decomp.halo_width
        return self.stack[:, h:self.stack.shape[1] - h,
                          h:self.stack.shape[2] - h]

    def copy(self):
        """Deep copy of the block field (layout preserved)."""
        if self.stack is not None:
            return BlockField.from_stack(self.decomp, self.stack.copy())
        return BlockField(self.decomp, [arr.copy() for arr in self.locals_])


class HaloExchanger:
    """Fills halo rings of a :class:`BlockField` from neighboring blocks."""

    def __init__(self, decomp):
        self.decomp = decomp
        h = decomp.halo_width
        for block in decomp.active_blocks:
            if block.ny < h or block.nx < h:
                raise DecompositionError(
                    f"block {block.index} is {block.ny}x{block.nx}, smaller than "
                    f"the halo width {h}; choose fewer blocks or a thinner halo"
                )
        # Precompute, per rank, the neighbor block in each direction so the
        # per-exchange loop does no lattice lookups.
        self._neighbor_ranks = []
        for block in decomp.active_blocks:
            neigh = decomp.neighbors(block)
            self._neighbor_ranks.append({
                d: (n.rank if (n is not None and n.is_active) else None)
                for d, n in neigh.items()
            })
        # Lazily-built cell tables of the stacked exchange.
        self._stacked_tables = None

    # ------------------------------------------------------------------
    def scatter(self, global_field, dtype=None, stacked=False):
        """Distribute a global ``(ny, nx[, nrhs])`` array into a BlockField.

        Halo rings are zero-initialized; call an exchange method to fill
        them.  ``stacked=True`` produces a structure-of-arrays field.
        A 3-D input distributes every RHS column at once into a
        trailing-axis field.
        """
        decomp = self.decomp
        if global_field.shape[:2] != (decomp.ny, decomp.nx):
            raise DecompositionError(
                f"field shape {global_field.shape} does not match grid "
                f"({decomp.ny}, {decomp.nx})"
            )
        nrhs = global_field.shape[2] if global_field.ndim == 3 else None
        field = BlockField.zeros(decomp, dtype=dtype or global_field.dtype,
                                 stacked=stacked, nrhs=nrhs)
        for rank, block in enumerate(decomp.active_blocks):
            field.interior(rank)[...] = global_field[block.slices]
        return field

    def gather(self, field, fill=0.0, dtype=None):
        """Reassemble a global array from block interiors.

        Points belonging to eliminated land blocks get ``fill``.
        """
        decomp = self.decomp
        trailing = field.locals_[0].shape[2:]
        out = np.full((decomp.ny, decomp.nx) + trailing, fill,
                      dtype=dtype or field.locals_[0].dtype)
        for rank, block in enumerate(decomp.active_blocks):
            out[block.slices] = field.interior(rank)
        return out

    # ------------------------------------------------------------------
    def exchange(self, field):
        """Point-to-point halo update (direct neighbor strip copies)."""
        decomp = self.decomp
        h = decomp.halo_width
        for rank, block in enumerate(decomp.active_blocks):
            local = field.local(rank)
            bny, bnx = block.ny, block.nx
            neigh = self._neighbor_ranks[rank]

            # --- edges -------------------------------------------------
            # north halo rows <- north neighbor's southernmost interior rows
            self._fill_edge(field, local[h + bny:h + bny + h, h:h + bnx],
                            neigh["n"], lambda nb, nh: nb[nh:2 * nh, nh:nb.shape[1] - nh])
            # south halo rows <- south neighbor's northernmost interior rows
            self._fill_edge(field, local[0:h, h:h + bnx],
                            neigh["s"], lambda nb, nh: nb[nb.shape[0] - 2 * nh:nb.shape[0] - nh,
                                                          nh:nb.shape[1] - nh])
            # east halo cols <- east neighbor's westernmost interior cols
            self._fill_edge(field, local[h:h + bny, h + bnx:h + bnx + h],
                            neigh["e"], lambda nb, nh: nb[nh:nb.shape[0] - nh, nh:2 * nh])
            # west halo cols <- west neighbor's easternmost interior cols
            self._fill_edge(field, local[h:h + bny, 0:h],
                            neigh["w"], lambda nb, nh: nb[nh:nb.shape[0] - nh,
                                                          nb.shape[1] - 2 * nh:nb.shape[1] - nh])

            # --- corners -----------------------------------------------
            self._fill_edge(field, local[h + bny:h + bny + h, h + bnx:h + bnx + h],
                            neigh["ne"], lambda nb, nh: nb[nh:2 * nh, nh:2 * nh])
            self._fill_edge(field, local[h + bny:h + bny + h, 0:h],
                            neigh["nw"], lambda nb, nh: nb[nh:2 * nh,
                                                           nb.shape[1] - 2 * nh:nb.shape[1] - nh])
            self._fill_edge(field, local[0:h, h + bnx:h + bnx + h],
                            neigh["se"], lambda nb, nh: nb[nb.shape[0] - 2 * nh:nb.shape[0] - nh,
                                                           nh:2 * nh])
            self._fill_edge(field, local[0:h, 0:h],
                            neigh["sw"], lambda nb, nh: nb[nb.shape[0] - 2 * nh:nb.shape[0] - nh,
                                                           nb.shape[1] - 2 * nh:nb.shape[1] - nh])
        return field

    def _fill_edge(self, field, dest, neighbor_rank, take):
        h = self.decomp.halo_width
        if neighbor_rank is None:
            dest[...] = 0.0
        else:
            dest[...] = take(field.local(neighbor_rank), h)

    # ------------------------------------------------------------------
    def exchange_via_global(self, field):
        """Bulk-synchronous halo update through a padded global assembly.

        Produces bit-identical halos to :meth:`exchange` (asserted by the
        test suite) but costs two block copies per rank instead of eight
        strip copies, which matters when simulating thousands of ranks.
        """
        decomp = self.decomp
        h = decomp.halo_width
        padded = np.zeros(
            (decomp.ny + 2 * h, decomp.nx + 2 * h)
            + field.locals_[0].shape[2:],
            dtype=field.locals_[0].dtype)
        for rank, block in enumerate(decomp.active_blocks):
            padded[h + block.j0:h + block.j1, h + block.i0:h + block.i1] = \
                field.interior(rank)
        for rank, block in enumerate(decomp.active_blocks):
            field.local(rank)[...] = padded[
                block.j0:block.j1 + 2 * h, block.i0:block.i1 + 2 * h
            ]
        return field

    # ------------------------------------------------------------------
    def halo_tables(self):
        """``(dst, src, zero)``: flat int64 cell indices into a ``(p,
        bny + 2h, bnx + 2h)`` stack driving the stacked halo exchange.

        ``dst`` lists every stack cell a rank does not own but some
        rank does -- its halo ring inside the domain, including the
        part of a smaller block's north/east halo that lies inside the
        stack's interior window -- and ``src`` the owner's interior
        cell it mirrors.  ``zero`` lists the cells nobody owns: halos
        beyond the closed boundary or over an eliminated land block,
        and the pad of ragged slots.  Owned cells appear in neither.
        Built once, from the decomposition alone, through the same
        padded global map :meth:`exchange_via_global` assembles values
        in.
        """
        if self._stacked_tables is None:
            decomp = self.decomp
            h = decomp.halo_width
            bny, bnx = decomp.max_block_shape()
            shape = (decomp.num_active, bny + 2 * h, bnx + 2 * h)
            cells = np.arange(np.prod(shape), dtype=np.int64).reshape(shape)
            owner = np.full((decomp.ny + 2 * h, decomp.nx + 2 * h), -1,
                            dtype=np.int64)
            for rank, block in enumerate(decomp.active_blocks):
                owner[h + block.j0:h + block.j1, h + block.i0:h + block.i1] \
                    = cells[rank, h:h + block.ny, h:h + block.nx]
            source = np.full(shape, -1, dtype=np.int64)
            for rank, block in enumerate(decomp.active_blocks):
                source[rank, :block.ny + 2 * h, :block.nx + 2 * h] = owner[
                    block.j0:block.j1 + 2 * h, block.i0:block.i1 + 2 * h]
            halo = source != cells
            filled = halo & (source >= 0)
            self._stacked_tables = (cells[filled], source[filled],
                                    cells[halo & (source < 0)])
        return self._stacked_tables

    def exchange_stacked(self, field, kernels=None):
        """Stacked halo update: halo cells only, no global assembly.

        Every halo cell that has an owner is copied from the owner's
        interior cell (``flat[dst] = flat[src]`` over the cell tables of
        :meth:`halo_tables`; a trailing batch axis rides along -- one
        :meth:`~repro.kernels.base.KernelBackend.halo_copy` of
        ``kernels`` where it runs, numpy's fancy indexing otherwise), and
        every cell nobody owns -- closed boundary, eliminated
        neighbours, pad of ragged slots, which elementwise updates may
        have written -- is set to zero.  Owned cells are not touched:
        the stack comes out bit-identical to
        :meth:`exchange_via_global` followed by zeroing the pad, which
        rewrites them with themselves.  Requires a stacked
        :class:`BlockField`.
        """
        if not field.is_stacked:
            raise DecompositionError(
                "exchange_stacked requires a stacked BlockField; "
                "use exchange/exchange_via_global for per-rank fields"
            )
        stack = field.stack
        tables = dst, src, zero = self.halo_tables()
        if not stack.flags.c_contiguous:
            # No flat view to index: a copy would swallow the update.
            return self.exchange_via_global(field)
        if kernels is not None and kernels.halo_copy(stack, tables):
            return field
        # Cells as rows of a flat view; one value per cell stays 1-D
        # (fancy indexing a trailing axis of one is 2.5x slower).
        tail = stack.shape[3:]
        flat = stack.reshape((-1,) + (tail if tail != (1,) else ()))
        flat[dst] = flat.take(src, axis=0)
        if zero.size:
            flat[zero] = 0.0
        return field
