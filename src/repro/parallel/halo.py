"""Halo (ghost-cell) exchange over block-local arrays.

Each simulated rank owns one block, stored as a local array of shape
``(bny + 2h, bnx + 2h)`` where ``h`` is the halo width (POP default 2).
After a stencil operation, the halo rings must be refreshed from
neighboring blocks before the next operation can read them -- that is
POP's ``update_halo`` (Algorithm 1 step 6 / Algorithm 2 step 10 of the
paper).

Two implementations are provided and tested against each other:

* :meth:`HaloExchanger.exchange` -- true point-to-point semantics: every
  block copies edge strips directly from each of its eight neighbors
  (four messages per rank in POP's counting, since corner data rides
  along with the edge strips).
* :meth:`HaloExchanger.exchange_via_global` -- a bulk-synchronous
  shortcut that reassembles the global field and re-slices every block's
  padded window from it.  Semantically identical under BSP, considerably
  faster in this in-process simulation, and used by default for large
  block counts.

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
    mask coefficients are zero there, the halo exchange refreshes the
    whole stack before every operator apply, and reductions, gathers,
    checksums and checkpoints touch exact per-rank windows only.

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
        # Lazily-built gather/scatter index maps for the stacked
        # (structure-of-arrays) exchange, plus a reusable padded-global
        # scratch buffer keyed by dtype.
        self._stacked_maps = None
        self._padded_scratch = {}

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
    def _stacked_index_maps(self):
        """Flat index maps driving the stacked halo exchange.

        Returns ``(scatter_idx, gather_idx)`` into the flat padded
        ``(ny + 2h, nx + 2h)`` global scratch, which carries two extra
        trailing slots:

        * ``scatter_idx`` -- shape ``(p, bny, bnx)``: for each stacked
          interior point, its flat position in the scratch.  Points of a
          slot beyond its block's real interior go to the last slot, a
          dump nothing gathers from.
        * ``gather_idx`` -- shape ``(p, bny + 2h, bnx + 2h)``: for each
          stacked local point (halos included), its flat position in the
          scratch.  Pad points read the second-to-last slot, which is
          never written and so always zero.

        Built once; both maps turn the two per-rank copy loops of
        :meth:`exchange_via_global` into one fancy-indexing scatter and
        one fancy-indexing gather over the whole stack.  On a uniform
        decomposition there are no pad points and neither extra slot is
        referenced.
        """
        if self._stacked_maps is None:
            decomp = self.decomp
            h = decomp.halo_width
            bny, bnx = decomp.max_block_shape()
            width = decomp.nx + 2 * h
            p = decomp.num_active
            zero_slot = (decomp.ny + 2 * h) * width
            scatter_idx = np.full((p, bny, bnx), zero_slot + 1,
                                  dtype=np.intp)
            gather_idx = np.full((p, bny + 2 * h, bnx + 2 * h), zero_slot,
                                 dtype=np.intp)
            for rank, block in enumerate(decomp.active_blocks):
                jj = np.arange(h + block.j0, h + block.j1)[:, None]
                ii = np.arange(h + block.i0, h + block.i1)[None, :]
                scatter_idx[rank, :block.ny, :block.nx] = jj * width + ii
                jj = np.arange(block.j0, block.j1 + 2 * h)[:, None]
                ii = np.arange(block.i0, block.i1 + 2 * h)[None, :]
                gather_idx[rank, :block.ny + 2 * h, :block.nx + 2 * h] = \
                    jj * width + ii
            self._stacked_maps = (scatter_idx, gather_idx)
        return self._stacked_maps

    def exchange_stacked(self, field):
        """Stacked halo update: two fancy-indexing operations total.

        Bit-identical to :meth:`exchange_via_global` (same values move
        through the same padded global assembly), but the per-rank copy
        loops are replaced by one scatter of all interiors into a reused
        flat scratch and one gather of all padded windows out of it.
        The gather rewrites the whole stack, so pad cells come out zero.
        Requires a stacked :class:`BlockField`.
        """
        if not field.is_stacked:
            raise DecompositionError(
                "exchange_stacked requires a stacked BlockField; "
                "use exchange/exchange_via_global for per-rank fields"
            )
        scatter_idx, gather_idx = self._stacked_index_maps()
        dtype = field.stack.dtype
        trailing = field.stack.shape[3:]
        key = (dtype.str, trailing)
        scratch = self._padded_scratch.get(key)
        if scratch is None:
            # Out-of-domain positions stay zero forever: the scatter
            # below only ever writes interior positions (and the dump
            # slot), so neither the border ring (the closed lateral
            # boundary), the sites of eliminated land blocks nor the
            # zero slot ever need re-zeroing.
            decomp = self.decomp
            h = decomp.halo_width
            scratch = np.zeros(
                ((decomp.ny + 2 * h) * (decomp.nx + 2 * h) + 2,) + trailing,
                dtype=dtype)
            self._padded_scratch[key] = scratch
        scratch[scatter_idx] = field.interior_stack()
        if scratch.ndim == 1:
            np.take(scratch, gather_idx, out=field.stack)
        else:
            # Trailing-axis batch: one axis-0 take moves every column's
            # halos at once.
            np.take(scratch, gather_idx, axis=0, out=field.stack)
        return field
