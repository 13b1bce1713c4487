"""Block decomposition of the global grid.

POP divides the global ``ny x nx`` grid into an ``mby x mbx`` lattice of
rectangular blocks and assigns one block per MPI rank (the typical
high-resolution configuration, and the one the paper's cost model in
section 2.2 assumes).  Blocks whose points are all land are *eliminated*
-- they are never assigned a rank and never participate in communication
(Dennis, IPDPS 2007).  The surviving ocean blocks are placed on ranks in
space-filling-curve order.

The paper's 0.1-degree experiments fix the block aspect ratio at 3:2 and
the land-block ratio at 0.25 across core counts (section 5.2);
:func:`decomposition_for_core_count` reproduces that recipe.
"""

from dataclasses import dataclass

import numpy as np

from repro.core.errors import DecompositionError
from repro.core.validation import require_positive_int
from repro.parallel.sfc import sfc_sort_blocks

#: POP keeps two halo layers around every block so that one boundary
#: update per solver iteration suffices even with a non-diagonal
#: preconditioner (paper section 2.2).
DEFAULT_HALO_WIDTH = 2


@dataclass
class Block:
    """One rectangular block of the global domain.

    Attributes
    ----------
    index:
        Row-major index of the block in the block lattice.
    jb, ib:
        Lattice coordinates (block row, block column).
    j0, j1, i0, i1:
        Global half-open bounds: the block covers ``[j0:j1, i0:i1)``.
    rank:
        Assigned rank, or ``-1`` for an eliminated land block.
    n_ocean:
        Number of ocean points inside the block.
    """

    index: int
    jb: int
    ib: int
    j0: int
    j1: int
    i0: int
    i1: int
    rank: int = -1
    n_ocean: int = 0

    @property
    def ny(self):
        """Block height in grid points."""
        return self.j1 - self.j0

    @property
    def nx(self):
        """Block width in grid points."""
        return self.i1 - self.i0

    @property
    def npoints(self):
        """Total grid points in the block."""
        return self.ny * self.nx

    @property
    def slices(self):
        """``(slice_j, slice_i)`` selecting the block from a global field."""
        return (slice(self.j0, self.j1), slice(self.i0, self.i1))

    @property
    def is_active(self):
        """Whether the block survived land elimination."""
        return self.rank >= 0


def _split_extent(total, parts):
    """Split ``total`` points into ``parts`` nearly equal contiguous runs.

    Returns a list of ``(start, stop)`` pairs.  Earlier runs get the
    remainder, matching POP's convention of front-loading larger blocks.
    """
    base, extra = divmod(total, parts)
    if base == 0:
        raise DecompositionError(
            f"cannot split {total} points into {parts} blocks: blocks would be empty"
        )
    bounds = []
    start = 0
    for k in range(parts):
        size = base + (1 if k < extra else 0)
        bounds.append((start, start + size))
        start += size
    return bounds


class Decomposition:
    """An ``mby x mbx`` block partition of an ``ny x nx`` grid.

    Construct via :func:`decompose` (or
    :func:`decomposition_for_core_count`), not directly.
    """

    def __init__(self, ny, nx, mby, mbx, blocks, curve, halo_width, mask=None):
        self.ny = ny
        self.nx = nx
        self.mby = mby
        self.mbx = mbx
        self.blocks = blocks
        self.curve = curve
        self.halo_width = halo_width
        self.mask = mask
        self._lattice = {}
        for block in blocks:
            self._lattice[(block.jb, block.ib)] = block
        self.active_blocks = sorted(
            (b for b in blocks if b.is_active), key=lambda b: b.rank
        )
        # Uniformity and critical-path sizes never change after
        # construction, and are queried on every blocked-operator apply
        # or field allocation; memoize the block scans.
        self._is_uniform = None
        self._max_block_shape = None
        self._max_block_points = None

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    @property
    def num_blocks(self):
        """Total lattice blocks, including eliminated land blocks."""
        return len(self.blocks)

    @property
    def num_active(self):
        """Number of ranks, i.e. blocks that survived land elimination."""
        return len(self.active_blocks)

    @property
    def land_block_ratio(self):
        """Fraction of lattice blocks eliminated as all-land."""
        return 1.0 - self.num_active / self.num_blocks

    def block_at(self, jb, ib):
        """Block at lattice coordinates, or ``None`` outside the lattice."""
        return self._lattice.get((jb, ib))

    def block_of_point(self, j, i):
        """The block containing global point ``(j, i)``."""
        if not (0 <= j < self.ny and 0 <= i < self.nx):
            raise DecompositionError(f"point ({j}, {i}) outside {self.ny}x{self.nx} grid")
        for block in self.blocks:
            if block.j0 <= j < block.j1 and block.i0 <= i < block.i1:
                return block
        raise DecompositionError(f"no block contains point ({j}, {i})")  # pragma: no cover

    def neighbors(self, block):
        """Mapping direction -> neighboring :class:`Block` (or ``None``).

        Directions are the eight compass strings of
        :data:`repro.core.fields.NEIGHBOR_OFFSETS`.  Neighbors beyond the
        lattice edge are ``None``; eliminated land blocks are returned
        as-is (callers decide whether to exchange with them -- POP skips
        messages to eliminated blocks since their halo data is all land).
        """
        out = {}
        offsets = {
            "n": (1, 0), "s": (-1, 0), "e": (0, 1), "w": (0, -1),
            "ne": (1, 1), "nw": (1, -1), "se": (-1, 1), "sw": (-1, -1),
        }
        for direction, (dj, di) in offsets.items():
            out[direction] = self.block_at(block.jb + dj, block.ib + di)
        return out

    # ------------------------------------------------------------------
    # critical-path metrics (feed the performance model)
    # ------------------------------------------------------------------
    def max_block_shape(self):
        """``(ny, nx)`` of the largest active block.

        Memoized: block shapes are fixed at construction and this is
        queried on every field allocation.
        """
        if self._max_block_shape is None:
            if not self.active_blocks:
                raise DecompositionError(
                    "decomposition has no active blocks")
            self._max_block_shape = (
                max(b.ny for b in self.active_blocks),
                max(b.nx for b in self.active_blocks),
            )
        return self._max_block_shape

    def max_block_points(self):
        """Grid points in the largest active block (critical-path size)."""
        if self._max_block_points is None:
            self._max_block_points = max(
                b.npoints for b in self.active_blocks)
        return self._max_block_points

    # ------------------------------------------------------------------
    # stacked (structure-of-arrays) layout of the batched engine
    # ------------------------------------------------------------------
    @property
    def is_uniform(self):
        """Whether every active block has the same ``(ny, nx)`` shape.

        Uniform decompositions (the common case when block counts divide
        the grid evenly) are the pad = 0 case of the stacked layout:
        every rank's tile fills its ``(bny, bnx)`` slot of the stack
        exactly.  Ragged ones leave a zero pad in the smaller tiles'
        slots.
        """
        if self._is_uniform is None:
            if not self.active_blocks:
                self._is_uniform = False
            else:
                first = self.active_blocks[0]
                self._is_uniform = all(
                    b.ny == first.ny and b.nx == first.nx
                    for b in self.active_blocks)
        return self._is_uniform

    def uniform_block_shape(self):
        """``(bny, bnx)`` shared by all active blocks.

        Raises :class:`DecompositionError` if the decomposition is
        ragged.
        """
        if not self.is_uniform:
            raise DecompositionError(
                "decomposition is ragged: active blocks have differing "
                "shapes, so there is no uniform block shape"
            )
        return self.max_block_shape()

    def shape_groups(self):
        """Active ranks grouped by block shape: ``[(ranks, ny, nx), ...]``.

        ``ranks`` is an ascending ``intp`` array.  ``_split_extent``
        produces at most two extents per axis, so there are at most four
        groups (one when uniform).
        """
        by_shape = {}
        for rank, block in enumerate(self.active_blocks):
            by_shape.setdefault((block.ny, block.nx), []).append(rank)
        return [(np.asarray(ranks, dtype=np.intp), ny, nx)
                for (ny, nx), ranks in by_shape.items()]

    def stack_interiors(self, source):
        """Stack ``source[block.slices]`` over the active ranks.

        ``source`` is a global ``(ny, nx)`` array (mask, coefficient,
        inverse diagonal); the result has shape ``(p, bny, bnx)`` with
        ``(bny, bnx)`` the largest block shape.  Smaller blocks sit in
        the low corner of their slot and the remainder is zero, so pad
        cells act like land: masked out of every product and never a
        ``1/0``.
        """
        bny, bnx = self.max_block_shape()
        out = np.zeros((self.num_active, bny, bnx), dtype=source.dtype)
        for rank, block in enumerate(self.active_blocks):
            out[rank, :block.ny, :block.nx] = source[block.slices]
        return out

    def halo_words_per_exchange(self):
        """Words the critical-path rank sends per halo update.

        With halo width ``h`` and a block of ``bny x bnx`` points, POP's
        4-message exchange moves ``h`` rows north and south and ``h``
        columns (including corners) east and west:
        ``2*h*bnx + 2*h*(bny + 2*h)`` words.  For ``h = 2`` and square
        blocks of side ``n`` this is the paper's ``8n`` (plus the corner
        term), Eq. (2).
        """
        bny, bnx = self.max_block_shape()
        h = self.halo_width
        return 2 * h * bnx + 2 * h * (bny + 2 * h)

    def messages_per_exchange(self):
        """Point-to-point messages per rank per halo update (POP: 4)."""
        return 4

    def describe(self):
        """One-line human-readable summary."""
        bny, bnx = self.max_block_shape()
        return (
            f"{self.ny}x{self.nx} grid -> {self.mby}x{self.mbx} blocks "
            f"(max {bny}x{bnx}), {self.num_active}/{self.num_blocks} active, "
            f"land-block ratio {self.land_block_ratio:.2f}, curve={self.curve}"
        )

    def __repr__(self):
        return f"Decomposition({self.describe()})"


def decompose(ny, nx, mby, mbx, mask=None, curve="hilbert",
              halo_width=DEFAULT_HALO_WIDTH, eliminate_land=True):
    """Partition an ``ny x nx`` grid into ``mby x mbx`` blocks.

    Parameters
    ----------
    ny, nx:
        Global grid shape.
    mby, mbx:
        Block lattice shape (blocks in y and in x).
    mask:
        Optional boolean ocean mask of shape ``(ny, nx)``.  When given
        and ``eliminate_land`` is true, blocks containing no ocean points
        are eliminated (assigned no rank).
    curve:
        Space-filling curve used to order active blocks onto ranks:
        ``"hilbert"`` (default), ``"morton"`` or ``"rowmajor"``.
    halo_width:
        Ghost-cell rings per block (POP default 2).
    eliminate_land:
        Disable to keep all-land blocks on ranks (the no-elimination
        baseline of the land-elimination ablation).

    Returns
    -------
    Decomposition
    """
    ny = require_positive_int(ny, "ny")
    nx = require_positive_int(nx, "nx")
    mby = require_positive_int(mby, "mby")
    mbx = require_positive_int(mbx, "mbx")
    halo_width = require_positive_int(halo_width, "halo_width")
    if mask is not None:
        mask = np.asarray(mask)
        if mask.shape != (ny, nx):
            raise DecompositionError(
                f"mask shape {mask.shape} does not match grid ({ny}, {nx})"
            )

    j_bounds = _split_extent(ny, mby)
    i_bounds = _split_extent(nx, mbx)

    blocks = []
    index = 0
    for jb in range(mby):
        for ib in range(mbx):
            j0, j1 = j_bounds[jb]
            i0, i1 = i_bounds[ib]
            if mask is not None:
                n_ocean = int(np.count_nonzero(mask[j0:j1, i0:i1]))
            else:
                n_ocean = (j1 - j0) * (i1 - i0)
            blocks.append(Block(index, jb, ib, j0, j1, i0, i1, rank=-1,
                                n_ocean=n_ocean))
            index += 1

    # Rank assignment: walk the lattice in space-filling-curve order and
    # hand ranks to blocks that keep at least one ocean point.
    lattice = {(b.jb, b.ib): b for b in blocks}
    rank = 0
    for jb, ib in sfc_sort_blocks(mby, mbx, curve):
        block = lattice[(jb, ib)]
        if eliminate_land and mask is not None and block.n_ocean == 0:
            continue
        block.rank = rank
        rank += 1
    if rank == 0:
        raise DecompositionError("all blocks were eliminated: mask has no ocean points")

    return Decomposition(ny, nx, mby, mbx, blocks, curve, halo_width, mask=mask)


def _factor_pairs(p):
    """All ``(a, b)`` with ``a * b == p``."""
    pairs = []
    for a in range(1, int(np.sqrt(p)) + 1):
        if p % a == 0:
            pairs.append((a, p // a))
            if a != p // a:
                pairs.append((p // a, a))
    return pairs


def decomposition_for_core_count(ny, nx, cores, mask=None, aspect=1.5,
                                 curve="hilbert", halo_width=DEFAULT_HALO_WIDTH,
                                 eliminate_land=True):
    """Build the decomposition POP would use for ``cores`` ranks.

    Chooses the ``mby x mbx`` factorization of ``cores`` whose blocks
    have width/height ratio closest to ``aspect`` (the paper's
    high-resolution runs fix a 3:2 ratio, ``aspect = 1.5``).  With land
    elimination the number of *active* ranks will be smaller than
    ``cores``; experiments report ``Decomposition.num_active`` as the
    core count actually used, mirroring how POP releases unused ranks.
    """
    cores = require_positive_int(cores, "cores")
    best = None
    best_err = None
    for mby, mbx in _factor_pairs(cores):
        if mby > ny or mbx > nx:
            continue
        bny = ny / mby
        bnx = nx / mbx
        err = abs((bnx / bny) - aspect)
        if best_err is None or err < best_err:
            best_err = err
            best = (mby, mbx)
    if best is None:
        raise DecompositionError(
            f"no factorization of {cores} fits a {ny}x{nx} grid"
        )
    mby, mbx = best
    return decompose(ny, nx, mby, mbx, mask=mask, curve=curve,
                     halo_width=halo_width, eliminate_land=eliminate_land)
