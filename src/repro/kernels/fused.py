"""The fused backend: layouts that turn gathers into slices, and one
compiled pass per hot loop.

Same arithmetic as the numpy reference -- bit for bit -- executed on
data laid out so that every operand of every hot loop is a contiguous
slice: no index arrays, no per-step allocations, inner loops as long as
the problem allows.  On those layouts each loop is one function of
``native.c`` (:mod:`repro.kernels.native` builds and verifies it); an
entry point that was not adopted leaves its loop on the scipy / numpy
form described below, which performs the same operations in more
passes.

**EVP marching on a skewed, tile-innermost layout.**  The recurrence
solves the equation centred on ``(j, i)`` for its north-east unknown,
so all equations of one anti-diagonal ``j + i = d`` are independent and
the sweep is a loop over ``d``.  A shape group's padded states are
therefore stored anti-diagonal-major with the tile axis innermost,
``S[J + I, J, tile]`` (``(my + mx + 3, my + 2, B)``), and its
right-hand sides and coefficients packed in rows ordered by
``(ty + tx, ty)``.  For the centres ``J = lo .. lo + L`` of diagonal
``D`` every source is then one contiguous ``(L, B)`` block of ``S``::

    c  -> S[D,   J]      nw -> S[D,   J+1]    se -> S[D,   J-1]
    n  -> S[D+1, J+1]    e  -> S[D+1, J]      sw -> S[D-2, J-1]
    s  -> S[D-1, J-1]    w  -> S[D-1, J]      target ne -> S[D+2, J+1]

and a step is ``multiply``/``subtract`` in the reference's term order
plus one ``multiply`` by ``1/ne`` written straight into the target
slice -- in ``evp_march`` a loop over the slice with the running value
in a register, otherwise ufunc calls on prebuilt views.  The reference
gathers the same values with fancy indexing and applies the same
operations in the same order, so the state is bit-identical.  The unmarched north/east equations and
the ring are lines of constant stride through ``S`` (``J`` fixed, or
``J`` and ``D`` advancing together): strided views, still no indices.
Nothing is zero-filled between sweeps -- the sweep writes every
interior cell before reading it and never writes the padding border.

**One program for every width.**  A batch keeps its ``nrhs`` columns
interleaved per equation -- the state is ``S[J + I, J, tile, column]``,
the packed right-hand sides ``(rows, B, nrhs)`` -- while the
coefficient block and ``1/ne`` hold one value per (equation, tile):
built once per engine (:meth:`_EvpPlan.tables`), the same arrays at
every width.  ``evp_march`` and ``evp_edges`` read each coefficient
once for all the columns, taken in compile-time groups of at most
eight, so every column sees the single-RHS operation sequence and the
coefficient traffic does not grow with the width.  The edge residuals
come out as ``(nrhs, B, k)``, the order the ring correction's batched
matmul reads, and the second march sets the ring from that matmul's
product, negated: nothing is reshuffled around it.  Without the
library the ufunc floor merges the tile and column axes and repeats
the coefficient rows ``nrhs``-fold for itself.  A plan keeps one
working set -- the calls bound to one pair of buffers, the residuals
and their ring product -- for the width it was last handed.

**Layout at the boundary.**  ``evp_slots`` publishes where each tile
cell lives; ``evp_gather`` and ``evp_scatter`` move a whole
application of the preconditioner in and out of that layout in one
``native.c`` call each.  The gather copies the tile cells of ``r`` --
whatever its strides: the grid, a batch, the strided interior of a
stack -- into the packed rows in packed-row order, tiles innermost;
the scatter writes ``state * mask`` back through ``out``'s strides and
``0.0`` where no tile covers a cell.  Their tables (tile origins, row
offsets, state rows, uncovered runs) are built once per layout and
array geometry and cached on the layout
(:class:`~repro.kernels.base.EvpLayout`); there is no
grid-sized index array and no copy of a strided interior.  Where they
were not adopted, ``EVPBlockPreconditioner._apply`` takes with its own
cell maps and multiplies by the mask; ``evp_solve`` takes a
stand-alone tile-major batch in and out the same way.

**The stencil as one compiled sweep.**  The nine coefficient planes
are stored once per coefficient set as a ``scipy.sparse.dia_array``
over the *flattened* vector layout.  ``dia_sweep`` reads that array's
own ``data`` / ``offsets`` and makes one pass over ``y``: per row,
``acc = 0.0; acc += data[k, i + off_k] * x[i + off_k]`` in diagonal
order.  Without it a matvec is ``sweep @ x.reshape(-1)``: scipy's DIA
kernel starts from ``y = 0.0`` and runs one such loop per stored
diagonal, in the order the diagonals were given -- nine passes over
``y``, the same sum per element.  Row ``k`` of ``data``
is plane ``k`` of ``_COEFF_ORDER`` written at a shift of its neighbor's
flat offset ``off_k = (dj * W + di) * nrhs`` and repeated ``nrhs``-fold
along the row -- a batch's trailing axis is folded into the grid row, so
it is the same 1-D sweep on longer rows and every column sees the
single-RHS operation sequence.  Each output element therefore receives
the reference's nine rounded products through the reference's eight
rounded adds in the reference's order.  Two things differ, neither in
value: the first term is ``0.0 + c * x`` instead of ``c * x`` (equal
for every IEEE value; only ``-0.0`` comes back as ``+0.0``), and in the
global form (``W = nx``, no padding, no copy of ``x``) the couplings
that leave the domain -- or would wrap into the next grid row -- are
stored as zero and multiply a real cell, where the reference multiplies
the zero border: both add ``0.0`` for finite ``x``.  (A NaN or Inf in
the first or last grid column reaches, through such a ``0.0 * x``, up
to three cells on the opposite edge that the reference leaves finite;
the stacked form has no such cells, its halo columns keep rows and
blocks apart.)  The stacked form embeds the planes in the padded ``(p,
bny + 2h, bnx + 2h)`` layout of the block stack (``W = bnx + 2h``):
halo cells have all-zero rows, pad cells of ragged tiles keep their
zero coefficients.  **Planes once, at every width:** with ``dia_sweep``
the *single-RHS* ``data`` / ``offsets`` serve every batch width, serial
and stacked -- per cell one accumulator per column, the coefficient
``data[k, i + off_k]`` read once for all of them, the columns in
compile-time groups of at most eight (two columns as one vector of four
cells x two) -- so no ``nrhs``-fold planes are built and a serial
batch reads half the bytes at width two; a stack is swept over its
interior rows only, written straight into the rows of the output
stack, so no padded result is allocated and no interior is copied out.
Every column still sees the single-RHS operation sequence.  Without the
library a batch takes the folded form above (a stack's halo rows
computed, the interior copied out).  Cached per coefficient set
(identity-keyed, the last ``_MAX_FOLDED_SETS`` sets): the single-RHS
sweep and, without the library, one batch width.
Bit-parity rests on the scipy build -- and the compiler building
``native.c`` under ``-ffp-contract=off`` -- *not* contracting ``y += a
* b`` into a fused multiply-add; ``test_sweep_is_not_contracted``,
``test_native_sweep_is_not_contracted`` and
``test_multivector_sweep_is_not_contracted`` in
``tests/test_kernels.py`` are the tripwires.

**The vector kernels, serial and stacked.**  ``native.c`` addresses a
vector as a *row geometry* -- ``blocks`` x ``rows`` runs of contiguous
doubles at two strides -- so one entry point serves a whole serial
vector (one run), a serial batch, and the strided ``(p, bny, bnx[,
nrhs])`` interior of a stack, whose halo and pad cells it never
touches (:func:`repro.kernels.native.row_geometry`).  ``masked_dot``
is ``sum(a * b * mask)`` in numpy's pairwise order with the products
formed on the fly (``pairwise_dot``: one pass, no temporaries);
``window_dots`` is the same entry point over every block's exact window
and every column at once; ``update_chain`` runs a solver's consecutive
``axpy`` / ``xpay`` / ``combine`` steps chunk by chunk, row by row, so a
chain's operands are read from memory once, with scalar coefficients or
one per column.  ``chebyshev_span`` runs a whole span of serial P-CSI +
diagonal iterations as one ``native.c`` wavefront over the grid rows
(the preconditioner multiply, the chain's two steps and a sweep row
followed by the subtraction, iterations trailing each other by four
rows) on the single-RHS sweep's ``data`` / ``offsets``; without it the
context runs the iterations one call at a time.  ``chrongear_span``
hands a serial ChronGear + diagonal context a runner that makes each
iteration one ``native.c`` pass: iteration ``k``'s four recurrences
with iteration ``k + 1``'s preconditioner multiply, sweep row and both
dots, whose pairwise leaves are summed as their cells become final.
``evp_step`` runs a P-CSI + block-EVP iteration -- serial, or on the
batched engine's stacks -- as one call on each side of the ring
correction's BLAS matmul (:class:`_EvpSpan`): the corrected march, the
masked scatter consumed by the ``dx`` / ``x`` chain, the halo copy of
``x``, ``b - A x`` over the interior rows, then the next gather, zero-ring
march and edge residuals; its halo copy alone is
:meth:`FusedKernels.halo_copy`, the stacked exchange's.  The three spans
share one operand check (``_span_operands``).

The ring correction itself (LU-derived ``W^-1`` applied as a batched
matmul) lives on the engine and is shared by every backend -- see
:meth:`EVPTileEngine.ring_rows`.
"""

import ctypes
import functools
import math
import operator
import struct

import numpy as np
from scipy.sparse import dia_array

from repro.core.fields import NEIGHBOR_OFFSETS
from repro.kernels.base import validate_evp_shapes
from repro.kernels.native import (
    CHAIN,
    CHAIN_FORMAT,
    EVP_HALO,
    EVP_HEAD,
    EVP_TAIL,
    HALO_FORMAT,
    HEAD,
    HELD,
    HOLD,
    MAX_CHAIN_COLUMNS,
    MAX_DEPTH,
    SPAN_ROWS,
    STEP_FORMAT,
    EvpGroup,
    EvpProgram,
    Native,
    address,
    chrongear_program,
    int64s,
    is_symmetric,
    load,
    pairwise_leaves,
    pointer,
    row_geometry,
)
from repro.kernels.numpy_ref import NumpyKernels

#: Center first, then the neighbors in ``NEIGHBOR_OFFSETS`` order: the
#: reference accumulation order (``operators.blocked._COEFF_ORDER``).
_COEFF_ORDER = ("c",) + tuple(NEIGHBOR_OFFSETS)
#: Their ``(dj, di)`` grid offsets.
_OFFSETS = ((0, 0),) + tuple(NEIGHBOR_OFFSETS.values())

#: Coefficient sets whose sweeps stay cached (a long-lived process
#: builds a new stacked set per distributed context).
_MAX_FOLDED_SETS = 4
#: Boundary programs an EVP layout keeps (one per kind and geometry of
#: the arrays handed to it: a fresh ``out``, a stack interior, ...).
_MAX_BOUNDARY_PROGRAMS = 8


def _dia_sweep(planes, h, n):
    """``A`` as a DIA operator over a flattened ``(..., H, W, n)`` layout.

    ``planes`` are the nine ``(..., H - 2h, W - 2h)`` coefficient
    arrays in ``_COEFF_ORDER``, ``h`` the halo width of the layout
    (0: the global grid) and ``n`` its trailing batch width.  Diagonal
    ``k`` holds, at column ``i + off_k``, the coefficient with which
    row ``i`` reads its neighbor ``off_k = (dj * W + di) * n`` further
    on: the plane is written once, through a view of the data buffer
    that starts ``off_k`` late.  Only rows whose neighbor lies inside
    their own ``(H, W)`` cell block are written -- with a halo, every
    interior row -- so no write leaves the row's own diagonal.
    """
    *lead, bny, bnx = planes[0].shape
    rows, width = bny + 2 * h, bnx + 2 * h
    size = math.prod(lead) * rows * width * n
    reach = (width + 1) * n
    buf = np.zeros(9 * size + 2 * reach)
    offsets = []
    for k, (plane, (dj, di)) in enumerate(zip(planes, _OFFSETS)):
        offsets.append((dj * width + di) * n)
        start = reach + k * size + offsets[-1]
        slot = buf[start:start + size].reshape(*lead, rows, width, n)
        j0, j1 = max(h, -dj), rows - max(h, dj)
        i0, i1 = max(h, -di), width - max(h, di)
        slot[..., j0:j1, i0:i1, :] = plane[..., j0 - h:j1 - h,
                                           i0 - h:i1 - h, None]
    data = buf[reach:reach + 9 * size].reshape(9, size)
    return dia_array((data, offsets), shape=(size, size))


class _EvpPlan:
    """Skewed layout of one engine's tiles and what of it is the same at
    every batch width.

    A padded tile cell ``(J, I)`` of tile ``pos`` lives in state row
    ``(J + I) * (my + 2) + J`` (of ``B`` equations), equation ``pos``;
    the equation centred on interior cell ``(ty, tx)`` has its
    right-hand side and coefficients in row ``row[ty, tx]`` of the
    packed ``(my * mx, B)`` arrays: marched centres ordered by ``(ty +
    tx, ty)``, then the unmarched north- and east-edge centres in ring
    order.  :meth:`tables` builds, once per engine on first use, the
    coefficient block -- one ``B``-wide row per (term, packed row),
    then NE of the edge equations --, ``1/ne`` of the marched ones and
    the marching and edge steps (``programs``: the same as tables in
    equations for ``native.c``), all valid at every width.  ``bound``
    is the one :class:`_EvpWorkingSet` (one width, one pair of
    buffers) and ``own`` the buffers and index maps of a stand-alone
    :meth:`EVPTileEngine.solve`, built on first use.
    """

    __slots__ = ("shape", "ty", "tx", "steps", "names", "block", "inv_ne",
                 "march", "edges", "programs", "bound", "own")

    def __init__(self, engine):
        my, mx = engine.my, engine.mx
        self.shape = (engine.batch, my, mx)
        north = (np.full(mx, my - 1), np.arange(mx))
        east = (np.arange(my - 1), np.full(my - 1, mx - 1))
        centres = engine._diagonals + [north, east]
        self.ty = np.concatenate([ty for ty, _ in centres]).astype(np.intp)
        self.tx = np.concatenate([tx for _, tx in centres]).astype(np.intp)
        #: Per marched anti-diagonal: first ``ty``, ``ty + tx``, length
        #: and the terms the reference sweep does not skip there.
        self.steps = [
            (int(ty[0]), int(ty[0] + tx[0]), ty.size,
             [term for term in engine.terms
              if np.any(engine.coeffs[term[0]][:, ty, tx])])
            for ty, tx in engine._diagonals]
        self.names = [name for name, _, _ in engine.terms]
        self.block = None
        self.bound = None
        self.own = None

    def slots(self):
        """``(y_slot, x_slot, x_size)`` of :meth:`KernelBackend.evp_slots`."""
        b, my, mx = self.shape
        pos = np.arange(b, dtype=np.intp)[:, None, None]
        row = np.empty((my, mx), dtype=np.intp)
        row[self.ty, self.tx] = np.arange(my * mx)
        jj, ii = np.indices((my, mx))
        return (row * b + pos,
                ((jj + ii + 2) * (my + 2) + jj + 1) * b + pos,
                (my + mx + 3) * (my + 2) * b)

    def state_rows(self):
        """State row of every packed row's cell."""
        my = self.shape[1]
        return (self.ty + self.tx + 2) * (my + 2) + self.ty + 1

    def lines(self, engine):
        """The state rows the march and the edge residuals address, as
        slices: ``(south, west, edges)`` -- the ring's two lines and, per
        term (NE last), the source rows of the north and of the east
        edge equations."""
        my, mx = engine.my, engine.mx

        def line(j, i, dj, di, count):
            """``count`` cells from padded ``(j, i)`` stepping by
            ``(dj, di)``: state rows a constant stride apart."""
            start = (j + i) * (my + 2) + j
            step = (dj + di) * (my + 2) + dj
            return slice(start, start + step * count, step)

        edges = [(line(my + dj, 1 + di, 0, 1, mx),
                  line(1 + dj, mx + di, 1, 0, my - 1))
                 for _, dj, di in list(engine.terms) + [("ne", 1, 1)]]
        return line(1, 1, 0, 1, mx), line(2, 1, 1, 0, my - 1), edges

    def tables(self, engine):
        """Build the width-independent arrays (once)."""
        if self.block is not None:
            return
        b, my, mx, k = engine.batch, engine.my, engine.mx, engine.k
        rows, n_march = my * mx, (my - 1) * (mx - 1)
        names = self.names

        def packed(values, rows=slice(None)):
            return values[:, self.ty[rows], self.tx[rows]].T

        # One block of coefficient rows: a ``(my * mx, B)`` plane per
        # marching term, then NE for the ``k`` unmarched equations.
        block = np.empty((len(names) * rows + k, b))
        for t, name in enumerate(names):
            block[t * rows:(t + 1) * rows] = packed(engine.coeffs[name])
        block[len(names) * rows:] = packed(engine.coeffs["ne"],
                                           slice(n_march, None))
        self.inv_ne = 1.0 / packed(engine.coeffs["ne"], slice(n_march))
        self.block = block

        # Per marched anti-diagonal: first equation row, length, target
        # state row, (term, first source row) per term.
        march, a = [], 0
        for lo, d, length, terms in self.steps:
            march.append((a, length, (d + 4) * (my + 2) + lo + 2,
                          [(names.index(name),
                            (d + 2 + dj + di) * (my + 2) + lo + 1 + dj)
                           for name, dj, di in terms]))
            a += length
        self.march = march
        #: Per edge term: first coefficient row, north and east sources.
        south, west, sources = self.lines(engine)
        first = [t * rows + n_march for t in range(len(names))]
        self.edges = [(c, north, east) for c, (north, east)
                      in zip(first + [len(names) * rows], sources)]

        # The same as ``evp_march`` / ``evp_edges`` tables, in equations.
        prog = [b, len(march), k, *_rows(south), *_rows(west)]
        for a, length, target, terms in march:
            prog += [length * b, a * b, target * b, len(terms)]
            for t, src in terms:
                prog += [(t * rows + a) * b, src * b]
        self.programs = (
            np.array(prog, dtype=np.int64),
            np.array([c * b for c, _, _ in self.edges], dtype=np.int64),
            np.array([row for _, north, east in self.edges
                      for row in _rows(north) + _rows(east)], dtype=np.int64))


class _EvpWorkingSet:
    """The marching programs of one engine over one pair of buffers.

    ``y`` is the packed right-hand side ``(my * mx * B, n)`` and ``x``
    the skewed state ``(x_size, n)``; viewed as ``(rows, B, n)``, every
    operand of the recurrence for one anti-diagonal is a contiguous
    ``(L, B, n)`` slice and its coefficients an ``(L, B)`` slice of the
    plan's block, one value per tile for every column.  The march (with
    the ring set first) and the edge residuals each run as one call
    into ``lib`` (the loaded ``native.c``) over the plan's programs, or
    -- where that entry point was not adopted -- as a flat list of
    ``(ufunc, a, b, out)`` on prebuilt views.  The residuals ``f`` are
    ``(n, B, k)`` and their ring product ``ring`` ``(n, B, 1, k)``: the
    operand and result of :meth:`EVPTileEngine.ring_rows`, which the
    native march reads back negated, so nothing is reshuffled around
    the matmul.
    """

    __slots__ = ("y", "x", "f", "ring", "march", "edges")

    def __init__(self, engine, plan, y, x, lib):
        b, my, mx, k = engine.batch, engine.my, engine.mx, engine.k
        n = y.shape[1]
        plan.tables(engine)
        self.y, self.x = y, x
        self.f = np.empty((n, b, k))
        self.ring = np.empty((n, b, 1, k))
        if not (y.flags.c_contiguous and x.flags.c_contiguous):
            lib = Native("strided buffers")
        prog, offsets, sources = plan.programs
        if lib.evp_march is None or lib.evp_edges is None:
            block = _repeated(plan.block, n)
            rhs, flat = y.reshape(my * mx, b * n), x.reshape(-1, b * n)
        if lib.evp_march is None:
            self.march = _ufunc_march(engine, plan, block, rhs, flat,
                                      self.ring)
        else:
            march = functools.partial(
                lib.evp_march, prog.ctypes.data, n, plan.block.ctypes.data,
                plan.inv_ne.ctypes.data, y.ctypes.data, x.ctypes.data)
            ring = self.ring.ctypes.data
            self.march = lambda corrected: march(ring if corrected else 0)
        if lib.evp_edges is None:
            self.edges = _ufunc_edges(engine, plan, block, rhs, flat, self.f)
        else:
            geometry = np.array([k, b, n, len(offsets)], dtype=np.int64)
            self.edges = functools.partial(
                lib.evp_edges, geometry.ctypes.data,
                offsets.ctypes.data, sources.ctypes.data,
                plan.block.ctypes.data,
                y.ctypes.data + (my - 1) * (mx - 1) * b * n * 8,
                x.ctypes.data, self.f.ctypes.data)
            self.edges.geometry = geometry   # alive as long as the pointer

    def solve(self, engine):
        """March from a zero ring, correct the ring, march again.

        Only ring cells are reset: every other interior cell is written
        by the sweep before anything reads it, and the padding border
        is never written, so it stays zero.
        """
        self.march(False)
        self.edges()
        engine.ring_rows(self.f, self.ring)
        self.march(True)


def _ufunc_march(engine, plan, block, rhs, flat, ring):
    """The march as ufunc calls on views of the right-hand sides and
    states with the tile and column axes merged (``B * n`` innermost)
    and the coefficient ``block`` repeated to match (see
    :func:`_repeated`): ``march(corrected)`` sets the ring to 0.0 or to
    ``-ring`` (the ring product) and marches."""
    b, mx, k, rows = engine.batch, engine.mx, engine.k, engine.my * engine.mx
    n = rhs.shape[1] // b
    inv_ne = _repeated(plan.inv_ne, n)
    acc, tmp = np.empty((2, k, b * n))
    ops = []
    for a, length, target, terms in plan.march:
        cur = rhs[a:a + length]
        for t, src in terms:
            ops.append((np.multiply, block[t * rows + a:t * rows + a + length],
                        flat[src:src + length], tmp[:length]))
            ops.append((np.subtract, cur, tmp[:length], acc[:length]))
            cur = acc[:length]
        ops.append((np.multiply, cur, inv_ne[a:a + length],
                    flat[target:target + length]))
    south, west, _ = plan.lines(engine)
    south = flat[south].reshape(-1, b, n)
    west = flat[west].reshape(-1, b, n)
    ring = ring[:, :, 0, :].transpose(2, 1, 0)

    def march(corrected):
        if corrected:
            np.negative(ring[:mx], out=south)
            np.negative(ring[mx:], out=west)
        else:
            south[...] = 0.0
            west[...] = 0.0
        _run(ops)

    return march


def _ufunc_edges(engine, plan, block, rhs, flat, f):
    """The edge residuals as ufunc calls on the same views: north edge
    west to east, then east edge south to north -- ``f = -y + sum(coeff
    * p)``, NE term last -- in ``(k, B * n)`` rows, then moved into the
    ``(n, B, k)`` order of ``f``."""
    my, mx, k = engine.my, engine.mx, engine.k
    acc, tmp = np.empty((2, k, rhs.shape[1]))
    ops = []
    for c, north, east in plan.edges:
        ops.append((np.multiply, block[c:c + mx], flat[north], tmp[:mx]))
        ops.append((np.multiply, block[c + mx:c + k], flat[east], tmp[mx:]))
        ops.append((np.add, acc, tmp, acc))
    rhs = rhs[(my - 1) * (mx - 1):]
    rows = acc.reshape(k, engine.batch, -1).transpose(2, 1, 0)

    def edges():
        np.negative(rhs, out=acc)
        _run(ops)
        f[...] = rows

    return edges


def _repeated(values, n):
    """``values`` with every element repeated ``n``-fold along its rows:
    numpy runs one value broadcast over ``n`` columns at half the speed
    of a row, so the ufunc floor pays this copy once per width."""
    return np.repeat(values, n, axis=1) if n > 1 else values


def _run(program):
    for op, a, b, out in program:
        op(a, b, out=out)


def _rows(line):
    """The rows of a slice, as a list."""
    return list(range(line.start, line.stop, line.step))


def _stack_rows(array):
    """``(block_stride, row_stride)`` in elements of a float64 ``(blocks,
    rows, cols[, n])`` array whose rows are contiguous runs of ``cols *
    n`` doubles (a stack, or the interior of one); ``None`` otherwise."""
    strides = array.strides
    run = (8,) if array.ndim == 3 else (array.shape[3] * 8, 8)
    if array.dtype != np.float64 or strides[2:] != run \
            or strides[0] % 8 or strides[1] % 8:
        return None
    return strides[0] // 8, strides[1] // 8


def _cell_strides(layout, array, n):
    """``(block, row, cell)`` strides in elements of a float64 array in
    ``layout`` with ``n`` batch columns -- a trailing axis of them, its
    elements adjacent, or none for ``n = 1``; ``None`` for anything
    else."""
    nd = len(layout.shape)
    if array.dtype != np.float64 or array.shape[:nd] != layout.shape \
            or array.shape[nd:] not in ((), (n,)) or (n > 1 and (
                array.ndim == nd or array.strides[nd] != 8)) \
            or any(step % 8 for step in array.strides[:nd]):
        return None
    return (0,) * (3 - nd) + tuple(step // 8 for step in array.strides[:nd])


def _boundary(layout, kind, strides):
    """``(program, address)`` of the ``evp_gather`` / ``evp_scatter``
    program of ``layout`` for arrays with these cell strides (see
    ``native.c``), cached on the layout; ``None`` where its engines are
    not in this backend's skewed layout."""
    key = (kind, strides)
    hit = layout.compiled.get(key)
    if hit is not None:
        return hit
    mask = tuple(step // 8 for step in layout.mask.strides)
    mask = (0,) * (3 - len(mask)) + mask
    head, tables, first = [len(layout.groups)], [], 0
    if kind == "scatter":
        head += [len(layout.uncovered), strides[2]]
    for engine, origins, y_rows, x_rows in layout.groups:
        plan = engine._plan
        if not isinstance(plan, _EvpPlan) or y_rows.start != first:
            return None
        first = y_rows.stop
        b = len(origins)
        offsets = plan.ty * strides[1] + plan.tx * strides[2]
        head += [b, len(offsets)]
        tables += [origins @ np.array(strides), offsets]
        if kind == "scatter":
            head.append(x_rows.start)
            tables += [origins @ np.array(mask),
                       plan.ty * mask[1] + plan.tx * mask[2],
                       plan.state_rows()]
    if kind == "scatter":
        runs = layout.uncovered
        tables.append(np.stack([runs[:, :3] @ np.array(strides), runs[:, 3]],
                               axis=1).ravel())
    prog = np.concatenate([np.array(head, dtype=np.int64)]
                          + [t.astype(np.int64) for t in tables])
    while len(layout.compiled) >= _MAX_BOUNDARY_PROGRAMS:
        layout.compiled.pop(next(iter(layout.compiled)))
    hit = layout.compiled[key] = (prog, prog.ctypes.data)
    return hit


#: The halo tables of a grid: nothing to copy.
_NO_CELLS = np.zeros(0, dtype=np.int64)


def _per_column(coeff, width, keep):
    """Address of ``coeff`` as ``width`` float64 values, one per column
    (kept alive in ``keep``); ``None`` when it is not that."""
    coeff = np.ascontiguousarray(coeff, dtype=np.float64)
    if coeff.shape != (width,) or width > MAX_CHAIN_COLUMNS:
        return None
    keep.append(coeff)
    return coeff.ctypes.data


class _ChronGearSpan:
    """``native.c``'s ChronGear span on one set of vectors: its program
    (geometry, sweep, addresses) packed once, its ``z``, window, stacks
    and coefficient slots kept.  ``run(step, head)`` is one call:
    ``step`` the ``(alpha, beta)`` of the iteration whose four
    recurrences it runs (floats, or ``(nrhs,)`` arrays) or ``None``,
    ``head`` whether the next iteration's ``r' = M^-1 r``, ``z = A r'``
    and dots follow; returns ``(rho, delta)`` -- floats for 2-D vectors,
    ``(nrhs,)`` arrays for a batch -- when they do.  A chain followed by
    a head keeps its ``x`` update for the next call, which applies it
    with its own (one pass over ``x`` for two iterations):
    :meth:`flush` before ``x`` is read."""

    def __init__(self, fn, operands, inv_diag, vectors):
        (_, sweep, call), addresses = operands
        x = vectors[0]
        cells, ndiag, data, stride, offsets = call.args
        symmetric = getattr(call, "symmetric", None)
        if symmetric is None:   # once per sweep
            symmetric = call.symmetric = is_symmetric(sweep.data,
                                                      call.offsets)
        self.width = None if x.ndim == 2 else x.shape[2]
        ncols = self.width or 1
        self.z = np.empty_like(x)
        self._scratch = (np.empty(2 * SPAN_ROWS * x.shape[1] * ncols),
                         np.empty(2 * ncols * MAX_DEPTH))
        self.coef, self.dots = np.empty(3 * ncols), np.empty(2 * ncols)
        self.held = False
        # Everything it addresses stays alive with it.
        leaves = pairwise_leaves(cells)
        self._operands = (sweep, call, inv_diag, leaves, vectors)
        self.program = chrongear_program(
            cells, x.shape[1], ncols,
            (ndiag, stride, int(symmetric), data, offsets),
            leaves, inv_diag.ctypes.data,
            [*addresses, address(self.z)],
            [address(v) for v in (*self._scratch, self.coef, self.dots)])
        self._call = functools.partial(fn, self.program.ctypes.data)

    def __call__(self, step, head):
        mode = (HEAD if head else 0) | (HELD if self.held else 0)
        if step is not None:
            n = self.width or 1
            self.coef[:n], self.coef[n:2 * n] = step
            # A call follows that can apply the x update with its own.
            mode |= CHAIN | (HOLD if head else 0)
        self._call(mode)
        self.held = bool(mode & HOLD)
        if not head:
            return None
        if self.width is None:
            return self.dots.tolist()
        return self.dots[:self.width].copy(), self.dots[self.width:].copy()

    def flush(self):
        """Apply a kept ``x`` update: ``x`` is whole after this."""
        if self.held:
            self._call(HELD)
            self.held = False


class _EvpSpan:
    """``native.c``'s ``evp_step`` on one set of vectors in one layout:
    its program -- the halo copy's tables, every shape group's march and
    edge operands, the boundary programs, the sweep and its rows, the
    vectors' first cells -- packed once, each group's edge residuals
    ``f`` and ring product kept.  ``run(weights)`` is a span of P-CSI
    iterations, one ``(w, c)`` each, as ``len(weights) + 1`` calls: a
    head, the tails fused with the next heads, a last tail; after every
    head each group's ring product is formed by
    :meth:`~repro.precond.evp.EVPTileEngine.ring_rows`, the per-slice
    BLAS matmul of the one-by-one path, for the next tail to read."""

    def __init__(self, fn, operands, layout, work, halo, h, vectors):
        (_, sweep, call), (x_at, r_at, dx_at) = operands
        b, _, _, x = vectors
        lead = 2 if h == 0 else 3
        n = x.shape[lead] if x.ndim > lead else 1
        p, height, width = (1,) * (3 - lead) + x.shape[:lead]
        inner = x[(slice(None),) * (lead - 2)
                  + (slice(h, height - h), slice(h, width - h))]
        strides = _cell_strides(layout, inner, n)
        hits = None if strides is None or work[0].shape[1] != n else [
            _boundary(layout, kind, strides) for kind in ("gather", "scatter")]
        if hits is None or None in hits:
            self.program = None   # not this layout, or not the skewed one
            return
        y, state = work
        groups = (EvpGroup * len(layout.groups))()
        self.weights = np.empty(2)
        self._rings, keep = [], [hits, work, halo, vectors, sweep, call]
        for group, (engine, _, y_rows, x_rows) in zip(groups, layout.groups):
            plan = engine._plan
            plan.tables(engine)
            march, coef_off, src_rows = plan.programs
            f = np.empty((n, engine.batch, engine.k))
            ring = np.empty((n, engine.batch, 1, engine.k))
            edges = np.array([engine.k, engine.batch, n, len(coef_off)],
                             dtype=np.int64)
            rhs = address(y) + y_rows.start * n * 8
            group.march, group.coef = march.ctypes.data, plan.block.ctypes.data
            group.inv_ne, group.rhs = plan.inv_ne.ctypes.data, rhs
            group.state = address(state) + x_rows.start * n * 8
            group.ring, group.edges = address(ring), address(edges)
            group.coef_off = coef_off.ctypes.data
            group.src_rows = src_rows.ctypes.data
            group.edge_rhs = rhs + ((engine.my - 1) * (engine.mx - 1)
                                    * engine.batch * n * 8)
            group.f = address(f)
            self._rings.append((engine, f, ring))
            keep += [plan, edges]
        rows = np.array([n, p, height - 2 * h, width - 2 * h, h * width + h,
                         height * width, width, height * width * n,
                         width * n], dtype=np.int64)
        dst, src, zero = halo
        first = (h * width + h) * n * 8
        cells, ndiag, data, stride, offsets = call.args
        self.program = EvpProgram(
            n, len(dst), len(zero), dst.ctypes.data, src.ctypes.data,
            zero.ctypes.data, x_at, len(groups), ctypes.addressof(groups),
            hits[0][1], hits[1][1], layout.mask.ctypes.data, address(y),
            address(state), cells, ndiag, stride, data, offsets,
            rows.ctypes.data, b.ctypes.data + first, r_at + first,
            dx_at + first, x_at + first, self.weights.ctypes.data)
        # Everything the program addresses stays alive with it.
        self._keep = (keep, groups, rows, layout)
        self._call = functools.partial(fn, ctypes.addressof(self.program))

    def run(self, weights):
        last = len(weights) - 1
        self._step(None, True)
        for t, step in enumerate(weights):
            self._step(step, t < last)

    def _step(self, step, head):
        mode = EVP_HEAD if head else 0
        if step is not None:
            self.weights[0], self.weights[1] = step
            mode |= EVP_TAIL
        self._call(mode)
        if head:
            for engine, f, ring in self._rings:
                engine.ring_rows(f, ring)


class FusedKernels(NumpyKernels):
    """Fused backend (see module docstring).  What it does not override
    -- the per-rank oracle's ``stencil_apply_local`` -- is the
    reference.  ``native=False`` (tests only) keeps every loop on its
    numpy/scipy form, the code that runs where ``native.c`` cannot be
    built."""

    name = "fused"

    def __init__(self, native=True):
        #: DIA sweeps keyed by ``id(coeffs)``: ``{"coeffs": coeffs,
        #: "single": (1, sweep, call), "batch": (nrhs, sweep, call)}``,
        #: identity-revalidated.  A set keeps its single-RHS sweep and,
        #: on scipy, one batch width (widths only shrink within a solve;
        #: a service alternates 1 and its batch size), the backend the
        #: last few sets.  With ``native.c`` the single-RHS slot serves
        #: every width.
        self._sweeps = {}
        #: The loaded ``native.c`` (built on first use, not on import).
        self._lib = None if native else Native("not used")

    def _native(self):
        if self._lib is None:
            self._lib = load()
        return self._lib

    def native_status(self):
        """What became of ``native.c`` (:attr:`Native.status`)."""
        return self._native().status

    def describe(self):
        mark = "+native" if self._native().loaded else ""
        return f"{self.name}{mark} (bit-identical)"

    # ------------------------------------------------------------------
    # nine-point stencil: one compiled DIA sweep, reference MAC order
    # ------------------------------------------------------------------
    def _sweep(self, coeffs, plane, h, n):
        """The cached sweep of ``coeffs`` at batch width ``n`` as ``(n,
        sweep, call)``; ``plane(coeffs, name)`` reads one coefficient
        array and ``call`` is ``dia_sweep`` bound to the sweep's own
        ``data`` / ``offsets`` (``None`` without the library), still to
        be given the batch width, the rows to sweep, ``x`` and ``y``.
        With the library every width asks for ``n = 1``
        (:meth:`_width`)."""
        hit = self._sweeps.get(id(coeffs))
        if hit is None or hit["coeffs"] is not coeffs:
            self._sweeps.pop(id(coeffs), None)
            hit = self._sweeps[id(coeffs)] = {"coeffs": coeffs}
            while len(self._sweeps) > _MAX_FOLDED_SETS:
                self._sweeps.pop(next(iter(self._sweeps)), None)
        slot = "single" if n == 1 else "batch"
        if hit.get(slot, (0,))[0] != n:
            # Release the other width before building: peak is one sweep.
            hit.pop(slot, None)
            sweep = _dia_sweep(
                [plane(coeffs, name) for name in _COEFF_ORDER], h, n)
            call, fn = None, self._native().dia_sweep
            if fn is not None and sweep.data.flags.c_contiguous:
                offsets = sweep.offsets.astype(np.int64)
                call = functools.partial(
                    fn, sweep.shape[0], len(offsets), sweep.data.ctypes.data,
                    sweep.data.shape[1], offsets.ctypes.data)
                call.offsets = offsets   # alive as long as the pointer
            hit[slot] = (n, sweep, call)
        return hit[slot]

    def _width(self, n):
        """The batch width to build a sweep for: ``dia_sweep`` runs every
        width on the single-RHS planes, scipy needs them ``n``-fold."""
        return n if self._native().dia_sweep is None else 1

    @staticmethod
    def _matvec(entry, x, out=None):
        """``sweep @ x`` in ``x``'s shape -- in ``out`` when the native
        sweep can write there directly.  ``x`` is the whole vector, its
        batch columns interleaved per cell (one row of the geometry)."""
        _, sweep, call = entry
        ncols, rest = divmod(x.size, sweep.shape[0])
        if call is None or rest or not ncols:
            return (sweep @ x.reshape(-1)).reshape(x.shape)
        x = np.ascontiguousarray(x, dtype=np.float64)
        if (out is None or out.shape != x.shape or out.dtype != x.dtype
                or not out.flags.c_contiguous):
            out = np.empty(x.shape)
        call(int64s(ncols, 1, 1, sweep.shape[0], 0, 0, 0, 0, 0)[0],
             x.ctypes.data, address(out))
        return out

    def stencil_apply(self, coeffs, x, out=None):
        if x.shape[1] < 3:
            # East and north-west would share a diagonal: a grid this
            # narrow runs the reference loop.
            return super().stencil_apply(coeffs, x, out)
        entry = self._sweep(coeffs, getattr, 0,
                            self._width(x.shape[2] if x.ndim == 3 else 1))
        y = self._matvec(entry, x, out)
        if out is None or y is out:
            return y
        out[...] = y
        return out

    def stencil_apply_stacked(self, coeffs, stack, h, bny, bnx, out):
        n = stack.shape[3] if stack.ndim == 4 else 1
        call = None
        # The compiled sweep trusts its geometry: hand it only a stack
        # and an ``out`` of the documented shapes (anything else gets
        # scipy's and numpy's shape errors below).
        if self._native().dia_sweep is not None and stack.flags.c_contiguous \
                and stack.dtype == np.float64 \
                and stack.shape[1:3] == (bny + 2 * h, bnx + 2 * h) \
                and out.shape == (stack.shape[0], bny, bnx) + stack.shape[3:]:
            _, sweep, call = self._sweep(coeffs, operator.getitem, h, 1)
            if sweep.shape[0] * n != stack.size:
                call = None
        if call is None:
            entry = self._sweep(coeffs, operator.getitem, h, self._width(n))
            out[...] = self._matvec(entry, stack)[:, h:h + bny, h:h + bnx]
            return out
        # The single-RHS planes serve every width: interior rows only,
        # written where the caller wants them if its rows can be
        # addressed (the interior of another stack can).
        target = out
        rows = _stack_rows(out) if out.flags.writeable else None
        if rows is None:
            target = np.empty(out.shape)
            rows = _stack_rows(target)
        width = bnx + 2 * h
        rows = int64s(n, stack.shape[0], bny, bnx, h * width + h,
                      (bny + 2 * h) * width, width, *rows)
        call(rows[0], stack.ctypes.data, pointer(target))
        if target is not out:
            out[...] = target
        return out

    # ------------------------------------------------------------------
    # vector kernels: dots and runs of updates
    # ------------------------------------------------------------------
    def masked_dot(self, a, b, mask, scratch):
        fn = self._native().pairwise_dot
        if fn is not None and a.shape == b.shape == mask.shape \
                and a.dtype == b.dtype == mask.dtype == np.float64:
            try:
                # One block, one row, one column: the whole vector.
                rows = int64s(1, 1, a.size, 1, 0, 0)
                return fn(rows[0], address(a), address(b), address(mask),
                          0, 0)
            except (TypeError, ValueError):
                pass   # read-only, strided or empty: numpy takes those
        return super().masked_dot(a, b, mask, scratch)

    def window_dots(self, a, b, mask, extents=None):
        fn = self._native().pairwise_dot
        strides = _stack_rows(a)
        if fn is None or strides is None or not (
                a.shape == b.shape == mask.shape + a.shape[3:]
                and a.strides == b.strides and b.dtype == mask.dtype == a.dtype
                and mask.flags.c_contiguous and mask.size):
            return None
        out = np.empty((a.shape[3] if a.ndim == 4 else 1, mask.shape[0]))
        rows = int64s(*mask.shape, out.shape[0], *strides)
        try:
            fn(rows[0], pointer(a), pointer(b), pointer(mask),
               0 if extents is None else address(extents), address(out))
        except (TypeError, ValueError):
            return None   # read-only operands
        return out

    def update_chain(self, steps):
        fn = self._native().update_chain
        first = steps[0][4]
        shape, strides, width = first.shape, first.strides, first.shape[-1]
        rows = row_geometry(shape, strides)
        if fn is None or rows is None:
            return False
        flat, at, keep, ncols = [], {}, [], 1
        try:
            # Chains name most vectors twice: check and address (the
            # costly part of a step's set-up) each once.
            for step in steps:
                for v in step[3:]:
                    if id(v) in at:
                        continue
                    if not (v.shape == shape and v.strides == strides
                            and v.dtype == np.float64):
                        return False   # not one shape and layout
                    at[id(v)] = pointer(v)
        except (TypeError, ValueError):
            return False   # read-only operands
        for kind, a, b, x, y in steps:
            pa = pb = 0
            if not isinstance(a, (float, int)):
                a, pa, ncols = 0.0, _per_column(a, width, keep), width
            if not isinstance(b, (float, int)):
                b, pb, ncols = 0.0, _per_column(b, width, keep), width
            if pa is None or pb is None:
                return False
            flat += (kind, a, b, pa, pb, at[id(x)], at[id(y)])
        nbytes = ((rows[0] - 1) * rows[3] + (rows[1] - 1) * rows[4]
                  + rows[2]) * 8
        spans = sorted(set(at.values()))
        if any(q - p < nbytes for p, q in zip(spans, spans[1:])):
            return False   # arrays overlapping at an offset
        fn(struct.pack(CHAIN_FORMAT + STEP_FORMAT * len(steps), *rows, ncols,
                       len(steps), *flat))
        return True

    def _span_operands(self, fn, coeffs, h, written, read=()):
        """The operand check every span shares: ``(entry, addresses of
        written)`` -- ``entry`` the single-RHS sweep :meth:`_sweep`
        caches for ``coeffs`` on a layout with halo ``h`` (0: the global
        grid, ``coeffs`` a ``StencilCoeffs``; else stacked planes) --
        when ``fn`` was adopted and the vectors are whole C-contiguous
        float64 arrays of one shape -- ``(ny, nx[, nrhs])`` grids or
        ``(p, bny + 2h, bnx + 2h[, nrhs])`` stacks -- with rows of at
        least three cells and at most ``MAX_CHAIN_COLUMNS`` columns,
        that do not overlap, with ``written`` writable; ``None``
        otherwise."""
        x = written[0]
        vectors = (*written, *read)
        lead = 2 if h == 0 else 3
        if fn is None or x.ndim not in (lead, lead + 1) \
                or x.shape[lead - 1] < 3 \
                or (x.ndim > lead and x.shape[lead] > MAX_CHAIN_COLUMNS) \
                or any(v.shape != x.shape for v in vectors) \
                or any(v.dtype != np.float64 or not v.flags.c_contiguous
                       for v in vectors):
            return None
        # The single-RHS sweep, at every width; without ``dia_sweep``
        # there is no ``call`` to read its operands from.
        entry = self._sweep(coeffs, getattr if h == 0 else operator.getitem,
                            h, 1)
        ncols = x.shape[lead] if x.ndim > lead else 1
        if entry[2] is None or entry[1].shape[0] * ncols != x.size:
            return None
        try:
            written = [address(v) for v in written]
        except (TypeError, ValueError):
            return None   # read-only
        spans = sorted(written + [v.ctypes.data for v in read])
        if any(q - p < x.nbytes for p, q in zip(spans, spans[1:])):
            return None   # vectors that overlap
        return entry, written

    def _diagonal_span(self, fn, coeffs, inv_diag, written, read=()):
        """:meth:`_span_operands` on the grid, ``inv_diag`` one
        C-contiguous float64 value per cell."""
        x = written[0]
        if inv_diag.shape != x.shape[:2] or inv_diag.dtype != np.float64 \
                or not inv_diag.flags.c_contiguous:
            return None
        return self._span_operands(fn, coeffs, 0, written, read)

    def chebyshev_span(self, coeffs, inv_diag, b, r, dx, x, weights):
        fn = self._native().chebyshev_span
        operands = self._diagonal_span(fn, coeffs, inv_diag, (x, r, dx),
                                       (b,))
        if operands is None:
            return False
        if not weights:
            return True
        (_, _, call), (x_at, r_at, dx_at) = operands
        wc = np.array(weights, dtype=np.float64)
        cells, ndiag, data, stride, offsets = call.args
        fn(len(wc), address(wc),
           int64s(cells, x.shape[1], x.size // cells, ndiag, stride)[0],
           data, offsets, inv_diag.ctypes.data, b.ctypes.data, r_at, dx_at,
           x_at)
        return True

    def chrongear_span(self, coeffs, inv_diag, x, r, s, p):
        fn = self._native().chrongear_span
        operands = self._diagonal_span(fn, coeffs, inv_diag, (x, r, s, p))
        if operands is None:
            return None
        return _ChronGearSpan(fn, operands, inv_diag, (x, r, s, p))

    def evp_span(self, coeffs, h, layout, work, halo, b, r, dx, x):
        fn = self._native().evp_step
        if layout.groups is None:
            return None
        operands = self._span_operands(fn, coeffs, h, (x, r, dx), (b,))
        if operands is None:
            return None
        if halo is None:
            halo = (_NO_CELLS,) * 3
        run = _EvpSpan(fn, operands, layout, work, halo, h, (b, r, dx, x))
        return None if run.program is None else run

    def halo_copy(self, stack, tables):
        fn = self._native().evp_step
        if fn is None or stack.dtype != np.float64 \
                or not stack.flags.c_contiguous:
            return False
        try:
            at = address(stack)
        except (TypeError, ValueError):
            return False   # read-only or empty
        dst, src, zero = tables
        fn(struct.pack(HALO_FORMAT, stack.shape[3] if stack.ndim == 4 else 1,
                       len(dst), len(zero), dst.ctypes.data, src.ctypes.data,
                       zero.ctypes.data, at), EVP_HALO)
        return True

    # ------------------------------------------------------------------
    # EVP tile solves
    # ------------------------------------------------------------------
    def prepare_evp(self, engine):
        return _EvpPlan(engine)

    def evp_slots(self, engine, plan):
        return plan.slots()

    def evp_run(self, engine, plan, y, x, nrhs):
        ws = plan.bound
        if ws is None or ws.y is not y or ws.x is not x:
            ws = plan.bound = _EvpWorkingSet(engine, plan, y, x,
                                             self._native())
        ws.solve(engine)

    def evp_gather(self, layout, r, y):
        fn = self._native().evp_gather
        n = y.shape[1]
        strides = None if fn is None else _cell_strides(layout, r, n)
        prog = None if strides is None else _boundary(layout, "gather",
                                                      strides)
        if prog is None:
            return False
        try:
            source = pointer(r)
        except (TypeError, ValueError):
            source = r.ctypes.data   # read-only: only read
        fn(prog[1], n, source, address(y))
        return True

    def evp_scatter(self, layout, x, out):
        fn = self._native().evp_scatter
        n = x.shape[1]
        strides = None if fn is None else _cell_strides(layout, out, n)
        prog = None if strides is None else _boundary(layout, "scatter",
                                                      strides)
        if prog is None or not out.flags.writeable:
            return False
        fn(prog[1], n, address(x), address(layout.mask), pointer(out))
        return True

    def evp_solve(self, engine, plan, y, out=None):
        y = validate_evp_shapes(engine, y)
        nrhs = y.shape[3] if y.ndim == 4 else None
        n = nrhs or 1
        if plan.own is None or plan.own[0].shape[1] != n:
            y_slot, x_slot, x_size = plan.slots()
            # Tile-major cell behind every packed right-hand-side row.
            y_src = np.empty(y_slot.size, dtype=np.intp)
            y_src[y_slot.ravel()] = np.arange(y_slot.size)
            plan.own = (np.empty((y_slot.size, n)), np.zeros((x_size, n)),
                        y_src, x_slot)
        yb, xb, y_src, x_slot = plan.own
        np.take(y.reshape(-1, n), y_src, axis=0, out=yb, mode="clip")
        self.evp_run(engine, plan, yb, xb, nrhs)
        if out is None:
            out = np.empty_like(y)
        np.take(xb if nrhs else xb[:, 0], x_slot, axis=0, out=out,
                mode="clip")
        return out
