"""The fused backend: layouts that turn gathers into slices, and one
compiled pass per hot loop.

Same arithmetic as the numpy reference -- bit for bit -- executed on
data laid out so that every operand of every hot loop is a contiguous
slice: no index arrays, no per-step allocations, inner loops as long as
the problem allows.  On those layouts each loop is one function of
``native.c`` (:mod:`repro.kernels.native` builds and verifies it).
There is no third form: a loop whose entry point was not adopted (no
compiler, a failed build or self-test) or that declines the operands
it is handed runs the reference method it overrides
(:class:`~repro.kernels.numpy_ref.NumpyKernels`, the base class).

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
in a register.  The reference gathers the same values with fancy
indexing and applies the same operations in the same order, so the
state is bit-identical.  The unmarched north/east equations and
the ring are lines of constant stride through ``S`` (``J`` fixed, or
``J`` and ``D`` advancing together): rows a fixed step apart.
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
product, negated: nothing is reshuffled around it.  A plan keeps one
working set -- the calls bound to one pair of buffers, the residuals
and their ring product -- for the width it was last handed.  There is
a plan only where both ``evp_march`` and ``evp_edges`` were adopted;
otherwise :meth:`FusedKernels.prepare_evp` returns the reference's
``None``, and the engines keep tile-major slots and march with
:meth:`~repro.precond.evp.EVPTileEngine._march`.

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
cell maps and multiplies by the mask.  A stand-alone
:meth:`~repro.precond.evp.EVPTileEngine.solve` is the reference's.

**The stencil as one compiled sweep.**  The nine coefficient planes
are stored once per coefficient set in DIA form over the *flattened*
vector layout: ``data`` row ``k`` is plane ``k`` of ``_COEFF_ORDER``
written at a shift of its neighbor's flat offset ``off_k = dj * W +
di``.  ``dia_sweep`` makes one pass over ``y``: per cell and column,
``acc = 0.0; acc += data[k, i + off_k] * x[i + off_k]`` in diagonal
order, so each output element receives the reference's nine rounded
products through the reference's eight rounded adds in the reference's
order.  Two things differ, neither in value: the first term is ``0.0 +
c * x`` instead of ``c * x`` (equal for every IEEE value; only ``-0.0``
comes back as ``+0.0``), and in the global form (``W = nx``, no
padding, no copy of ``x``) the couplings that leave the domain -- or
would wrap into the next grid row -- are stored as zero and multiply a
real cell, where the reference multiplies the zero border: both add
``0.0`` for finite ``x``.  (A NaN or Inf in the first or last grid
column reaches, through such a ``0.0 * x``, up to three cells on the
opposite edge that the reference leaves finite; the stacked form has no
such cells, its halo columns keep rows and blocks apart.)  The stacked
form embeds the planes in the padded ``(p, bny + 2h, bnx + 2h)``
layout of the block stack (``W = bnx + 2h``): halo cells have all-zero
rows, pad cells of ragged tiles keep their zero coefficients.
**Planes once, at every width:** the single-RHS ``data`` serve every
batch width, serial and stacked -- per cell one accumulator per column,
the coefficient read once for all of them, the columns in compile-time
groups of at most eight -- and a stack is swept over its interior rows
only, written straight into the rows of the output stack.  The sweep is
cached per coefficient set (identity-keyed, the last ``_MAX_SWEEPS``
sets).  A grid narrower than three cells (east and north-west would
share a diagonal) runs the reference.  Bit-parity rests on the compiler
building ``native.c`` under ``-ffp-contract=off`` *not* contracting
``acc += a * b`` into a fused multiply-add;
``test_native_sweep_is_not_contracted`` and
``test_multivector_sweep_is_not_contracted`` in ``tests/test_kernels.py``
are the tripwires (``test_sweep_is_not_contracted`` guards the
self-test's scipy reference).

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
one per column.

**Spans.**  :meth:`FusedKernels.span_runner` picks a runner by ``(span
kind, M's kind)`` (``_SPAN_RUNNERS``) after one operand check
(``_span_operands``); each packs its program once per vector set.
``_ChebyshevSpan``: a whole span of serial P-CSI + diagonal iterations
as one ``chebyshev_span`` wavefront over the grid rows (multiply, the
chain's two steps, a sweep row and the subtraction; iterations four rows
apart) on the single-RHS sweep's ``data`` / ``offsets``.
``_ChronGearSpan``: each serial ChronGear + diagonal iteration as one
``chrongear_span`` pass -- iteration ``k``'s recurrences with ``k +
1``'s multiply, sweep row and both dots, pairwise leaves summed as their
cells become final.  ``_EvpSpan``, serial or stacked, one ``evp_step``
call on each side of the ring matmul: a P-CSI + block-EVP iteration --
corrected march, masked scatter into the ``dx`` / ``x`` chain, halo copy
of ``x`` (alone: :meth:`FusedKernels.halo_copy`, the stacked
exchange's), ``b - A x``, then the next gather, march and edges -- or a
ChronGear + block-EVP one -- the recurrences with the next gather,
march and edges, then the corrected march, the masked scatter into a
kept ``r'``, its halo copy, ``z = A r'`` and both dots block by
block.

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

from repro.core.fields import NEIGHBOR_OFFSETS
from repro.kernels.native import (
    CHAIN,
    CHAIN_FORMAT,
    EVP_CHAIN,
    EVP_HALO,
    EVP_HEAD,
    EVP_HELD,
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
_MAX_SWEEPS = 4
#: Boundary programs an EVP layout keeps (one per kind and geometry of
#: the arrays handed to it: a fresh ``out``, a stack interior, ...).
_MAX_BOUNDARY_PROGRAMS = 8


def _dia_sweep(planes, h):
    """``A`` in DIA form over a flattened ``(..., H, W)`` layout:
    ``(data, offsets)``, a ``(9, cells)`` float64 array and its int64
    diagonal offsets.

    ``planes`` are the nine ``(..., H - 2h, W - 2h)`` coefficient
    arrays in ``_COEFF_ORDER`` and ``h`` the halo width of the layout
    (0: the global grid).  Row ``k`` holds, at column ``i + off_k``,
    the coefficient with which cell ``i`` reads its neighbor ``off_k =
    dj * W + di`` further on: the plane is written once, through a view
    of the buffer that starts ``off_k`` late.  Only cells whose
    neighbor lies inside their own ``(H, W)`` cell block are written --
    with a halo, every interior cell -- so no write leaves the row's own
    diagonal.
    """
    *lead, bny, bnx = planes[0].shape
    rows, width = bny + 2 * h, bnx + 2 * h
    size = math.prod(lead) * rows * width
    reach = width + 1
    buf = np.zeros(9 * size + 2 * reach)
    offsets = []
    for k, (plane, (dj, di)) in enumerate(zip(planes, _OFFSETS)):
        offsets.append(dj * width + di)
        start = reach + k * size + offsets[-1]
        slot = buf[start:start + size].reshape(*lead, rows, width)
        j0, j1 = max(h, -dj), rows - max(h, dj)
        i0, i1 = max(h, -di), width - max(h, di)
        slot[..., j0:j1, i0:i1] = plane[..., j0 - h:j1 - h, i0 - h:i1 - h]
    return (buf[reach:reach + 9 * size].reshape(9, size),
            np.array(offsets, dtype=np.int64))


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
    the marching and edge programs of ``native.c``, all valid at every
    width.  ``bound`` is the one :class:`_EvpWorkingSet` (one width,
    one pair of buffers).
    """

    __slots__ = ("shape", "ty", "tx", "steps", "names", "block", "inv_ne",
                 "programs", "bound")

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

        # ``evp_march``: per marched anti-diagonal its length, first
        # equation, target state row and (coefficient row, first source
        # row) per term, in equations.
        south, west, sources = self.lines(engine)
        prog, a = [b, len(self.steps), k, *_rows(south), *_rows(west)], 0
        for lo, d, length, terms in self.steps:
            prog += [length * b, a * b, ((d + 4) * (my + 2) + lo + 2) * b,
                     len(terms)]
            for name, dj, di in terms:
                prog += [(names.index(name) * rows + a) * b,
                         ((d + 2 + dj + di) * (my + 2) + lo + 1 + dj) * b]
            a += length
        # ``evp_edges``: per term (NE last) its first coefficient row, and
        # the north and east source rows.
        first = [t * rows + n_march for t in range(len(names))]
        self.programs = (
            np.array(prog, dtype=np.int64),
            np.array([c * b for c in first + [len(names) * rows]],
                     dtype=np.int64),
            np.array([row for north, east in sources
                      for row in _rows(north) + _rows(east)], dtype=np.int64))


class _EvpWorkingSet:
    """``native.c``'s marching programs of one engine over one pair of
    buffers.

    ``y`` is the packed right-hand side ``(my * mx * B, n)`` and ``x``
    the skewed state ``(x_size, n)``, both C-contiguous; viewed as
    ``(rows, B, n)``, every operand of the recurrence for one
    anti-diagonal is a contiguous ``(L, B, n)`` slice and its
    coefficients an ``(L, B)`` slice of the plan's block, one value per
    tile for every column.  The march (with the ring set first) and the
    edge residuals each run as one ``evp_march`` / ``evp_edges`` call
    over the plan's programs.  The residuals ``f`` are ``(n, B, k)``
    and their ring product ``ring`` ``(n, B, 1, k)``: the operand and
    result of :meth:`EVPTileEngine.ring_rows`, which the second march
    reads back negated, so nothing is reshuffled around the matmul.
    """

    __slots__ = ("y", "x", "f", "ring", "march", "edges")

    def __init__(self, engine, plan, y, x, lib):
        b, my, mx, k = engine.batch, engine.my, engine.mx, engine.k
        n = y.shape[1]
        plan.tables(engine)
        self.y, self.x = y, x
        self.f = np.empty((n, b, k))
        self.ring = np.empty((n, b, 1, k))
        prog, offsets, sources = plan.programs
        march = functools.partial(
            lib.evp_march, prog.ctypes.data, n, plan.block.ctypes.data,
            plan.inv_ne.ctypes.data, y.ctypes.data, x.ctypes.data)
        ring = self.ring.ctypes.data
        self.march = lambda corrected: march(ring if corrected else 0)
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


class _ChebyshevSpan:
    """``native.c``'s P-CSI + diagonal wavefront on one set of vectors,
    its geometry packed once: ``run(weights)`` is a whole span, one
    ``(omega, c)`` per iteration, as one call."""

    def __init__(self, fn, operands, m, h, halo, vectors):
        (sweep, _, call), (x_at, r_at, dx_at) = operands
        (inv_diag,), (b, _, _, x) = m, vectors
        cells, ndiag, data, stride, offsets = call.args
        self.program = np.array([cells, x.shape[1], x.size // cells, ndiag,
                                 stride], dtype=np.int64)
        # Everything it addresses stays alive with it.
        self._keep = (sweep, call, inv_diag, vectors)
        self._fn = fn
        self._args = (self.program.ctypes.data, data, offsets,
                      inv_diag.ctypes.data, b.ctypes.data, r_at, dx_at, x_at)

    def run(self, weights):
        wc = np.array(weights, dtype=np.float64)
        self._fn(len(wc), address(wc), *self._args)


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

    def __init__(self, fn, operands, m, h, halo, vectors):
        (sweep, diagonals, call), addresses = operands
        (inv_diag,), x = m, vectors[0]
        cells, ndiag, data, stride, offsets = call.args
        symmetric = getattr(call, "symmetric", None)
        if symmetric is None:   # once per sweep
            symmetric = call.symmetric = is_symmetric(sweep, diagonals)
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
    ``f`` and ring product kept.  After every head each group's ring
    product is formed by
    :meth:`~repro.precond.evp.EVPTileEngine.ring_rows`, the per-slice
    BLAS matmul of the one-by-one path, for the next tail to read.

    The span kind only picks the modes and what is kept: ``M``'s
    operands bring the dots' weights and windows for a span that
    replaces ``dot_pair`` (ChronGear's), ``None`` for P-CSI's.

    * P-CSI (vectors ``b, r, dx, x``): ``run(weights)`` is a span of
      iterations, one ``(w, c)`` each, as ``len(weights) + 1`` calls: a
      head, the tails fused with the next heads, a last tail.
    * ChronGear (vectors ``x, r, s, p``; ``r'`` and ``z`` kept): each
      ``__call__(step, head)`` is the recurrences of ``step`` (``(alpha,
      beta)``, floats or ``(nrhs,)`` arrays, or ``None``) with the next
      head in one call, then -- with ``head`` -- that head's tail in a
      second, returning its ``(rho, delta)`` as
      :class:`_ChronGearSpan` does; every other chain a head follows
      keeps its ``x`` update for the next call to apply with its own:
      :meth:`flush` before ``x`` is read."""

    def __init__(self, fn, operands, m, h, halo, vectors):
        (sweep, _, call), at = operands
        layout, work, dots = m
        x = vectors[-1] if dots is None else vectors[0]
        if halo is None:
            halo = (_NO_CELLS,) * 3
        lead = 2 if h == 0 else 3
        n = x.shape[lead] if x.ndim > lead else 1
        p, height, width = (1,) * (3 - lead) + x.shape[:lead]
        inner = x[(slice(None),) * (lead - 2)
                  + (slice(h, height - h), slice(h, width - h))]
        strides = (None if layout.groups is None
                   else _cell_strides(layout, inner, n))
        hits = None if strides is None or work[0].shape[1] != n else [
            _boundary(layout, kind, strides) for kind in ("gather", "scatter")]
        if hits is None or None in hits:
            self.program = None   # not this layout, or not the skewed one
            return
        y, state = work
        groups = (EvpGroup * len(layout.groups))()
        self._rings, keep = [], [hits, work, halo, vectors, sweep, call, dots]
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
        if dots is None:
            (x_at, r_at, dx_at), b = at, vectors[0]
            # the sweep reads x; b, r, dx, x from their first cells
            stack = x_at
            own = (b.ctypes.data + first, r_at + first, dx_at + first,
                   x_at + first)
            self.weights = np.empty(2)
            extension = ()
        else:
            # r' is swept, so its halo copy must find the cells a fresh
            # zero stack has where no table writes.
            self.rp, self.z = np.zeros_like(x), np.empty_like(x)
            self.coef, self.dots = np.empty(3 * n), np.empty(2 * n)
            self.width = None if x.ndim == lead else n
            self.held, self.weights = False, None
            weights, extents = dots
            x_at, r_at, s_at, p_at = at
            stack, own = address(self.rp), (0, r_at + first, 0, x_at + first)
            extension = (
                s_at + first, p_at + first, address(self.rp) + first,
                address(self.z) + first, address(self.coef),
                address(self.dots), weights.ctypes.data,
                0 if extents is None else extents.ctypes.data)
        self.program = EvpProgram(
            n, len(dst), len(zero), dst.ctypes.data, src.ctypes.data,
            zero.ctypes.data, stack, len(groups), ctypes.addressof(groups),
            hits[0][1], hits[1][1], layout.mask.ctypes.data, address(y),
            address(state), cells, ndiag, stride, data, offsets,
            rows.ctypes.data, *own,
            0 if self.weights is None else self.weights.ctypes.data,
            *extension)
        # Everything the program addresses stays alive with it.
        self._keep = (keep, groups, rows, layout)
        self._call = functools.partial(fn, ctypes.addressof(self.program))

    def run(self, weights):
        last = len(weights) - 1
        self._step(EVP_HEAD)
        for t, step in enumerate(weights):
            self.weights[0], self.weights[1] = step
            self._step(EVP_TAIL | (EVP_HEAD if t < last else 0))

    def __call__(self, step, head):
        mode = (EVP_HEAD if head else 0) | (EVP_HELD if self.held else 0)
        if step is not None:
            n = self.width or 1
            self.coef[:n], self.coef[n:2 * n] = step
            mode |= EVP_CHAIN
        self._step(mode)
        # evp_step keeps a chain's x update when a head follows and none
        # was kept: x is read and written every other iteration.
        self.held = bool(mode & EVP_CHAIN) and head and not self.held
        if not head:
            return None
        self._call(EVP_TAIL)
        if self.width is None:
            return self.dots.tolist()
        return self.dots[:self.width].copy(), self.dots[self.width:].copy()

    def flush(self):
        """Apply a kept ``x`` update: ``x`` is whole after this."""
        if self.held:
            self._call(EVP_HELD)
            self.held = False

    def _step(self, mode):
        self._call(mode)
        if mode & EVP_HEAD:
            for engine, f, ring in self._rings:
                engine.ring_rows(f, ring)


#: ``(span kind, M's kind)`` -> ``(native.c entry point, runner)``; one
#: runner serves both EVP kinds.
_SPAN_RUNNERS = {
    ("chebyshev", "diagonal"): ("chebyshev_span", _ChebyshevSpan),
    ("chebyshev", "evp"): ("evp_step", _EvpSpan),
    ("chrongear", "diagonal"): ("chrongear_span", _ChronGearSpan),
    ("chrongear", "evp"): ("evp_step", _EvpSpan),
}

#: Span kind -> its loop's vectors split into ``(written, read)``.
_SPAN_VECTORS = {
    "chebyshev": lambda b, r, dx, x: ((x, r, dx), (b,)),
    "chrongear": lambda x, r, s, p: ((x, r, s, p), ()),
}


class FusedKernels(NumpyKernels):
    """Fused backend (see module docstring).  Each loop is its
    ``native.c`` entry point or, where that was not adopted or declines
    the operands, the reference method it overrides; what it does not
    override -- the per-rank oracle's ``stencil_apply_local`` -- is the
    reference."""

    name = "fused"

    def __init__(self):
        #: DIA sweeps keyed by ``id(coeffs)``: ``(coeffs, data, offsets,
        #: call)``, identity-revalidated, the last few sets.  The
        #: single-RHS planes serve every batch width.
        self._sweeps = {}
        #: The loaded ``native.c`` (built on first use, not on import).
        self._lib = None

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
    def _sweep(self, coeffs, plane, h):
        """The cached sweep of ``coeffs`` on a layout with halo ``h`` as
        ``(data, offsets, call)`` -- ``plane(coeffs, name)`` reads one
        coefficient array and ``call`` is ``dia_sweep`` bound to ``data``
        / ``offsets``, still to be given the rows to sweep, ``x`` and
        ``y`` -- or ``None`` where ``dia_sweep`` was not adopted."""
        fn = self._native().dia_sweep
        if fn is None:
            return None
        hit = self._sweeps.get(id(coeffs))
        if hit is None or hit[0] is not coeffs:
            self._sweeps.pop(id(coeffs), None)
            data, offsets = _dia_sweep(
                [plane(coeffs, name) for name in _COEFF_ORDER], h)
            call = functools.partial(fn, data.shape[1], len(offsets),
                                     data.ctypes.data, data.shape[1],
                                     offsets.ctypes.data)
            hit = self._sweeps[id(coeffs)] = (coeffs, data, offsets, call)
            while len(self._sweeps) > _MAX_SWEEPS:
                self._sweeps.pop(next(iter(self._sweeps)))
        return hit[1:]

    def stencil_apply(self, coeffs, x, out=None):
        # East and north-west would share a diagonal on a grid narrower
        # than three cells.
        entry = self._sweep(coeffs, getattr, 0) if x.shape[1] >= 3 else None
        if entry is None or not x.size or x.size % entry[0].shape[1]:
            return super().stencil_apply(coeffs, x, out)
        cells = entry[0].shape[1]
        x = np.ascontiguousarray(x, dtype=np.float64)
        y = out
        if (out is None or out.shape != x.shape or out.dtype != x.dtype
                or not out.flags.c_contiguous):
            y = np.empty(x.shape)
        # ``x`` is the whole vector, its batch columns interleaved per
        # cell: one row of the geometry.
        entry[2](int64s(x.size // cells, 1, 1, cells, 0, 0, 0, 0, 0)[0],
                 x.ctypes.data, address(y))
        if out is None or y is out:
            return y
        out[...] = y
        return out

    def stencil_apply_stacked(self, coeffs, stack, h, bny, bnx, out):
        n = stack.shape[3] if stack.ndim == 4 else 1
        entry = None
        # The compiled sweep trusts its geometry: hand it only a stack
        # and an ``out`` of the documented shapes.
        if stack.flags.c_contiguous and stack.dtype == np.float64 \
                and stack.shape[1:3] == (bny + 2 * h, bnx + 2 * h) \
                and out.shape == (stack.shape[0], bny, bnx) + stack.shape[3:]:
            entry = self._sweep(coeffs, operator.getitem, h)
        if entry is None or entry[0].shape[1] * n != stack.size:
            return super().stencil_apply_stacked(coeffs, stack, h, bny, bnx,
                                                 out)
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
        entry[2](rows[0], stack.ctypes.data, pointer(target))
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

    def span_runner(self, kind, coeffs, h, halo, m, vectors):
        entry, runner = _SPAN_RUNNERS.get((kind, m[0]), (None, None))
        fn = None if entry is None else getattr(self._native(), entry)
        operands = self._span_operands(fn, coeffs, h, m,
                                       *_SPAN_VECTORS[kind](*vectors))
        if operands is None:
            return None
        run = runner(fn, operands, m[1:], h, halo, vectors)
        return None if run.program is None else run

    def _span_operands(self, fn, coeffs, h, m, written, read=()):
        """The operand check every span shares: ``(entry, addresses of
        written)`` -- ``entry`` the single-RHS sweep :meth:`_sweep`
        caches for ``coeffs`` on a layout with halo ``h`` (0: the global
        grid, ``coeffs`` a ``StencilCoeffs``; else stacked planes) --
        when ``fn`` was adopted and the vectors are whole C-contiguous
        float64 arrays of one shape -- ``(ny, nx[, nrhs])`` grids or
        ``(p, bny + 2h, bnx + 2h[, nrhs])`` stacks -- with rows of at
        least three cells and at most ``MAX_CHAIN_COLUMNS`` columns,
        that do not overlap, with ``written`` writable, and a diagonal
        ``M``'s ``inv_diag`` one C-contiguous float64 value per grid
        cell; ``None`` otherwise."""
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
        if m[0] == "diagonal" and (
                m[1].shape != x.shape[:2] or m[1].dtype != np.float64
                or not m[1].flags.c_contiguous):
            return None
        # The single-RHS sweep, at every width.
        entry = self._sweep(coeffs, getattr if h == 0 else operator.getitem,
                            h)
        ncols = x.shape[lead] if x.ndim > lead else 1
        if entry is None or entry[0].shape[1] * ncols != x.size:
            return None
        try:
            written = [address(v) for v in written]
        except (TypeError, ValueError):
            return None   # read-only
        spans = sorted(written + [v.ctypes.data for v in read])
        if any(q - p < x.nbytes for p, q in zip(spans, spans[1:])):
            return None   # vectors that overlap
        return entry, written

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
        lib = self._native()
        if lib.evp_march is None or lib.evp_edges is None:
            return None   # the reference's tile-major slots and march
        return _EvpPlan(engine)

    def evp_slots(self, engine, plan):
        if plan is None:
            return super().evp_slots(engine, plan)
        return plan.slots()

    def evp_run(self, engine, plan, y, x, nrhs):
        if plan is None:
            return super().evp_run(engine, plan, y, x, nrhs)
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
