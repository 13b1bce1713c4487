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

**One program for every width.**  A batch folds its ``nrhs`` into the
tile axis (``B * nrhs`` innermost, coefficient rows repeated
``nrhs``-fold), so single- and multi-RHS solves run the same program on
longer rows and each column sees the single-RHS operation sequence.  A
plan keeps one working set -- programs, repeated coefficients, three
``(k, B * nrhs)`` scratch rows -- for the one width and pair of buffers
it was last handed.

**Layout at the boundary.**  ``evp_slots`` publishes where each tile
cell lives, so the preconditioner composes it with its own cell maps
and moves a whole application in and out with one ``take`` each way
(``EVPBlockPreconditioner._apply``); ``evp_solve`` does the same for a
stand-alone tile-major batch.

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
zero coefficients.  **Planes once for stacks:** with ``dia_sweep`` the
*single-RHS* ``data`` / ``offsets`` serve every batch width -- per cell
one accumulator per column, the coefficient ``data[k, i + off_k]`` read
once for all of them, the columns in compile-time groups of at most
eight -- over the interior rows only and written straight into the
rows of the output stack, so no ``nrhs``-fold planes are built, no
padded result is allocated and no interior is copied out; every column
still sees the single-RHS operation sequence.  Without the library the
stack takes the folded form above (its halo rows computed, the interior
copied out).  The serial global batch keeps its folded planes either
way.  Cached per coefficient set (identity-keyed, the last
``_MAX_FOLDED_SETS`` sets): the single-RHS sweep and one batch width.
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
one per column.

The ring correction itself (LU-derived ``W^-1`` applied as a batched
matmul) lives on the engine and is shared by every backend -- see
:meth:`EVPTileEngine.ring_correction`.
"""

import functools
import math
import operator
import struct

import numpy as np
from scipy.sparse import dia_array

from repro.core.fields import NEIGHBOR_OFFSETS
from repro.kernels.base import validate_evp_shapes
from repro.kernels.native import (
    CHAIN_FORMAT,
    MAX_CHAIN_COLUMNS,
    STEP_FORMAT,
    Native,
    address,
    int64s,
    load,
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
    """Skewed layout of one engine's tiles (width-independent part).

    A padded tile cell ``(J, I)`` of tile ``pos`` lives in state slot
    ``((J + I) * (my + 2) + J) * B + pos``; the equation centred on
    interior cell ``(ty, tx)`` has its right-hand side and coefficients
    in row ``row[ty, tx]`` of the packed ``(my * mx, B)`` arrays:
    marched centres ordered by ``(ty + tx, ty)``, then the unmarched
    north- and east-edge centres in ring order.  ``bound`` is the one
    :class:`_EvpWorkingSet` (one width, one pair of buffers) and
    ``own`` the buffers and index maps of a stand-alone
    :meth:`EVPTileEngine.solve`, built on first use.
    """

    __slots__ = ("shape", "ty", "tx", "steps", "bound", "own")

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


class _EvpWorkingSet:
    """The marching programs of one engine over one pair of buffers.

    ``y`` is the packed right-hand side ``(my * mx * B, n)`` and ``x``
    the skewed state ``(x_size, n)``; viewed with the tile and RHS axes
    merged (``B * n`` innermost), every operand of the recurrence for
    one anti-diagonal is a contiguous ``(L, B * n)`` slice.  The march
    and the edge residuals each run as one call into ``lib`` (the
    loaded ``native.c``) over tables of element offsets, or -- where
    that entry point was not adopted -- as a flat list of ``(ufunc, a,
    b, out)`` on prebuilt views of the same slices.  The coefficient
    rows are repeated ``n``-fold once, here.
    """

    __slots__ = ("y", "x", "march", "edges", "f", "f_tiles", "south",
                 "west", "keep")

    def __init__(self, engine, plan, y, x, lib):
        b, my, mx, k = engine.batch, engine.my, engine.mx, engine.k
        n = y.shape[1]
        bn = b * n
        self.y, self.x = y, x
        rhs = y.reshape(my * mx, bn)
        flat = x.reshape((my + mx + 3) * (my + 2), bn)
        rows, n_march = my * mx, (my - 1) * (mx - 1)
        names = [name for name, _, _ in engine.terms]
        if not (y.flags.c_contiguous and x.flags.c_contiguous):
            lib = Native("strided buffers")

        def packed(values, rows=slice(None)):
            return np.repeat(values[:, plan.ty[rows], plan.tx[rows]].T, n,
                             axis=1)

        def line(j, i, dj, di, count):
            """``count`` cells from padded ``(j, i)`` stepping by
            ``(dj, di)``: rows of ``flat`` a constant stride apart."""
            start = (j + i) * (my + 2) + j
            step = (dj + di) * (my + 2) + dj
            return slice(start, start + step * count, step)

        # One block of coefficient rows: a ``(my * mx, bn)`` plane per
        # marching term, then NE for the ``k`` unmarched equations.
        block = np.empty((len(names) * rows + k, bn))
        for t, name in enumerate(names):
            block[t * rows:(t + 1) * rows] = packed(engine.coeffs[name])
        block[len(names) * rows:] = packed(engine.coeffs["ne"],
                                           slice(n_march, None))
        inv_ne = 1.0 / packed(engine.coeffs["ne"], slice(n_march))
        acc, tmp, self.f = np.empty((3, k, bn))
        self.keep = [block, inv_ne]

        # Per marched anti-diagonal: first equation row, length, first
        # target row of ``flat``, (term, first source row) per term.
        steps, a = [], 0
        for lo, d, length, terms in plan.steps:
            steps.append((a, length, (d + 4) * (my + 2) + lo + 2,
                          [(names.index(name),
                            (d + 2 + dj + di) * (my + 2) + lo + 1 + dj)
                           for name, dj, di in terms]))
            a += length
        if lib.evp_march is not None:
            prog = []
            for a, length, target, terms in steps:
                prog += [length * bn, a * bn, target * bn, len(terms)]
                for t, src in terms:
                    prog += [(t * rows + a) * bn, src * bn]
            prog = np.array(prog, dtype=np.int64)
            self.keep.append(prog)
            self.march = functools.partial(
                lib.evp_march, len(steps), prog.ctypes.data,
                block.ctypes.data, inv_ne.ctypes.data, rhs.ctypes.data,
                flat.ctypes.data)
        else:
            ops = []
            for a, length, target, terms in steps:
                cur = rhs[a:a + length]
                for t, src in terms:
                    ops.append((np.multiply,
                                block[t * rows + a:t * rows + a + length],
                                flat[src:src + length], tmp[:length]))
                    ops.append((np.subtract, cur, tmp[:length], acc[:length]))
                    cur = acc[:length]
                ops.append((np.multiply, cur, inv_ne[a:a + length],
                            flat[target:target + length]))
            self.march = functools.partial(_run, ops)

        # Unmarched equations: north edge west to east, then east edge
        # south to north -- ``f = -y + sum(coeff * p)``, NE term last.
        rhs_edge, f = rhs[n_march:], self.f
        lines = [(line(my + dj, 1 + di, 0, 1, mx),
                  line(1 + dj, mx + di, 1, 0, my - 1))
                 for _, dj, di in list(engine.terms) + [("ne", 1, 1)]]
        first = [t * rows + n_march for t in range(len(names))]
        first.append(len(names) * rows)
        if lib.evp_edges is not None:
            ids = np.arange(flat.shape[0], dtype=np.int64)
            src_rows = np.concatenate([ids[part] for pair in lines
                                       for part in pair])
            offsets = np.array(first, dtype=np.int64) * bn
            self.keep += [src_rows, offsets]
            self.edges = functools.partial(
                lib.evp_edges, k, bn, len(lines), offsets.ctypes.data,
                src_rows.ctypes.data, block.ctypes.data,
                rhs_edge.ctypes.data, flat.ctypes.data, f.ctypes.data)
        else:
            ops = []
            for c, (north, east) in zip(first, lines):
                ops.append((np.multiply, block[c:c + mx], flat[north],
                            tmp[:mx]))
                ops.append((np.multiply, block[c + mx:c + k], flat[east],
                            tmp[mx:]))
                ops.append((np.add, f, tmp, f))

            def edges():
                np.negative(rhs_edge, out=f)
                _run(ops)

            self.edges = edges
        #: The residuals as ``ring_correction`` takes them, ``(B, k, n)``.
        self.f_tiles = self.f.reshape(k, b, n).transpose(1, 0, 2)
        self.south = flat[line(1, 1, 0, 1, mx)].reshape(mx, b, n)
        self.west = flat[line(2, 1, 1, 0, my - 1)].reshape(my - 1, b, n)

    def solve(self, engine, nrhs):
        """March from a zero ring, correct the ring, march again.

        Only ring cells are reset: every other interior cell is written
        by the sweep before anything reads it, and the padding border
        is never written, so it stays zero.
        """
        self.south[...] = 0.0
        self.west[...] = 0.0
        self.march()
        self.edges()
        if nrhs is None:
            # The single-RHS correction is a matmul on contiguous rows.
            ring = engine.ring_correction(
                np.ascontiguousarray(self.f_tiles[..., 0]))[..., None]
        else:
            ring = engine.ring_correction(self.f_tiles)
        mx = self.south.shape[0]
        self.south[...] = ring[:, :mx].transpose(1, 0, 2)
        self.west[...] = ring[:, mx:].transpose(1, 0, 2)
        self.march()


def _run(program):
    for op, a, b, out in program:
        op(a, b, out=out)


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


def _per_column(coeff, width, keep):
    """Address of ``coeff`` as ``width`` float64 values, one per column
    (kept alive in ``keep``); ``None`` when it is not that."""
    coeff = np.ascontiguousarray(coeff, dtype=np.float64)
    if coeff.shape != (width,) or width > MAX_CHAIN_COLUMNS:
        return None
    keep.append(coeff)
    return coeff.ctypes.data


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
        #: identity-revalidated.  A set keeps its single-RHS sweep and
        #: one batch width (widths only shrink within a solve; a service
        #: alternates 1 and its batch size), the backend the last few
        #: sets.  A stack swept by ``native.c`` needs the single-RHS
        #: slot only, whatever its width.
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
        be given the batch width, the rows to sweep, ``x`` and ``y``."""
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
                # One row: the whole flattened vector, a batch folded
                # into it.
                call.whole = int64s(1, 1, 1, sweep.shape[0], 0, 0, 0, 0, 0)
            hit[slot] = (n, sweep, call)
        return hit[slot]

    @staticmethod
    def _matvec(entry, x, out=None):
        """``sweep @ x`` in ``x``'s shape -- in ``out`` when the native
        sweep can write there directly."""
        _, sweep, call = entry
        if call is None:
            return (sweep @ x.reshape(-1)).reshape(x.shape)
        x = np.ascontiguousarray(x, dtype=np.float64)
        if (out is None or out.shape != x.shape or out.dtype != x.dtype
                or not out.flags.c_contiguous):
            out = np.empty(x.shape)
        call(call.whole[0], x.ctypes.data, address(out))
        return out

    def stencil_apply(self, coeffs, x, out=None):
        if x.shape[1] < 3:
            # East and north-west would share a diagonal: a grid this
            # narrow runs the reference loop.
            return super().stencil_apply(coeffs, x, out)
        entry = self._sweep(coeffs, getattr, 0,
                            x.shape[2] if x.ndim == 3 else 1)
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
            entry = self._sweep(coeffs, operator.getitem, h, n)
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
        ws.solve(engine, nrhs)

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
