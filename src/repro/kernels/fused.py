"""The fused numpy backend: layouts that turn gathers into slices.

Same arithmetic as the numpy reference -- bit for bit -- executed on
data laid out so that every operand of every hot loop is a contiguous
slice: no index arrays, no per-step allocations, inner loops as long as
the problem allows.

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

and a step is ``multiply``/``subtract`` on prebuilt views in the
reference's term order plus one ``multiply`` by ``1/ne`` written
straight into the target slice.  The reference gathers the same values
with fancy indexing and applies the same operations in the same order,
so the state is bit-identical.  The unmarched north/east equations and
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

**Folded multi-RHS stencil.**  A batch rides a trailing ``nrhs`` axis;
broadcasting a 2-D coefficient plane over it runs numpy's inner loop
``nrhs`` (2..8) elements at a time.  The stencil instead views the
padded source and the output with the ``(nx, nrhs)`` axes merged into
one row (neighbor ``di`` is a shift by ``di * nrhs`` along it) and
multiplies by planes repeated ``nrhs``-fold once per coefficient set:
the same nine products and eight adds per element, on full-length rows,
per-term products landing in a reused buffer.  Global and stacked forms
share the one loop.

The ring correction itself (LU-derived ``W^-1`` applied as a batched
matmul) lives on the engine and is shared by every backend -- see
:meth:`EVPTileEngine.ring_correction`.
"""

import numpy as np

from repro.core.fields import NEIGHBOR_OFFSETS, fold_rows
from repro.kernels.base import KernelBackend, validate_evp_shapes

#: Center first, then the neighbors in ``NEIGHBOR_OFFSETS`` order: the
#: reference accumulation order (``operators.blocked._COEFF_ORDER``).
_COEFF_ORDER = ("c",) + tuple(NEIGHBOR_OFFSETS)

#: Coefficient sets whose folded planes stay cached (a long-lived
#: process builds a new stacked set per distributed context).
_MAX_FOLDED_SETS = 4


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
    one anti-diagonal is a contiguous ``(L, B * n)`` slice, so a program
    is a flat list of ``(ufunc, a, b, out)`` on prebuilt views.  The
    coefficient rows are repeated ``n``-fold once, here.
    """

    __slots__ = ("y", "x", "march", "edges", "f", "f_tiles", "south",
                 "west", "rhs_edge")

    def __init__(self, engine, plan, y, x):
        b, my, mx, k = engine.batch, engine.my, engine.mx, engine.k
        n = y.shape[1]
        bn = b * n
        self.y, self.x = y, x
        rhs = y.reshape(my * mx, bn)
        state = x.reshape(my + mx + 3, my + 2, bn)
        flat = x.reshape((my + mx + 3) * (my + 2), bn)
        n_march = (my - 1) * (mx - 1)

        def packed(values, rows=slice(None)):
            return np.repeat(values[:, plan.ty[rows], plan.tx[rows]].T, n,
                             axis=1)

        def line(j, i, dj, di, count):
            """``count`` cells from padded ``(j, i)`` stepping by
            ``(dj, di)``: rows of ``flat`` a constant stride apart."""
            start = (j + i) * (my + 2) + j
            step = (dj + di) * (my + 2) + dj
            return flat[start:start + step * count:step]

        coeff = {name: packed(engine.coeffs[name])
                 for name, _, _ in engine.terms}
        inv_ne = 1.0 / packed(engine.coeffs["ne"], slice(n_march))
        acc, t, self.f = np.empty((3, k, bn))

        self.march = march = []
        a = 0
        for lo, d, length, terms in plan.steps:
            z = a + length
            cur = rhs[a:z]
            for name, dj, di in terms:
                src = state[d + 2 + dj + di, lo + 1 + dj:lo + 1 + dj + length]
                march.append((np.multiply, coeff[name][a:z], src, t[:length]))
                march.append((np.subtract, cur, t[:length], acc[:length]))
                cur = acc[:length]
            march.append((np.multiply, cur, inv_ne[a:z],
                          state[d + 4, lo + 2:lo + 2 + length]))
            a = z

        # Unmarched equations: north edge west to east, then east edge
        # south to north -- ``f = -y + sum(coeff * p)``, NE term last.
        self.rhs_edge = rhs[n_march:]
        self.edges = edges = []
        for name, dj, di in list(engine.terms) + [("ne", 1, 1)]:
            c = (coeff[name][n_march:] if name in coeff
                 else packed(engine.coeffs[name], slice(n_march, None)))
            edges.append((np.multiply, c[:mx],
                          line(my + dj, 1 + di, 0, 1, mx), t[:mx]))
            edges.append((np.multiply, c[mx:],
                          line(1 + dj, mx + di, 1, 0, my - 1), t[mx:]))
            edges.append((np.add, self.f, t, self.f))
        #: The residuals as ``ring_correction`` takes them, ``(B, k, n)``.
        self.f_tiles = self.f.reshape(k, b, n).transpose(1, 0, 2)
        self.south = line(1, 1, 0, 1, mx).reshape(mx, b, n)
        self.west = line(2, 1, 1, 0, my - 1).reshape(my - 1, b, n)

    def solve(self, engine, nrhs):
        """March from a zero ring, correct the ring, march again.

        Only ring cells are reset: every other interior cell is written
        by the sweep before anything reads it, and the padding border
        is never written, so it stays zero.
        """
        self.south[...] = 0.0
        self.west[...] = 0.0
        _run(self.march)
        np.negative(self.rhs_edge, out=self.f)
        _run(self.edges)
        if nrhs is None:
            # The single-RHS correction is a matmul on contiguous rows.
            ring = engine.ring_correction(
                np.ascontiguousarray(self.f_tiles[..., 0]))[..., None]
        else:
            ring = engine.ring_correction(self.f_tiles)
        mx = self.south.shape[0]
        self.south[...] = ring[:, :mx].transpose(1, 0, 2)
        self.west[...] = ring[:, mx:].transpose(1, 0, 2)
        _run(self.march)


def _run(program):
    for op, a, b, out in program:
        op(a, b, out=out)


class FusedKernels(KernelBackend):
    """Fused numpy backend (see module docstring)."""

    name = "fused"
    deterministic = True

    def __init__(self, xp=None):
        super().__init__(xp)
        self._tmp = {}
        #: Folded coefficient planes of the multi-RHS stencil, keyed by
        #: ``id(coeffs)``: ``(coeffs, nrhs, planes)``.  One width per
        #: coefficient set (widths only shrink within a solve), the
        #: last few sets only.
        self._folded = {}

    def _scratch(self, key, shape, dtype):
        """The reused product buffer of ``key``.  A batch that narrows
        replaces its buffer; it does not leave one behind per width."""
        buf = self._tmp.get(key)
        if buf is None or buf.shape != shape or buf.dtype != dtype:
            buf = self._tmp[key] = self.xp.empty(shape, dtype=dtype)
        return buf

    def _folded_planes(self, coeffs, planes, nrhs):
        """``planes`` repeated ``nrhs``-fold along the folded row axis."""
        hit = self._folded.get(id(coeffs))
        if hit is None or hit[0] is not coeffs or hit[1] != nrhs:
            self._folded.pop(id(coeffs), None)
            hit = (coeffs, nrhs,
                   [self.xp.repeat(c, nrhs, axis=-1) for c in planes])
            self._folded[id(coeffs)] = hit
            while len(self._folded) > _MAX_FOLDED_SETS:
                del self._folded[next(iter(self._folded))]
        return hit[2]

    # ------------------------------------------------------------------
    # nine-point stencil: reference MAC order, per-term products landing
    # in a reused buffer instead of fresh temporaries.  A multi-RHS
    # batch runs in the folded row layout (see repro.core.fields): the
    # same nine products and eight adds per element, on rows of
    # ``bnx * nrhs`` elements instead of inner loops of ``nrhs``.
    # ------------------------------------------------------------------
    def _stencil(self, coeffs, planes, src, h, nrhs, out):
        """``out = A @ src`` over the two grid axes of ``src``.

        ``src`` is ``(..., bny + 2h, bnx + 2h[, nrhs])`` with current
        halos, ``out`` the matching ``(..., bny, bnx[, nrhs])`` interior
        and ``planes`` the nine ``(..., bny, bnx)`` coefficient arrays
        of ``coeffs`` in ``_COEFF_ORDER``; ``nrhs`` is ``None`` for a
        single right-hand side.
        """
        xp = self.xp
        batched = nrhs is not None
        key = (out.shape[:-1] if batched else out.shape, batched)
        if batched:
            planes = self._folded_planes(coeffs, planes, nrhs)
            src, out = fold_rows(src), fold_rows(out)
        else:
            nrhs = 1
        bny, bnx = out.shape[-2], out.shape[-1] // nrhs
        t = self._scratch(key, out.shape, out.dtype)

        def view(dj, di):
            return src[..., h + dj:h + dj + bny,
                       (h + di) * nrhs:(h + di + bnx) * nrhs]

        xp.multiply(planes[0], view(0, 0), out=out)
        for plane, (dj, di) in zip(planes[1:], NEIGHBOR_OFFSETS.values()):
            xp.multiply(plane, view(dj, di), out=t)
            out += t
        return out

    def stencil_apply(self, coeffs, x, padded, out):
        self._stencil(coeffs, [getattr(coeffs, n) for n in _COEFF_ORDER],
                      padded, 1, x.shape[2] if x.ndim == 3 else None, out)
        return out

    def stencil_apply_local(self, coeffs, local, h, out):
        xp = self.xp
        bny, bnx = out.shape[:2]
        t = self._scratch(("local", out.shape[:2], out.ndim), out.shape,
                          out.dtype)
        cv = (lambda c: c[..., None]) if local.ndim == 3 else (lambda c: c)

        def view(dj, di):
            return local[h + dj:h + dj + bny, h + di:h + di + bnx]

        xp.multiply(cv(coeffs.c), view(0, 0), out=out)
        for name, (dj, di) in NEIGHBOR_OFFSETS.items():
            xp.multiply(cv(getattr(coeffs, name)), view(dj, di), out=t)
            out += t
        return out

    def stencil_apply_stacked(self, coeffs, stack, h, bny, bnx, out):
        self._stencil(coeffs, [coeffs[n] for n in _COEFF_ORDER], stack, h,
                      stack.shape[3] if stack.ndim == 4 else None, out)
        return out

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
            ws = plan.bound = _EvpWorkingSet(engine, plan, y, x)
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
