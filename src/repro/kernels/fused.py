"""The fused numpy backend: precompiled, scratch-reusing hot paths.

Same arithmetic as the numpy reference -- bit-for-bit -- executed with
far fewer interpreter dispatches and zero per-step allocations.  The
wins, in order of importance:

* **Precompiled marching programs.**  Each anti-diagonal step of the
  EVP marching recurrence is compiled at ``prepare_evp`` time into flat
  gather/scatter index arrays over one 1-D buffer holding the padded
  state *and* the right-hand side ``y`` (copied in once per solve).  A
  step then executes as five numpy calls regardless of the stencil's
  term count: a single ``take`` for the right-hand side and all
  neighbor terms at once, one multiply by the pre-gathered
  coefficients (the rhs row multiplies by an exact ``1.0``), one
  ``np.subtract.reduce``, one multiply by ``1/ne`` and one scatter.
  The reference needs ~3 calls plus two temporaries *per term*.
* **Order-preserving reduction.**  ``np.subtract.reduce`` over the
  stacked ``(terms + 1, B, L)`` scratch is a strict sequential left
  fold (subtraction is not reorderable, so numpy cannot apply pairwise
  regrouping), which reproduces the reference's term-by-term
  ``rhs -= vals * p[src]`` order exactly -- this is what keeps the
  backend bit-identical while fusing the loop.
* **Fused edge residuals.**  The north and east unmarched equations
  are evaluated together through one flat index program (they are
  elementwise independent, so fusing the two edge loops cannot change
  any result bit).  The sign identity ``-((y - t0) - t1 - ...) ==
  ((-y) + t0) + t1 + ...`` (IEEE negation is exact and rounding is
  sign-symmetric) lets the same subtract-reduce kernel serve here too.
* **Scratch reuse everywhere.**  Padded marching states, gather
  stacks, right-hand-side buffers and the stencil matvec's per-term
  product buffer are allocated once per shape group and reused; the
  hot loop performs no allocations at all.

* **Folded multi-RHS stencil.**  A batch rides a trailing ``nrhs``
  axis; broadcasting a 2-D coefficient plane over it runs numpy's
  inner loop ``nrhs`` (2..8) elements at a time.  The stencil instead
  views the padded source and the output with the ``(nx, nrhs)`` axes
  merged into one row (neighbor ``di`` is a shift by ``di * nrhs``
  along it) and multiplies by planes repeated ``nrhs``-fold once per
  coefficient set: the same nine products and eight adds per element,
  on full-length rows.  Global and stacked forms share the one loop.

Multi-RHS EVP batches reuse the *same* flat index programs over a working
buffer with a trailing ``nrhs`` axis: the ``take`` gathers whole rows
of columns at once, the coefficient rows broadcast over the trailing
axis, and the subtract-reduce stays a strict left fold per element --
so each column's bits match the single-RHS program exactly while the
dispatch cost is paid once for the whole batch.  Per-``nrhs`` scratch
is pooled on the plan.

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


class _MarchStep:
    """One anti-diagonal step compiled to flat-index form."""

    __slots__ = ("g_idx", "vals", "inv_ne", "tgt_idx", "gather", "rhs")

    def __init__(self, g_idx, vals, inv_ne, tgt_idx, gather, rhs):
        self.g_idx = g_idx      # (T+1, B, L) intp into the combined buffer
        self.vals = vals        # (T+1, B, L) coefficients (row 0 is 1.0)
        self.inv_ne = inv_ne    # (B, L)
        self.tgt_idx = tgt_idx  # (B, L) intp into the state region
        self.gather = gather    # (T+1, B, L) shared scratch
        self.rhs = rhs          # (B, L) shared scratch


class _MultiScratch:
    """Per-``nrhs`` working set: the trailing-axis buffer plus scratch.

    The index programs are ``nrhs``-independent; only the working
    buffers change shape, so a plan keeps one of these per distinct
    batch width it has seen.  The step coefficients are materialized
    once with the trailing axis expanded (``vals``, ``invs``,
    ``e_vals``): a same-shape contiguous multiply beats numpy's
    broadcast of a ``(..., 1)`` view on every iteration, and repeating
    a value along a new axis changes no products.
    """

    __slots__ = ("buf", "gathers", "rhss", "vals", "invs",
                 "e_gather", "e_vals", "f")

    def __init__(self, plan, b, k, nrhs):
        self.buf = np.zeros((plan.buf.shape[0], nrhs))

        def expand(a):
            return np.ascontiguousarray(
                np.broadcast_to(a[..., None], a.shape + (nrhs,)))

        gather_pool = {}
        rhs_pool = {}
        self.gathers = []
        self.rhss = []
        self.vals = []
        self.invs = []
        for step in plan.steps:
            rows, _, length = step.g_idx.shape
            gkey = (rows, length)
            if gkey not in gather_pool:
                gather_pool[gkey] = np.empty((rows, b, length, nrhs))
            if length not in rhs_pool:
                rhs_pool[length] = np.empty((b, length, nrhs))
            self.gathers.append(gather_pool[gkey])
            self.rhss.append(rhs_pool[length])
            self.vals.append(expand(step.vals))
            self.invs.append(expand(step.inv_ne))
        self.e_gather = np.empty((plan.e_gidx.shape[0], b, k, nrhs))
        self.e_vals = expand(plan.e_vals)
        self.f = np.empty((b, k, nrhs))


class _EvpPlan:
    """Precompiled marching/edge programs plus scratch for one engine.

    The working array ``buf`` concatenates the flat padded states of all
    tiles (``buf[:split]``) with the flat right-hand sides
    (``buf[split:]``, copied in once per solve).  Having both in one
    buffer lets every marching step gather its rhs *and* all neighbor
    terms with a single ``take``; the rhs row of ``vals`` is ``1.0``,
    whose multiply is IEEE-exact, so the fused gather changes no bits.
    """

    __slots__ = ("steps", "e_gidx", "e_vals", "e_gather", "f",
                 "ring_idx", "buf", "split", "n_interior", "multi")

    def __init__(self, engine):
        b, my, mx = engine.batch, engine.my, engine.mx
        width = mx + 2
        n_pad = (my + 2) * width
        n_int = my * mx
        split = b * n_pad
        boff_y = split + (np.arange(b, dtype=np.intp) * n_int)[:, None]
        boff_p = (np.arange(b, dtype=np.intp) * n_pad)[:, None]

        # -- marching steps --------------------------------------------
        # Scratch is shared between steps of equal (terms, length) so a
        # plan holds O(distinct shapes) buffers, not O(steps).
        gather_pool = {}
        rhs_pool = {}
        self.steps = []
        for y_src, inv_ne, target, terms in engine._march_steps:
            rows = len(terms) + 1
            length = y_src.shape[0]
            gkey = (rows, length)
            if gkey not in gather_pool:
                gather_pool[gkey] = np.empty((rows, b, length))
            if length not in rhs_pool:
                rhs_pool[length] = np.empty((b, length))
            g_idx = np.empty((rows, b, length), dtype=np.intp)
            vals = np.empty((rows, b, length))
            g_idx[0] = boff_y + np.asarray(y_src, dtype=np.intp)
            vals[0] = 1.0
            for t, (tvals, p_src) in enumerate(terms):
                g_idx[t + 1] = boff_p + np.asarray(p_src, dtype=np.intp)
                vals[t + 1] = tvals
            self.steps.append(_MarchStep(
                g_idx=g_idx,
                vals=vals,
                inv_ne=np.ascontiguousarray(inv_ne),
                tgt_idx=boff_p + np.asarray(target, dtype=np.intp),
                gather=gather_pool[gkey],
                rhs=rhs_pool[length],
            ))

        # -- edge residuals (north then east, as in the reference) -----
        north_tx = np.arange(mx, dtype=np.intp)
        east_ty = np.arange(my - 1, dtype=np.intp)
        # y indices of the unmarched equation centers, north then east.
        y_src = np.concatenate([
            (my - 1) * mx + north_tx,
            east_ty * mx + (mx - 1),
        ])
        term_rows = [boff_y + y_src]
        val_rows = [np.ones((b, engine.k))]
        for name, dj, di in list(engine.terms) + [("ne", 1, 1)]:
            coeff = engine.coeffs[name]
            src = np.concatenate([
                (my + dj) * width + (north_tx + 1 + di),
                (east_ty + 1 + dj) * width + (mx + di),
            ])
            term_rows.append(boff_p + src)
            val_rows.append(np.concatenate(
                [coeff[:, my - 1, :], coeff[:, :my - 1, mx - 1]], axis=1))
        self.e_gidx = np.ascontiguousarray(np.stack(term_rows))
        self.e_vals = np.ascontiguousarray(np.stack(val_rows))
        self.e_gather = np.empty((self.e_gidx.shape[0], b, engine.k))
        self.f = np.empty((b, engine.k))

        # -- ring scatter and the combined working buffer --------------
        self.ring_idx = boff_p + (
            engine._ring_rows * width + engine._ring_cols
        ).astype(np.intp)
        self.buf = np.zeros(split + b * n_int)
        self.split = split
        self.n_interior = n_int
        #: Per-``nrhs`` :class:`_MultiScratch`, built on first use.
        self.multi = {}

    def multi_scratch(self, b, k, nrhs):
        ms = self.multi.get(nrhs)
        if ms is None:
            ms = _MultiScratch(self, b, k, nrhs)
            self.multi[nrhs] = ms
        return ms


def _run_march(plan, buf):
    """Execute the precompiled marching program on the combined buffer.

    Every elementwise operation matches the reference sweep's sequence
    (gather rhs, subtract the terms in order, multiply by ``1/ne``,
    scatter), so the filled state is bit-identical to
    ``EVPTileEngine._march``.
    """
    take = buf.take
    for step in plan.steps:
        gather = step.gather
        take(step.g_idx, out=gather, mode="clip")
        np.multiply(gather, step.vals, out=gather)
        np.subtract.reduce(gather, axis=0, out=step.rhs)
        np.multiply(step.rhs, step.inv_ne, out=step.rhs)
        buf[step.tgt_idx] = step.rhs


def _run_edges(plan, buf):
    """Edge residuals through the same subtract-reduce kernel."""
    gather = plan.e_gather
    buf.take(plan.e_gidx, out=gather, mode="clip")
    np.multiply(gather, plan.e_vals, out=gather)
    np.subtract.reduce(gather, axis=0, out=plan.f)
    np.negative(plan.f, out=plan.f)
    return plan.f


def _run_march_multi(plan, ms):
    """Marching program over the ``(N, nrhs)`` buffer.

    Identical left-fold arithmetic per column -- the coefficient rows
    broadcast over the trailing axis, so each column executes exactly
    the single-RHS operation sequence.
    """
    buf = ms.buf
    for step, gather, rhs, vals, inv in zip(plan.steps, ms.gathers,
                                            ms.rhss, ms.vals, ms.invs):
        np.take(buf, step.g_idx, axis=0, out=gather, mode="clip")
        np.multiply(gather, vals, out=gather)
        np.subtract.reduce(gather, axis=0, out=rhs)
        np.multiply(rhs, inv, out=rhs)
        buf[step.tgt_idx] = rhs


def _run_edges_multi(plan, ms):
    """Edge residuals over the ``(N, nrhs)`` buffer."""
    gather = ms.e_gather
    np.take(ms.buf, plan.e_gidx, axis=0, out=gather, mode="clip")
    np.multiply(gather, ms.e_vals, out=gather)
    np.subtract.reduce(gather, axis=0, out=ms.f)
    np.negative(ms.f, out=ms.f)
    return ms.f


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

    def evp_solve(self, engine, plan, y, out=None):
        y = validate_evp_shapes(engine, y)
        b, my, mx = engine.batch, engine.my, engine.mx
        if y.ndim == 4:
            return self._evp_solve_columns(engine, plan, y, out)
        buf, split = plan.buf, plan.split
        state = buf[:split]
        buf[split:] = y.reshape(b * plan.n_interior)
        state.fill(0.0)
        _run_march(plan, buf)
        f = _run_edges(plan, buf)
        ring = engine.ring_correction(f)
        state.fill(0.0)
        buf[plan.ring_idx] = ring
        _run_march(plan, buf)
        x = state.reshape(b, my + 2, mx + 2)[:, 1:my + 1, 1:mx + 1]
        if out is None:
            return x.copy()
        out[...] = x
        return out

    def _evp_solve_columns(self, engine, plan, y, out):
        b, my, mx = engine.batch, engine.my, engine.mx
        nrhs = y.shape[3]
        ms = plan.multi_scratch(b, engine.k, nrhs)
        buf, split = ms.buf, plan.split
        state = buf[:split]
        buf[split:] = y.reshape(b * plan.n_interior, nrhs)
        state.fill(0.0)
        _run_march_multi(plan, ms)
        f = _run_edges_multi(plan, ms)
        ring = engine.ring_correction(f)
        state.fill(0.0)
        buf[plan.ring_idx] = ring
        _run_march_multi(plan, ms)
        x = state.reshape(b, my + 2, mx + 2, nrhs)[:, 1:my + 1, 1:mx + 1]
        if out is None:
            return x.copy()
        out[...] = x
        return out
