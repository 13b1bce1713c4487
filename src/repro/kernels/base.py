"""The kernel interface.

A :class:`KernelBackend` implements the per-iteration hot paths of
the reproduction:

* the nine-point stencil matrix-vector product (the paper's ``9 n^2``
  computation term), in its global, per-rank-local and stacked forms,
* the EVP tile solve (the paper's ``14 n^2`` preconditioner apply):
  two marching sweeps plus the edge-residual evaluation, and the
  movement of a whole application in and out of the tiles
  (:meth:`~KernelBackend.evp_gather` / :meth:`~KernelBackend.evp_scatter`),
* the contexts' inner products (:meth:`~KernelBackend.masked_dot` for
  one serial vector pair, :meth:`~KernelBackend.window_dots` for every
  block and column of a stack or a batch) and runs of vector updates
  (:meth:`~KernelBackend.update_chain`: the paper's ``4 n^2`` for
  ChronGear's four recurrences),
* the runners of the solvers' fused spans
  (:meth:`~KernelBackend.span_runner`): a span of iterations as
  kernel calls, each in place of the primitive calls
  :data:`repro.solvers.context.SPANS` declares for it, and the stacked
  exchange's halo copy (:meth:`~KernelBackend.halo_copy`).

There are two implementations -- the ``numpy`` reference and the
``fused`` product -- and one contract: an implementation changes
*execution strategy only*, never the arithmetic.  Both perform bit for
bit the same IEEE operation sequence, so solver iterates are
``np.array_equal`` under either, which is why nothing selects between
them at run time (see :mod:`repro.kernels`).

Pieces that must not depend on the implementation -- the EVP
influence-matrix construction and its LU-based ring correction -- live
on :class:`~repro.precond.evp.EVPTileEngine` itself and are *not*
routed through this interface (see the engine's docstrings).

Per-engine precompiled state (layouts, marching programs) is produced
by :meth:`KernelBackend.prepare_evp` and handed back to every
``evp_solve`` call, so implementations never key caches on engine
identity; it is only read once built, so solves on several threads
share it.  What an EVP solve writes belongs to the buffers it solves
on (:meth:`KernelBackend.evp_runner`).
"""

import numpy as np


class KernelBackend:
    """Base class for kernel backends (see module docstring)."""

    #: ``"numpy"`` or ``"fused"``.
    name = "abstract"

    # ------------------------------------------------------------------
    # nine-point stencil
    # ------------------------------------------------------------------
    def stencil_apply(self, coeffs, x, out=None):
        """Global ``A @ x`` for ``x`` of shape ``(ny, nx[, nrhs])``.

        Out-of-domain neighbors contribute zero (closed boundary).  A
        trailing ``nrhs`` axis batches independent right-hand sides
        through one pass.  The result is written to ``out`` (any
        layout; never aliases ``x``) when one is given and returned as
        a new array otherwise.  The default is the local form on a
        zero-bordered copy of ``x``.
        """
        padded = np.zeros((x.shape[0] + 2, x.shape[1] + 2) + x.shape[2:],
                          dtype=x.dtype)
        padded[1:-1, 1:-1] = x
        if out is None:
            out = np.empty(x.shape, dtype=x.dtype)
        return self.stencil_apply_local(coeffs, padded, 1, out)

    def stencil_apply_local(self, coeffs, local, h, out):
        """``A @ x`` on one rank's interior, neighbors read from halos.

        ``local`` has shape ``(bny + 2h, bnx + 2h[, nrhs])``; ``out`` is
        the preallocated ``(bny, bnx[, nrhs])`` interior result.
        """
        raise NotImplementedError

    def stencil_apply_stacked(self, coeffs, stack, h, bny, bnx, out):
        """``A @ x`` over a ``(p, bny + 2h, bnx + 2h[, nrhs])`` stack.

        ``coeffs`` is a dict of nine stacked ``(p, bny, bnx)``
        coefficient arrays; ``out`` is the preallocated ``(p, bny,
        bnx[, nrhs])`` interior stack (usually a strided view).
        ``(bny, bnx)`` is the stack's padded extent -- the largest
        block shape; coefficients are zero on the pad cells of smaller
        tiles.  Only ``out`` is written: an implementation that can
        address the rows of ``out`` writes them in place, so the halo
        and pad cells of the stack ``out`` is the interior of keep
        their values.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # EVP tile solves
    # ------------------------------------------------------------------
    def prepare_evp(self, engine):
        """Build per-shape-group precompiled state for ``evp_solve``.

        Called once per :class:`~repro.precond.evp.EVPTileEngine` after
        its influence matrices exist.  The returned object is opaque to
        the engine and passed back verbatim.  ``None`` (the default)
        means the backend needs no precompiled state: tile-major slots
        and the engine's reference sweep.
        """
        return None

    def evp_solve(self, engine, plan, y, out=None):
        """Solve ``B_i x_i = y_i`` for every tile in the engine's batch.

        ``y`` has shape ``(B, my, mx)`` or ``(B, my, mx, nrhs)`` for a
        multi-RHS batch; writes/returns ``x`` of the same shape.  Must
        call ``engine.ring_correction`` (or its un-negated matmul,
        ``engine.ring_rows``) for the ring update so the correction
        stays backend-independent.
        """
        raise NotImplementedError

    def evp_slots(self, engine, plan):
        """Where this backend keeps tile cell ``(pos, ty, tx)``.

        Returns ``(y_slot, x_slot, x_size)``: two ``(B, my, mx)`` index
        arrays giving each cell's row in the right-hand-side buffer
        (``B * my * mx`` rows, every one used) and in the solution
        buffer (``x_size`` rows) that :meth:`evp_runner` works on.  A
        caller that composes them with its own cell maps moves data in
        and out of the backend's layout with one ``take`` each way
        (:class:`~repro.precond.evp.EVPBlockPreconditioner` does,
        where :meth:`evp_gather` / :meth:`evp_scatter` decline).
        The default -- the reference's, and the fused kernels' where
        ``native.c``'s march was not adopted -- is tile-major, the
        layout of :meth:`evp_solve`.
        """
        b, my, mx = engine.batch, engine.my, engine.mx
        slot = np.arange(b * my * mx, dtype=np.intp).reshape(b, my, mx)
        return slot, slot, slot.size

    def evp_runner(self, engine, plan, y, x):
        """``run(nrhs)``: :meth:`evp_solve` on buffers in the
        :meth:`evp_slots` layout, from ``y`` into ``x``.

        ``y`` is ``(B * my * mx, n)`` and ``x`` ``(x_size, n)``, both
        C-contiguous, zero when first passed and written by nothing else
        between runs; ``nrhs`` is ``None`` (``n == 1``) for a single
        right-hand side.  Rows of ``x`` no slot names are left
        untouched.  A backend may compile programs over the two arrays
        -- the fused kernels bind ``native.c``'s ``evp_march`` /
        ``evp_edges`` to their addresses, with scratch of their own --
        so the runner belongs with the buffers: whoever owns them (one
        thread's working set of
        :class:`~repro.precond.evp.EVPBlockPreconditioner`) keeps it for
        as long as it keeps the width.  The default is the reference:
        :meth:`evp_solve` on the tile-major buffers.
        """
        shape = (engine.batch, engine.my, engine.mx)

        def run(nrhs):
            full = shape if nrhs is None else shape + (nrhs,)
            self.evp_solve(engine, plan, y.reshape(full), out=x.reshape(full))
        return run

    def evp_gather(self, layout, r, y):
        """Copy every tile cell of ``r`` into the right-hand-side rows
        ``y``, if this backend can.

        ``layout`` is an :class:`EvpLayout`, ``r`` a float64 array in it
        (any strides: a grid, a batch, the strided interior of a stack)
        with ``n`` trailing batch columns or none (``n = 1``), ``y`` the
        C-contiguous ``(rows, n)`` buffer whose ``y_rows`` slices the
        group engines solve from, in the :meth:`evp_slots` layout.
        Returns ``True`` when ``y`` was filled; ``False`` (the default:
        there is no such kernel in numpy) when nothing was touched and
        the caller takes the cells with its own maps.
        """
        return False

    def evp_scatter(self, layout, x, out):
        """``out = x[slot] * mask``, if this backend can.

        ``x`` is the ``(rows, n)`` solution buffer whose ``x_rows``
        slices the group engines solved into, ``out`` a writable
        float64 array in ``layout`` (any strides, ``n`` trailing batch
        columns or none).  Every tile cell gets its solution times
        ``layout.mask`` -- the multiply that masks the preconditioner's
        output -- and every cell no tile covers ``0.0``; nothing else
        (the halo of a stack ``out`` is the interior of) is written.
        Returns ``True`` when ``out`` was written; ``False`` (the
        default) when nothing was touched and the caller takes the
        solutions back and multiplies them by the mask.
        """
        return False

    # ------------------------------------------------------------------
    # vector kernels: dots and runs of updates
    # ------------------------------------------------------------------
    def masked_dot(self, a, b, mask, scratch):
        """``sum(a * b * mask)`` over every element, as a Python float.

        ``mask`` is the ocean mask as ``0.0`` / ``1.0``; all four
        arrays share one shape.  The sum runs in numpy's pairwise order
        over the flattened products -- the bits of ``float(np.sum(a * b
        * mask))`` -- so an implementation may form the products on the
        fly but not re-block the sum (``np.dot`` does).  ``scratch``
        takes the products here: three passes, no temporaries.
        """
        np.multiply(a, b, out=scratch)
        np.multiply(scratch, mask, out=scratch)
        return float(np.add.reduce(scratch, axis=None))

    def window_dots(self, a, b, mask, extents=None):
        """Masked dots of every block's window, for every column.

        ``a`` and ``b`` are float64 ``(blocks, rows, cols[, nrhs])``
        arrays of one layout whose rows are contiguous (stacks, the
        strided interiors of stacks, or a serial batch as one block),
        ``mask`` the C-contiguous ``(blocks, rows, cols)`` ocean mask
        as ``0.0`` / ``1.0`` and ``extents`` an int64 ``(blocks, 2)``
        array of each block's exact window ``(ny, nx)`` -- ``None``
        when every window is the whole ``(rows, cols)``; cells outside
        a window (the pad of a ragged stack) are never read.  Returns
        the ``(nrhs, blocks)`` partials (``nrhs = 1`` for 3-D
        operands): per block and column the products ``(a * b) * mask``
        of the window in row-major cell order, reduced with numpy's
        pairwise blocking -- the bits of ``np.sum`` over a contiguous
        copy of those products, which is how the reference forms them.
        """
        raise NotImplementedError

    def update_chain(self, steps):
        """Run consecutive vector updates, in order.

        ``steps`` is a list of ``(kind, a, b, x, y)`` over float64
        arrays of one shape and one layout -- whole contiguous vectors,
        or strided views made of contiguous rows such as the ``(p,
        bny, bnx[, nrhs])`` interiors of stacks, in which case nothing
        outside the views (halo and pad cells) is read or written.
        ``a`` and ``b`` are floats, or ``(nrhs,)`` arrays holding one
        coefficient per entry of the trailing axis (a batch whose
        columns run their own recurrences).  ``kind`` 0 is ``y += a *
        x`` (axpy), 1 ``y = x + b * y`` (xpay), 2 ``y = a * x + b * y``
        (combine), each as numpy's in-place calls round it: ``b * y``
        into ``y`` first, then ``a * x`` rounded and one add.  A later
        step may read or update an earlier step's ``y``.  Operands numpy
        would refuse (read-only, of shapes that do not broadcast) raise
        as numpy does.
        """
        raise NotImplementedError

    def span_runner(self, kind, coeffs, h, halo, m, vectors):
        """A runner for the span ``kind`` on these vectors, if this
        backend has one; ``None`` (the default: numpy has no fused form)
        sends the caller to the primitive calls the span replaces, whose
        roundings and order a runner keeps.

        ``vectors`` are the span loop's, updated in place: whole global
        ``(ny, nx[, nrhs])`` arrays (``h = 0``, ``coeffs`` the
        ``StencilCoeffs``) or whole ``(p, bny + 2h, bnx + 2h[, nrhs])``
        stacks of the batched engine (``coeffs`` the stacked planes,
        ``halo`` the ``(dst, src, zero)`` tables of :meth:`halo_copy`).
        ``m`` is ``M``'s part
        (:meth:`~repro.precond.base.Preconditioner.span_operands`):
        ``("diagonal", inv_diag)``, ``r' = r * inv_diag``, or ``("evp",
        layout, (y, x), dots)``, the gather, marches, ring matmul and
        masked scatter of the block EVP apply in ``layout`` on those
        buffers (``dots``: the weights and block windows of a span's
        dots).

        * ``"chebyshev"``, ``vectors = (b, r, dx, x)``:
          ``run.run(weights)`` runs one P-CSI iteration per ``(omega,
          c)``: ``r' = M^-1 r``, ``dx = (c * dx) + (omega * r')``, ``x =
          x + (1.0 * dx)``, the halo copy of ``x`` on a stack, ``r = b -
          A x`` over the interior rows.
        * ``"chrongear"``, ``vectors = (x, r, s, p)``: ``run(step,
          head)`` with ``step = (alpha, beta)`` (floats, or ``(nrhs,)``
          arrays) first runs ``s = r' + beta s``, ``p = z + beta p``, ``x
          += alpha s``, ``r += (-alpha) p`` with the previous head's
          ``r'`` and ``z``; with ``head`` it then forms ``r' = M^-1 r``,
          ``z = A r'`` and returns ``(rho, delta) = (<r, r'>, <z,
          r'>)``, per column for a batch, the dots weighed by ``M``'s
          operands where the caller vouches they are the ocean mask (on
          a stack: per block, then summed in block order, the virtual
          machine's reduction).
          ``run.flush()`` makes ``x`` whole after the last call (a runner
          may keep an ``x`` update for the call that follows).
        """
        return None

    def halo_copy(self, stack, tables):
        """The batched engine's halo update of ``stack``: with ``tables
        = (dst, src, zero)`` int64 cell indices into a C-contiguous
        ``(p, bny + 2h, bnx + 2h[, nrhs])`` float64 stack, every cell
        ``dst[i]`` gets cell ``src[i]``'s ``nrhs`` values and every cell
        ``zero[i]`` zeros -- numpy's ``flat[dst] = flat[src]; flat[zero]
        = 0.0`` (no source cell is among the others)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def describe(self):
        """One-line summary for CLI/benchmark output."""
        return f"{self.name} (bit-identical)"

    def __repr__(self):
        return f"<KernelBackend {self.name}>"


class EvpLayout:
    """Where the EVP tiles sit in one array layout: what
    :meth:`KernelBackend.evp_gather` and :meth:`KernelBackend.evp_scatter`
    move.

    ``shape`` is the layout's cell shape, ``(ny, nx)`` (a grid) or ``(p,
    bny, bnx)`` (stacked block interiors); an array in it may carry one
    more, trailing axis of batch columns.  ``mask`` is the C-contiguous
    float64 ``0.0`` / ``1.0`` plane of that shape.  ``groups`` lists,
    per engine in buffer order, ``(engine, origins, y_rows, x_rows)``:
    the int64 ``(B, 3)`` first cell ``(block, j, i)`` of each of the
    engine's tiles (block 0 on a grid) and the slices of the shared
    right-hand-side and solution buffers the engine works on; the
    ``y_rows`` follow each other from row 0.  ``uncovered`` holds the
    int64 runs ``(block, j, i, cells)`` of cells no tile covers.
    ``compiled`` is the backend's, for tables it derives from the rest.
    """

    __slots__ = ("shape", "mask", "groups", "uncovered", "compiled")

    def __init__(self, shape, mask, groups, uncovered):
        self.shape = tuple(shape)
        self.mask = mask
        self.groups = groups
        self.uncovered = uncovered
        self.compiled = {}


def validate_evp_shapes(engine, y):
    """Shared argument check for ``evp_solve`` implementations.

    Accepts the ``(B, my, mx)`` single-RHS shape or the
    ``(B, my, mx, nrhs)`` multi-RHS batch.
    """
    expect = (engine.batch, engine.my, engine.mx)
    ok = y.shape == expect or (y.ndim == 4 and y.shape[:3] == expect)
    if not ok:
        from repro.core.errors import SolverError

        raise SolverError(
            f"expected y of shape {expect} or {expect + ('nrhs',)}, "
            f"got {y.shape}"
        )
    return np.ascontiguousarray(y, dtype=np.float64)
