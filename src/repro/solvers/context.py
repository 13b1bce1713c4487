"""Solver contexts: the vector space the algorithms are written against.

Each solver (ChronGear, P-CSI, PCG) is implemented exactly once, against
this small set of primitives:

=================  ====================================================
``matvec``         ``y = A x`` (halo update + stencil; 9 flop units/pt)
``precond``        ``z = M^-1 r`` (block/point local; preconditioner's
                   own flop accounting)
``dot``            masked global inner product (1 unit/pt computation +
                   1 unit/pt reduction masking + one all-reduce)
``dot_pair``       two inner products fused into one all-reduce (the
                   ChronGear trick)
``axpy``           ``y += alpha * x`` (1 unit/pt)
``xpay``           ``y = x + beta * y`` (1 unit/pt)
``combine``        ``y = a * x + b * y`` (2 units/pt; P-CSI's dx update)
``updates``        a run of consecutive ``axpy`` / ``xpay`` / ``combine``
                   steps, charged as the steps are (ChronGear's four
                   recurrences: 4 units/pt): one
                   :meth:`~repro.kernels.base.KernelBackend.update_chain`
                   call; ``axpy`` / ``xpay`` / ``combine`` are runs of
                   one step
``scale``          ``v *= factor`` (1 unit/pt; P-CSI setup, Lanczos
                   normalization)
``chebyshev_span`` P-CSI's iterations between two convergence checks
                   (``SPANS["chebyshev"]``)
``chrongear_span`` ChronGear's iterations between two convergence
                   checks, the solver's coefficients formed in between
                   (``SPANS["chrongear"]``; a diagonal ``M`` serially,
                   the block EVP ``M`` serially or on the batched
                   engine's stacks)
``sub``            ``out = a - b`` (folded into the matvec's cost --
                   the paper counts ``r = b - Bx`` as the 9 n^2 matvec)
=================  ====================================================

Two interchangeable implementations exist:

* :class:`SerialContext` operates on global ``(ny, nx)`` arrays; halo
  and reduction events are *derived* from the attached decomposition
  (the algorithm's results are bit-identical to a 1-rank run, and the
  event stream matches what the distributed context would record).
  This is the fast path used by the large experiments.
* :class:`DistributedContext` operates on
  :class:`~repro.parallel.halo.BlockField` values over a
  :class:`~repro.parallel.vm.VirtualMachine`: real halo exchanges, real
  per-rank arithmetic, real rank-ordered reductions.  Used to validate
  the substrate and the communication accounting.

A *span* runs a declared sequence of these primitives -- what one
iteration of a solver calls between two convergence checks -- for
several iterations at once.  :data:`SPANS` declares each span kind by
the primitives one iteration replaces, and everything else follows from
that declaration: the gate (a context whose class overrides a spanned
primitive keeps its calls), ``M``'s part
(:meth:`~repro.precond.base.Preconditioner.span_operands`), the
kernels' runner (:meth:`~repro.kernels.base.KernelBackend.span_runner`,
cached per vector set) and the ledger charge -- the declared primitives'
own charges, times the iterations that ran.  Where no runner is
available the span loop makes the primitive calls themselves.

The test suite asserts both contexts drive every solver to (near)
identical iterates, and that their event ledgers agree exactly on
communication counts.
"""

import abc
import functools

import numpy as np

from repro.core.errors import SolverError
from repro.core.fields import fold_update
from repro.kernels import resolve_kernels
from repro.operators.blocked import BlockedOperator
from repro.operators.stencil_op import MATVEC_FLOPS_PER_POINT, apply_stencil
from repro.parallel.events import EventLedger
from repro.parallel.halo import BlockField
from repro.parallel.reduction import binomial_tree_depth
from repro.parallel.resilience import SpanChecks


#: ``updates`` step -> (kernel chain kind, flop units per point, the
#: step's arguments as the kernel's ``(a, b, x, y)``).
_CHAIN_STEPS = {
    "axpy": (0, 1, lambda alpha, x, y: (alpha, 0.0, x, y)),
    "xpay": (1, 1, lambda x, beta, y: (0.0, beta, x, y)),
    "combine": (2, 2, lambda a, x, b, y: (a, b, x, y)),
}


#: Span kind -> the primitives one iteration replaces, ``(head,
#: chain)``, each a run of ``(primitive, units)``; ``units`` scales the
#: primitive's charge per column: an ``updates`` run's flop units per
#: point, ``dot_pair``'s two words, else 1.  A chain runs only when the
#: solver's coefficients say so (ChronGear's recurrences, which a
#: breakdown skips); a P-CSI iteration is all head.
SPANS = {
    "chebyshev": ((("precond", 1), ("updates", 3), ("residual", 1)), ()),
    "chrongear": ((("precond", 1), ("matvec", 1), ("dot_pair", 2)),
                  (("updates", 4),)),
}

#: Spanned primitive -> the helper it charges through, which charges a
#: span's ``n`` calls of it at once: ``helper(units * w, n)``.
_CHARGES = {"precond": "_charge_precond", "matvec": "_charge_matvec",
            "residual": "_charge_matvec", "dot_pair": "_charge_allreduce",
            "updates": "_charge_updates"}

#: The primitives the spans run inside kernel calls.
_SPANNED = {name for runs in SPANS.values() for run in runs
            for name, _ in run}


#: The per-rank oracle's chains: its arithmetic is numpy's.
_REFERENCE = resolve_kernels("numpy")


class SolverContext(abc.ABC):
    """Abstract solver context (see module docstring).

    ``kernels`` selects the backend executing the matvec hot path (see
    :mod:`repro.kernels`); the preconditioner carries its own backend
    choice.  Deterministic backends leave all iterates bit-identical.
    """

    def __init__(self, stencil, preconditioner, ledger=None, kernels=None):
        self.stencil = stencil
        self.preconditioner = preconditioner
        self.kernels = resolve_kernels(kernels)
        self.ledger = ledger if ledger is not None else EventLedger()
        self.mask = np.asarray(stencil.mask, dtype=bool)
        #: Trailing batch width for multi-RHS solves.  ``None`` (the
        #: default) keeps the scalar 2-D vector layout; solvers set it
        #: during a batched solve so :meth:`new_vector` allocates the
        #: active column count (it shrinks as columns converge).
        self.nrhs = None
        #: The last span runner (or ``None``): ``(kind, (M, kernels,
        #: *arrays), runner)``.
        self._runner = (None, (), None)

    # -- vectors -------------------------------------------------------
    @abc.abstractmethod
    def new_vector(self):
        """A zero vector."""

    @abc.abstractmethod
    def copy(self, v):
        """An independent copy of ``v``."""

    @abc.abstractmethod
    def from_global(self, array):
        """Import a global ``(ny, nx)`` array as a context vector."""

    @abc.abstractmethod
    def to_global(self, v):
        """Export a context vector as a global ``(ny, nx)`` array."""

    # -- operator ------------------------------------------------------
    @abc.abstractmethod
    def matvec(self, x, out=None, phase="computation"):
        """``out = A x`` (includes the halo update of ``x``)."""

    def residual(self, b, x, out=None, phase="computation"):
        """``out = b - A x``; charged as one matvec (paper convention).

        Without an ``out`` the subtraction lands in the matvec's own
        result: one sweep, one pass, one allocation.
        """
        ax = self.matvec(x, phase=phase)
        return self._sub(b, ax, out=ax if out is None else out)

    @abc.abstractmethod
    def _sub(self, a, b, out):
        """``out = a - b`` (cost folded into the producing matvec);
        ``out`` may be ``a`` or ``b``."""

    def precond(self, r, out=None, phase="preconditioning"):
        """``out = M^-1 r``."""
        out = self._apply_precond(r, out)
        self._charge_precond(self._vec_width(r), phase=phase)
        return out

    def _vec_width(self, v):
        """Trailing batch width of a context vector (1 when scalar)."""
        return self._width(v)

    def _precond_flops(self):
        """Critical-rank flops of one preconditioner application.

        When the preconditioner was built without a decomposition (e.g.
        a point-local preconditioner reused across contexts) its
        whole-grid cost is rescaled to this context's critical block, so
        serial and distributed runs record identical event streams.
        """
        pre = self.preconditioner
        if pre.decomp is None and getattr(self, "decomp", None) is not None:
            ny, nx = self.stencil.shape
            per_point = pre.apply_flops() / float(ny * nx)
            return int(round(per_point * self.critical_points))
        return pre.apply_flops()

    @abc.abstractmethod
    def _apply_precond(self, r, out):
        ...

    # -- reductions ----------------------------------------------------
    @abc.abstractmethod
    def dot(self, a, b, phase="reduction"):
        """Masked global inner product."""

    @abc.abstractmethod
    def dot_pair(self, a1, b1, a2, b2, phase="reduction"):
        """Two masked inner products fused into one all-reduce."""

    def norm2(self, v, phase="reduction"):
        """Masked 2-norm via one reduction.

        For a multi-RHS vector this is a ``(nrhs,)`` array of per-column
        norms (one fused all-reduce), each bit-identical to the scalar
        path's value for that column.
        """
        value = self.dot(v, v, phase=phase)
        if isinstance(value, np.ndarray):
            return np.sqrt(np.maximum(value, 0.0))
        return float(np.sqrt(max(value, 0.0)))

    @abc.abstractmethod
    def dot_block(self, xs, ys, phase="reduction"):
        """All pairwise masked inner products in **one** all-reduce.

        ``xs`` and ``ys`` are sequences of context vectors; the result
        is a ``(len(xs), len(ys))`` array with ``out[i, j] =
        <xs[i], ys[j]>`` (trailing ``(nrhs,)`` axis for multi-RHS
        vectors).  Every pair's local partial rides a single fused
        all-reduce of ``len(xs) * len(ys) [* nrhs]`` words -- a whole
        Gram matrix in one ``reduction`` event, however many inner
        products it carries.
        """

    # -- multi-RHS support ---------------------------------------------
    @abc.abstractmethod
    def compact(self, v, keep):
        """Drop converged columns: keep only ``v[..., keep]``.

        ``keep`` is an integer index array into the current column set.
        Pure data movement -- the surviving columns' bits are untouched,
        which is what keeps early-exit batches identical to full-width
        ones.
        """

    @staticmethod
    def _width(v):
        """Trailing batch width of an array (1 for scalar 2-D layout)."""
        return v.shape[2] if getattr(v, "ndim", 2) == 3 else 1

    # -- elementwise updates -------------------------------------------
    def axpy(self, alpha, x, y, phase="computation"):
        """``y += alpha * x`` in place; returns ``y``."""
        self.updates(("axpy", alpha, x, y), phase=phase)
        return y

    def xpay(self, x, beta, y, phase="computation"):
        """``y = x + beta * y`` in place; returns ``y``."""
        self.updates(("xpay", x, beta, y), phase=phase)
        return y

    def combine(self, a, x, b, y, phase="computation"):
        """``y = a * x + b * y`` in place; returns ``y``."""
        self.updates(("combine", a, x, b, y), phase=phase)
        return y

    @abc.abstractmethod
    def scale(self, factor, v, phase="computation"):
        """``v *= factor`` in place; returns ``v``."""

    def updates(self, *steps, phase="computation"):
        """A run of consecutive updates, in order.

        Each step is a tuple naming one of the three update primitives
        and its arguments -- ``("axpy", alpha, x, y)``, ``("xpay", x,
        beta, y)``, ``("combine", a, x, b, y)`` -- and a later step may
        read or update what an earlier one wrote (ChronGear's ``x +=
        alpha s`` follows ``s = r' + beta s``).  The run is one
        :meth:`~repro.kernels.base.KernelBackend.update_chain` over the
        vectors' arrays (:meth:`_update_chain`), with scalar
        coefficients or one per column of a batch (a lockstep ChronGear
        ensemble), charged the sum of what the steps charge.
        """
        chain, units = [], 0
        for kind, *args in steps:
            if kind not in _CHAIN_STEPS:
                raise SolverError(f"unknown update step {kind!r}; expected "
                                  f"one of {', '.join(_CHAIN_STEPS)}")
            code, cost, operands = _CHAIN_STEPS[kind]
            chain.append((code, *operands(*args)))
            units += cost
        self._update_chain(chain)
        self._charge_updates(units * self._vec_width(chain[-1][4]),
                             phase=phase)

    def _update_chain(self, chain):
        """Run ``chain`` -- :meth:`KernelBackend.update_chain` steps
        over context vectors -- on their arrays."""
        self.kernels.update_chain(chain)

    # -- charges: each primitive's, shared with the spans ---------------
    def _charge_precond(self, w, n=1, phase="preconditioning"):
        """``n`` applications of ``M`` at width ``w``."""
        self.ledger.record_flops(phase, n * w * self._precond_flops())

    def _charge_matvec(self, w, n=1, phase="computation", exchanged=False,
                       applied=True, halo_phase="boundary"):
        """``n`` matvecs at width ``w``, each with its halo update: one
        ``halo_phase`` event of ``w * halo_words`` words -- unless the
        virtual machine's exchange ``exchanged`` it already -- and,
        unless a check stopped them between the two, the stencil's flops
        (``applied``)."""
        if applied:
            self.ledger.record_flops(
                phase, n * w * MATVEC_FLOPS_PER_POINT * self.critical_points)
        # The halo-update *event* is recorded even for a 1-rank context
        # (with zero payload): event counts are the solver's algorithmic
        # signature, and experiment sweeps rescale the payload to each
        # target decomposition.  The machine model prices halo events at
        # zero when p == 1.  A multi-RHS batch moves nrhs-fold payload in
        # the same single exchange.
        if not exchanged:
            self.ledger.record_halo(halo_phase, words=n * w * self._halo_words,
                                    exchanges=n)

    def _charge_allreduce(self, words, n=1, phase="reduction"):
        """``n`` fused all-reduces of ``words`` values: every column, pair
        and Gram entry rides the same single reduction."""
        flops = n * words * self.critical_points
        self.ledger.record_flops("computation", flops)
        self.ledger.record_flops(phase, flops)
        self.ledger.record_allreduce(phase, words=words, count=n)

    def _charge_updates(self, units, n=1, phase="computation"):
        """``n`` runs of updates of ``units`` flop units per point."""
        self.ledger.record_flops(phase, n * units * self.critical_points)

    def _charge_span(self, kind, w, heads, chains=0, cut=None):
        """What ``heads`` iterations of span ``kind`` -- ``chains`` of
        them with their chain -- charge as the declared primitives.

        ``cut``: one more head stopped by a check in its swept primitive
        (the one charged as a matvec) -- ``"halo"`` after that
        primitive's halo update, ``"matvec"`` after its apply -- is
        charged as far as the calls had charged it then.
        """
        for part, n in zip(SPANS[kind], (heads, chains)):
            if n:
                for name, units in part:
                    getattr(self, _CHARGES[name])(units * w, n)
        if cut is None:
            return
        for name, units in SPANS[kind][0]:
            if _CHARGES[name] == "_charge_matvec":
                self._charge_matvec(units * w, applied=cut == "matvec")
                return
            getattr(self, _CHARGES[name])(units * w)

    # -- spans -----------------------------------------------------------
    def spans(self, kind, *vectors):
        """Whether the span loop of ``kind`` on these vectors runs in
        kernel calls -- a solver asks before handing it more than one
        iteration."""
        return self._span_runner(kind, vectors) is not None

    @property
    def _dot_mask(self):
        """The ocean mask this context's dots weigh cells by."""
        return self.mask

    def _span_layout(self, vectors):
        """``(arrays, coeffs, h, halo)``: what the kernels' runners work
        on for these vectors (see
        :meth:`~repro.kernels.base.KernelBackend.span_runner`), or
        ``None``: this context runs no span."""
        return None

    def _spans_own(self):
        """Whether the primitives the spans replace are those of the
        class that lays the spans out (a subclass that overrides one
        keeps its calls)."""
        cls = type(self)
        own = next(c for c in cls.__mro__ if "_span_layout" in vars(c))
        return all(getattr(cls, name) is getattr(own, name)
                   for name in _SPANNED)

    def _span_checks(self, first):
        """The checks a span makes iteration by iteration where its
        calls would make them (iterations numbered from ``first``;
        :class:`~repro.parallel.resilience.SpanChecks`), or ``None``:
        nothing checks this context's iterations."""
        return None

    def _span_runner(self, kind, vectors):
        """The kernels' runner of span ``kind`` on these vectors (kept
        while they are the same arrays), or ``None``."""
        layout = self._span_layout(vectors)
        if layout is None:
            return None
        arrays, coeffs, h, halo = layout
        key = (self.preconditioner, self.kernels, *arrays)
        cached_kind, cached, run = self._runner
        if cached_kind == kind and len(cached) == len(key) \
                and all(a is b for a, b in zip(cached, key)):
            return run
        m = run = None
        if self._spans_own():
            # Dots a span replaces read M's operands, not the mask.
            mask = (self._dot_mask if any(name == "dot_pair"
                                          for part in SPANS[kind]
                                          for name, _ in part) else None)
            m = self.preconditioner.span_operands(
                h > 0, self._vec_width(vectors[0]), mask)
        if m is not None:
            run = self.kernels.span_runner(kind, coeffs, h, halo, m, arrays)
        self._runner = (kind, key, run)
        return run

    def chebyshev_span(self, b, r, dx, x, weights, first=1):
        """P-CSI iterations ``first, first + 1, ...``, one per ``(omega,
        c)`` in ``weights``; returns the new residual.

        Each is ``r' = M^-1 r``, ``dx = omega r' + c dx``, ``x += dx``,
        ``r = b - A x`` (paper Alg. 2, steps 6-10), updating ``dx`` and
        ``x`` in place -- in the kernels' runner (``r`` updated in place
        too) or as the primitive calls, with the same bits and ledger
        records.  A resilience check that fails inside the runner
        raises, as the calls' would, with the iteration it failed in.
        """
        run = self._span_runner("chebyshev", (b, r, dx, x))
        if run is None:
            for omega, c in weights:
                r_prime = self.precond(r)
                self.updates(("combine", omega, r_prime, c, dx),
                             ("axpy", 1.0, dx, x))
                r = self.residual(b, x)
            return r
        checks = self._span_checks(first)
        if checks is None:
            if weights:
                run.run(weights)
            self._charge_span("chebyshev", self._vec_width(x), len(weights))
            return r
        try:
            run.run(weights, checks)
        finally:
            self._charge_span("chebyshev", self._vec_width(x), checks.passed,
                              cut=checks.cut)
        return r

    def chrongear_span(self, x, r, s, p, n, coefficients, first=1):
        """``n`` ChronGear iterations, ``first`` the first of them, on
        ``x``, ``r``, ``s``, ``p`` in place (paper Alg. 1, steps 4-16).

        Each is ``r' = M^-1 r``, ``z = A r'``, ``(rho, delta) = (<r,
        r'>, <z, r'>)`` in one reduction, then ``coefficients(rho,
        delta)`` -- the solver's scalar steps, which may raise -- gives
        ``(alpha, beta)`` or ``None`` (no update), then ``s = r' + beta
        s``, ``p = z + beta p``, ``x += alpha s``, ``r -= alpha p`` -- as
        the primitive calls or, with the kernels' runner, ``n + 1``
        kernel passes: a head, each iteration's recurrences fused with
        the next head, the last recurrences.  The same bits and ledger
        records either way: the runner's heads and chains are counted
        and charged once, in ``finally``, so a breakdown leaves its
        head charged and its chain not, and a resilience check that
        fails after a head's sweep leaves that head charged as far as
        the check.
        """
        run = self._span_runner("chrongear", (x, r, s, p))
        if run is None:
            for _ in range(n):
                r_prime = self.precond(r)
                z = self.matvec(r_prime)
                step = coefficients(*self.dot_pair(r, r_prime, z, r_prime))
                if step is None:
                    continue
                alpha, beta = step
                self.updates(("xpay", r_prime, beta, s),
                             ("xpay", z, beta, p),
                             ("axpy", alpha, s, x), ("axpy", -alpha, p, r))
            return
        heads = chains = 0
        checks = self._span_checks(first)
        # A head's checks run in the call that sweeps it.
        call = run if checks is None else functools.partial(run,
                                                             check=checks)
        try:
            dots = call(None, True)
            for t in range(n):
                heads += 1
                step = coefficients(*dots)
                last = t == n - 1
                chains += step is not None
                if step is not None or not last:
                    dots = call(step, not last)
        finally:
            run.flush()
            self._charge_span("chrongear", self._vec_width(x), heads, chains,
                              cut=None if checks is None else checks.cut)

    # -- topology ------------------------------------------------------
    @property
    @abc.abstractmethod
    def num_ranks(self):
        """Simulated rank count ``p``."""

    @property
    @abc.abstractmethod
    def critical_points(self):
        """Grid points on the critical-path rank (the paper's ``n^2``)."""

    def reduction_tree_depth(self):
        """``ceil(log2 p)`` -- the latency multiplier of an all-reduce."""
        return binomial_tree_depth(self.num_ranks)


# ======================================================================
class SerialContext(SolverContext):
    """Global-array context with decomposition-derived event accounting.

    Parameters
    ----------
    stencil:
        The operator :class:`~repro.grid.stencil.StencilCoeffs`.
    preconditioner:
        Any :class:`~repro.precond.base.Preconditioner`.
    decomp:
        Optional decomposition; when given, halo/reduction events are
        recorded exactly as the distributed context over the same
        decomposition would record them.  ``None`` means one rank.
    """

    def __init__(self, stencil, preconditioner, decomp=None, ledger=None,
                 kernels=None):
        super().__init__(stencil, preconditioner, ledger, kernels=kernels)
        self.decomp = decomp
        self._mask_f = self.mask.astype(np.float64)
        # The products of a masked dot that numpy forms.
        self._scratch = None
        if decomp is not None:
            if decomp.ny != stencil.shape[0] or decomp.nx != stencil.shape[1]:
                raise SolverError(
                    f"decomposition grid ({decomp.ny}, {decomp.nx}) does not "
                    f"match stencil {stencil.shape}"
                )
            self._critical = decomp.max_block_points()
            self._halo_words = decomp.halo_words_per_exchange()
            self._p = decomp.num_active
        else:
            self._critical = stencil.shape[0] * stencil.shape[1]
            self._halo_words = 0
            self._p = 1

    # -- vectors -------------------------------------------------------
    def new_vector(self):
        if self.nrhs is None:
            return np.zeros(self.stencil.shape)
        return np.zeros(self.stencil.shape + (self.nrhs,))

    def copy(self, v):
        return v.copy()

    def from_global(self, array):
        # C order: batch vectors are folded in place by the kernels.
        return np.array(array, dtype=np.float64, order="C")

    def to_global(self, v):
        return v.copy()

    def compact(self, v, keep):
        return np.ascontiguousarray(v[..., keep])

    # -- operator ------------------------------------------------------
    def matvec(self, x, out=None, phase="computation"):
        out = apply_stencil(self.stencil, x, out=out, kernels=self.kernels)
        self._charge_matvec(self._width(x), phase=phase)
        return out

    def _sub(self, a, b, out):
        return np.subtract(a, b, out=out)

    def _apply_precond(self, r, out):
        return self.preconditioner.apply_global(r, out=out)

    def _span_layout(self, vectors):
        """The vectors themselves, on the global grid."""
        return vectors, self.stencil, 0, None

    # -- reductions ----------------------------------------------------
    def _get_scratch(self, like):
        if self._scratch is None or self._scratch.shape != like.shape \
                or self._scratch.dtype != like.dtype:
            self._scratch = np.empty_like(like)
        return self._scratch

    def _dot_columns(self, a, b):
        """Per-column masked dots of a multi-RHS pair, shape ``(nrhs,)``.

        The grid is one window of :meth:`KernelBackend.window_dots`:
        each column's products ``(a * b) * mask`` are reduced in
        row-major cell order with numpy's pairwise blocking, so every
        bit matches the scalar path (a strided reduction over the batch
        layout could legally re-block the accumulation).
        """
        return self.kernels.window_dots(a[None], b[None],
                                        self._mask_f[None])[:, 0]

    def _dot(self, a, b):
        """Masked inner product of a pair: a float for 2-D vectors (one
        pass where the kernels fuse the masking multiply into the sum),
        an ``(nrhs,)`` array for a batch."""
        if a.ndim == 3:
            return self._dot_columns(a, b)
        return self.kernels.masked_dot(a, b, self._mask_f,
                                       self._get_scratch(a))

    def dot(self, a, b, phase="reduction"):
        value = self._dot(a, b)
        self._charge_allreduce(self._width(a), phase=phase)
        return value

    def dot_pair(self, a1, b1, a2, b2, phase="reduction"):
        v1 = self._dot(a1, b1)
        v2 = self._dot(a2, b2)
        self._charge_allreduce(2 * self._width(a1), phase=phase)
        return v1, v2

    def dot_block(self, xs, ys, phase="reduction"):
        xs = list(xs)
        ys = list(ys)
        w = self._width(xs[0])
        out = np.empty((len(xs), len(ys)) + xs[0].shape[2:])
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                out[i, j] = self._dot(x, y)
        self._charge_allreduce(len(xs) * len(ys) * w, phase=phase)
        return out

    # -- elementwise ---------------------------------------------------
    def scale(self, factor, v, phase="computation"):
        # A batch and its per-column factors in the folded row layout
        # (:func:`~repro.core.fields.fold_update`).
        (factor,), (fv,) = (fold_update((factor,), (v,)) if v.ndim == 3
                            else ((factor,), (v,)))
        fv *= factor
        self.ledger.record_flops(phase, self._width(v) * self._critical)
        return v

    # -- topology ------------------------------------------------------
    @property
    def num_ranks(self):
        return self._p

    @property
    def critical_points(self):
        return self._critical


# ======================================================================
class DistributedContext(SolverContext):
    """Block-field context over a :class:`VirtualMachine`.

    Under the batched engine (``vm.engine == "batched"``, the default
    for every decomposition) each operation is one kernel call over the
    stacked ``(p, bny, bnx)`` layout: runs of updates as one chain over
    the stacks' interior rows (:meth:`updates`), reductions as one
    windowed dot, the matvec as one sweep, the halo update as one copy
    of the halo cells.  Under the per-rank parity oracle every operation
    really happens rank by rank: halo exchanges move strips between
    block arrays, reductions combine per-rank partials in rank order,
    and runs of updates are the numpy reference's chain on each block
    interior in turn -- bit-identical results, identical event streams.
    """

    def __init__(self, stencil, preconditioner, vm, kernels=None):
        super().__init__(stencil, preconditioner, ledger=vm.ledger,
                         kernels=kernels)
        self.vm = vm
        self.decomp = vm.decomp
        self.operator = BlockedOperator(stencil, vm.decomp,
                                        kernels=self.kernels)
        self._critical = vm.max_block_points
        self._halo_words = vm.decomp.halo_words_per_exchange()

    def _batched(self, *fields):
        return self.vm.is_batched and all(f.is_stacked for f in fields)

    # -- vectors -------------------------------------------------------
    def new_vector(self):
        return self.vm.zeros(nrhs=self.nrhs)

    def copy(self, v):
        return v.copy()

    def from_global(self, array):
        return self.vm.scatter(np.asarray(array, dtype=np.float64))

    def to_global(self, v):
        return self.vm.gather(v)

    def compact(self, v, keep):
        keep = np.asarray(keep, dtype=np.intp)
        out = self.vm.zeros(nrhs=int(keep.size))
        if v.is_stacked and out.is_stacked:
            out.stack[...] = v.stack[..., keep]
        else:
            for rank in range(self.vm.num_ranks):
                out.locals_[rank][...] = v.locals_[rank][..., keep]
        return out

    def _vec_width(self, v):
        return v.nrhs or 1

    # -- operator ------------------------------------------------------
    def matvec(self, x, out=None, phase="computation"):
        w = x.nrhs or 1
        self.vm.exchange(x)
        if out is None:
            out = self.vm.zeros(nrhs=x.nrhs)
        self.operator.apply(x, out)
        self._charge_matvec(w, phase=phase, exchanged=True)
        resilience = self.vm.resilience
        if resilience is not None:
            resilience.on_matvec(x, out)
        return out

    def _sub(self, a, b, out):
        if self._batched(a, b, out):
            np.subtract(a.interior_stack(), b.interior_stack(),
                        out=out.interior_stack())
            return out
        for rank in range(self.vm.num_ranks):
            np.subtract(a.interior(rank), b.interior(rank),
                        out=out.interior(rank))
        return out

    def _apply_precond(self, r, out):
        if out is None:
            out = self.vm.zeros(nrhs=r.nrhs)
        if self._batched(r, out):
            # The interior stack is a strided view; apply_stack
            # implementations write through it elementwise.
            self.preconditioner.apply_stack(r.interior_stack(),
                                            out=out.interior_stack())
            return out
        for rank in range(self.vm.num_ranks):
            self.preconditioner.apply_block(rank, r.interior(rank),
                                            out=out.interior(rank))
        return out

    def _span_layout(self, vectors):
        """The stacks of fields on the batched engine, with no fault
        injector (which hooks every exchange) attached; per-rank fields
        have no single array.  A resilience runtime's checks run inside
        the span (:meth:`_span_checks`)."""
        vm = self.vm
        if vm.faults or not self._batched(*vectors):
            return None
        return ([v.stack for v in vectors],
                self.operator._get_stacked_coeffs(), self.decomp.halo_width,
                vm.exchanger.halo_tables())

    def _span_checks(self, first):
        """The attached resilience runtime's checks, or ``None``
        without a runtime or with its ABFT off (replication alone checks
        nothing inside a span)."""
        runtime = self.vm.resilience
        if runtime is None or not runtime.policy.abft:
            return None
        return SpanChecks(runtime, first)

    def checked_residual(self, b, x):
        """``b - A x`` for the attached resilience runtime's cross-check:
        :meth:`residual`, whose exchange and apply the runtime checks --
        or, where the last span runner sweeps ``x`` (a span of the same
        vectors ran last), that runner's one kernel call, its halo sums
        and row-sum terms judged by the same verdicts
        (:class:`~repro.parallel.resilience.SpanChecks`), with the same
        counters and charges, as far as a failed check let the calls
        run.  The same bits either way; the runner's land in a stack it
        keeps, which its next cross-check overwrites.  What it charges
        is fault-tolerance overhead: once its checks passed, it is in
        the ``"resilience"`` phase; where one failed, in the calls'
        phases (a rollback moves them)."""
        ledger = self.ledger
        run = self._runner[2]
        if (getattr(run, "residual", None) is None or self.vm.faults
                or not self._batched(b, x)
                or not run.sweeps(b.stack, x.stack)):
            snap = ledger.snapshot()
            out = self.residual(b, x)
            ledger.transfer(snap, "resilience")
            return out
        checks = SpanChecks(self.vm.resilience)
        out = None
        try:
            out = run.residual(b.stack, checks)
        finally:
            if out is None:
                self._charge_matvec(self._vec_width(x),
                                    applied=checks.cut != "halo")
            else:
                self._charge_matvec(self._vec_width(x), phase="resilience",
                                    halo_phase="resilience")
        return BlockField.from_stack(self.decomp, out)

    # -- reductions ----------------------------------------------------
    @property
    def _dot_mask(self):
        return self.vm.mask

    def dot(self, a, b, phase="reduction"):
        return self.vm.global_dot(a, b, phase=phase)

    def dot_pair(self, a1, b1, a2, b2, phase="reduction"):
        return self.vm.global_dot_pair(a1, b1, a2, b2, phase=phase)

    def dot_block(self, xs, ys, phase="reduction"):
        return self.vm.global_dot_block(xs, ys, phase=phase)

    # -- elementwise ---------------------------------------------------
    def _update_chain(self, chain):
        """The stacks' interior rows (halo and pad cells stay out of the
        chain) in one call of the kernels; per-rank fields block by
        block, on the numpy reference."""
        if self._batched(*(v for step in chain for v in step[3:])):
            self.kernels.update_chain(
                [(kind, a, b, x.interior_stack(), y.interior_stack())
                 for kind, a, b, x, y in chain])
            return
        for rank in range(self.vm.num_ranks):
            _REFERENCE.update_chain(
                [(kind, a, b, x.interior(rank), y.interior(rank))
                 for kind, a, b, x, y in chain])

    def scale(self, factor, v, phase="computation"):
        if self._batched(v):
            vi = v.interior_stack()
            # A batch and its per-column factors in the folded row
            # layout (:func:`~repro.core.fields.fold_update`).
            (factor,), (vi,) = (((factor,), (vi,)) if v.nrhs is None
                                else fold_update((factor,), (vi,)))
            vi *= factor
        else:
            for rank in range(self.vm.num_ranks):
                v.interior(rank)[...] *= factor
        self.ledger.record_flops(phase, self._vec_width(v) * self._critical)
        return v

    # -- topology ------------------------------------------------------
    @property
    def num_ranks(self):
        return self.vm.num_ranks

    @property
    def critical_points(self):
        return self._critical
