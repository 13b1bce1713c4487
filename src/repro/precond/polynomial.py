"""Reduction-free polynomial preconditioners (Chebyshev families).

The paper's P-CSI wins by trading global reductions for extra local
work; the same trade applies one level down, at the preconditioner.  A
polynomial preconditioner approximates ``M^-1 ~ q(C) D^-1`` where ``C =
D^-1 A_b`` is the diagonally scaled operator restricted to each rank's
block *with zero-Dirichlet halos*, and ``q`` is a fixed low-degree
polynomial built from the spectral interval ``[nu, mu]``.  Applying it
costs a handful of block-local stencil sweeps -- **zero reductions and
zero halo exchanges per apply** -- so it composes with every solver in
the registry without changing any communication budget, and it runs on
every kernel backend through the same ``stencil_apply_local`` /
``stencil_apply_stacked`` entry points the blocked operator uses.

Two families are provided:

:class:`ChebyshevPreconditioner` (``"cheby"``)
    The classic Chebyshev semi-iteration of ``degree`` steps.  Its
    residual polynomial is the scaled-and-shifted Chebyshev polynomial
    on ``[nu, mu]``, so ``t * q(t)`` stays inside ``(0, 2)`` on the
    covered spectrum and ``M^-1`` is symmetric positive definite.

:class:`NewtonChebyshevPreconditioner` (``"ncheby"``)
    ``steps`` Newton refinement sweeps ``Z <- Z (2 I - C Z)`` seeded
    with the Chebyshev polynomial (Bergamaschi & Martinez) -- the error
    polynomial squares each sweep, so ``t * q(t)`` lands in ``(0, 1)``:
    SPD with rapidly improving clustering, at ``(degree + 1) * 2^steps
    - 1`` block-local matvecs per apply.

Eigenbound reuse
----------------
The interval comes from the *same* Lanczos machinery (and artifact-
cache entries) that :class:`~repro.solvers.spectral.SpectralBoundedSolver`
uses: a private serial context with an inner diagonal preconditioner,
pinned to the ``numpy`` kernel backend so the resulting polynomial
coefficients -- and hence the operator ``M`` -- are identical whatever
backend later applies it.  Each block operator is a principal submatrix
of the global symmetrized operator, so by Cauchy interlacing every
block spectrum lies inside the global ``[lambda_min, lambda_max]``; the
widened global bounds therefore cover all blocks at once and no
per-block estimation (or any communication) is needed.
"""

import threading

import numpy as np

from repro.core.errors import SolverError
from repro.precond.base import Preconditioner

#: Stencil coefficient attributes, center first (mirrors the blocked
#: operator's ordering so the kernel entry points see the same layout).
_COEFF_ORDER = ("c", "n", "s", "e", "w", "ne", "nw", "se", "sw")

#: Flop units per grid point of one block-local preconditioned matvec
#: (9-point stencil + the diagonal scaling) plus the Chebyshev
#: recurrence updates (residual downdate, two d-updates, z-accumulate).
_CHEBY_STEP_FLOPS = 15

#: Newton sweep overhead per point: ``w = C u`` (10) + ``2 u - t`` (2).
_NEWTON_SWEEP_FLOPS = 12


def polynomial_point_flops(degree, steps=0):
    """Flop units per grid point of one polynomial apply.

    ``steps = 0`` is the plain Chebyshev preconditioner; each Newton
    sweep applies the previous polynomial twice plus one preconditioned
    matvec and a 2-term combine.  The trailing ``+ 1`` is the initial
    diagonal scaling ``rt = D^-1 r``.
    """
    flops = 1 + _CHEBY_STEP_FLOPS * int(degree)
    for _ in range(int(steps)):
        flops = 2 * flops + _NEWTON_SWEEP_FLOPS
    return flops + 1


class _BlockCoeffs:
    """Stencil coefficients sliced to one block (view, no copy)."""

    __slots__ = _COEFF_ORDER

    def __init__(self, coeffs, block):
        for name in _COEFF_ORDER:
            full = getattr(coeffs, name)
            setattr(self, name,
                    full if block is None else full[block.slices])


class ChebyshevPreconditioner(Preconditioner):
    """Chebyshev polynomial preconditioner of fixed ``degree``.

    Parameters (beyond :class:`Preconditioner`'s)
    ----------
    degree:
        Number of block-local preconditioned matvecs per apply (the
        polynomial degree).  Must be >= 1.
    eig_bounds:
        Optional explicit ``(nu, mu)`` spectral interval of the
        diagonally preconditioned operator.  When omitted, a Lanczos
        estimation runs lazily at first apply and is memoized through
        the artifact cache (shared with the P-CSI/CA-PCG entries for
        the same stencil and inner preconditioner).
    inner:
        Inner scaling: ``"diagonal"`` (default, ``C = D^-1 A_b``) or
        ``"identity"`` (``C = A_b``; the interval then bounds ``A``
        itself).
    bounds_cache:
        Optional :class:`~repro.core.cache.ArtifactCache` for the
        Lanczos memoization; ``None`` uses the process-global cache.
    lanczos_tol, lanczos_steps, lanczos_seed, nu_safety, mu_safety:
        Lanczos stopping control and interval widening, exactly as in
        :class:`~repro.solvers.spectral.SpectralBoundedSolver`.
    """

    name = "cheby"

    def __init__(self, stencil, decomp=None, kernels=None, degree=4,
                 eig_bounds=None, inner="diagonal", bounds_cache=None,
                 lanczos_tol=0.15, lanczos_steps=None, lanczos_seed=0,
                 nu_safety=0.5, mu_safety=1.05):
        super().__init__(stencil, decomp=decomp, kernels=kernels)
        if int(degree) < 1:
            raise SolverError(
                f"polynomial degree must be >= 1, got {degree}")
        if inner not in ("diagonal", "identity"):
            raise SolverError(
                f"unknown inner scaling {inner!r}; expected 'diagonal' "
                f"or 'identity'")
        self.degree = int(degree)
        self.inner = inner
        self.bounds_cache = bounds_cache
        self.lanczos_tol = lanczos_tol
        self.lanczos_steps = lanczos_steps
        self.lanczos_seed = lanczos_seed
        self.nu_safety = nu_safety
        self.mu_safety = mu_safety
        if eig_bounds is not None:
            nu, mu = float(eig_bounds[0]), float(eig_bounds[1])
            if not (0.0 < nu < mu):
                raise SolverError(
                    f"need 0 < nu < mu for the polynomial interval, "
                    f"got [{nu}, {mu}]")
            self._bounds = (nu, mu)
        else:
            self._bounds = None
        self._user_bounds = eig_bounds is not None
        self._lanczos_info = None
        if inner == "diagonal":
            diag = self.stencil.c
            if np.any(diag[self.mask] <= 0.0):
                raise SolverError(
                    "polynomial preconditioning needs positive diagonal "
                    "entries on every ocean point"
                )
            safe = np.where(diag > 0.0, diag, 1.0)
            self._inv = np.where(self.mask, 1.0 / safe, 0.0)
        else:
            self._inv = np.where(self.mask, 1.0, 0.0)
        self._block_coeffs = None
        self._stacked_coeffs_cache = None
        self._inv_stack = None
        self._per_thread = threading.local()

    # ------------------------------------------------------------------
    # eigenbounds (lazy, memoized, backend-independent)
    # ------------------------------------------------------------------
    @property
    def eig_bounds(self):
        """The interval in use (``None`` before the first apply)."""
        return self._bounds

    def ensure_bounds(self):
        """Resolve ``(nu, mu)``, running the cached Lanczos if needed.

        The estimation context is pinned to the ``numpy`` kernel
        backend and carries a private event ledger: bounds (and hence
        polynomial coefficients) are identical for every backend, and
        the estimation never charges events to a solver's ledger.  The
        cache key matches the one the spectrally bounded solvers use
        for the same (stencil, inner preconditioner) pair, so a P-CSI
        run and this preconditioner share one Lanczos artifact.
        """
        if self._bounds is not None:
            return self._bounds
        # Imported lazily: precond -> solvers would otherwise be a
        # package-level import cycle.
        from repro.core.cache import get_cache
        from repro.precond.diagonal import DiagonalPreconditioner
        from repro.precond.identity import IdentityPreconditioner
        from repro.solvers.context import SerialContext
        from repro.solvers.lanczos import estimate_eigenbounds

        if self.inner == "diagonal":
            inner = DiagonalPreconditioner(self.stencil, kernels="numpy")
        else:
            inner = IdentityPreconditioner(self.stencil, kernels="numpy")
        ctx = SerialContext(self.stencil, inner, kernels="numpy")
        cache = (self.bounds_cache if self.bounds_cache is not None
                 else get_cache())
        nu, mu, info = estimate_eigenbounds(
            ctx, tol=self.lanczos_tol, steps=self.lanczos_steps,
            seed=self.lanczos_seed, nu_safety=self.nu_safety,
            mu_safety=self.mu_safety, phase="setup", cache=cache,
        )
        if not (0.0 < nu < mu):
            raise SolverError(
                f"Lanczos produced an unusable polynomial interval "
                f"[{nu}, {mu}]")
        self._bounds = (float(nu), float(mu))
        self._lanczos_info = info
        return self._bounds

    # ------------------------------------------------------------------
    # checkpoint hooks: resolved bounds travel with the snapshot so a
    # resumed solve never re-estimates (bit-identical continuation).
    # ------------------------------------------------------------------
    def snapshot_meta(self):
        return {
            "name": self.name,
            "degree": self.degree,
            "bounds": (list(self._bounds) if self._bounds is not None
                       else None),
        }

    def restore_meta(self, meta):
        bounds = meta.get("bounds")
        if bounds is not None:
            self._bounds = (float(bounds[0]), float(bounds[1]))

    # ------------------------------------------------------------------
    # block machinery
    # ------------------------------------------------------------------
    def _local(self, rank):
        if self._block_coeffs is None:
            if self.decomp is None:
                self._block_coeffs = [_BlockCoeffs(self.stencil, None)]
            else:
                self._block_coeffs = [
                    _BlockCoeffs(self.stencil, block)
                    for block in self.decomp.active_blocks
                ]
        return self._block_coeffs[rank]

    def _inv_block(self, rank):
        block = self._rank_block(rank)
        return self._inv if block is None else self._inv[block.slices]

    @property
    def _scratch(self):
        """This thread's scratch (:meth:`_padded`, :meth:`_buffers`):
        solves on other threads share the instance, not these."""
        scratch = getattr(self._per_thread, "scratch", None)
        if scratch is None:
            scratch = self._per_thread.scratch = {}
        return scratch

    def _padded(self, key, shape, dtype):
        """Zero-bordered scratch of ``shape + 2`` in the space axes.

        The border is written once at allocation and never touched
        again (only the interior is assigned), which is exactly the
        zero-Dirichlet halo of the block-local operator.
        """
        ckey = (key, shape, np.dtype(dtype).str)
        pad = self._scratch.get(ckey)
        if pad is None:
            pad = np.zeros(shape, dtype=dtype)
            self._scratch[ckey] = pad
        return pad

    # ------------------------------------------------------------------
    # the polynomial core (one code path for every layout, so serial,
    # per-rank and batched applications are bit-identical)
    # ------------------------------------------------------------------
    def _buffers(self, key, like, count):
        """``count`` work vectors shaped like ``like`` under ``key``,
        kept between applies (one shape at a time: a batch only narrows
        within a solve)."""
        held = self._scratch.get(key)
        if held is None or held.shape[1:] != like.shape \
                or held.dtype != like.dtype:
            held = self._scratch[key] = np.empty((count,) + like.shape,
                                                 dtype=like.dtype)
        return held

    def _chebyshev(self, rt, matvec, out, degree):
        """``out = q_degree(C) rt`` via the Chebyshev semi-iteration."""
        nu, mu = self._bounds
        theta = 0.5 * (mu + nu)
        delta = 0.5 * (mu - nu)
        sigma = theta / delta
        rho = 1.0 / sigma
        d, resid, scratch = self._buffers("chebyshev", rt, 3)
        np.multiply(rt, 1.0 / theta, out=d)
        out[...] = d
        resid[...] = rt
        for _ in range(degree):
            matvec(d, scratch)
            resid -= scratch
            rho_next = 1.0 / (2.0 * sigma - rho)
            d *= rho_next * rho
            np.multiply(resid, 2.0 * rho_next / delta, out=scratch)
            d += scratch
            rho = rho_next
            out += d
        return out

    def _polynomial(self, rt, matvec, out):
        return self._chebyshev(rt, matvec, out, self.degree)

    def _apply(self, r, inv, key, stencil, out):
        """``out = q(C) D^-1 r`` with ``C v = D^-1 (A v)``: ``inv`` is
        the layout's inverse diagonal (``key`` names it for
        :meth:`_times`), ``stencil(v, res)`` its block-local ``A v``."""
        self.ensure_bounds()

        def matvec(v, res):
            stencil(v, res)
            self._times(res, inv, res, key)

        return self._polynomial(self._times(r, inv, None, key), matvec, out)

    # ------------------------------------------------------------------
    # the three application layouts
    # ------------------------------------------------------------------
    def apply_block(self, rank, r_interior, out=None):
        if out is None:
            out = np.empty_like(r_interior)
        coeffs = self._local(rank)
        inv = self._inv_block(rank)
        ny, nx = r_interior.shape[0], r_interior.shape[1]
        pad_shape = (ny + 2, nx + 2) + r_interior.shape[2:]
        pad = self._padded(rank, pad_shape, r_interior.dtype)

        def stencil(v, res):
            pad[1:-1, 1:-1] = v
            self.kernels.stencil_apply_local(coeffs, pad, 1, res)

        return self._apply(r_interior, inv, rank, stencil, out)

    def apply_stack(self, r_stack, out=None):
        if self.decomp is None:
            return super().apply_stack(r_stack, out=out)
        if out is None:
            out = np.empty_like(r_stack)
        coeffs = self._stacked()
        if self._inv_stack is None:
            self._inv_stack = self.decomp.stack_interiors(self._inv)
        # ``inv`` is zero on pad cells, so the Chebyshev direction
        # vectors stay zero there and a ragged tile's edge rows read
        # the same zero-Dirichlet border the per-rank path pads with.
        inv = self._inv_stack
        bny, bnx = self.decomp.max_block_shape()
        pad_shape = (r_stack.shape[0], bny + 2, bnx + 2) + r_stack.shape[3:]
        pad = self._padded("stack", pad_shape, r_stack.dtype)

        def stencil(v, res):
            pad[:, 1:-1, 1:-1] = v
            self.kernels.stencil_apply_stacked(coeffs, pad, 1, bny, bnx,
                                               res)

        return self._apply(r_stack, inv, "stack", stencil, out)

    def apply_global(self, r, out=None):
        if out is None:
            out = np.empty_like(r)
        if self.decomp is None:
            def stencil(v, res):
                self.kernels.stencil_apply(self.stencil, v, res)

            return self._apply(r, self._inv, "global", stencil, out)
        # With a decomposition the operator is the *block-local* one --
        # the serial context must apply the identical M the distributed
        # engines apply, block by block.
        out[...] = 0.0
        for rank, block in enumerate(self.decomp.active_blocks):
            self.apply_block(rank, r[block.slices], out=out[block.slices])
        return out

    def _stacked(self):
        if self._stacked_coeffs_cache is None:
            self._stacked_coeffs_cache = {
                name: self.decomp.stack_interiors(getattr(self.stencil, name))
                for name in _COEFF_ORDER
            }
        return self._stacked_coeffs_cache

    # ------------------------------------------------------------------
    # accounting + caching
    # ------------------------------------------------------------------
    def _point_flops(self):
        return polynomial_point_flops(self.degree)

    def apply_flops(self, rank=None):
        per_point = self._point_flops()
        if rank is None or self.decomp is None:
            return per_point * self._max_block_points()
        return per_point * self.decomp.active_blocks[rank].npoints

    def setup_flops(self, rank=None):
        """Lanczos setup is memoized across solvers and processes by the
        artifact cache (the same entry P-CSI reads), so no per-instance
        setup cost is charged here."""
        return 0

    def cache_token(self):
        return (type(self).__name__, self.name, self.degree, self.inner,
                (tuple(self._bounds) if self._user_bounds else None),
                float(self.lanczos_tol),
                (None if self.lanczos_steps is None
                 else int(self.lanczos_steps)),
                self.lanczos_seed, float(self.nu_safety),
                float(self.mu_safety))


class NewtonChebyshevPreconditioner(ChebyshevPreconditioner):
    """Newton-refined Chebyshev preconditioner (Bergamaschi & Martinez).

    ``steps`` matrix-free Newton sweeps ``Z <- Z (2 I - C Z)`` on top of
    the degree-``degree`` Chebyshev seed.  Each sweep squares the error
    polynomial (``e <- e^2``), so after the first sweep ``t * q(t)`` is
    confined to ``(0, 1)`` on the covered spectrum: unconditionally SPD
    with quadratically improving clustering, at ``(degree + 1) *
    2^steps - 1`` block-local matvecs per apply.  Still zero reductions
    and zero halo exchanges.
    """

    name = "ncheby"

    def __init__(self, stencil, decomp=None, kernels=None, degree=2,
                 steps=1, **kwargs):
        super().__init__(stencil, decomp=decomp, kernels=kernels,
                         degree=degree, **kwargs)
        if int(steps) < 1:
            raise SolverError(
                f"Newton steps must be >= 1, got {steps}")
        self.steps = int(steps)

    def _polynomial(self, rt, matvec, out):
        (seed,) = self._buffers("newton", rt, 1)
        out[...] = self._newton(self.steps, rt, matvec, seed)
        return out

    def _newton(self, j, v, matvec, out):
        """``out = q_j(C) v`` with ``q_{j+1}(t) = q_j(t) (2 - t q_j(t))``;
        level ``j`` keeps two work vectors of its own (``v`` at level
        ``j - 1`` is one of them)."""
        if j == 0:
            return self._chebyshev(v, matvec, out, self.degree)
        u = self._newton(j - 1, v, matvec, out)
        w, t = self._buffers(("newton", j), v, 2)
        matvec(u, w)
        self._newton(j - 1, w, matvec, t)
        u *= 2.0
        u -= t
        return u

    def _point_flops(self):
        return polynomial_point_flops(self.degree, self.steps)

    def snapshot_meta(self):
        meta = super().snapshot_meta()
        meta["steps"] = self.steps
        return meta

    def cache_token(self):
        return super().cache_token() + (self.steps,)
