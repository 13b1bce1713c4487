"""P-CSI: the Preconditioned Classical Stiefel Iteration (paper Alg. 2).

A Chebyshev-type iteration over the spectral interval ``[nu, mu]`` of
``M^-1 A``: iteration coefficients come from the Chebyshev three-term
recurrence (Stiefel 1958; revisited by Gutknecht & Roellin 2002), so --
unlike any CG variant -- **no inner products are needed inside the
loop**.  The only global reductions left are the periodic convergence
checks.  That is the paper's central scalability lever: per-iteration
cost has no ``log p`` term (Eq. 3 vs Eq. 2).

Per-iteration event profile (diagonal M):

* computation: 12 n^2 flop units (9 matvec-with-residual + 2 dx update
  + 1 x update),
* preconditioning: ``M``'s cost,
* boundary: one halo update,
* reduction: only at convergence checks (every ``check_freq``
  iterations).

Because no iteration between two checks needs a global value, the
iterations up to the next check (or due checkpoint, or the budget) are
one :meth:`~repro.solvers.context.SolverContext.chebyshev_span` call,
recording the same per-iteration events however it runs: on a serial
context with a diagonal ``M`` the kernels run them as one wavefront
over memory; with the block EVP ``M`` -- serial, or on the batched
engine's stacked fields without a resilience runtime or fault injector
-- as one kernel call per iteration, the ring correction's matmul
between the calls; every other context runs them one call at a time
(see the guarded loop's span rule in :mod:`repro.solvers.base`).

Trade-off: P-CSI needs somewhat more iterations than ChronGear for the
same tolerance (Chebyshev is optimal for the *interval*, CG adapts to
the discrete spectrum), so it loses at small core counts and wins big at
large ones -- reproduced by experiments E7/E9/E12.

Eigenvalue bounds, their Lanczos estimation and caching, and the
divergence recovery policy (widen the interval, re-estimate, retry,
optionally fall back to ChronGear) are shared with the s-step CA-PCG
solver through :class:`~repro.solvers.spectral.SpectralBoundedSolver`
-- see that module's docstring for the failure-mode discussion.
"""

from repro.solvers.spectral import SpectralBoundedSolver


class PCSISolver(SpectralBoundedSolver):
    """Preconditioned Classical Stiefel Iteration.

    See :class:`~repro.solvers.spectral.SpectralBoundedSolver` for the
    eigenbound, recovery and checkpoint parameters.
    """

    name = "pcsi"

    # ------------------------------------------------------------------
    def _setup(self, b, x):
        ctx = self.context
        nu, mu = self._ensure_bounds()

        alpha = 2.0 / (mu - nu)
        beta = (mu + nu) / (mu - nu)
        gamma = beta / alpha
        omega0 = 2.0 / gamma

        # r0 = b - B x0 ; dx0 = gamma^-1 M^-1 r0 ; x1 = x0 + dx0 ;
        # r1 = b - B x1
        r = ctx.residual(b, x, phase="setup")
        dx = ctx.precond(r, phase="setup")
        ctx.scale(1.0 / gamma, dx, phase="setup")
        ctx.axpy(1.0, dx, x, phase="setup")
        r = ctx.residual(b, x, phase="setup")

        extra = {"nu": nu, "mu": mu}
        if self._lanczos_info is not None:
            extra["lanczos_steps"] = self._lanczos_info["steps"]
        return {
            "x": x, "r": r, "dx": dx, "b": b,
            "alpha": alpha, "gamma": gamma, "omega": omega0,
            "extra": extra,
        }

    def _span(self, state, k, checkpoint):
        """Up to the next boundary when the context runs the span in
        kernel calls (serial with a diagonal ``M``, or the block EVP
        ``M`` serially or on stacks), else one."""
        if not self.context.spans_chebyshev(
                state["b"], state["r"], state["dx"], state["x"]):
            return 1
        return self._until_boundary(k, checkpoint)

    def _iterate(self, state, k):
        self._iterate_span(state, k, 1)

    def _iterate_span(self, state, first, n):
        """Iterations ``first .. first + n - 1``: the weights are
        computed here one by one, exactly as a single iteration
        computes its own, and the context runs the span (one call; the
        same per-iteration ledger events however it runs it)."""
        alpha = state["alpha"]
        gamma = state["gamma"]
        omega = state["omega"]
        weights = []
        for _ in range(n):
            # step 5: the iterated Chebyshev weight
            omega = 1.0 / (gamma - omega / (4.0 * alpha * alpha))
            weights.append((omega, gamma * omega - 1.0))
        # steps 6-10: r' = M^-1 r (block-local, no communication);
        # dx = omega r' + (gamma omega - 1) dx; x += dx; the residual
        # recompute (matvec) + halo update
        state["r"] = self.context.chebyshev_span(
            state["b"], state["r"], state["dx"], state["x"], weights)
        state["omega"] = omega
