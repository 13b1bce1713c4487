"""The Chronopoulos-Gear solver (paper Algorithm 1).

ChronGear (D'Azevedo, Eijkhout & Romine 1999) is a rearranged
preconditioned conjugate gradient that fuses the two inner products of
classical PCG -- ``rho = r^T r'`` and ``delta = z^T r'`` -- into a
*single* ``MPI_Allreduce`` per iteration, at the cost of one extra
vector recurrence.  It is the CESM POP default solver this paper
improves upon.

Per-iteration event profile (the paper's Eq. 2, diagonal M):

* computation: 15 n^2 flop units
  (9 matvec + 4 vector updates + 2 inner-product multiplies),
* preconditioning: ``M``'s cost (1 n^2 diagonal, ~14 n^2 simplified EVP),
* boundary: one halo update,
* reduction: one fused all-reduce + 2 n^2 masking flops
  (+ one extra reduction at each convergence check).
"""

import math

import numpy as np

from repro.core.errors import BreakdownError
from repro.solvers.base import IterativeSolver


class ChronGearSolver(IterativeSolver):
    """Preconditioned CG with fused reductions (POP's default)."""

    name = "chrongear"

    def _setup(self, b, x):
        ctx = self.context
        # r0 = b - B x0 (one matvec; skipped cheaply for the common
        # x0 = 0 case would change the event stream, so always compute).
        r = ctx.residual(b, x, phase="setup")
        s = ctx.new_vector()
        p = ctx.new_vector()
        return {
            "x": x, "r": r, "s": s, "p": p,
            "rho": 1.0, "sigma": 0.0,
            "b": b,
        }

    def _iterate(self, state, k):
        ctx = self.context
        # step 4: r' = M^-1 r_{k-1}
        r_prime = ctx.precond(state["r"])
        # step 5-6: z = B r' followed by the halo update
        z = ctx.matvec(r_prime)
        # steps 7-9: fused global reduction for rho and delta
        rho, delta = ctx.dot_pair(state["r"], r_prime, z, r_prime)
        if isinstance(rho, np.ndarray):
            return self._iterate_multi(state, rho, delta, r_prime, z)
        if not (math.isfinite(rho) and math.isfinite(delta)):
            raise BreakdownError(
                f"ChronGear breakdown: non-finite reduction "
                f"(rho={rho}, delta={delta}) -- iterate is poisoned"
            )
        if rho == 0.0 and delta == 0.0:
            # Exact zero residual (zero RHS or an exact initial guess):
            # the system is already solved; leave the state untouched so
            # the next convergence check reports success.
            return
        # steps 10-12: scalar recurrences
        rho_old = state["rho"]
        if rho_old == 0.0:
            raise BreakdownError(
                "ChronGear breakdown: rho vanished (operator or "
                "preconditioner is not SPD on the ocean subspace)"
            )
        beta = rho / rho_old
        sigma = delta - beta * beta * state["sigma"]
        if sigma == 0.0:
            raise BreakdownError("ChronGear breakdown: sigma vanished")
        alpha = rho / sigma
        # steps 13-16: the four vector recurrences
        self._recurrences(state, r_prime, z, alpha, beta)
        state["rho"] = rho
        state["sigma"] = sigma

    def _recurrences(self, state, r_prime, z, alpha, beta):
        """Algorithm 1 steps 13-16 as one run of updates (4 n^2)."""
        self.context.updates(
            ("xpay", r_prime, beta, state["s"]),       # s = r' + beta s
            ("xpay", z, beta, state["p"]),             # p = z + beta p
            ("axpy", alpha, state["s"], state["x"]),   # x += alpha s
            ("axpy", -alpha, state["p"], state["r"]),  # r -= alpha p
        )

    def _iterate_multi(self, state, rho, delta, r_prime, z):
        """Batched scalar recurrences: one ``(nrhs,)`` entry per column.

        Each active column runs the exact scalar arithmetic (``beta =
        rho / rho_old`` etc. are elementwise), so its iterates stay
        bit-identical to a standalone solve.  Column-local anomalies are
        handled per column:

        * an exact zero residual (``rho = delta = 0``) freezes that
          column's ``x``/``r``/``rho``/``sigma`` via zero coefficients,
          so the next convergence check reports it converged;
        * a non-finite reduction poisons only its own column (all vector
          updates are column-independent), which the next check diagnoses
          as a per-column non-finite residual.

        Only batch-wide SPD violations (``rho_old`` or ``sigma``
        vanishing on a live column) raise :class:`BreakdownError`, the
        same verdict the scalar path gives.
        """
        noop = (rho == 0.0) & (delta == 0.0)
        if bool(noop.all()):
            # Every active column is exactly solved; leave the state
            # untouched so the next convergence check reports success.
            return
        rho_old = np.asarray(state["rho"], dtype=np.float64)
        sigma_old = np.asarray(state["sigma"], dtype=np.float64)
        if bool(np.any((rho_old == 0.0) & ~noop & np.isfinite(rho))):
            raise BreakdownError(
                "ChronGear breakdown: rho vanished (operator or "
                "preconditioner is not SPD on the ocean subspace)"
            )
        beta = np.where(noop, 0.0, rho / np.where(noop, 1.0, rho_old))
        sigma = delta - beta * beta * sigma_old
        if bool(np.any((sigma == 0.0) & ~noop & np.isfinite(sigma))):
            raise BreakdownError("ChronGear breakdown: sigma vanished")
        alpha = np.where(noop, 0.0, rho / np.where(noop, 1.0, sigma))
        self._recurrences(state, r_prime, z, alpha, beta)
        state["rho"] = np.where(noop, rho_old, rho)
        state["sigma"] = np.where(noop, sigma_old, sigma)
