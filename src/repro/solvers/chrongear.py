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

Steps 10-12 are scalar arithmetic on one column (:func:`_coefficients`)
run over every column (:func:`~repro.solvers.base.per_column`).
"""

import math

from repro.core.errors import BreakdownError
from repro.solvers.base import IterativeSolver, ieee_div, per_column


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
        # steps 10-12: the scalar recurrences, one column at a time
        steps = per_column(_coefficients, rho, delta,
                           state["rho"], state["sigma"])
        if steps is None:
            # Every column is exactly solved (zero RHS or an exact
            # initial guess): leave the state untouched so the next
            # convergence check reports success.
            return
        alpha, beta, state["rho"], state["sigma"] = steps
        # steps 13-16: the four vector recurrences, one run of updates
        ctx.updates(
            ("xpay", r_prime, beta, state["s"]),       # s = r' + beta s
            ("xpay", z, beta, state["p"]),             # p = z + beta p
            ("axpy", alpha, state["s"], state["x"]),   # x += alpha s
            ("axpy", -alpha, state["p"], state["r"]),  # r -= alpha p
        )


def _coefficients(rho, delta, rho_old, sigma_old):
    """Algorithm 1 steps 10-12 for one column.

    Returns ``(live, alpha, beta, rho, sigma)`` (see
    :func:`~repro.solvers.base.per_column`).  An exactly solved column
    (``rho = delta = 0``) is frozen: zero coefficients, state kept.  A
    non-finite reduction flows through into its coefficients and
    poisons only this column; a vanished ``rho_old`` or ``sigma`` on a
    live, finite column is an SPD violation.
    """
    if rho == 0.0 and delta == 0.0:
        return False, 0.0, 0.0, rho_old, sigma_old
    if rho_old == 0.0 and math.isfinite(rho):
        raise BreakdownError(
            "ChronGear breakdown: rho vanished (operator or "
            "preconditioner is not SPD on the ocean subspace)"
        )
    beta = ieee_div(rho, rho_old)
    sigma = delta - beta * beta * sigma_old
    if sigma == 0.0:
        raise BreakdownError("ChronGear breakdown: sigma vanished")
    return True, rho / sigma, beta, rho, sigma
