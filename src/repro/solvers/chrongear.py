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

The iterations up to the next convergence check (or due checkpoint, or
the budget's end) are one
:meth:`~repro.solvers.context.SolverContext.chrongear_span` call -- the
span kind ``chrongear`` of :data:`~repro.solvers.context.SPANS` -- the
coefficients still formed here between the iterations.  No iteration
can run ahead of its predecessor's reduction, but on a serial context
with a diagonal ``M`` each one is a single ``native.c`` pass over memory
that runs iteration ``k``'s four recurrences together with iteration
``k + 1``'s preconditioner multiply, stencil sweep and both dots, and
with the block EVP ``M`` -- serially or on the batched engine's stacks
-- two ``native.c`` calls around the ring matmul (the recurrences with
the next EVP head, then its tail, the sweep of ``r'`` and both dots),
recording the same per-iteration events; every other configuration
makes the primitive calls (see the guarded loop's span rule in
:mod:`repro.solvers.base`).
"""

import math

from repro.core.errors import BreakdownError
from repro.solvers.base import IterativeSolver, ieee_div, per_column


class ChronGearSolver(IterativeSolver):
    """Preconditioned CG with fused reductions (POP's default)."""

    name = "chrongear"
    _SPAN = ("chrongear", "x", "r", "s", "p")

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
        self._iterate_span(state, k, 1)

    def _iterate_span(self, state, first, n):
        """Iterations ``first .. first + n - 1`` as one context call:
        steps 4-9 (``r' = M^-1 r``, ``z = B r'`` and its halo update,
        the fused reduction of ``rho`` and ``delta``) and 13-16 (the
        four vector recurrences) run there, steps 10-12 here, one
        column at a time.  A breakdown names its own iteration."""
        iterations = iter(range(first, first + n))

        def coefficients(rho, delta):
            k = next(iterations)
            try:
                steps = per_column(_coefficients, rho, delta,
                                   state["rho"], state["sigma"])
            except BreakdownError as exc:
                exc.iteration = k
                raise
            if steps is None:
                # Every column is exactly solved (zero RHS or an exact
                # initial guess): leave the state untouched so the next
                # convergence check reports success.
                return None
            alpha, beta, state["rho"], state["sigma"] = steps
            return alpha, beta

        self.context.chrongear_span(state["x"], state["r"], state["s"],
                                    state["p"], n, coefficients, first)


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
