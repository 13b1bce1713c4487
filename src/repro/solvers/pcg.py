"""Textbook preconditioned conjugate gradients.

The pre-ChronGear baseline: mathematically the same Krylov iteration as
ChronGear but with *two* separate global reductions per iteration
(``r^T z`` and ``p^T q``).  Kept so experiments can show the lineage
diagonal-PCG -> ChronGear (halve the reductions) -> P-CSI (eliminate
them).

``alpha`` and ``beta`` are scalar arithmetic on one column run over
every column (:func:`~repro.solvers.base.per_column`).
"""

import math

from repro.core.errors import BreakdownError
from repro.solvers.base import IterativeSolver, ieee_div, per_column


class PCGSolver(IterativeSolver):
    """Classic PCG: two reductions per iteration."""

    name = "pcg"

    def _setup(self, b, x):
        ctx = self.context
        r = ctx.residual(b, x, phase="setup")
        z = ctx.precond(r, phase="setup")
        p = ctx.copy(z)
        rho = ctx.dot(r, z, phase="setup")
        return {"x": x, "r": r, "p": p, "rho": rho, "b": b}

    def _iterate(self, state, k):
        ctx = self.context
        p = state["p"]
        q = ctx.matvec(p)
        pq = ctx.dot(p, q)                      # reduction #1
        steps = per_column(_alpha, pq, state["rho"], coefficients=1)
        if steps is None:
            return  # every column exactly solved: no-op iteration
        alpha, = steps
        ctx.updates(("axpy", alpha, p, state["x"]),
                    ("axpy", -alpha, q, state["r"]))
        z = ctx.precond(state["r"])
        rho_new = ctx.dot(state["r"], z)        # reduction #2
        beta, state["rho"] = per_column(_beta, pq, state["rho"], rho_new,
                                        coefficients=1)
        ctx.xpay(z, beta, p)                    # p = z + beta p


# One column's coefficient steps, ``(live, *outputs)`` (see
# :func:`~repro.solvers.base.per_column`).  An exactly solved column
# (``pq = rho = 0``) is frozen through zero coefficients; a non-finite
# reduction poisons only its own column; a vanished ``p^T A p`` or
# ``rho`` on a live, finite column is an SPD violation.
def _alpha(pq, rho):
    if pq == 0.0:
        if rho == 0.0:
            return False, 0.0
        raise BreakdownError("PCG breakdown: p^T A p vanished")
    return True, rho / pq


def _beta(pq, rho, rho_new):
    if pq == 0.0 and rho == 0.0:
        return False, 0.0, rho
    if rho == 0.0 and math.isfinite(rho_new):
        raise BreakdownError("PCG breakdown: rho vanished")
    return True, ieee_div(rho_new, rho), rho_new
