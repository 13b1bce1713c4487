"""Textbook preconditioned conjugate gradients.

The pre-ChronGear baseline: mathematically the same Krylov iteration as
ChronGear but with *two* separate global reductions per iteration
(``r^T z`` and ``p^T q``).  Kept so experiments can show the lineage
diagonal-PCG -> ChronGear (halve the reductions) -> P-CSI (eliminate
them).
"""

import math

import numpy as np

from repro.core.errors import BreakdownError
from repro.solvers.base import IterativeSolver


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
        if isinstance(pq, np.ndarray):
            return self._iterate_multi(state, pq, p, q)
        if not math.isfinite(pq):
            raise BreakdownError(
                f"PCG breakdown: p^T A p is {pq} -- iterate is poisoned")
        if pq == 0.0:
            if state["rho"] == 0.0:
                # Exact zero residual: already solved; no-op iteration.
                return
            raise BreakdownError("PCG breakdown: p^T A p vanished")
        alpha = state["rho"] / pq
        ctx.updates(("axpy", alpha, p, state["x"]),
                    ("axpy", -alpha, q, state["r"]))
        z = ctx.precond(state["r"])
        rho_new = ctx.dot(state["r"], z)        # reduction #2
        if not math.isfinite(rho_new):
            raise BreakdownError(
                f"PCG breakdown: r^T z is {rho_new} -- iterate is poisoned")
        if state["rho"] == 0.0:
            raise BreakdownError("PCG breakdown: rho vanished")
        beta = rho_new / state["rho"]
        ctx.xpay(z, beta, p)                    # p = z + beta p
        state["rho"] = rho_new

    def _iterate_multi(self, state, pq, p, q):
        """Batched recurrences, one ``(nrhs,)`` entry per column.

        Live columns run the exact scalar arithmetic elementwise (bit-
        identical to standalone solves); an exactly solved column
        (``pq = rho = 0``) freezes itself through zero coefficients, and
        a non-finite reduction poisons only its own column, which the
        next convergence check diagnoses.  A vanished ``p^T A p`` or
        ``rho`` on a live column is an SPD violation and raises the same
        :class:`BreakdownError` the scalar path would.
        """
        ctx = self.context
        rho = np.asarray(state["rho"], dtype=np.float64)
        noop = (pq == 0.0) & (rho == 0.0)
        if bool(noop.all()):
            return
        if bool(np.any((pq == 0.0) & ~noop & np.isfinite(pq))):
            raise BreakdownError("PCG breakdown: p^T A p vanished")
        alpha = np.where(noop, 0.0, rho / np.where(noop, 1.0, pq))
        ctx.updates(("axpy", alpha, p, state["x"]),
                    ("axpy", -alpha, q, state["r"]))
        z = ctx.precond(state["r"])
        rho_new = ctx.dot(state["r"], z)        # reduction #2
        if bool(np.any((rho == 0.0) & ~noop & np.isfinite(rho_new))):
            raise BreakdownError("PCG breakdown: rho vanished")
        beta = np.where(noop, 0.0, rho_new / np.where(noop, 1.0, rho))
        ctx.xpay(z, beta, p)                    # p = z + beta p
        state["rho"] = np.where(noop, rho, rho_new)
