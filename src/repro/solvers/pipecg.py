"""Pipelined conjugate gradients (Ghysels & Vanroose 2014).

The paper's related-work section discusses this alternative route to
hiding reduction latency: instead of *removing* the inner products (the
P-CSI approach), pipelined CG rearranges the recurrences so the single
fused all-reduce can **overlap** the matrix-vector product of the same
iteration.  The algorithm keeps CG's convergence behavior (modulo a
mild extra round-off sensitivity from the longer recurrences) while the
reduction latency only costs ``max(T_matvec+halo, T_allreduce)`` per
iteration instead of their sum.

Implemented here as an extension beyond the paper's own solvers so the
three strategies can be compared within one framework:

* ChronGear -- fuse the reductions (one blocking all-reduce/iter),
* PipeCG    -- overlap the reduction (one non-blocking all-reduce/iter),
* P-CSI     -- eliminate the reductions.

Event accounting: the overlapped reduction is recorded with the
dedicated phase ``"reduction_overlap"`` so the machine-model pricing can
apply the overlap discount (see
:func:`repro.perfmodel.timing.phase_times_overlapped`).

Algorithm (Ghysels & Vanroose 2014, preconditioned variant)::

    r0 = b - A x0; u0 = M^-1 r0; w0 = A u0
    loop:
      gamma = (r, u); delta = (w, u)       } one fused reduction, can
      m = M^-1 w; n = A m                  } overlap with these applies
      beta = gamma / gamma_old (0 first); alpha = gamma/(delta - beta*gamma/alpha_old)
      z <- n + beta z;  q <- m + beta q;  p <- u + beta p;  s <- w + beta s
      x <- x + alpha p; r <- r - alpha s; u <- u - alpha q; w <- w - alpha z

Per-iteration cost: one matvec, one preconditioner apply, 8 vector
updates, 2 fused inner products -- more flops than ChronGear (the price
of the overlap), fewer synchronization stalls.
"""

import math

import numpy as np

from repro.core.errors import BreakdownError, SolverError
from repro.solvers.base import IterativeSolver


class PipeCGSolver(IterativeSolver):
    """Preconditioned pipelined CG (reduction overlaps the matvec).

    The longer recurrences make the auxiliary vectors drift from their
    definitions in finite precision -- noticeably so with block
    preconditioners whose application carries its own round-off (EVP
    marching) -- so the solver performs the standard *residual
    replacement* (recompute ``r``, ``u``, ``w`` from their definitions)
    every ``replace_freq`` iterations (default 10, matching the
    convergence-check cadence; ~10% extra work).  Each replacement costs
    one extra matvec + preconditioner apply and is recorded in the event
    stream.
    """

    name = "pipecg"

    def __init__(self, context, replace_freq=10, **kwargs):
        super().__init__(context, **kwargs)
        if replace_freq < 1:
            raise SolverError(f"replace_freq must be >= 1, got {replace_freq}")
        self.replace_freq = int(replace_freq)

    def _setup(self, b, x):
        ctx = self.context
        r = ctx.residual(b, x, phase="setup")
        u = ctx.precond(r, phase="setup")
        w = ctx.matvec(u, phase="setup")
        return {
            "x": x, "r": r, "u": u, "w": w,
            "z": ctx.new_vector(), "q": ctx.new_vector(),
            "p": ctx.new_vector(), "s": ctx.new_vector(),
            "gamma": None, "alpha": None,
            "b": b,
        }

    def _iterate(self, state, k):
        ctx = self.context
        r, u, w = state["r"], state["u"], state["w"]

        # The fused reduction; in the real implementation it is issued
        # non-blocking and completed after the preconditioner+matvec
        # below -- recorded under the overlapped phase.
        gamma, delta = ctx.dot_pair(r, u, w, u, phase="reduction_overlap")

        # Work the reduction hides behind:
        m = ctx.precond(w)
        n = ctx.matvec(m)

        if isinstance(gamma, np.ndarray):
            return self._iterate_multi(state, k, gamma, delta, m, n)

        if not (math.isfinite(gamma) and math.isfinite(delta)):
            raise BreakdownError(
                f"PipeCG breakdown: non-finite reduction "
                f"(gamma={gamma}, delta={delta}) -- iterate is poisoned")
        if gamma == 0.0 and delta == 0.0:
            return  # exact zero residual; already solved
        if state["gamma"] is None:
            beta = 0.0
            alpha = gamma / delta
        else:
            if state["gamma"] == 0.0:
                raise BreakdownError("PipeCG breakdown: gamma vanished")
            beta = gamma / state["gamma"]
            denom = delta - beta * gamma / state["alpha"]
            if denom == 0.0:
                raise BreakdownError(
                    "PipeCG breakdown: denominator vanished")
            alpha = gamma / denom

        self._recurrences(state, m, n, alpha, beta)

        state["gamma"] = gamma
        state["alpha"] = alpha

        if k % self.replace_freq == 0:
            # Residual replacement: resynchronize the recursively
            # updated vectors with their definitions.
            state["r"] = ctx.residual(state["b"], state["x"])
            state["u"] = ctx.precond(state["r"])
            state["w"] = ctx.matvec(state["u"])

    def _recurrences(self, state, m, n, alpha, beta):
        """The eight vector recurrences as one run of updates."""
        r, u, w = state["r"], state["u"], state["w"]
        self.context.updates(
            ("xpay", n, beta, state["z"]),        # z = n + beta z
            ("xpay", m, beta, state["q"]),        # q = m + beta q
            ("xpay", u, beta, state["p"]),        # p = u + beta p
            ("xpay", w, beta, state["s"]),        # s = w + beta s
            ("axpy", alpha, state["p"], state["x"]),
            ("axpy", -alpha, state["s"], r),
            ("axpy", -alpha, state["q"], u),
            ("axpy", -alpha, state["z"], w),
        )

    def _iterate_multi(self, state, k, gamma, delta, m, n):
        """Batched recurrences, one ``(nrhs,)`` entry per column.

        Live columns run the exact scalar coefficient arithmetic
        elementwise, so each column's iterate is bit-identical to a
        standalone solve; an exactly solved column (``gamma = delta =
        0``) freezes its ``x``/``r`` through zero coefficients (the
        auxiliary vectors keep updating, which is harmless), and a
        non-finite reduction poisons only its own column, which the
        next convergence check diagnoses.  A vanished ``gamma`` or
        recurrence denominator on a live column is an SPD violation and
        raises the same :class:`BreakdownError` the scalar path would.
        """
        ctx = self.context
        noop = (gamma == 0.0) & (delta == 0.0)
        live = ~noop
        if state["gamma"] is None:
            if bool(np.any(live & (delta == 0.0) & np.isfinite(gamma))):
                raise BreakdownError(
                    "PipeCG breakdown: denominator vanished")
            beta = np.zeros_like(gamma)
            alpha = np.where(live,
                             gamma / np.where(live, delta, 1.0), 0.0)
        else:
            gamma_old = np.asarray(state["gamma"], dtype=np.float64)
            alpha_old = np.asarray(state["alpha"], dtype=np.float64)
            if bool(np.any(live & (gamma_old == 0.0)
                           & np.isfinite(gamma))):
                raise BreakdownError("PipeCG breakdown: gamma vanished")
            beta = np.where(live,
                            gamma / np.where(live, gamma_old, 1.0), 0.0)
            # Live columns always carry alpha_old != 0 (a zero alpha
            # would have tripped the gamma check one iteration earlier).
            denom = delta - beta * gamma / np.where(live, alpha_old, 1.0)
            if bool(np.any(live & (denom == 0.0) & np.isfinite(gamma))):
                raise BreakdownError(
                    "PipeCG breakdown: denominator vanished")
            alpha = np.where(live,
                             gamma / np.where(live, denom, 1.0), 0.0)

        self._recurrences(state, m, n, alpha, beta)

        if state["gamma"] is None:
            state["gamma"] = gamma
            state["alpha"] = alpha
        else:
            state["gamma"] = np.where(live, gamma, state["gamma"])
            state["alpha"] = np.where(live, alpha, state["alpha"])

        if k % self.replace_freq == 0:
            state["r"] = ctx.residual(state["b"], state["x"])
            state["u"] = ctx.precond(state["r"])
            state["w"] = ctx.matvec(state["u"])
