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

The coefficient step is scalar arithmetic on one column
(:func:`_coefficients`) run over every column
(:func:`~repro.solvers.base.per_column`).
"""

import math

from repro.core.errors import BreakdownError, SolverError
from repro.solvers.base import IterativeSolver, ieee_div, per_column


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

        steps = per_column(_coefficients, gamma, delta,
                           state["gamma"], state["alpha"])
        if steps is None:
            return  # every column exactly solved
        alpha, beta, state["gamma"], state["alpha"] = steps

        # The eight vector recurrences as one run of updates.
        ctx.updates(
            ("xpay", n, beta, state["z"]),        # z = n + beta z
            ("xpay", m, beta, state["q"]),        # q = m + beta q
            ("xpay", u, beta, state["p"]),        # p = u + beta p
            ("xpay", w, beta, state["s"]),        # s = w + beta s
            ("axpy", alpha, state["p"], state["x"]),
            ("axpy", -alpha, state["s"], r),
            ("axpy", -alpha, state["q"], u),
            ("axpy", -alpha, state["z"], w),
        )

        if k % self.replace_freq == 0:
            # Residual replacement: resynchronize the recursively
            # updated vectors with their definitions.
            state["r"] = ctx.residual(state["b"], state["x"])
            state["u"] = ctx.precond(state["r"])
            state["w"] = ctx.matvec(state["u"])


def _coefficients(gamma, delta, gamma_old, alpha_old):
    """One column's ``(live, alpha, beta, gamma, alpha)``.

    ``gamma_old`` is ``None`` before the first iteration.  An exactly
    solved column (``gamma = delta = 0``) is frozen through zero
    coefficients (its auxiliary vectors keep updating, which is
    harmless); a non-finite reduction poisons only this column; a
    vanished ``gamma_old`` or recurrence denominator on a live, finite
    column is an SPD violation.
    """
    if gamma == 0.0 and delta == 0.0:
        if gamma_old is None:
            return False, 0.0, 0.0, gamma, 0.0
        return False, 0.0, 0.0, gamma_old, alpha_old
    finite = math.isfinite(gamma)
    if gamma_old is None:
        beta = 0.0
        denom = delta
    else:
        if gamma_old == 0.0 and finite:
            raise BreakdownError("PipeCG breakdown: gamma vanished")
        beta = ieee_div(gamma, gamma_old)
        # A live column always carries alpha_old != 0 (a zero alpha
        # would have tripped the gamma check one iteration earlier).
        denom = delta - ieee_div(beta * gamma, alpha_old)
    if denom == 0.0 and finite:
        raise BreakdownError("PipeCG breakdown: denominator vanished")
    alpha = ieee_div(gamma, denom)
    return True, alpha, beta, gamma, alpha
