"""CA-PCG: communication-avoiding s-step preconditioned CG.

Textbook PCG pays two global reductions per iteration and ChronGear one
-- a ``log p`` latency term that dominates the barotropic solve at scale
(paper Eq. 2, Figure 2).  The s-step reformulation (Chronopoulos &
Gear 1989; Carson & Demmel's CA-KSMs; D'Ambra et al.'s Chebyshev-basis
variant) removes the per-iteration reductions entirely: per *outer*
iteration it

1. builds a ``2s+1``-vector Krylov basis ``V = [p, ..., rho_s(C) p,
   z, ..., rho_{s-1}(C) z]`` of the preconditioned operator
   ``C = M^-1 A`` (seeded with the carried-over search direction ``p``
   and preconditioned residual ``z``),
2. assembles the Gram system ``N = V^T (A V)``, ``g = V^T r0`` with
   **one** batched block dot -- a single ``reduction`` event
   (:meth:`~repro.solvers.context.SolverContext.dot_block`) carrying the
   whole ``(2s+1) x (2s+2)`` payload, and
3. advances ``s`` CG steps through small dense recurrences on the
   coordinate vectors -- no communication at all.

Net: ``1/s`` reductions per iteration (plus convergence checks), versus
PCG's 2, ChronGear's 1 fused, and PipeCG's 1 overlapped, while the
iterates remain those of plain PCG in exact arithmetic.

**Chebyshev basis.**  The naive monomial basis ``[p, Cp, C^2 p, ...]``
loses rank in floating point once ``kappa(C)^{j}`` outruns the mantissa.
Scaled-and-shifted Chebyshev polynomials on the spectral interval
``[nu, mu]`` of ``C`` keep the basis condition number flat in ``s``:

.. math::

   v_1 = (C - \\theta I) v_0 / \\delta, \\qquad
   v_{j+1} = 2 (C - \\theta I) v_j / \\delta - v_{j-1}

with ``theta = (mu + nu)/2``, ``delta = (mu - nu)/2``.  The same
Lanczos eigenbounds P-CSI uses (persisted in the artifact cache) supply
the shift/scale, and by construction ``C v_j`` is *exactly* a known
tridiagonal combination of basis vectors -- the basis-change matrix
``B`` the dense recurrences use to update the ``z`` coordinates.

**Batched basis build.**  The P- and Z-block recurrences are
independent, so each build round stacks both into one width-2 multi-RHS
vector (width ``2 nrhs`` for batched solves) and runs a single stacked
matvec + ``apply_stack`` preconditioner application -- the PR-6
multi-RHS kernel paths.  Per outer iteration: ``s`` stacked rounds, one
extra matvec for ``A P_s``, and one for the residual replacement --
``s + 2`` halo exchanges for ``s`` CG steps.

**Failure modes.**  A too-narrow interval (bad Lanczos bounds) or an
over-ambitious ``s`` surfaces as a lost-SPD Gram system (``p^T N p <=
0``), a vanished ``rho``, or a diverging residual -- all folded into the
guarded loop as :class:`~repro.core.errors.BreakdownError` /
divergence diagnoses, and all recoverable: the shared
:class:`~repro.solvers.spectral.SpectralBoundedSolver` policy widens
the interval, re-estimates, retries, and optionally falls back to
ChronGear.  The coordinate recurrence runs column by column
(:meth:`CAPCGSolver._advance_coords`; a 2-D solve is one column), and a
breakdown in any column -- non-finite coordinates included -- stays a
batch verdict, because that recovery relies on it.  This is the one
deliberate exception to the per-column anomaly rule of
:mod:`repro.solvers.base`.

**Checkpointing.**  Mid-block state is the basis itself: the loop
``state`` carries every basis column (``V``/``W``, lists of context
vectors), the Gram system and coordinate vectors (``_DENSE_KEYS``) and
the inner-step index, all of which the shared ``"solver"`` snapshot
serialises by type -- so single- and multi-RHS solves checkpoint
mid-epoch and after compaction, and a resumed run is bit-identical.
``sstep`` joins the knobs a resume must match.
"""

import numpy as np

from repro.core.errors import BreakdownError, SolverError
from repro.solvers.spectral import SpectralBoundedSolver


class CAPCGSolver(SpectralBoundedSolver):
    """s-step communication-avoiding PCG with a Chebyshev basis.

    Parameters (beyond :class:`SpectralBoundedSolver`'s)
    ----------
    sstep:
        CG steps advanced per Gram reduction (the paper-family ``s``).
        ``s = 1`` degenerates to PCG with a single fused reduction;
        useful mostly for validation.  Large ``s`` trades reduction
        count against basis conditioning -- 2-8 is the practical range.
    replace_freq:
        Outer iterations between residual replacements (recompute
        ``r = b - A x`` instead of trusting the coordinate update).
        Default 1: replace at every basis rebuild, which costs one
        matvec per ``s`` iterations and keeps the attainable accuracy at
        PCG's level.  ``0`` disables replacement.

    Resilience
    ----------
    Under an in-solve resilience policy (``solve(resilience=...)``),
    buddy replicas are captured at convergence-check boundaries, where
    :meth:`_residual_norm` has already *materialized* the iterate from
    the coordinate recurrence (``synced == jj``) -- i.e. at
    epoch-consistent points of the s-step schedule.  A rollback
    therefore resumes from the start of a basis epoch, never from a
    half-advanced coordinate state.
    """

    name = "capcg"

    #: Keys of the dense (coordinate-space) state arrays.
    _DENSE_KEYS = ("N", "g", "pc", "zc", "ac")

    #: A snapshot's basis only fits the ``sstep`` that built it.
    _RESUME_KNOBS = SpectralBoundedSolver._RESUME_KNOBS + ("sstep",)

    def __init__(self, context, sstep=4, replace_freq=1, **kwargs):
        super().__init__(context, **kwargs)
        if sstep < 1:
            raise SolverError(f"sstep must be >= 1, got {sstep}")
        if replace_freq < 0:
            raise SolverError(
                f"replace_freq must be >= 0, got {replace_freq}")
        self.sstep = int(sstep)
        self.replace_freq = int(replace_freq)
        self._b_cache = None

    # ------------------------------------------------------------------
    # the Chebyshev basis
    # ------------------------------------------------------------------
    def _basis_change_matrix(self, theta, delta):
        """``B`` with ``C V = V B`` column-exact for the basis blocks.

        ``C v_0 = theta v_0 + delta v_1`` and ``C v_j = (delta/2)
        v_{j-1} + theta v_j + (delta/2) v_{j+1}`` inside each block; the
        last column of each block is never multiplied (the coordinate
        degrees stay inside the basis by construction) and is left zero.
        """
        s = self.sstep
        m = 2 * s + 1
        B = np.zeros((m, m))
        for off, ncols in ((0, s + 1), (s + 1, s)):
            if ncols > 1:
                B[off, off] = theta
                B[off + 1, off] = delta
            for i in range(1, ncols - 1):
                B[off + i - 1, off + i] = 0.5 * delta
                B[off + i, off + i] = theta
                B[off + i + 1, off + i] = 0.5 * delta
        return B

    def _B(self, state):
        key = (state["theta"], state["delta"])
        if self._b_cache is None or self._b_cache[0] != key:
            self._b_cache = (key, self._basis_change_matrix(*key))
        return self._b_cache[1]

    def _start_epoch(self, state, p, z, phase="computation"):
        """(Re)build the basis from seeds ``p``/``z`` and reset coords.

        The build routes through the stacked multi-RHS paths: each of
        the ``s`` rounds runs ONE batched matvec and ONE batched
        preconditioner application over the width-2 (or width-``2w``)
        stack ``[P_j | Z_j]``, then one extra single matvec supplies
        ``A P_s``.  The Gram system is assembled with a single
        :meth:`dot_block` -- one ``reduction`` event for the whole
        epoch's ``s`` CG steps.
        """
        ctx = self.context
        s = self.sstep
        nu, mu = self._bounds
        theta = 0.5 * (mu + nu)
        delta = 0.5 * (mu - nu)
        state["theta"] = theta
        state["delta"] = delta
        w = ctx.nrhs  # width of one basis column (None = scalar)

        cur = ctx.stack_columns([p, z])  # [P_0 | Z_0]
        pairs = [cur]
        wpairs = []
        prev = None
        for _ in range(s):
            t = ctx.matvec(cur, phase=phase)        # [A P_j | A Z_j]
            wpairs.append(t)
            u = ctx.precond(t, phase=(phase if phase == "setup"
                                      else "preconditioning"))
            # Every pair is retained as basis columns, so each round
            # writes a fresh buffer (no in-place reuse of v_{j-1}).
            nxt = ctx.copy(u)
            if prev is None:
                # v_1 = (C - theta) v_0 / delta
                ctx.axpy(-theta, cur, nxt, phase=phase)
                ctx.scale(1.0 / delta, nxt, phase=phase)
            else:
                # v_{j+1} = (2/delta)(C - theta) v_j - v_{j-1}
                ctx.scale(2.0 / delta, nxt, phase=phase)
                ctx.axpy(-2.0 * theta / delta, cur, nxt, phase=phase)
                ctx.axpy(-1.0, prev, nxt, phase=phase)
            prev = cur
            cur = nxt
            pairs.append(cur)

        widths = (w, w)
        cols = [ctx.split_columns(pair, widths) for pair in pairs]
        P = [c[0] for c in cols]                     # P_0 .. P_s
        Z = [c[1] for c in cols[:s]]                 # Z_0 .. Z_{s-1}
        WP, WZ = [], []
        for t in wpairs:
            a_, b_ = ctx.split_columns(t, widths)
            WP.append(a_)
            WZ.append(b_)
        WP.append(ctx.matvec(P[s], phase=phase))     # the A P_s column
        V = P + Z
        W = WP + WZ

        # N = V^T (A V), g = V^T r0: ONE batched block dot -- a single
        # reduction event per s inner iterations.
        red_phase = "setup" if phase == "setup" else "reduction"
        M = ctx.dot_block(V, W + [state["r0"]], phase=red_phase)
        m = len(V)
        state["V"] = V
        state["W"] = W
        state["N"] = np.ascontiguousarray(M[:, :m])
        state["g"] = np.ascontiguousarray(M[:, m])

        # Coordinates: p' = e_0 (P-seed), z' = e_{s+1} (Z-seed), a = 0;
        # rho = r^T z = g[s+1] -- free, no extra reduction.
        if w is None:
            pc = np.zeros(m)
            zc = np.zeros(m)
            ac = np.zeros(m)
            pc[0] = 1.0
            zc[s + 1] = 1.0
            rho = float(state["g"][s + 1])
        else:
            pc = np.zeros((m, w))
            zc = np.zeros((m, w))
            ac = np.zeros((m, w))
            pc[0, :] = 1.0
            zc[s + 1, :] = 1.0
            rho = state["g"][s + 1].copy()
        state["pc"] = pc
        state["zc"] = zc
        state["ac"] = ac
        state["rho"] = rho
        state["jj"] = 0
        state["synced"] = 0

    # ------------------------------------------------------------------
    # materialization: coordinates -> vectors
    # ------------------------------------------------------------------
    def _materialize(self, state):
        """``x = x0 + V a``, ``r = r0 - W a`` into ``state["x"]/["r"]``."""
        ctx = self.context
        x = ctx.copy(state["x0"])
        r = ctx.copy(state["r0"])
        for a_i, vi, wi in zip(state["ac"], state["V"], state["W"]):
            if np.all(a_i == 0.0):
                continue
            ctx.axpy(a_i, vi, x)
            ctx.axpy(-a_i, wi, r)
        state["x"] = x
        state["r"] = r
        state["synced"] = state["jj"]

    def _combination(self, state, coeffs):
        """A fresh vector ``V @ coeffs`` (used for the carried-over p)."""
        ctx = self.context
        out = ctx.new_vector()
        for c_i, vi in zip(coeffs, state["V"]):
            if np.all(c_i == 0.0):
                continue
            ctx.axpy(c_i, vi, out)
        return out

    def _residual_norm(self, state):
        if state["synced"] != state["jj"]:
            self._materialize(state)
        return self.context.norm2(state["r"], phase="reduction")

    # ------------------------------------------------------------------
    # the guarded-loop hooks
    # ------------------------------------------------------------------
    def _setup(self, b, x):
        ctx = self.context
        nu, mu = self._ensure_bounds()
        r = ctx.residual(b, x, phase="setup")
        state = {
            "x": x, "r": r, "b": b,
            "x0": ctx.copy(x), "r0": ctx.copy(r),
            "outer": 0,
            "extra": {"nu": nu, "mu": mu, "sstep": self.sstep},
        }
        if self._lanczos_info is not None:
            state["extra"]["lanczos_steps"] = self._lanczos_info["steps"]
        z = ctx.precond(r, phase="setup")
        # First CG step: p = z; both blocks seeded from z.  The first
        # basis (and its Gram reduction) is setup cost.
        self._start_epoch(state, p=z, z=z, phase="setup")
        return state

    def _rebuild(self, state):
        """Close the finished epoch and open the next one."""
        ctx = self.context
        if state["synced"] != state["jj"]:
            self._materialize(state)
        p = self._combination(state, state["pc"])
        state["outer"] += 1
        if self.replace_freq and state["outer"] % self.replace_freq == 0:
            # Residual replacement: resynchronize r with its definition
            # (one matvec per s iterations, no reduction).
            state["r"] = ctx.residual(state["b"], state["x"])
        state["x0"] = ctx.copy(state["x"])
        state["r0"] = ctx.copy(state["r"])
        z = ctx.precond(state["r"])
        self._start_epoch(state, p=p, z=z)

    def _iterate(self, state, k):
        if state["jj"] >= self.sstep:
            self._rebuild(state)
        self._dense_step(state)
        state["jj"] += 1
        state["synced"] = -1

    @staticmethod
    def _advance_coords(N, g, Bm, pc, zc, ac, rho):
        """One CG step on one column's contiguous coordinate vectors.

        Updates ``zc``/``ac`` in place, returns ``(pc_new, rho_new)``.
        Every column of every width runs it, so each batched column's
        coefficient stream is bit-identical to a standalone solve.
        """
        pq = float(pc @ (N @ pc))
        if not np.isfinite(pq):
            raise BreakdownError(
                f"CA-PCG breakdown: p^T A p is {pq} in the s-step basis "
                f"-- iterate is poisoned")
        if pq == 0.0:
            raise BreakdownError("CA-PCG breakdown: p^T A p vanished")
        if pq < 0.0:
            raise BreakdownError(
                f"CA-PCG breakdown: p^T A p = {pq:.3e} < 0 -- the "
                f"Chebyshev basis lost positive definiteness (bad "
                f"eigenbounds or s too large)")
        alpha = rho / pq
        ac += alpha * pc
        zc -= alpha * (Bm @ pc)
        # rho' = r^T z = (r0 - W a)^T V z' = g.z' - a.(N^T z')
        rho_new = float(g @ zc - ac @ (N.T @ zc))
        if not np.isfinite(rho_new):
            raise BreakdownError(
                f"CA-PCG breakdown: r^T z is {rho_new} -- iterate is "
                f"poisoned")
        beta = rho_new / rho
        return zc + beta * pc, rho_new

    def _dense_step(self, state):
        """One CG step in basis coordinates -- no communication.

        Each live column runs :meth:`_advance_coords` on contiguous
        per-column views; a 2-D solve is one column.  An exactly solved
        column (``rho = 0``; M is SPD, so ``r^T M^-1 r = 0`` iff
        ``r = 0``) freezes until the convergence check confirms it.  A
        breakdown in any column is a batch-level verdict -- the
        spectral recovery (widen the interval, rebuild) relies on it.
        """
        N, g = state["N"], state["g"]
        pc, zc, ac = state["pc"], state["zc"], state["ac"]
        single = pc.ndim == 1
        if single:
            N, g, pc, zc, ac = (N[..., None], g[:, None], pc[:, None],
                                zc[:, None], ac[:, None])
        rho = np.atleast_1d(np.asarray(state["rho"], dtype=np.float64))
        m, w = pc.shape
        Bm = self._B(state)
        # ~5 m^2 dense flops per column, replicated on every rank (not
        # critical-path scaling, but recorded for honesty).
        self.context.ledger.record_flops("computation", 5 * m * m * w)

        for j in range(w):
            if rho[j] == 0.0:
                continue
            Nj = np.ascontiguousarray(N[:, :, j])
            gj = np.ascontiguousarray(g[:, j])
            pcj = np.ascontiguousarray(pc[:, j])
            zcj = np.ascontiguousarray(zc[:, j])
            acj = np.ascontiguousarray(ac[:, j])
            pcj, rho[j] = self._advance_coords(Nj, gj, Bm, pcj, zcj,
                                               acj, float(rho[j]))
            pc[:, j] = pcj
            zc[:, j] = zcj
            ac[:, j] = acj
        state["rho"] = float(rho[0]) if single else rho
