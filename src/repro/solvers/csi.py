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
one :meth:`~repro.solvers.context.SolverContext.chebyshev_span` call --
the span kind ``chebyshev`` of :data:`~repro.solvers.context.SPANS` --
recording the same per-iteration events however it runs: with a
diagonal ``M`` on a serial context as one wavefront over memory, with
the block EVP ``M`` (serial, or on the batched engine's stacks) as one
kernel call per iteration, otherwise one primitive call at a time (see
the guarded loop's span rule in :mod:`repro.solvers.base`).

Trade-off: P-CSI needs somewhat more iterations than ChronGear for the
same tolerance (Chebyshev is optimal for the *interval*, CG adapts to
the discrete spectrum), so it loses at small core counts and wins big at
large ones -- reproduced by experiments E7/E9/E12.

The iteration fails when the interval excludes part of the spectrum:
eigenvalues above ``mu`` are amplified by the residual polynomial and
the iteration diverges geometrically.  Beyond the iteration itself the
solver therefore carries:

* **Eigenbound acquisition** -- user-supplied ``(nu, mu)`` or a Lanczos
  estimation at first solve, memoized across instances and processes by
  the artifact cache (:mod:`repro.solvers.lanczos`), with safety-factor
  widening.
* **The recovery policy** -- when the guarded convergence loop diagnoses
  a recoverable failure (divergence, non-finite residual, breakdown),
  the solve widens the interval (``nu_safety``/``mu_safety`` backoff),
  reruns Lanczos with more steps and a fresh start vector, and retries
  up to ``max_recoveries`` times.  Every failed attempt's events and the
  re-estimation are re-charged to the ``"recovery"`` ledger phase so
  modeled timings stay honest; ``fallback="chrongear"`` chains to the
  reduction-based solver as the last resort, mirroring how POP would
  fall back in production.
* **Checkpoint hooks** -- the interval and Lanczos configuration live
  outside the loop state dict, but a resumed run (and any recovery
  re-estimation after it) depends on them bit-for-bit.
"""

from repro.core.errors import ConvergenceError, SolverError
from repro.parallel.events import EventCounts
from repro.solvers.base import IterativeSolver
from repro.solvers.chrongear import ChronGearSolver
from repro.solvers.lanczos import estimate_eigenbounds


class PCSISolver(IterativeSolver):
    """Preconditioned Classical Stiefel Iteration.

    Parameters (beyond :class:`IterativeSolver`'s)
    ----------
    eig_bounds:
        Optional ``(nu, mu)`` for the preconditioned spectrum.  When
        omitted, a Lanczos estimation runs once at first solve and is
        cached for subsequent solves (POP reuses the bounds for the
        whole run since ``A`` is fixed).
    lanczos_tol, lanczos_steps, lanczos_seed:
        Lanczos stopping control (paper tol: 0.15).  ``lanczos_steps``
        forces a fixed step count (the Figure 3 sweep).
    nu_safety, mu_safety:
        Interval widening factors applied to the Lanczos estimates.
    bounds_cache:
        Optional :class:`~repro.core.cache.ArtifactCache` memoizing the
        raw Lanczos estimates across solver instances and processes; on
        a hit the recorded estimation events are replayed into the
        ledger, so modeled timings are unchanged (see
        :func:`~repro.solvers.lanczos.estimate_eigenbounds`).
    max_recoveries:
        Recovery attempts after a diagnosed divergence / non-finite
        residual / breakdown (see the module docstring).  ``0`` disables
        recovery.
    nu_backoff, mu_backoff:
        Per-recovery widening of the safety factors: ``nu_safety *=
        nu_backoff`` (pushing the lower bound further down) and
        ``mu_safety *= mu_backoff`` (pushing the upper bound further
        up).  User-supplied ``eig_bounds`` are widened directly by the
        same factors.
    fallback:
        ``"chrongear"`` chains to :class:`ChronGearSolver` on the same
        context once recoveries are exhausted; ``None`` (default)
        re-raises instead.
    """

    name = "pcsi"
    _SPAN = ("chebyshev", "b", "r", "dx", "x")

    def __init__(self, context, eig_bounds=None, lanczos_tol=0.15,
                 lanczos_steps=None, lanczos_seed=0,
                 nu_safety=0.5, mu_safety=1.05, bounds_cache=None,
                 max_recoveries=2, nu_backoff=0.5, mu_backoff=1.5,
                 fallback=None, **kwargs):
        super().__init__(context, **kwargs)
        self._bounds = None
        if eig_bounds is not None:
            nu, mu = float(eig_bounds[0]), float(eig_bounds[1])
            self._check_bounds(nu, mu)
            self._bounds = (nu, mu)
        self._lanczos_info = None
        self._user_bounds = eig_bounds is not None
        self.lanczos_tol = lanczos_tol
        self.lanczos_steps = lanczos_steps
        self.lanczos_seed = lanczos_seed
        self.nu_safety = nu_safety
        self.mu_safety = mu_safety
        self.bounds_cache = bounds_cache
        if max_recoveries < 0:
            raise SolverError(
                f"max_recoveries must be >= 0, got {max_recoveries}")
        if not (0.0 < nu_backoff < 1.0):
            raise SolverError(
                f"nu_backoff must be in (0, 1), got {nu_backoff}")
        if mu_backoff < 1.0:
            raise SolverError(
                f"mu_backoff must be >= 1, got {mu_backoff}")
        if fallback not in (None, "chrongear"):
            raise SolverError(
                f"unknown fallback {fallback!r}; expected None or "
                f"'chrongear'")
        self.max_recoveries = int(max_recoveries)
        self.nu_backoff = float(nu_backoff)
        self.mu_backoff = float(mu_backoff)
        self.fallback = fallback
        self._lanczos_max_steps = 60
        # The as-configured recovery knobs.  _widen_interval mutates the
        # live attributes while a recovery is in flight; solve() resets
        # them from this snapshot when it returns, so the *next* solve
        # on the same instance starts from the configured interval
        # policy instead of the widened one.
        self._configured_recovery = {
            "nu_safety": self.nu_safety,
            "mu_safety": self.mu_safety,
            "lanczos_steps": self.lanczos_steps,
            "lanczos_max_steps": self._lanczos_max_steps,
        }

    @staticmethod
    def _check_bounds(nu, mu):
        if not (0.0 < nu < mu):
            raise SolverError(
                f"need 0 < nu < mu for the Chebyshev interval, got "
                f"[{nu}, {mu}]"
            )

    @property
    def eig_bounds(self):
        """The spectral interval in use (``None`` before first solve)."""
        return self._bounds

    def _injected_bound_skew(self, nu, mu):
        """Apply any eigenbound fault injectors attached to the VM."""
        vm = getattr(self.context, "vm", None)
        for fault in getattr(vm, "faults", ()) or ():
            nu, mu = fault.on_eigenbounds(nu, mu)
        return nu, mu

    def _ensure_bounds(self):
        if self._bounds is None:
            # The spectral interval of M^-1 A does not depend on the
            # right-hand side, so the Lanczos run always executes in
            # scalar (single-column) mode -- a multi-RHS solve estimates
            # once and shares the bounds across every column, exactly
            # like a sequence of single-RHS solves would.
            ctx = self.context
            saved_nrhs = ctx.nrhs
            ctx.nrhs = None
            try:
                nu, mu, info = estimate_eigenbounds(
                    ctx, tol=self.lanczos_tol,
                    steps=self.lanczos_steps, seed=self.lanczos_seed,
                    max_steps=self._lanczos_max_steps,
                    nu_safety=self.nu_safety, mu_safety=self.mu_safety,
                    phase="setup", cache=self.bounds_cache,
                )
            finally:
                ctx.nrhs = saved_nrhs
            nu, mu = self._injected_bound_skew(nu, mu)
            self._check_bounds(nu, mu)
            self._bounds = (nu, mu)
            self._lanczos_info = info
        return self._bounds

    # ------------------------------------------------------------------
    # recovery policy
    # ------------------------------------------------------------------
    def solve(self, b, x0=None, checkpoint=None, resume_from=None,
              resilience=None):
        """Guarded solve with divergence recovery (module docstring)."""
        if self.max_recoveries == 0 and self.fallback is None:
            return super().solve(b, x0, checkpoint=checkpoint,
                                 resume_from=resume_from,
                                 resilience=resilience)

        ledger = self.context.ledger
        diagnoses = []
        recovery_counts = EventCounts()
        attempt = 0
        try:
            return self._solve_with_recovery(
                b, x0, checkpoint, resume_from, ledger, diagnoses,
                recovery_counts, attempt, resilience)
        finally:
            # Recovery widening must not leak into the next solve on
            # this instance: the widened *bounds* are kept (POP reuses
            # them, they are the cure), but the safety factors and
            # Lanczos budget go back to their configured values.
            self._reset_recovery_config()

    def _reset_recovery_config(self):
        """Restore the configured safety factors and Lanczos budget."""
        cfg = self._configured_recovery
        self.nu_safety = cfg["nu_safety"]
        self.mu_safety = cfg["mu_safety"]
        self.lanczos_steps = cfg["lanczos_steps"]
        self._lanczos_max_steps = cfg["lanczos_max_steps"]

    def _solve_with_recovery(self, b, x0, checkpoint, resume_from,
                             ledger, diagnoses, recovery_counts, attempt,
                             resilience=None):
        while True:
            snapshot = ledger.snapshot()
            error = None
            try:
                result = super().solve(b, x0, checkpoint=checkpoint,
                                       resume_from=resume_from,
                                       resilience=resilience)
            except ConvergenceError as exc:
                error = exc
                result = exc.result
                diagnosis = exc.diagnosis
            else:
                diagnosis = None if result.converged else result.diagnosis
            # A recovery retry restarts from scratch with fresh bounds:
            # re-resuming the failed trajectory would replay the same
            # divergence the widened interval is meant to escape.
            resume_from = None

            recoverable = diagnosis is not None and diagnosis.recoverable
            if not recoverable:
                # Success, or a failure retrying cannot cure.
                self._attach_recovery(result, diagnoses, recovery_counts)
                if error is not None:
                    raise error
                return result

            diagnoses.append(diagnosis)
            recovery_counts = recovery_counts + ledger.transfer(
                snapshot, "recovery")
            if attempt < self.max_recoveries:
                attempt += 1
                try:
                    recovery_counts = recovery_counts + \
                        self._widen_interval(attempt)
                except (ConvergenceError, SolverError) as exc:
                    # The re-estimation itself broke (e.g. a persistent
                    # fault corrupts every Lanczos run too): recovery is
                    # hopeless, surface the original failure.
                    diagnosis.data["recovery_error"] = str(exc)
                    if self.fallback is not None:
                        return self._run_fallback(b, x0, diagnoses,
                                                  recovery_counts,
                                                  resilience)
                    self._attach_recovery(result, diagnoses,
                                          recovery_counts)
                    if error is not None:
                        raise error from exc
                    return result
                continue
            if self.fallback is not None:
                return self._run_fallback(b, x0, diagnoses,
                                          recovery_counts, resilience)
            # Recoveries exhausted: surface the last failure, annotated.
            self._attach_recovery(result, diagnoses, recovery_counts)
            if error is not None:
                raise error
            return result

    def _widen_interval(self, attempt):
        """Back the safety factors off and refresh the bounds.

        Estimated bounds are re-estimated by a longer Lanczos run with a
        fresh start vector; user-supplied bounds are widened in place.
        Returns the :class:`EventCounts` the re-estimation charged to
        the ``"recovery"`` phase.
        """
        self.nu_safety *= self.nu_backoff
        self.mu_safety *= self.mu_backoff
        if self._user_bounds:
            nu, mu = self._bounds
            self._bounds = (nu * self.nu_backoff, mu * self.mu_backoff)
            return EventCounts()
        ledger = self.context.ledger
        self._lanczos_max_steps *= 2
        steps = None
        if self.lanczos_steps is not None:
            steps = int(self.lanczos_steps) * 2
            self.lanczos_steps = steps
        elif self._lanczos_info is not None:
            steps = min(2 * int(self._lanczos_info["steps"]),
                        self._lanczos_max_steps)
        snapshot = ledger.snapshot()
        nu, mu, info = estimate_eigenbounds(
            self.context, tol=self.lanczos_tol, steps=steps,
            max_steps=self._lanczos_max_steps,
            seed=_recovery_seed(self.lanczos_seed, attempt),
            nu_safety=self.nu_safety, mu_safety=self.mu_safety,
            phase="recovery", cache=self.bounds_cache,
        )
        nu, mu = self._injected_bound_skew(nu, mu)
        self._check_bounds(nu, mu)
        self._bounds = (nu, mu)
        self._lanczos_info = info
        # The estimation charged most events to "recovery" directly, but
        # some primitives split part of their cost to fixed phases (e.g.
        # global_dot's product-and-sum is always "computation"); sweep
        # those into the recovery bucket so the ledger and the result
        # agree on what the recovery cost.
        direct = ledger.since(snapshot).get("recovery", EventCounts())
        return direct + ledger.transfer(snapshot, "recovery")

    def _run_fallback(self, b, x0, diagnoses, recovery_counts,
                      resilience=None):
        """Chain to ChronGear on the same context (the POP fallback)."""
        solver = ChronGearSolver(
            self.context, tol=self.tol,
            max_iterations=self.max_iterations,
            check_freq=self.check_freq,
            raise_on_failure=self.raise_on_failure,
            stagnation_checks=self.stagnation_checks,
            divergence_factor=self.divergence_factor,
        )
        try:
            result = solver.solve(b, x0, resilience=resilience)
        except ConvergenceError as exc:
            if exc.result is not None:
                exc.result.extra["fallback_from"] = self.name
                self._attach_recovery(exc.result, diagnoses,
                                      recovery_counts)
            raise
        result.extra["fallback_from"] = self.name
        self._attach_recovery(result, diagnoses, recovery_counts)
        return result

    def _attach_recovery(self, result, diagnoses, recovery_counts):
        """Record recovery history and cost on a final result."""
        if result is None or not diagnoses:
            return
        result.extra["recoveries"] = len(diagnoses)
        result.extra["recovery_diagnoses"] = [d.to_dict()
                                              for d in diagnoses]
        if any(vars(recovery_counts).values()):
            result.setup_events["recovery"] = (
                result.setup_events.get("recovery", EventCounts())
                + recovery_counts)

    # ------------------------------------------------------------------
    # checkpoint hooks: the Chebyshev interval and Lanczos configuration
    # live outside the loop state dict, but a resumed run (and any
    # recovery re-estimation after it) depends on them bit-for-bit.
    # ------------------------------------------------------------------
    def _snapshot_solver_meta(self):
        return {
            "bounds": list(self._bounds) if self._bounds is not None
            else None,
            "user_bounds": self._user_bounds,
            "nu_safety": self.nu_safety,
            "mu_safety": self.mu_safety,
            "lanczos_seed": self.lanczos_seed,
            "lanczos_steps": self.lanczos_steps,
            "lanczos_max_steps": self._lanczos_max_steps,
            "lanczos_info_steps": (self._lanczos_info["steps"]
                                   if self._lanczos_info else None),
        }

    def _restore_solver_meta(self, meta):
        bounds = meta.get("bounds")
        if bounds is not None:
            self._bounds = (float(bounds[0]), float(bounds[1]))
        self._user_bounds = bool(meta.get("user_bounds",
                                          self._user_bounds))
        self.nu_safety = float(meta.get("nu_safety", self.nu_safety))
        self.mu_safety = float(meta.get("mu_safety", self.mu_safety))
        if meta.get("lanczos_seed") is not None:
            self.lanczos_seed = meta["lanczos_seed"]
        self.lanczos_steps = meta.get("lanczos_steps", self.lanczos_steps)
        self._lanczos_max_steps = int(meta.get("lanczos_max_steps",
                                               self._lanczos_max_steps))
        info_steps = meta.get("lanczos_info_steps")
        if info_steps is not None and self._lanczos_info is None:
            self._lanczos_info = {"steps": int(info_steps)}

    # ------------------------------------------------------------------
    # the iteration
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
            state["b"], state["r"], state["dx"], state["x"], weights, first)
        state["omega"] = omega


def _recovery_seed(base_seed, attempt):
    """A fresh, deterministic Lanczos seed for recovery ``attempt``."""
    try:
        return int(base_seed) + 104729 * attempt  # 104729: the 10000th prime
    except (TypeError, ValueError):
        return attempt
