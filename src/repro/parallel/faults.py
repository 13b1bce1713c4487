"""Deterministic fault injection for the virtual parallel machine.

The guardrail subsystem (:mod:`repro.solvers.health`,
:mod:`repro.solvers.base`) claims that *no* corrupted solve escapes
undiagnosed.  This module is how the claim is tested: seed-driven
injectors attach to a :class:`~repro.parallel.vm.VirtualMachine` and
corrupt exactly one well-defined thing -- a halo ring after an exchange,
one rank's partial inside a global reduction, the Lanczos eigenvalue
bounds handed to P-CSI, or the right-hand side itself -- and the test
matrix (``tests/test_faults.py``, ``benchmarks/fault_smoke.py``) asserts
every injection surfaces as a structured
:class:`~repro.solvers.health.SolverDiagnosis` under **both** execution
engines.

Faults mirror failure modes real POP runs hit at scale: a dropped or
reordered MPI message (halo corruption), a flaky node producing garbage
partial sums (reduction corruption), Lanczos bounds estimated from a
different (or buggy) preconditioner configuration (eigenbound skew), and
an upstream tendency blow-up (NaN in the right-hand side).

Determinism and engine parity
-----------------------------
Injectors hold no hidden global state: each counts the events it
observes (halo rounds, reductions, estimations) and fires when its
``at``-th event arrives (every event from ``at`` on with
``persistent=True``).  Both engines drive the hooks from the same
logical event stream, and the corruption itself goes through
layout-agnostic accessors (``BlockField.local`` views, per-rank partial
lists), so an injected run stays bit-identical across engines -- which
``tests/test_engine_parity.py`` checks.
"""

import numpy as np

from repro.core.errors import ReproError
from repro.core.rng import make_rng


class FaultInjectionError(ReproError):
    """Raised for malformed fault specs or parameters."""


class FaultInjector:
    """Base class: counts events, fires at the ``at``-th one.

    Parameters
    ----------
    at:
        1-based index of the observed event (halo round, reduction,
        eigenbound estimation...) at which the fault fires.
    persistent:
        Fire on every event from ``at`` on (a hard fault) instead of
        exactly once (a transient).
    seed:
        Drives any randomized placement (e.g. which halo column is
        corrupted) via :func:`~repro.core.rng.make_rng` -- same seed,
        same corruption, regardless of engine.
    """

    kind = "fault"

    def __init__(self, at=1, persistent=False, seed=0):
        if at < 1:
            raise FaultInjectionError(f"at must be >= 1, got {at}")
        self.at = int(at)
        self.persistent = bool(persistent)
        self.seed = int(seed)
        self.fired = 0

    def _fires(self, count):
        hit = count >= self.at if self.persistent else count == self.at
        if hit:
            self.fired += 1
        return hit

    # ------------------------------------------------------------------
    # hooks -- the VM (and P-CSI, for eigenbounds) calls every hook on
    # every event; each injector reacts only to the events it targets.
    # ------------------------------------------------------------------
    def on_exchange(self, field, count, vm):
        """Called after halo round ``count`` filled ``field``'s rings."""

    def on_reduction(self, partials, count):
        """Called with the per-rank partials of reduction ``count``
        (twice, once per list, for fused pair reductions) before the
        global sum."""

    def on_eigenbounds(self, nu, mu):
        """Called with each freshly estimated ``(nu, mu)``; returns the
        (possibly skewed) bounds to use."""
        return nu, mu

    def on_rhs(self, b, mask=None):
        """Called with the right-hand side before a solve; returns the
        (possibly corrupted) array to use."""
        return b

    def describe(self):
        """Human-readable one-liner for logs and smoke reports."""
        when = f">={self.at}" if self.persistent else f"={self.at}"
        return f"{self.kind}(at{when}, seed={self.seed})"


class HaloFault(FaultInjector):
    """Corrupt one rank's halo ring after an exchange.

    Models a dropped/garbled neighbor message.  The corrupted cell sits
    in the ring row directly above the interior (``local[h-1, col]``) --
    the row the 5-point stencil actually reads -- at a seed-derived
    column inside the neighbor-filled span, so the next matvec drags the
    poison into the interior and, a few iterations later, into a checked
    residual norm or reduced scalar.
    """

    kind = "halo"

    def __init__(self, rank=0, value=float("nan"), **kwargs):
        super().__init__(**kwargs)
        self.rank = int(rank)
        self.value = float(value)

    def on_exchange(self, field, count, vm):
        if not self._fires(count):
            return
        if not (0 <= self.rank < vm.num_ranks):
            raise FaultInjectionError(
                f"halo fault rank {self.rank} out of range "
                f"(machine has {vm.num_ranks} ranks)")
        h = field.decomp.halo_width
        local = field.local(self.rank)
        span = local.shape[1] - 2 * h
        col = h + int(make_rng([self.seed, count]).integers(span))
        local[h - 1, col] = self.value

    def describe(self):
        return (f"halo(rank={self.rank}, value={self.value}, "
                f"{super().describe()})")


class ReductionFault(FaultInjector):
    """Corrupt one rank's partial sum inside a global reduction.

    Models a flaky node: ``value`` replaces the partial outright
    (default NaN -- poisons the reduced scalar immediately), or
    ``factor`` multiplies it (a silent wrong answer, which must still be
    caught -- as divergence or budget exhaustion -- rather than
    converging to garbage).
    """

    kind = "reduction"

    def __init__(self, rank=0, value=float("nan"), factor=None,
                 entry=None, **kwargs):
        super().__init__(**kwargs)
        self.rank = int(rank)
        self.value = None if factor is not None else float(value)
        self.factor = None if factor is None else float(factor)
        # A fused reduction (dot_pair, a dot_block Gram matrix)
        # presents several partial lists under ONE reduction count;
        # ``entry`` selects which of them to poison (0-based call
        # index within the fused reduction), so a single entry can be
        # corrupted without touching its siblings.  ``None``
        # keeps the historical behavior: poison every list.
        self.entry = None if entry is None else int(entry)
        self._entry_count = None
        self._entry_index = 0

    def on_reduction(self, partials, count):
        if count != self._entry_count:
            self._entry_count = count
            self._entry_index = 0
        index = self._entry_index
        self._entry_index += 1
        if self.entry is not None and index != self.entry:
            return
        if not self._fires(count):
            return
        if not (0 <= self.rank < len(partials)):
            raise FaultInjectionError(
                f"reduction fault rank {self.rank} out of range "
                f"({len(partials)} partials)")
        if self.factor is not None:
            partials[self.rank] = partials[self.rank] * self.factor
        else:
            partials[self.rank] = self.value

    def describe(self):
        what = (f"factor={self.factor}" if self.factor is not None
                else f"value={self.value}")
        if self.entry is not None:
            what += f", entry={self.entry}"
        return f"reduction(rank={self.rank}, {what}, {super().describe()})"


class EigenboundsFault(FaultInjector):
    """Skew the estimated Chebyshev interval handed to P-CSI.

    Models stale or mis-configured Lanczos bounds.  The dangerous
    direction is ``mu_factor < 1`` (default 0.3): eigenvalues *above*
    the shrunken interval are amplified by the Chebyshev residual
    polynomial and the iteration diverges geometrically -- the
    canonical P-CSI failure.  (Raising ``nu`` merely slows convergence:
    the residual polynomial stays bounded below the interval.)  Counts
    *estimations* (``at=1`` skews only the first; the recovery policy's
    re-estimation then sees honest bounds and the solve completes).
    """

    kind = "eigenbounds"

    def __init__(self, nu_factor=1.0, mu_factor=0.3, **kwargs):
        super().__init__(**kwargs)
        self.nu_factor = float(nu_factor)
        self.mu_factor = float(mu_factor)
        self._estimations = 0

    def on_eigenbounds(self, nu, mu):
        self._estimations += 1
        if not self._fires(self._estimations):
            return nu, mu
        return nu * self.nu_factor, mu * self.mu_factor

    def describe(self):
        return (f"eigenbounds(nu_factor={self.nu_factor}, "
                f"mu_factor={self.mu_factor}, {super().describe()})")


class RHSFault(FaultInjector):
    """Poison the right-hand side with a NaN at a seeded ocean cell.

    Models an upstream blow-up (the barotropic forcing inherits a NaN
    from the baroclinic state).  The entry guard must refuse the solve
    with a ``nonfinite_input`` diagnosis before any work is spent.
    """

    kind = "nan_rhs"

    def __init__(self, value=float("nan"), **kwargs):
        super().__init__(**kwargs)
        self.value = float(value)

    def on_rhs(self, b, mask=None):
        b = np.array(b, dtype=np.float64, copy=True)
        if mask is not None:
            ocean = np.argwhere(np.asarray(mask))
        else:
            ocean = np.argwhere(np.ones(b.shape, dtype=bool))
        if len(ocean) == 0:
            return b
        pick = ocean[int(make_rng(self.seed).integers(len(ocean)))]
        b[tuple(pick)] = self.value
        return b

    def describe(self):
        return f"nan_rhs(value={self.value}, {super().describe()})"


class RankDeathFault(FaultInjector):
    """Kill one simulated rank mid-iteration (node failure).

    Fires after halo round ``at``: the rank's block data is wiped to
    NaN (everything the node held is gone) and the virtual machine is
    notified via :meth:`~repro.parallel.vm.VirtualMachine.notify_rank_death`.
    With a resilience runtime attached (``solve(resilience=...)``) the
    notification raises
    :class:`~repro.parallel.resilience.RankLostError` and the guarded
    loop rebuilds the block from its buddy replica -- no global
    restart.  Without one, the NaN propagates and the existing
    guardrails diagnose the solve as ``nonfinite_residual`` (graceful
    degradation, never a silent wrong answer).
    """

    kind = "rank_death"

    def __init__(self, rank=0, **kwargs):
        super().__init__(**kwargs)
        self.rank = int(rank)

    def on_exchange(self, field, count, vm):
        if not self._fires(count):
            return
        if not (0 <= self.rank < vm.num_ranks):
            raise FaultInjectionError(
                f"rank_death rank {self.rank} out of range "
                f"(machine has {vm.num_ranks} ranks)")
        field.local(self.rank)[...] = float("nan")
        vm.notify_rank_death(self.rank)

    def describe(self):
        return f"rank_death(rank={self.rank}, {super().describe()})"


class BitflipFault(FaultInjector):
    """Flip one bit of one float64 on one rank (silent data corruption).

    Models a radiation-induced upset or a corrupted message.  The
    default bit (62, the high exponent bit) turns an ordinary value
    into an astronomically large -- or non-finite -- one, the classic
    "loud" SDC; lower mantissa bits model subtle drift.

    ``target="halo"`` flips a cell of the halo ring the stencil reads
    (a corrupted-in-flight message -- the ABFT halo checksum catches it
    at delivery); ``target="iterate"`` flips a seeded *ocean* interior
    cell of the exchanged vector (corrupted resident state -- the
    periodic residual cross-check catches it at the next replication
    boundary).
    """

    kind = "bitflip"

    TARGETS = ("halo", "iterate")

    def __init__(self, target="halo", rank=0, bit=62, **kwargs):
        super().__init__(**kwargs)
        if target not in self.TARGETS:
            raise FaultInjectionError(
                f"bitflip target must be one of {self.TARGETS}, "
                f"got {target!r}")
        self.target = target
        self.rank = int(rank)
        self.bit = int(bit)
        if not (0 <= self.bit <= 63):
            raise FaultInjectionError(
                f"bitflip bit must be in [0, 63], got {self.bit}")

    def on_exchange(self, field, count, vm):
        if not self._fires(count):
            return
        if not (0 <= self.rank < vm.num_ranks):
            raise FaultInjectionError(
                f"bitflip rank {self.rank} out of range "
                f"(machine has {vm.num_ranks} ranks)")
        h = field.decomp.halo_width
        local = field.local(self.rank)
        rng = make_rng([self.seed, count])
        if self.target == "halo":
            span = local.shape[1] - 2 * h
            index = (h - 1, h + int(rng.integers(span)))
        else:
            ocean = np.argwhere(vm.local_mask(self.rank) > 0)
            if len(ocean) == 0:
                return
            j, i = ocean[int(rng.integers(len(ocean)))]
            index = (h + int(j), h + int(i))
        if local.ndim == 3:
            index = index + (0,)
        word = np.float64(local[index]).view(np.uint64)
        word = np.uint64(int(word) ^ (1 << self.bit))
        local[index] = word.view(np.float64)

    def describe(self):
        return (f"bitflip(target={self.target}, rank={self.rank}, "
                f"bit={self.bit}, {super().describe()})")


class WorkerCrashError(ReproError):
    """An injected (or detected) worker-process death during a step."""


class PipelineFault(FaultInjector):
    """Base class for faults targeting the experiment pipeline itself.

    Where :class:`FaultInjector` subclasses corrupt *numerics inside* a
    solve, these corrupt the *machinery around* it -- worker processes,
    the shared artifact cache, wall-clock behavior -- to exercise the
    resilient-runner path (retry, pool rebuild, quarantine, resume).

    The runner plans every injection **parent-side**: before dispatching
    attempt ``attempt`` of plan step ``step_index`` it calls
    :meth:`directive` and ships the returned dict into the worker along
    with the step.  Determinism therefore never depends on which worker
    process picks the step up.
    """

    def directive(self, step_index, module_path, attempt):
        """Directive dict for this dispatch, or ``None`` to stay quiet.

        Recognized keys (interpreted by the runner's step executor):
        ``{"crash": True}`` kills the worker process hard
        (``os._exit``; raised as :class:`WorkerCrashError` when the
        step runs inline), ``{"sleep": seconds}`` delays the step by
        that long (driving it into a configured timeout).
        """
        return None

    def on_cache(self, cache_dir):
        """Parent-side hook: damage the shared artifact cache directory
        (called between the warmup and steps waves)."""


class WorkerCrashFault(PipelineFault):
    """Kill the worker executing one plan step, ``attempts`` times.

    Models a preempted/OOM-killed node.  ``step`` selects the 0-based
    plan index; the first ``attempts`` dispatches of that step die, so
    with a retrying :class:`~repro.reporting.runner.FailurePolicy` the
    step succeeds on attempt ``attempts + 1``.
    """

    kind = "worker_crash"

    def __init__(self, step=0, attempts=1, **kwargs):
        super().__init__(**kwargs)
        self.step = int(step)
        self.attempts = int(attempts)

    def directive(self, step_index, module_path, attempt):
        if step_index == self.step and attempt <= self.attempts:
            self.fired += 1
            return {"crash": True}
        return None

    def describe(self):
        return (f"worker_crash(step={self.step}, "
                f"attempts={self.attempts}, {super().describe()})")


class SlowRankFault(PipelineFault):
    """Stall one plan step past a configured per-step timeout.

    Models a straggling rank / wedged filesystem.  The first
    ``attempts`` dispatches of step ``step`` sleep ``sleep`` seconds
    before doing any work; with ``step_timeout < sleep`` the runner
    declares the attempt dead and (under a retrying policy) tries
    again, injection-free.
    """

    kind = "slow_rank"

    def __init__(self, step=0, sleep=30.0, attempts=1, **kwargs):
        super().__init__(**kwargs)
        self.step = int(step)
        self.sleep = float(sleep)
        self.attempts = int(attempts)

    def directive(self, step_index, module_path, attempt):
        if step_index == self.step and attempt <= self.attempts:
            self.fired += 1
            return {"sleep": self.sleep}
        return None

    def describe(self):
        return (f"slow_rank(step={self.step}, sleep={self.sleep}, "
                f"attempts={self.attempts}, {super().describe()})")


class CacheCorruptFault(PipelineFault):
    """Flip bytes inside artifact-cache entries between pipeline waves.

    Models silent disk/network corruption of the shared cache.  After
    the warmup wave has persisted its artifacts the runner hands this
    injector the cache directory; it picks ``count`` seed-determined
    entries and overwrites a byte span in the middle of each file.  The
    cache's read-path checksum must then quarantine the damage and the
    affected steps must transparently rebuild: the pipeline completes
    with no failed steps, and every damaged file is accounted for --
    quarantined during the run if anything read it (scheduling-
    dependent), or still damaged on disk where ``verify(repair=True)``
    catches it.
    """

    kind = "cache_corrupt"

    def __init__(self, count=1, **kwargs):
        super().__init__(**kwargs)
        self.count = int(count)
        self.corrupted = []

    def on_cache(self, cache_dir):
        import os

        if not cache_dir or not os.path.isdir(cache_dir):
            return
        entries = sorted(
            name for name in os.listdir(cache_dir)
            if name.startswith("repro-") and name.endswith(".npz"))
        if not entries:
            return
        rng = make_rng([self.seed, len(entries)])
        picks = rng.choice(len(entries), size=min(self.count, len(entries)),
                           replace=False)
        for index in sorted(int(i) for i in picks):
            path = os.path.join(cache_dir, entries[index])
            try:
                with open(path, "r+b") as handle:
                    handle.seek(0, os.SEEK_END)
                    size = handle.tell()
                    handle.seek(max(0, size // 2))
                    handle.write(b"\xde\xad\xbe\xef")
            except OSError:
                continue
            self.fired += 1
            self.corrupted.append(entries[index])

    def describe(self):
        return (f"cache_corrupt(count={self.count}, "
                f"{super().describe()})")


#: Registry of spec names to injector classes.
FAULTS = {
    HaloFault.kind: HaloFault,
    ReductionFault.kind: ReductionFault,
    EigenboundsFault.kind: EigenboundsFault,
    RHSFault.kind: RHSFault,
    RankDeathFault.kind: RankDeathFault,
    BitflipFault.kind: BitflipFault,
    WorkerCrashFault.kind: WorkerCrashFault,
    SlowRankFault.kind: SlowRankFault,
    CacheCorruptFault.kind: CacheCorruptFault,
}


def _accepted_params(cls):
    """Keyword parameters an injector class accepts, across its MRO."""
    import inspect

    names = set()
    for klass in cls.__mro__:
        if klass is object:
            continue
        try:
            sig = inspect.signature(klass.__init__)
        except (TypeError, ValueError):
            continue
        for param in sig.parameters.values():
            if param.name == "self" or param.kind in (
                    inspect.Parameter.VAR_POSITIONAL,
                    inspect.Parameter.VAR_KEYWORD):
                continue
            names.add(param.name)
    return names


def make_fault(kind, **params):
    """Instantiate a registered injector by kind name.

    Unknown parameter keys are diagnosed by name (with the accepted
    set) rather than surfacing as a bare ``TypeError`` from whichever
    ``__init__`` in the injector's MRO finally rejects them.
    """
    try:
        cls = FAULTS[kind]
    except KeyError:
        raise FaultInjectionError(
            f"unknown fault kind {kind!r}; expected one of "
            f"{sorted(FAULTS)}") from None
    accepted = _accepted_params(cls)
    unknown = sorted(set(params) - accepted)
    if unknown:
        raise FaultInjectionError(
            f"unknown parameter(s) {', '.join(map(repr, unknown))} for "
            f"fault {kind!r}; accepted: {sorted(accepted)}")
    try:
        return cls(**params)
    except TypeError as exc:
        raise FaultInjectionError(
            f"bad parameters for fault {kind!r}: {exc}") from None


def parse_fault_spec(spec):
    """Parse ``"kind:key=value,key=value"`` into an injector.

    Used by ``repro solve --inject-fault``.  Values are parsed as int,
    then float (``nan``/``inf`` included), then ``true``/``false``, then
    kept as strings.  Examples::

        halo
        halo:rank=1,at=2
        reduction:rank=3,factor=1e6,persistent=true
        reduction:rank=0,at=4,entry=2
        eigenbounds:nu_factor=12
        nan_rhs:seed=42
        rank_death:rank=2,at=12
        bitflip:target=halo,rank=1,at=9
        bitflip:target=iterate,rank=0,bit=62,at=15
    """
    spec = spec.strip()
    if not spec:
        raise FaultInjectionError("empty fault spec")
    kind, _, tail = spec.partition(":")
    params = {}
    if tail:
        for item in tail.split(","):
            key, sep, raw = item.partition("=")
            key = key.strip()
            if not sep or not key:
                raise FaultInjectionError(
                    f"malformed fault spec item {item!r} in {spec!r} "
                    f"(expected key=value)")
            params[key] = _parse_value(raw.strip())
    return make_fault(kind.strip(), **params)


def _parse_value(raw):
    lowered = raw.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        value = float(raw)
    except ValueError:
        return raw
    return value

