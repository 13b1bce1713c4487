"""Event instrumentation for the virtual machine.

Modeled wall-clock time in this reproduction is always computed from
*counted events*, never from closed-form iteration estimates: the solver
contexts record, per logical phase, how many floating-point operations
the critical-path rank executed, how many halo exchanges it took part in
(and their volume), and how many global reductions were issued.  The
analytic machine models in :mod:`repro.perfmodel` then price those
events.

Bulk-synchronous timing model
-----------------------------
POP's barotropic solver is bulk synchronous: every rank performs the same
sequence of operations on its own block, separated by halo exchanges and
all-reduces.  Time per step therefore equals the *maximum* over ranks of
local work plus the shared communication cost.  The ledger tracks the
critical rank's flops directly (callers pass per-rank maxima), so
``flops`` here means "flops on the slowest active rank".

Phases
------
Events carry a free-form phase label.  The solvers use the labels that
match the paper's cost decomposition (section 2.2):

* ``"computation"``   -- vector ops and the stencil matrix-vector product,
* ``"preconditioning"`` -- application of M^-1,
* ``"boundary"``      -- halo updates,
* ``"reduction"``     -- masked global sums (including the masking flops),
* ``"setup"``         -- one-time costs (preconditioner factorization,
  Lanczos eigenvalue estimation),
* ``"recovery"``      -- work burned by failed solve attempts and the
  re-estimation that follows (see the P-CSI recovery policy); priced as
  a one-time cost by the machine models, like setup.
* ``"resilience"``    -- the in-solve fault-tolerance layer: buddy
  replica sends, ABFT checksum verification, and work rolled back
  after a detected rank loss or silent corruption (see
  :mod:`repro.parallel.resilience`), so its overhead is measurable.
"""

from dataclasses import dataclass, field


PHASES = ("computation", "preconditioning", "boundary", "reduction",
          "setup", "resilience")


@dataclass
class EventCounts:
    """Raw event totals for one phase.

    Attributes
    ----------
    flops:
        Floating-point operations executed by the critical-path rank.
    halo_exchanges:
        Number of halo-update rounds (each round is 4 point-to-point
        messages per rank in POP's 2-D decomposition).
    halo_words:
        Total 8-byte words sent by the critical-path rank across all
        recorded halo exchanges.
    allreduces:
        Number of global reductions issued.
    allreduce_words:
        Total words contributed per rank across all recorded reductions
        (2 per ChronGear iteration: rho and delta).
    """

    flops: int = 0
    halo_exchanges: int = 0
    halo_words: int = 0
    allreduces: int = 0
    allreduce_words: int = 0

    def __add__(self, other):
        return EventCounts(
            flops=self.flops + other.flops,
            halo_exchanges=self.halo_exchanges + other.halo_exchanges,
            halo_words=self.halo_words + other.halo_words,
            allreduces=self.allreduces + other.allreduces,
            allreduce_words=self.allreduce_words + other.allreduce_words,
        )


class EventLedger:
    """Accumulates :class:`EventCounts` per phase.

    A ledger is attached to a solver context; each solve appends to it.
    ``split()`` snapshots allow measuring a single solve inside a longer
    run.
    """

    def __init__(self):
        self._phases = {}

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record_flops(self, phase, count):
        """Record ``count`` flops on the critical-path rank."""
        self._bucket(phase).flops += int(count)

    def record_halo(self, phase, words, exchanges=1):
        """Record ``exchanges`` halo rounds moving ``words`` words total."""
        bucket = self._bucket(phase)
        bucket.halo_exchanges += int(exchanges)
        bucket.halo_words += int(words)

    def record_allreduce(self, phase, words=1, count=1):
        """Record ``count`` global reductions of ``words`` words per
        rank each."""
        bucket = self._bucket(phase)
        bucket.allreduces += int(count)
        bucket.allreduce_words += int(count) * int(words)

    def merge(self, phases):
        """Add a per-phase ``{name: EventCounts}`` mapping into the ledger.

        Used to *replay* memoized event streams -- e.g. a cached Lanczos
        estimation's setup events -- so downstream timing models observe
        exactly the totals a fresh run would have recorded.
        """
        for name, counts in phases.items():
            self._phases[name] = self.counts(name) + counts

    def transfer(self, snapshot, phase):
        """Move everything recorded since ``snapshot`` into ``phase``.

        Used by the P-CSI recovery policy: a failed attempt's events
        were recorded under the usual phases (computation, boundary,
        ...), but the work was recovery overhead, not productive solve
        time -- re-charging it to a dedicated phase keeps both the
        per-phase breakdown of the eventual successful solve and the
        total modeled cost honest.  Events already in ``phase`` within
        the window stay put.  Returns the moved :class:`EventCounts`
        total.
        """
        moved = EventCounts()
        for name, delta in self.since(snapshot).items():
            if name == phase or not any(vars(delta).values()):
                continue
            bucket = self._bucket(name)
            bucket.flops -= delta.flops
            bucket.halo_exchanges -= delta.halo_exchanges
            bucket.halo_words -= delta.halo_words
            bucket.allreduces -= delta.allreduces
            bucket.allreduce_words -= delta.allreduce_words
            moved = moved + delta
        if any(vars(moved).values()):
            self._phases[phase] = self.counts(phase) + moved
        return moved

    def _bucket(self, phase):
        if phase not in self._phases:
            self._phases[phase] = EventCounts()
        return self._phases[phase]

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def phases(self):
        """Mapping of phase name to :class:`EventCounts` (live view)."""
        return self._phases

    def counts(self, phase):
        """Counts for ``phase`` (zeros if the phase never recorded)."""
        return self._phases.get(phase, EventCounts())

    def total(self):
        """Sum of counts across every phase."""
        out = EventCounts()
        for counts in self._phases.values():
            out = out + counts
        return out

    def snapshot(self):
        """An independent copy of the current per-phase totals."""
        return {name: EventCounts(**vars(c)) for name, c in self._phases.items()}

    def since(self, snapshot):
        """Per-phase difference between now and an earlier ``snapshot``."""
        out = {}
        names = set(self._phases) | set(snapshot)
        for name in names:
            now = self.counts(name)
            then = snapshot.get(name, EventCounts())
            out[name] = EventCounts(
                flops=now.flops - then.flops,
                halo_exchanges=now.halo_exchanges - then.halo_exchanges,
                halo_words=now.halo_words - then.halo_words,
                allreduces=now.allreduces - then.allreduces,
                allreduce_words=now.allreduce_words - then.allreduce_words,
            )
        return out

    def reset(self):
        """Clear all recorded events."""
        self._phases.clear()

    def __repr__(self):
        parts = ", ".join(
            f"{name}={vars(counts)}" for name, counts in sorted(self._phases.items())
        )
        return f"EventLedger({parts})"
