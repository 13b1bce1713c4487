"""Edge coverage for overlapped pricing and reduction helpers."""

import pytest

from repro.parallel.events import EventCounts
from repro.perfmodel import MachineSpec
from repro.perfmodel.timing import phase_times, phase_times_overlapped

MACHINE = MachineSpec("m", theta=1e-9, alpha=1e-6, beta=1e-10,
                      ar_alpha=1e-5, ar_linear=0.0)


class TestOverlappedPricing:
    def test_fully_hidden_reduction_costs_nothing_extra(self):
        """Small all-reduce total vs large compute budget: hidden."""
        events = {
            "computation": EventCounts(flops=10_000_000),  # 10 ms
            "reduction_overlap": EventCounts(flops=100, allreduces=2),
        }
        t = phase_times_overlapped(events, MACHINE, p=1024)
        # only the masking flops remain
        assert t.reduction == pytest.approx(100 * 1e-9)

    def test_excess_reduction_spills_over(self):
        """All-reduce total beyond the compute budget is paid."""
        events = {
            "computation": EventCounts(flops=1000),  # 1 us budget
            "reduction_overlap": EventCounts(allreduces=100),  # ~10ms
        }
        ar_total = 100 * MACHINE.allreduce_time(1024)
        t = phase_times_overlapped(events, MACHINE, p=1024)
        assert t.reduction == pytest.approx(ar_total - 1000 * 1e-9)

    def test_blocking_reductions_unaffected(self):
        events = {
            "computation": EventCounts(flops=10_000_000),
            "reduction": EventCounts(allreduces=3),
        }
        plain = phase_times(events, MACHINE, p=64)
        over = phase_times_overlapped(events, MACHINE, p=64)
        assert plain.reduction == pytest.approx(over.reduction)

    def test_plain_pricing_charges_overlap_phase_fully(self):
        events = {"reduction_overlap": EventCounts(allreduces=5)}
        t = phase_times(events, MACHINE, p=64)
        assert t.reduction == pytest.approx(5 * MACHINE.allreduce_time(64))
        assert t.setup == 0.0

    def test_single_rank_overlap_free(self):
        events = {"reduction_overlap": EventCounts(allreduces=5)}
        t = phase_times_overlapped(events, MACHINE, p=1)
        assert t.total == 0.0


class TestLedgerSinceEdges:
    def test_since_handles_phases_missing_from_snapshot(self):
        from repro.parallel.events import EventLedger

        ledger = EventLedger()
        snap = ledger.snapshot()      # empty
        ledger.record_flops("computation", 4)
        diff = ledger.since(snap)
        assert diff["computation"].flops == 4

    def test_since_handles_phases_missing_from_now(self):
        from repro.parallel.events import EventLedger

        ledger = EventLedger()
        ledger.record_flops("setup", 4)
        snap = ledger.snapshot()
        ledger.reset()
        diff = ledger.since(snap)
        assert diff["setup"].flops == -4
