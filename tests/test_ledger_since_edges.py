"""Edge coverage for ``EventLedger.since``."""


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
