"""Unit tests for the event ledger, reductions and the virtual machine."""

import numpy as np
import pytest

from repro.parallel import VirtualMachine, decompose
from repro.parallel.events import EventCounts, EventLedger
from repro.parallel.halo import HaloExchanger
from repro.parallel.reduction import (
    binomial_tree_depth,
    masked_global_sum_blocks,
    masked_local_dot,
)


class TestEventLedger:
    def test_record_and_totals(self):
        ledger = EventLedger()
        ledger.record_flops("computation", 100)
        ledger.record_flops("computation", 50)
        ledger.record_halo("boundary", words=80)
        ledger.record_allreduce("reduction", words=2)
        total = ledger.total()
        assert total.flops == 150
        assert total.halo_exchanges == 1 and total.halo_words == 80
        assert total.allreduces == 1 and total.allreduce_words == 2

    def test_snapshot_diff(self):
        ledger = EventLedger()
        ledger.record_flops("computation", 10)
        snap = ledger.snapshot()
        ledger.record_flops("computation", 7)
        ledger.record_allreduce("reduction")
        diff = ledger.since(snap)
        assert diff["computation"].flops == 7
        assert diff["reduction"].allreduces == 1

    def test_snapshot_is_independent(self):
        ledger = EventLedger()
        ledger.record_flops("computation", 5)
        snap = ledger.snapshot()
        ledger.record_flops("computation", 5)
        assert snap["computation"].flops == 5

    def test_counts_unknown_phase_zero(self):
        assert EventLedger().counts("nope") == EventCounts()

    def test_reset(self):
        ledger = EventLedger()
        ledger.record_flops("computation", 5)
        ledger.reset()
        assert ledger.total().flops == 0

    def test_event_counts_add(self):
        a = EventCounts(flops=1, halo_exchanges=2, halo_words=3,
                        allreduces=4, allreduce_words=5)
        b = a + a
        assert b == EventCounts(2, 4, 6, 8, 10)


class TestReduction:
    def test_tree_depth(self):
        assert binomial_tree_depth(1) == 0
        assert binomial_tree_depth(2) == 1
        assert binomial_tree_depth(1024) == 10
        assert binomial_tree_depth(1025) == 11
        with pytest.raises(ValueError):
            binomial_tree_depth(0)

    def test_rank_ordered_sum_deterministic(self):
        values = [0.1, 0.2, 0.3, -0.1]
        assert masked_global_sum_blocks(values) == \
            masked_global_sum_blocks(values)

    def test_local_dot(self):
        a = np.array([[1.0, 2.0]])
        b = np.array([[3.0, 4.0]])
        m = np.array([[1.0, 0.0]])
        assert masked_local_dot(a, b, m) == 3.0


class TestVirtualMachine:
    def setup_method(self):
        self.decomp = decompose(12, 16, 2, 2, halo_width=2)
        rng = np.random.default_rng(0)
        self.mask = rng.random((12, 16)) > 0.25
        self.vm = VirtualMachine(self.decomp, mask=self.mask)
        self.a = rng.standard_normal((12, 16))
        self.b = rng.standard_normal((12, 16))

    def test_global_dot_matches_numpy(self):
        af = self.vm.scatter(self.a)
        bf = self.vm.scatter(self.b)
        got = self.vm.global_dot(af, bf)
        want = float(np.sum(self.a * self.b * self.mask))
        assert got == pytest.approx(want, rel=1e-14)

    def test_global_dot_pair_matches_two_dots(self):
        af = self.vm.scatter(self.a)
        bf = self.vm.scatter(self.b)
        v1, v2 = self.vm.global_dot_pair(af, bf, bf, bf)
        assert v1 == pytest.approx(float(np.sum(self.a * self.b * self.mask)))
        assert v2 == pytest.approx(float(np.sum(self.b * self.b * self.mask)))

    def test_dot_records_split_events(self):
        af = self.vm.scatter(self.a)
        self.vm.global_dot(af, af)
        comp = self.vm.ledger.counts("computation")
        red = self.vm.ledger.counts("reduction")
        n = self.vm.max_block_points
        assert comp.flops == n
        assert red.flops == n
        assert red.allreduces == 1 and red.allreduce_words == 1

        # Every reduction at every width, on a uniform and on a ragged,
        # land-eliminated lattice, under both engines: the values, the
        # ledger records and the partial lists the fault hooks see are
        # those of the rank-by-rank, column-by-column definition.
        rng = np.random.default_rng(5)
        land = rng.random((13, 17)) > 0.2
        land[:5, :6] = False                 # one all-land block
        lattices = [(self.decomp, self.mask),
                    (decompose(13, 17, 3, 3, halo_width=2, mask=land), land)]
        assert not lattices[1][0].is_uniform
        assert lattices[1][0].num_active < 9
        for decomp, mask in lattices:
            shape = (decomp.ny, decomp.nx)
            for width in (None, 1, 3):
                fields = [rng.standard_normal(
                    shape + (() if width is None else (width,)))
                    for _ in range(3)]
                for engine in ("batched", "perrank"):
                    self._check_reductions(decomp, mask, width, fields,
                                           engine)

    @staticmethod
    def _check_reductions(decomp, mask, width, fields, engine):
        class Recorder:
            def __init__(self):
                self.seen = []

            def on_exchange(self, field, count, vm):
                pass

            def on_reduction(self, partials, count):
                self.seen.append((count, list(partials)))

        recorder = Recorder()
        vm = VirtualMachine(decomp, mask=mask, engine=engine,
                            faults=[recorder])
        mask_f = mask.astype(np.float64)
        cols = [None] if width is None else list(range(width))

        def partials(a, b, j):
            out = []
            for block in decomp.active_blocks:
                ab = [v[block.slices] if j is None else v[block.slices][..., j]
                      for v in (a, b)]
                out.append(masked_local_dot(*ab, mask_f[block.slices]))
            return out

        def value(lists):
            sums = [masked_global_sum_blocks(p) for p in lists]
            return sums[0] if width is None else np.array(sums)

        a, b, c = fields
        fa, fb, fc = (vm.scatter(v) for v in fields)
        n = vm.max_block_points
        expected = []    # (lists the hooks see, value) per reduction

        got = vm.global_dot(fa, fb)
        lists = [partials(a, b, j) for j in cols]
        expected.append(lists)
        assert type(got) is type(value(lists))
        assert np.array_equal(got, value(lists))

        got1, got2 = vm.global_dot_pair(fa, fb, fc, fa, phase="overlap")
        lists = [p for j in cols for p in (partials(a, b, j),
                                           partials(c, a, j))]
        expected.append(lists)
        assert np.array_equal(got1, value(lists[0::2]))
        assert np.array_equal(got2, value(lists[1::2]))

        got = vm.global_dot_block([fa, fb], [fa, fb, fc])
        lists = [partials(x, y, j) for x in (a, b) for y in (a, b, c)
                 for j in cols]
        expected.append(lists)
        assert got.shape == (2, 3) + (() if width is None else (width,))
        assert np.array_equal(got.ravel(), [masked_global_sum_blocks(p)
                                            for p in lists])

        assert recorder.seen == [(k + 1, lists)
                                 for k, entries in enumerate(expected)
                                 for lists in entries]
        w = len(cols)
        words = {"reduction": w + 6 * w, "overlap": 2 * w}
        assert vm.ledger.counts("computation").flops == 9 * w * n
        for phase, nwords in words.items():
            counts = vm.ledger.counts(phase)
            assert counts.flops == nwords * n
            assert counts.allreduce_words == nwords
        assert vm.ledger.counts("reduction").allreduces == 2
        assert vm.ledger.counts("overlap").allreduces == 1

    def test_exchange_records_boundary_event(self):
        af = self.vm.scatter(self.a)
        self.vm.exchange(af)
        counts = self.vm.ledger.counts("boundary")
        assert counts.halo_exchanges == 1
        assert counts.halo_words == self.decomp.halo_words_per_exchange()

    def test_fast_and_slow_exchange_agree(self):
        # The per-rank engine's global-assembly update against the
        # point-to-point reference.
        exchanger = HaloExchanger(self.decomp)
        a = exchanger.scatter(self.a)
        b = exchanger.scatter(self.a)
        exchanger.exchange_via_global(a)
        exchanger.exchange(b)
        for rank in range(self.decomp.num_active):
            assert np.array_equal(a.local(rank), b.local(rank))

    def test_default_mask_all_ocean(self):
        vm = VirtualMachine(self.decomp)
        af = vm.scatter(self.a)
        got = vm.global_dot(af, af)
        assert got == pytest.approx(float(np.sum(self.a * self.a)))
