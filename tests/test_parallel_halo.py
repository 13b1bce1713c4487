"""Unit and property tests for the halo exchange."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import DecompositionError
from repro.parallel import decompose
from repro.parallel.halo import BlockField, HaloExchanger


def _random_field(decomp, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((decomp.ny, decomp.nx))


class TestScatterGather:
    def test_roundtrip_identity(self):
        decomp = decompose(12, 16, 3, 2)
        ex = HaloExchanger(decomp)
        g = _random_field(decomp)
        assert np.array_equal(ex.gather(ex.scatter(g)), g)

    def test_gather_fills_eliminated_blocks(self):
        mask = np.zeros((12, 12), dtype=bool)
        mask[:6, :] = True
        decomp = decompose(12, 12, 2, 2, mask=mask)
        ex = HaloExchanger(decomp)
        field = ex.scatter(np.ones((12, 12)))
        out = ex.gather(field, fill=-7.0)
        assert np.all(out[6:, :] == -7.0)
        assert np.all(out[:6, :] == 1.0)

    def test_scatter_shape_mismatch_raises(self):
        decomp = decompose(8, 8, 2, 2)
        with pytest.raises(DecompositionError):
            HaloExchanger(decomp).scatter(np.ones((4, 4)))

    def test_block_smaller_than_halo_raises(self):
        decomp = decompose(4, 4, 4, 4, halo_width=2)
        with pytest.raises(DecompositionError):
            HaloExchanger(decomp)


class TestExchangeCorrectness:
    def test_halo_matches_global_neighborhood(self):
        """After exchange, every local padded window equals the global
        zero-padded window."""
        decomp = decompose(12, 18, 3, 3, halo_width=2)
        ex = HaloExchanger(decomp)
        g = _random_field(decomp, seed=3)
        field = ex.scatter(g)
        ex.exchange(field)
        h = 2
        padded = np.zeros((decomp.ny + 2 * h, decomp.nx + 2 * h))
        padded[h:-h, h:-h] = g
        for rank, block in enumerate(decomp.active_blocks):
            window = padded[block.j0:block.j1 + 2 * h,
                            block.i0:block.i1 + 2 * h]
            assert np.array_equal(field.local(rank), window), rank

    def test_direct_equals_global_path(self):
        decomp = decompose(15, 21, 3, 3, halo_width=2)
        ex = HaloExchanger(decomp)
        g = _random_field(decomp, seed=5)
        a = ex.scatter(g)
        b = ex.scatter(g)
        ex.exchange(a)
        ex.exchange_via_global(b)
        for rank in range(decomp.num_active):
            assert np.array_equal(a.local(rank), b.local(rank)), rank

    @given(
        ny=st.integers(8, 24),
        nx=st.integers(8, 24),
        mby=st.integers(1, 3),
        mbx=st.integers(1, 3),
        seed=st.integers(0, 99),
    )
    @settings(max_examples=40, deadline=None)
    def test_direct_equals_global_path_property(self, ny, nx, mby, mbx, seed):
        if ny // mby < 2 or nx // mbx < 2:
            return
        decomp = decompose(ny, nx, mby, mbx, halo_width=2)
        ex = HaloExchanger(decomp)
        g = _random_field(decomp, seed=seed)
        a = ex.scatter(g)
        b = ex.scatter(g)
        ex.exchange(a)
        ex.exchange_via_global(b)
        for rank in range(decomp.num_active):
            assert np.array_equal(a.local(rank), b.local(rank))

    def test_eliminated_neighbor_reads_zero(self):
        mask = np.zeros((12, 12), dtype=bool)
        mask[:6, :] = True
        decomp = decompose(12, 12, 2, 2, mask=mask, halo_width=2)
        ex = HaloExchanger(decomp)
        field = ex.scatter(np.ones((12, 12)) * mask)
        ex.exchange(field)
        # Active blocks are the bottom row; their north halos face the
        # eliminated land blocks and must read zero.
        for rank, block in enumerate(decomp.active_blocks):
            assert np.all(field.local(rank)[-2:, :] == 0.0)


class TestBlockField:
    def test_zeros_shapes(self):
        decomp = decompose(10, 12, 2, 2, halo_width=2)
        field = BlockField.zeros(decomp)
        block = decomp.active_blocks[0]
        assert field.local(0).shape == (block.ny + 4, block.nx + 4)

    def test_copy_is_independent(self):
        decomp = decompose(8, 8, 2, 2)
        field = BlockField.zeros(decomp)
        dup = field.copy()
        dup.interior(0)[...] = 5.0
        assert np.all(field.interior(0) == 0.0)


@pytest.mark.parametrize("shape,blocks,land", [
    ((12, 16), (3, 2), False),     # uniform tiles: one assignment
    ((12, 12), (2, 2), True),      # uniform, a land block eliminated
    ((13, 16), (3, 2), False),     # ragged: block by block
])
@pytest.mark.parametrize("nrhs", [None, 3])
def test_stacked_gather_equals_per_rank(shape, blocks, land, nrhs):
    """A stacked field gathers to the per-rank layout's global array, bit
    for bit, eliminated blocks filled."""
    mask = None
    if land:
        mask = np.ones(shape, dtype=bool)
        mask[6:, 6:] = False
    decomp = decompose(*shape, *blocks, mask=mask)
    ex = HaloExchanger(decomp)
    g = np.random.default_rng(5).standard_normal(
        shape + (() if nrhs is None else (nrhs,)))
    stacked, plain = ex.scatter(g, stacked=True), ex.scatter(g)
    assert stacked.is_stacked and not plain.is_stacked
    assert np.array_equal(ex.gather(stacked, fill=-7.0),
                          ex.gather(plain, fill=-7.0))
    assert (ex._tiles() is not None) == (shape != (13, 16))
