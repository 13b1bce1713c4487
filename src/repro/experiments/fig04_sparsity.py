"""Figure 4: block structure of the coefficient matrix.

The paper's Figure 4 illustrates that reordering the unknowns
block-by-block turns the nine-point operator into a *nine-diagonal
block* matrix: each block row couples to at most nine blocks (itself,
four edge neighbors with at most ``3n`` entries on ``n`` rows, and four
corner neighbors with exactly one entry).  This structure is what makes
the block-diagonal preconditioner natural.

We assemble the matrix in blocked ordering and verify/report those
structural facts quantitatively.
"""

import numpy as np

from repro.experiments.common import (
    ExperimentResult,
    Series,
    print_result,
)
from repro.grid import test_config
from repro.operators import to_sparse
from repro.parallel import decompose


def run(ny=48, nx=48, blocks=3, seed=4, aquaplanet=True):
    """Assemble in blocked order and measure the block coupling pattern.

    Returns per-block-row counts of coupled blocks and entry counts per
    coupling class (self / edge / corner).
    """
    config = test_config(ny, nx, seed=seed, aquaplanet=aquaplanet)
    decomp = decompose(ny, nx, blocks, blocks, curve="rowmajor")
    matrix = to_sparse(config.stencil, order="blocked", decomp=decomp).tocoo()

    # Map each unknown to its block (in blocked numbering, unknowns are
    # contiguous per block).
    boundaries = []
    counter = 0
    for block in decomp.blocks:
        boundaries.append((counter, counter + block.npoints))
        counter += block.npoints

    def block_of(index):
        for bidx, (lo, hi) in enumerate(boundaries):
            if lo <= index < hi:
                return bidx
        raise AssertionError(index)

    nblocks = len(decomp.blocks)
    coupled = [set() for _ in range(nblocks)]
    entries = np.zeros((nblocks, nblocks), dtype=np.int64)
    for r, c in zip(matrix.row, matrix.col):
        br, bc = block_of(int(r)), block_of(int(c))
        coupled[br].add(bc)
        entries[br, bc] += 1

    coupled_counts = [len(s) for s in coupled]
    corner_entries = []
    edge_entries = []
    for bidx, block in enumerate(decomp.blocks):
        neigh = decomp.neighbors(block)
        for d in ("ne", "nw", "se", "sw"):
            n = neigh[d]
            if n is not None:
                corner_entries.append(int(entries[bidx, n.index]))
        for d in ("n", "s", "e", "w"):
            n = neigh[d]
            if n is not None:
                edge_entries.append(int(entries[bidx, n.index]))

    result = ExperimentResult(
        name="fig04",
        title=f"Blocked-ordering structure, {ny}x{nx} grid in "
              f"{blocks}x{blocks} blocks",
        series=[Series("coupled blocks per block row",
                       [f"block {i}" for i in range(nblocks)],
                       [float(c) for c in coupled_counts])],
        notes={
            "max coupled blocks (paper: 9)": max(coupled_counts),
            "corner-coupling entries (paper: exactly 1 each)":
                sorted(set(corner_entries)),
            "max edge-coupling entries (paper: <= 3n)": max(edge_entries),
            "3n for this block size": 3 * decomp.max_block_shape()[0],
        },
    )
    return result


def main():
    print_result(run(), xlabel="block", fmt="{:.0f}")


if __name__ == "__main__":
    main()
