"""Multi-block rank placement and load-balance analysis.

Production POP typically assigns *several* blocks to each rank: smaller
blocks expose land for elimination and let the space-filling-curve
assignment even out the ocean work, at the price of more halo perimeter
per rank.  The paper leans on this machinery ("the choice of ocean block
size and layout ... has a large impact on performance", section 5.2) and
fixes the decomposition recipe to keep it out of the solver comparison;
here it is implemented so the trade-off itself can be studied (the
block-layout ablation).

:func:`balanced_rank_assignment` walks the active blocks in curve order
and cuts the sequence into ``ranks`` contiguous chunks of approximately
equal *ocean-point* work (a one-dimensional partition of the SFC -- the
standard space-filling-curve partitioning of Dennis 2007).
:class:`PlacementReport` summarizes the result: per-rank work, load
imbalance, and per-rank halo perimeter.
"""

from dataclasses import dataclass

from repro.core.errors import DecompositionError


@dataclass
class PlacementReport:
    """Load and communication summary of one block placement.

    Attributes
    ----------
    ranks:
        Number of ranks actually used.
    blocks_per_rank:
        List (by rank) of block-index lists.
    work_per_rank:
        Ocean points per rank.
    halo_words_per_rank:
        Halo words each rank sends per exchange (sum of its blocks'
        perimeters; block-to-block copies within a rank are counted too,
        as POP does unless blocks are fused).
    """

    ranks: int
    blocks_per_rank: list
    work_per_rank: list
    halo_words_per_rank: list

    @property
    def max_work(self):
        """Critical-path ocean points."""
        return max(self.work_per_rank)

    @property
    def mean_work(self):
        return sum(self.work_per_rank) / len(self.work_per_rank)

    @property
    def imbalance(self):
        """``max/mean`` work ratio (1.0 = perfectly balanced)."""
        mean = self.mean_work
        return self.max_work / mean if mean > 0 else float("inf")

    @property
    def max_halo_words(self):
        """Critical-path halo words per exchange."""
        return max(self.halo_words_per_rank)

    def describe(self):
        return (
            f"{self.ranks} ranks, max work {self.max_work} pts "
            f"(imbalance {self.imbalance:.3f}), max halo "
            f"{self.max_halo_words} words/exchange"
        )


def _block_halo_words(block, halo_width):
    """Words one block contributes to its rank's halo traffic."""
    h = halo_width
    return 2 * h * block.nx + 2 * h * (block.ny + 2 * h)


def balanced_rank_assignment(decomp, ranks):
    """Partition the SFC-ordered active blocks into balanced rank chunks.

    Greedy prefix partition: walk blocks in rank (curve) order and close
    a chunk once its ocean-point work reaches the remaining-average
    target.  Guarantees every rank gets at least one block when
    ``ranks <= num_active``.

    Returns a :class:`PlacementReport`.
    """
    if ranks < 1:
        raise DecompositionError(f"ranks must be >= 1, got {ranks}")
    blocks = decomp.active_blocks
    if ranks > len(blocks):
        raise DecompositionError(
            f"cannot place {len(blocks)} active blocks on {ranks} ranks "
            "(at least one block per rank required)"
        )

    total_work = sum(b.n_ocean for b in blocks)
    assignment = []
    work = []
    halo = []
    current = []
    current_work = 0
    remaining_work = total_work
    remaining_ranks = ranks
    for i, block in enumerate(blocks):
        blocks_left_after = len(blocks) - (i + 1)
        current.append(block.index)
        current_work += block.n_ocean
        target = remaining_work / remaining_ranks
        must_close = blocks_left_after == remaining_ranks - 1
        if remaining_ranks > 1 and (current_work >= target or must_close):
            assignment.append(current)
            work.append(current_work)
            halo.append(sum(
                _block_halo_words(blocks_by_index(decomp)[idx],
                                  decomp.halo_width)
                for idx in current))
            remaining_work -= current_work
            remaining_ranks -= 1
            current = []
            current_work = 0
    assignment.append(current)
    work.append(current_work)
    halo.append(sum(
        _block_halo_words(blocks_by_index(decomp)[idx], decomp.halo_width)
        for idx in current))

    return PlacementReport(
        ranks=len(assignment),
        blocks_per_rank=assignment,
        work_per_rank=work,
        halo_words_per_rank=halo,
    )


def blocks_by_index(decomp):
    """Index -> Block lookup (cached on the decomposition)."""
    cache = getattr(decomp, "_blocks_by_index", None)
    if cache is None:
        cache = {b.index: b for b in decomp.blocks}
        decomp._blocks_by_index = cache
    return cache


def placement_for_block_size(config, cores, block_size, curve="hilbert",
                             halo_width=2):
    """Decompose ``config`` into ``block_size`` blocks and place on ranks.

    Returns ``(decomposition, PlacementReport)``.  Smaller blocks both
    eliminate more land and balance better; the report's
    ``max_halo_words`` shows what that costs in communication.
    """
    from repro.parallel.decomposition import decompose

    mby = max(1, round(config.ny / block_size))
    mbx = max(1, round(config.nx / block_size))
    decomp = decompose(config.ny, config.nx, mby, mbx, mask=config.mask,
                       curve=curve, halo_width=halo_width)
    report = balanced_rank_assignment(decomp, min(cores, decomp.num_active))
    return decomp, report
