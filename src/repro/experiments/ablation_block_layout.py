"""Ablation: ocean block size vs load balance and halo traffic.

Paper (section 5.2): "the choice of ocean block size and layout, which
affects the distribution of work across processors, has a large impact
on performance" -- which is why the paper pins aspect ratio, land ratio
and space-filling curves before comparing solvers.  This ablation opens
that box: for a fixed rank count, sweep the block size and report

* the land-block elimination ratio (smaller blocks expose more land),
* the load imbalance of the SFC-balanced placement (smaller blocks
  balance better),
* the critical-path halo words per exchange (smaller blocks cost more
  perimeter),
* a modeled per-iteration time combining the three effects.
"""

from repro.experiments.common import (
    ExperimentResult,
    Series,
    get_cached_config,
    print_result,
)
from repro.parallel.placement import placement_for_block_size
from repro.perfmodel import YELLOWSTONE

DEFAULT_BLOCK_SIZES = (12, 18, 24, 36, 48)


def run(config_name="pop_0.1deg", scale=0.25, cores=256,
        block_sizes=DEFAULT_BLOCK_SIZES, machine=YELLOWSTONE,
        flops_per_point=18):
    """Sweep block size at fixed core count."""
    config = get_cached_config(config_name, scale=scale)

    land_ratio, imbalance, halo_words, modeled = [], [], [], []
    for size in block_sizes:
        decomp, report = placement_for_block_size(config, cores, size)
        land_ratio.append(decomp.land_block_ratio)
        imbalance.append(report.imbalance)
        halo_words.append(float(report.max_halo_words))
        # one ChronGear-iteration-equivalent on the critical rank
        t = (flops_per_point * report.max_work * machine.theta
             + machine.halo_time(report.max_halo_words)
             + machine.allreduce_time(report.ranks))
        modeled.append(t * 1e6)  # microseconds

    result = ExperimentResult(
        name="ablation_block_layout",
        title=f"Block size vs balance/communication at {cores} ranks "
              f"({config.name}); per-iteration model in microseconds",
        series=[
            Series("land-block ratio", list(block_sizes), land_ratio),
            Series("load imbalance (max/mean)", list(block_sizes),
                   imbalance),
            Series("critical halo words", list(block_sizes), halo_words),
            Series("modeled us/iteration", list(block_sizes), modeled),
        ],
    )
    best = min(range(len(block_sizes)), key=lambda i: modeled[i])
    result.notes["best block size (this model)"] = block_sizes[best]
    result.notes["paper recipe"] = (
        "3:2 aspect, land ratio 0.25, space-filling curves (section 5.2)"
    )
    return result


def main():
    print_result(run(), xlabel="block size", fmt="{:.4g}")


if __name__ == "__main__":
    main()
