"""The paper's closed-form per-solve cost models (Eqs. 2, 3, 5, 6).

These are implemented *separately* from the event instrumentation so the
test suite can verify that the counts the running algorithms emit agree
with the algebra the paper derives:

.. math::

   T_{cg}    &= K_{cg} [ 18 N^2/p\\,\\theta + 8N/\\sqrt{p}\\,\\beta
                + (4 + \\log p)\\,\\alpha ]                      \\\\
   T_{pcsi}  &= K_{pcsi} [ 13 N^2/p\\,\\theta + 4\\alpha
                + 8N/\\sqrt{p}\\,\\beta ]                        \\\\
   T'_{cg}   &= K'_{cg} [ 31 N^2/p\\,\\theta + 8N/\\sqrt{p}\\,\\beta
                + (4 + \\log p)\\,\\alpha ]                      \\\\
   T'_{pcsi} &= K'_{pcsi} [ 26 N^2/p\\,\\theta + 4\\alpha
                + 8N/\\sqrt{p}\\,\\beta ]

where ``N^2`` is the global point count, ``p`` the rank count, and the
primed forms use block-EVP preconditioning.  The ``log p`` latency uses
the same binomial-tree depth as the instrumentation, and ``beta`` here
multiplies *words* as in the paper (the conversion to bytes lives in the
machine model).

Note these formulas deliberately use the *paper's* simple ``alpha log p``
all-reduce; the richer machine model (with the straggler term) is what
the experiments use.  Comparing the two quantifies how much of the
large-``p`` behavior the simple model misses.
"""

import math


def _common(n_global, p, machine):
    n2_per_rank = n_global / p
    side = math.sqrt(n_global)
    halo_words = 8.0 * side / math.sqrt(p)
    logp = math.ceil(math.log2(p)) if p > 1 else 0
    return n2_per_rank, halo_words, logp


def chrongear_step_time(n_global, p, machine, iterations=1):
    """Paper Eq. (2): diagonal-preconditioned ChronGear."""
    n2, halo_words, logp = _common(n_global, p, machine)
    per_iter = (
        18.0 * n2 * machine.theta
        + halo_words * 8 * machine.beta
        + (4 + logp) * machine.alpha
    )
    return iterations * per_iter


def pcsi_step_time(n_global, p, machine, iterations=1):
    """Paper Eq. (3): diagonal-preconditioned P-CSI."""
    n2, halo_words, _ = _common(n_global, p, machine)
    per_iter = (
        13.0 * n2 * machine.theta
        + 4 * machine.alpha
        + halo_words * 8 * machine.beta
    )
    return iterations * per_iter


def chrongear_evp_step_time(n_global, p, machine, iterations=1):
    """Paper Eq. (5): block-EVP-preconditioned ChronGear."""
    n2, halo_words, logp = _common(n_global, p, machine)
    per_iter = (
        31.0 * n2 * machine.theta
        + halo_words * 8 * machine.beta
        + (4 + logp) * machine.alpha
    )
    return iterations * per_iter


def pcsi_evp_step_time(n_global, p, machine, iterations=1):
    """Paper Eq. (6): block-EVP-preconditioned P-CSI."""
    n2, halo_words, _ = _common(n_global, p, machine)
    per_iter = (
        26.0 * n2 * machine.theta
        + 4 * machine.alpha
        + halo_words * 8 * machine.beta
    )
    return iterations * per_iter
