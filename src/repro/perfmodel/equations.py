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


def capcg_step_time(n_global, p, machine, s=4, iterations=1):
    """Closed-form cost of s-step CA-PCG (diagonal preconditioning).

    Per *outer* iteration (``s`` CG steps) the solver runs ``2s + 2``
    matvec-equivalents (``s`` stacked width-2 basis rounds, one extra
    for ``A P_s``, one residual replacement), ``2s + 1`` preconditioner
    applications, the three-term basis combinations (``6s - 2`` flop
    units), the materialization/search-direction rebuild (``3 (2s+1)``)
    and the ``(2s+1) x (2s+2)``-entry Gram assembly -- but only ONE
    global reduction, so the ``alpha log p`` latency term is divided by
    ``s``:

    .. math::

       T_{capcg} = \\frac{K}{s} [ (4s^2 + 38s + 22)\\,N^2/p\\,\\theta
                   + (2s + 2) \\cdot 8N/\\sqrt{p}\\,\\beta
                   + (4 + \\log p)\\,\\alpha ]

    The flop coefficient is ~3x ChronGear's per iteration -- the classic
    communication-avoiding trade: redundant computation buys a ``1/s``
    reduction count, which wins once ``alpha log p`` dominates
    ``N^2 theta / p`` (large ``p``).
    """
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    n2, halo_words, logp = _common(n_global, p, machine)
    per_outer = (
        (4.0 * s * s + 38.0 * s + 22.0) * n2 * machine.theta
        + (2 * s + 2) * halo_words * 8 * machine.beta
        + (4 + logp) * machine.alpha
    )
    return iterations * per_outer / s


def capcg_reductions_per_iteration(s, check_freq=10):
    """Modeled global reductions per CA-PCG iteration.

    One Gram reduction per ``s`` iterations plus the convergence check
    every ``check_freq`` iterations -- against ChronGear's ``1 + 1/f``
    and PCG's ``2 + 1/f``.
    """
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    return 1.0 / s + (1.0 / check_freq if check_freq else 0.0)
