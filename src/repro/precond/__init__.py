"""Preconditioners for the barotropic solvers.

* :mod:`repro.precond.base` -- the interface every preconditioner
  implements (global and per-rank application, flop accounting),
* :mod:`repro.precond.identity` -- no preconditioning,
* :mod:`repro.precond.diagonal` -- POP's historical diagonal scaling,
* :mod:`repro.precond.evp` -- the paper's block Error-Vector-Propagation
  preconditioner (section 4), with full and simplified stencils,
* :mod:`repro.precond.block_lu` -- block-Jacobi with exact dense block
  solves, the ``O(n^4)``-work comparator EVP displaces (section 4.1),
* :mod:`repro.precond.polynomial` -- reduction-free Chebyshev and
  Newton-Chebyshev polynomial preconditioners built from the cached
  Lanczos eigenbounds (zero reductions and zero halos per apply).
"""

from repro.precond.base import Preconditioner
from repro.precond.identity import IdentityPreconditioner
from repro.precond.diagonal import DiagonalPreconditioner
from repro.precond.evp import EVPBlockPreconditioner, EVPTileEngine
from repro.precond.block_lu import BlockLUPreconditioner
from repro.precond.polynomial import (
    ChebyshevPreconditioner,
    NewtonChebyshevPreconditioner,
    polynomial_point_flops,
)

__all__ = [
    "Preconditioner",
    "IdentityPreconditioner",
    "DiagonalPreconditioner",
    "EVPBlockPreconditioner",
    "EVPTileEngine",
    "BlockLUPreconditioner",
    "ChebyshevPreconditioner",
    "NewtonChebyshevPreconditioner",
    "polynomial_point_flops",
    "polynomial_family",
    "make_preconditioner",
]

#: Accepted spellings of the polynomial families (suffix syntax:
#: ``cheby:DEGREE`` and ``ncheby:DEGREE[:STEPS]``).
_CHEBY_NAMES = ("cheby", "chebyshev")
_NCHEBY_NAMES = ("ncheby", "newton-cheby", "newtoncheby", "newton")


def polynomial_family(kind):
    """``"cheby"`` / ``"ncheby"`` for a polynomial spec, else ``None``.

    The one reading of the spellings above (case-insensitive, any
    ``:DEGREE[:STEPS]`` suffix ignored): callers use it to decide which
    kinds take ``bounds_cache=``, ``degree=`` and ``steps=``.
    """
    base = str(kind).lower().partition(":")[0]
    if base in _CHEBY_NAMES:
        return "cheby"
    if base in _NCHEBY_NAMES:
        return "ncheby"
    return None


def _int_suffix(kind, part, what):
    try:
        return int(part)
    except ValueError:
        raise ValueError(
            f"bad preconditioner spec {kind!r}: {what} suffix {part!r} "
            f"is not an integer") from None


def make_preconditioner(kind, stencil, decomp=None, **kwargs):
    """Factory: build a preconditioner by name.

    ``kind`` is one of ``"identity"``, ``"diagonal"``, ``"evp"``,
    ``"block_lu"``, ``"cheby"``, ``"ncheby"``.  ``decomp`` is required
    for the block preconditioners (and optional for the point-wise
    ones).  The polynomial kinds accept an inline degree spec --
    ``"cheby:6"`` is a degree-6 Chebyshev, ``"ncheby:2:2"`` a degree-2
    seed with 2 Newton sweeps -- which explicit ``degree=``/``steps=``
    keyword arguments override.
    """
    kind = kind.lower()
    base, _, suffix = kind.partition(":")
    family = polynomial_family(kind)
    if family == "cheby":
        kwargs = dict(kwargs)
        if suffix:
            kwargs.setdefault("degree",
                              _int_suffix(kind, suffix, "degree"))
        return ChebyshevPreconditioner(stencil, decomp=decomp, **kwargs)
    if family == "ncheby":
        kwargs = dict(kwargs)
        if suffix:
            parts = suffix.split(":")
            if len(parts) > 2:
                raise ValueError(
                    f"bad preconditioner spec {kind!r}: expected "
                    f"'{base}:DEGREE[:STEPS]'")
            kwargs.setdefault("degree",
                              _int_suffix(kind, parts[0], "degree"))
            if len(parts) == 2:
                kwargs.setdefault("steps",
                                  _int_suffix(kind, parts[1], "steps"))
        return NewtonChebyshevPreconditioner(stencil, decomp=decomp,
                                             **kwargs)
    if kind in ("identity", "none"):
        return IdentityPreconditioner(stencil, decomp=decomp, **kwargs)
    if kind in ("diagonal", "diag"):
        return DiagonalPreconditioner(stencil, decomp=decomp, **kwargs)
    if kind == "evp":
        return EVPBlockPreconditioner(stencil, decomp=decomp, **kwargs)
    if kind in ("block_lu", "blocklu", "lu"):
        return BlockLUPreconditioner(stencil, decomp=decomp, **kwargs)
    raise ValueError(
        f"unknown preconditioner kind {kind!r}; expected identity, diagonal, "
        "evp, block_lu, cheby[:D] or ncheby[:D[:K]]"
    )
