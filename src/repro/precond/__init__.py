"""Preconditioners for the barotropic solvers.

* :mod:`repro.precond.base` -- the interface every preconditioner
  implements (global and per-rank application, flop accounting),
* :mod:`repro.precond.identity` -- no preconditioning,
* :mod:`repro.precond.diagonal` -- POP's historical diagonal scaling,
* :mod:`repro.precond.evp` -- the paper's block Error-Vector-Propagation
  preconditioner (section 4), with full and simplified stencils,
* :mod:`repro.precond.block_lu` -- block-Jacobi with exact dense block
  solves, the ``O(n^4)``-work comparator EVP displaces (section 4.1).
"""

from repro.precond.base import Preconditioner
from repro.precond.identity import IdentityPreconditioner
from repro.precond.diagonal import DiagonalPreconditioner
from repro.precond.evp import EVPBlockPreconditioner, EVPTileEngine
from repro.precond.block_lu import BlockLUPreconditioner

__all__ = [
    "Preconditioner",
    "IdentityPreconditioner",
    "DiagonalPreconditioner",
    "EVPBlockPreconditioner",
    "EVPTileEngine",
    "BlockLUPreconditioner",
    "PRECOND_KINDS",
    "make_preconditioner",
]

#: Every preconditioner kind :func:`make_preconditioner` builds, and
#: its aliases.
_CLASSES = {
    "identity": IdentityPreconditioner,
    "none": IdentityPreconditioner,
    "diagonal": DiagonalPreconditioner,
    "diag": DiagonalPreconditioner,
    "evp": EVPBlockPreconditioner,
    "block_lu": BlockLUPreconditioner,
    "blocklu": BlockLUPreconditioner,
    "lu": BlockLUPreconditioner,
}

#: The names :func:`make_preconditioner` accepts, aliases included.
#: Input that names a kind -- ``repro solve --precond``, a service
#: request's ``precond`` -- is checked against it where it arrives.
PRECOND_KINDS = tuple(_CLASSES)


def make_preconditioner(kind, stencil, decomp=None, **kwargs):
    """Factory: build a preconditioner by name.

    ``kind`` is one of :data:`PRECOND_KINDS` (case-insensitive).
    ``decomp`` is required for the block preconditioners (and optional
    for the point-wise ones).
    """
    cls = _CLASSES.get(kind.lower())
    if cls is None:
        raise ValueError(
            f"unknown preconditioner kind {kind!r}; expected one of "
            f"{PRECOND_KINDS}")
    return cls(stencil, decomp=decomp, **kwargs)
