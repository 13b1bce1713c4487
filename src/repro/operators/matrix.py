"""Sparse-matrix assembly and spectral diagnostics.

Production code applies the operator through a kernel backend
(:mod:`repro.kernels`): the default one also keeps it in a
``scipy.sparse`` format, a DIA array laid out over whatever vector it
multiplies (global grid or padded block stack, any batch width) and
holding the nine planes in the reference accumulation order.  The CSR
form assembled *here* is the textbook matrix over grid unknowns: it
exists for validation (symmetry, definiteness, agreement with the
stencil apply) and for the spectral studies behind Figure 4 (block
sparsity structure) and the eigenvalue-bound experiments (Figure 3 /
the eigen-margin ablation).
"""

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import eigsh

from repro.core.errors import SolverError
from repro.core.fields import NEIGHBOR_OFFSETS


def to_sparse(coeffs, order="rowmajor", decomp=None):
    """Assemble the nine-point operator as a CSR matrix.

    Parameters
    ----------
    coeffs:
        :class:`~repro.grid.stencil.StencilCoeffs`.
    order:
        ``"rowmajor"`` numbers unknowns in grid row-major order;
        ``"blocked"`` numbers them block-by-block over ``decomp``
        (the reordering of the paper's Figure 4, which exposes the
        nine-diagonal *block* structure that block preconditioning
        exploits).
    decomp:
        Required for ``order="blocked"``.

    Returns
    -------
    scipy.sparse.csr_matrix of shape ``(ny*nx, ny*nx)``.
    """
    ny, nx = coeffs.shape
    size = ny * nx

    if order == "rowmajor":
        numbering = np.arange(size).reshape(ny, nx)
    elif order == "blocked":
        if decomp is None:
            raise SolverError("order='blocked' requires a decomposition")
        numbering = np.empty((ny, nx), dtype=np.int64)
        counter = 0
        for block in decomp.blocks:  # lattice row-major block order
            npts = block.npoints
            numbering[block.slices] = np.arange(
                counter, counter + npts
            ).reshape(block.ny, block.nx)
            counter += npts
    else:
        raise SolverError(f"unknown ordering {order!r}")

    rows = []
    cols = []
    vals = []
    jj, ii = np.meshgrid(np.arange(ny), np.arange(nx), indexing="ij")

    # diagonal
    rows.append(numbering.ravel())
    cols.append(numbering.ravel())
    vals.append(coeffs.c.ravel())

    for direction, (dj, di) in NEIGHBOR_OFFSETS.items():
        coeff = getattr(coeffs, direction)
        jn = jj + dj
        in_ = ii + di
        valid = (0 <= jn) & (jn < ny) & (0 <= in_) & (in_ < nx)
        valid &= coeff != 0.0
        rows.append(numbering[jj[valid], ii[valid]])
        cols.append(numbering[jn[valid], in_[valid]])
        vals.append(coeff[valid])

    matrix = sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(size, size),
    )
    return matrix.tocsr()


def ocean_submatrix(coeffs):
    """The operator restricted to ocean unknowns.

    Returns ``(A_ocean, ocean_indices)`` where ``ocean_indices`` are the
    row-major flat indices of ocean points.  This is the matrix whose
    spectrum governs solver convergence (land rows are inert identity).
    """
    full = to_sparse(coeffs)
    idx = np.flatnonzero(coeffs.mask.ravel())
    return full[np.ix_(idx, idx)].tocsr(), idx


def extreme_eigenvalues(matrix, preconditioner_diag=None, tol=1e-6):
    """Smallest and largest eigenvalues of ``D^-1/2 A D^-1/2``.

    With ``preconditioner_diag`` given (the diagonal of ``M``), returns
    the extreme eigenvalues of the symmetrically preconditioned operator
    -- the spectrum whose bounds P-CSI's Chebyshev interval must cover.
    Uses Lanczos via ``scipy.sparse.linalg.eigsh`` (this is the *exact*
    reference the cheap in-solver Lanczos estimator is tested against).
    """
    a = matrix
    if preconditioner_diag is not None:
        d = np.asarray(preconditioner_diag, dtype=np.float64)
        if np.any(d <= 0):
            raise SolverError("preconditioner diagonal must be positive")
        scale = sparse.diags(1.0 / np.sqrt(d))
        a = (scale @ matrix @ scale).tocsr()
    lo = eigsh(a, k=1, which="SA", return_eigenvectors=False, tol=tol)[0]
    hi = eigsh(a, k=1, which="LA", return_eigenvectors=False, tol=tol)[0]
    return float(lo), float(hi)


def condition_number(matrix, preconditioner_diag=None, tol=1e-6):
    """Spectral condition number ``lambda_max / lambda_min``."""
    lo, hi = extreme_eigenvalues(matrix, preconditioner_diag, tol=tol)
    if lo <= 0:
        raise SolverError(
            f"matrix is not positive definite (lambda_min = {lo:.3e})"
        )
    return hi / lo
