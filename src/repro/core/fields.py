"""Helpers for 2-D fields of shape ``(ny, nx)``.

These helpers encode the array conventions described in
:mod:`repro.core`: ``field[j, i]`` with ``j`` northward and ``i``
eastward.  The hot-path helpers (:func:`shift`, :func:`pad_with_zeros`)
are pure ``numpy`` slicing -- no Python-level loops -- because they sit
inside every stencil application.
"""

import numpy as np

from repro.core.errors import GridError

#: Compass offsets ``(dj, di)`` for each of the eight neighbor directions.
NEIGHBOR_OFFSETS = {
    "n": (1, 0),
    "s": (-1, 0),
    "e": (0, 1),
    "w": (0, -1),
    "ne": (1, 1),
    "nw": (1, -1),
    "se": (-1, 1),
    "sw": (-1, -1),
}

#: The direction opposite each compass direction.
OPPOSITE_DIRECTION = {
    "n": "s",
    "s": "n",
    "e": "w",
    "w": "e",
    "ne": "sw",
    "nw": "se",
    "se": "nw",
    "sw": "ne",
}


def pad_with_zeros(field, width=1):
    """Return ``field`` surrounded by ``width`` rings of zeros.

    Zero padding implements the closed (no-flux / land) lateral boundary
    used by the barotropic operator: values outside the domain never
    contribute to a stencil application.

    Parameters
    ----------
    field:
        Array of shape ``(ny, nx)``.
    width:
        Number of ghost rings to add on every side.

    Returns
    -------
    numpy.ndarray of shape ``(ny + 2*width, nx + 2*width)``.
    """
    if width < 0:
        raise GridError(f"padding width must be >= 0, got {width}")
    if field.ndim != 2:
        raise GridError(f"expected a 2-D field, got shape {field.shape}")
    ny, nx = field.shape
    out = np.zeros((ny + 2 * width, nx + 2 * width), dtype=field.dtype)
    out[width:width + ny, width:width + nx] = field
    return out


def shift(field, direction):
    """Return the neighbor values of every grid point in ``direction``.

    ``shift(x, "n")[j, i] == x[j + 1, i]`` where it exists and ``0``
    outside the domain -- i.e. the returned array holds, at each point,
    the value of its neighbor to the given compass direction, with the
    closed-boundary convention that out-of-domain neighbors are zero.

    This is the building block of the 9-point stencil application and is
    implemented with a single padded copy plus a view.
    """
    try:
        dj, di = NEIGHBOR_OFFSETS[direction]
    except KeyError:
        raise GridError(
            f"unknown direction {direction!r}; expected one of "
            f"{sorted(NEIGHBOR_OFFSETS)}"
        ) from None
    ny, nx = field.shape
    padded = pad_with_zeros(field, 1)
    return padded[1 + dj:1 + dj + ny, 1 + di:1 + di + nx]


def interior(field, width=1):
    """Return a view of ``field`` with ``width`` rings stripped."""
    if width == 0:
        return field
    return field[width:-width, width:-width]


def apply_mask(field, mask, out=None):
    """Zero ``field`` outside ``mask`` (``mask`` truthy on ocean points).

    Returns ``out`` (allocated if ``None``).  The masking multiply is
    deliberately explicit rather than using ``numpy.ma`` so the flop cost
    it represents (part of POP's masked global reduction, Eq. 2 of the
    paper) is visible to the instrumentation layer.
    """
    if out is None:
        out = np.empty_like(field)
    np.multiply(field, mask, out=out)
    return out


def allclose_masked(a, b, mask, rtol=1e-12, atol=1e-14):
    """``numpy.allclose`` restricted to points where ``mask`` is truthy."""
    m = np.asarray(mask, dtype=bool)
    return np.allclose(a[m], b[m], rtol=rtol, atol=atol)


# ----------------------------------------------------------------------
# multi-RHS batches: the folded row layout
# ----------------------------------------------------------------------
# A batch of ``nrhs`` fields rides a trailing axis, ``(..., nx, nrhs)``.
# An elementwise kernel that broadcasts a per-point ``(..., nx)`` or a
# per-column ``(nrhs,)`` coefficient over that layout cannot merge the
# two trailing axes (one operand has stride 0 on exactly one of them),
# so numpy's inner loop is ``nrhs`` (2..8) elements long and the call is
# all loop overhead.  Merging the axes into one row of ``nx * nrhs``
# elements and handing the kernel a coefficient already laid out along
# that row (a per-point plane repeated ``nrhs``-fold, a per-column
# vector tiled ``nx``-fold) restores full-length inner loops.  Every
# element still meets the same operands in the same operations, so
# results are bit-identical to the broadcast form.


def fold_rows(a):
    """View of ``a`` with its trailing ``(nx, nrhs)`` axes merged.

    Element ``[..., i, k]`` becomes ``[..., i * nrhs + k]``.  Always a
    view (kernels write through it): raises ``GridError`` when the two
    axes are not adjacent in memory, which no vector allocated by a
    solver context or :class:`~repro.parallel.halo.BlockField` is --
    their interiors slice whole ``(nx, nrhs)`` rows.
    """
    rows = a.reshape(a.shape[:-2] + (a.shape[-2] * a.shape[-1],))
    if rows.size and not np.may_share_memory(rows, a):
        raise GridError(
            f"cannot fold a batch of shape {a.shape} with strides "
            f"{a.strides} in place: its trailing (nx, nrhs) axes must "
            "be C-contiguous")
    return rows


def fold_update(coeffs, arrays):
    """Operands of an elementwise update in the folded row layout.

    ``arrays`` are ``(..., nx, nrhs)`` batches, ``coeffs`` scalars or
    per-column ``(nrhs,)`` arrays.  Returns the coefficients tiled
    along one folded row of ``nx`` points (so they broadcast over whole
    rows and every element still meets the coefficient of its own
    column) and the arrays as folded views.  Scalars and width-1
    batches keep their coefficient as it is: a single value broadcasts
    over the row unchanged.
    """
    nx = arrays[0].shape[-2]
    return ([np.repeat(np.asarray(c)[None, :], nx, axis=0).reshape(-1)
             if np.size(c) > 1 else c for c in coeffs],
            [fold_rows(a) for a in arrays])
