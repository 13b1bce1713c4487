"""Nine-point stencil discretization of the barotropic operator.

The implicit free-surface equation for sea surface height (paper Eq. 1),

.. math::  [\\nabla \\cdot H \\nabla - \\phi(\\tau)]\\, \\eta^{n+1} = \\psi,

is discretized on POP's B-grid: depth lives at cell corners (U-points),
SSH at cell centers (T-points).  We negate so the assembled matrix is
symmetric positive definite:

.. math::  A = -\\nabla\\cdot H\\nabla\\big|_h + \\phi\\,\\mathrm{diag}(area).

Construction (energy form)
--------------------------
For each interior corner ``u`` shared by four T-points, the discrete
gradient uses the four surrounding SSH values; the stiffness is the
Hessian of ``E = 1/2 * sum_u HU_u A_u (gx_u^2 + gy_u^2)``.  With

* ``p_u = HU_u * dyu_u / (4 * dxu_u)`` and
* ``q_u = HU_u * dxu_u / (4 * dyu_u)``

each corner contributes ``+(p+q)`` to its four diagonals, ``-(p+q)`` to
the two diagonal (corner-neighbor) couplings, ``(p-q)`` to the two N/S
couplings and ``(q-p)`` to the two E/W couplings.  Two structural facts
the paper exploits fall straight out of this:

1. When ``dx = dy`` locally, the N/S/E/W coefficients *vanish* -- which
   is why POP's edge coefficients are an order of magnitude smaller than
   the corner ones on grids with near-isotropic cells, and why the
   *simplified* EVP preconditioner can drop them (paper section 4.3).
2. The matrix is symmetric and, with ``phi > 0``, positive definite on
   the ocean subspace, as ChronGear and P-CSI require.

``HU`` is the *minimum* of the four surrounding T-point depths (POP's
convention), so any land contact zeroes the corner's contribution: land
never conducts, and the ocean subspace is invariant under ``A``.
Land rows are set to identity so the global system stays non-singular;
because every vector in the solve is masked, those rows are inert.
"""

from dataclasses import dataclass

import numpy as np

from repro.core.cache import digest_of
from repro.core.constants import GRAVITY_M_S2
from repro.core.errors import GridError

#: Names of the nine stencil coefficient arrays in canonical order.
COEFF_NAMES = ("c", "n", "s", "e", "w", "ne", "nw", "se", "sw")


def mass_coefficient(tau, theta_c=1.0, gravity=GRAVITY_M_S2):
    """The Helmholtz shift ``phi(tau) = 1 / (theta_c * g * tau^2)``.

    ``tau`` is the (baroclinic) time step in seconds and ``theta_c`` the
    time-centering parameter of the implicit free-surface scheme.  Units
    are 1/m so that ``phi * area`` matches the stiffness entries
    (``~ H * dy/dx``, meters).
    """
    tau = float(tau)
    if tau <= 0:
        raise GridError(f"time step tau must be positive, got {tau}")
    theta_c = float(theta_c)
    if theta_c <= 0:
        raise GridError(f"theta_c must be positive, got {theta_c}")
    return 1.0 / (theta_c * gravity * tau * tau)


@dataclass
class StencilCoeffs:
    """The nine coefficient arrays of the assembled operator.

    ``coeff.c[j, i]`` multiplies ``x[j, i]``; ``coeff.ne[j, i]``
    multiplies ``x[j+1, i+1]``; and so on following compass directions.
    All arrays share shape ``(ny, nx)``.  ``mask`` is the ocean mask the
    operator was built with, ``phi`` the Helmholtz shift and ``area``
    the T-cell areas (kept for RHS construction and diagnostics).
    """

    c: np.ndarray
    n: np.ndarray
    s: np.ndarray
    e: np.ndarray
    w: np.ndarray
    ne: np.ndarray
    nw: np.ndarray
    se: np.ndarray
    sw: np.ndarray
    mask: np.ndarray
    phi: float = 0.0
    area: np.ndarray = None

    def __post_init__(self):
        # Immutable after assembly: the content digest and the kernel
        # backends' cached operators snapshot the planes, so a write
        # must fail rather than leave a stale operator behind.
        for name in COEFF_NAMES:
            getattr(self, name).setflags(write=False)

    @property
    def shape(self):
        """Grid shape ``(ny, nx)``."""
        return self.c.shape

    def arrays(self):
        """The nine coefficient arrays as a dict keyed by direction."""
        return {name: getattr(self, name) for name in COEFF_NAMES}

    def diagonal(self):
        """The matrix diagonal (a copy of ``c``)."""
        return self.c.copy()

    def content_digest(self):
        """SHA-256 digest of the operator *content* (memoized).

        Covers the nine coefficient arrays, the ocean mask and ``phi``
        -- everything a solve or a preconditioner build depends on --
        so two stencils with identical content share cache entries no
        matter how they were constructed.  The digest is cached on the
        instance; the coefficient arrays are read-only after assembly
        (``__post_init__``).
        """
        cached = getattr(self, "_content_digest", None)
        if cached is None:
            parts = [getattr(self, name) for name in COEFF_NAMES]
            parts.append(np.asarray(self.mask, dtype=bool))
            cached = digest_of("stencil", self.phi, *parts)
            object.__setattr__(self, "_content_digest", cached)
        return cached

    # ------------------------------------------------------------------
    def symmetry_error(self):
        """Max absolute mismatch between each coupling and its transpose.

        ``A[t, t'] == A[t', t]`` requires ``n[j,i] == s[j+1,i]``,
        ``e[j,i] == w[j,i+1]``, ``ne[j,i] == sw[j+1,i+1]`` and
        ``nw[j,i] == se[j+1,i-1]``.  Returns the worst violation (0 for
        an exactly symmetric operator).
        """
        errs = [
            np.abs(self.n[:-1, :] - self.s[1:, :]).max(initial=0.0),
            np.abs(self.e[:, :-1] - self.w[:, 1:]).max(initial=0.0),
            np.abs(self.ne[:-1, :-1] - self.sw[1:, 1:]).max(initial=0.0),
            np.abs(self.nw[:-1, 1:] - self.se[1:, :-1]).max(initial=0.0),
        ]
        return float(max(errs))

    # ------------------------------------------------------------------
    def extract_block(self, j0, j1, i0, i1):
        """The diagonal sub-block ``B_i`` of ``A`` for one grid block.

        Returns a new :class:`StencilCoeffs` over the ``[j0:j1, i0:i1)``
        window with every coupling that crosses the window edge zeroed
        -- exactly the block-diagonal matrix the block preconditioners
        (section 4.1 of the paper) invert.  Diagonal entries are kept
        as-is (they are part of the sub-matrix).
        """
        if not (0 <= j0 < j1 <= self.shape[0] and 0 <= i0 < i1 <= self.shape[1]):
            raise GridError(
                f"block [{j0}:{j1}, {i0}:{i1}) outside grid {self.shape}"
            )
        window = (slice(j0, j1), slice(i0, i1))
        arrays = {name: getattr(self, name)[window].copy() for name in COEFF_NAMES}
        # Zero couplings pointing outside the window.
        for name in ("n", "ne", "nw"):
            arrays[name][-1, :] = 0.0
        for name in ("s", "se", "sw"):
            arrays[name][0, :] = 0.0
        for name in ("e", "ne", "se"):
            arrays[name][:, -1] = 0.0
        for name in ("w", "nw", "sw"):
            arrays[name][:, 0] = 0.0
        return StencilCoeffs(
            mask=self.mask[window].copy(),
            phi=self.phi,
            area=None if self.area is None else self.area[window].copy(),
            **arrays,
        )

    def simplified(self):
        """Drop the N/S/E/W coefficients (keep center + corners).

        This is the paper's *simplified EVP* operator (section 4.3):
        on near-isotropic cells the edge coefficients are an order of
        magnitude smaller than the corner ones, and dropping them halves
        the preconditioner's cost with negligible convergence impact.
        The result is intended only for preconditioning -- it is a
        perturbation of ``A``, not ``A`` itself.
        """
        zero = np.zeros_like(self.c)
        return StencilCoeffs(
            c=self.c.copy(), n=zero.copy(), s=zero.copy(),
            e=zero.copy(), w=zero.copy(),
            ne=self.ne.copy(), nw=self.nw.copy(),
            se=self.se.copy(), sw=self.sw.copy(),
            mask=self.mask.copy(), phi=self.phi,
            area=None if self.area is None else self.area.copy(),
        )

    def edge_to_corner_ratio(self):
        """Mean |edge coeff| / mean |corner coeff| over ocean points.

        Quantifies the paper's "one order of magnitude smaller" claim
        for a given grid.
        """
        m = self.mask.astype(bool)
        edge = sum(np.abs(getattr(self, d))[m].sum() for d in ("n", "s", "e", "w"))
        corner = sum(np.abs(getattr(self, d))[m].sum()
                     for d in ("ne", "nw", "se", "sw"))
        if corner == 0.0:
            return np.inf if edge > 0 else 0.0
        return float(edge / corner)


def build_stencil(metrics, topo, phi, land_rows="identity",
                  depth_floor=0.0):
    """Assemble the nine-point operator for one grid.

    Parameters
    ----------
    metrics:
        :class:`~repro.grid.metrics.GridMetrics` (cell extents).
    topo:
        :class:`~repro.grid.topography.Topography` (depth + mask), or
        any object with ``depth`` and ``mask`` arrays.
    phi:
        Helmholtz shift from :func:`mass_coefficient` (1/m).
    land_rows:
        ``"identity"`` (default) puts 1 on land diagonals so the global
        matrix is non-singular; ``"mass"`` keeps ``phi * area`` there
        (used when embedding land as epsilon-depth ocean for the EVP
        preconditioner).
    depth_floor:
        Minimum depth imposed *everywhere* (including land) before
        computing corner depths.  ``0`` (default) keeps land perfectly
        insulating; the EVP preconditioner passes a small positive value
        to keep its marching recurrence non-degenerate (DESIGN.md
        section 6).

    Returns
    -------
    StencilCoeffs
    """
    depth = np.asarray(topo.depth, dtype=np.float64)
    mask = np.asarray(topo.mask, dtype=bool)
    ny, nx = depth.shape
    if metrics.shape != (ny, nx):
        raise GridError(
            f"metrics shape {metrics.shape} != topography shape {(ny, nx)}"
        )
    if land_rows not in ("identity", "mass"):
        raise GridError(f"unknown land_rows mode {land_rows!r}")
    if phi <= 0:
        raise GridError(f"phi must be positive for an SPD operator, got {phi}")
    if depth_floor > 0.0 and land_rows == "identity":
        raise GridError(
            "a positive depth_floor couples ocean to land, which is "
            "incompatible with identity land rows; use land_rows='mass' "
            "(the EVP preconditioner's epsilon-land embedding)"
        )

    if depth_floor > 0.0:
        depth = np.maximum(depth, depth_floor)

    # Corner (U-point) depths: min of the four surrounding T depths.
    hu = np.minimum(
        np.minimum(depth[:-1, :-1], depth[:-1, 1:]),
        np.minimum(depth[1:, :-1], depth[1:, 1:]),
    )
    dxu = metrics.dxu[:-1, :-1]
    dyu = metrics.dyu[:-1, :-1]
    p = hu * dyu / (4.0 * dxu)
    q = hu * dxu / (4.0 * dyu)

    # Pad so that P[j-1, i-1] style lookups read zero off the SW edge.
    ppad = np.zeros((ny + 1, nx + 1))
    qpad = np.zeros((ny + 1, nx + 1))
    ppad[1:ny, 1:nx] = p
    qpad[1:ny, 1:nx] = q

    def at(arr, dj, di):
        """arr[j + dj, i + di] over the full grid (padded indexing)."""
        return arr[1 + dj:1 + dj + ny, 1 + di:1 + di + nx]

    psum = ppad + qpad      # p + q
    pdif = ppad - qpad      # p - q

    ne = -at(psum, 0, 0)
    nw = -at(psum, 0, -1)
    se = -at(psum, -1, 0)
    sw = -at(psum, -1, -1)
    n = at(pdif, 0, 0) + at(pdif, 0, -1)
    s = at(pdif, -1, 0) + at(pdif, -1, -1)
    e = -(at(pdif, 0, 0) + at(pdif, -1, 0))      # q - p
    w = -(at(pdif, 0, -1) + at(pdif, -1, -1))
    area = metrics.tarea
    c = (at(psum, 0, 0) + at(psum, 0, -1) + at(psum, -1, 0)
         + at(psum, -1, -1) + phi * area)

    if land_rows == "identity":
        # Couplings touching land are exactly zero already (HU = 0 at any
        # corner with a land neighbor), so replacing the land diagonal by
        # 1 yields identity rows without breaking symmetry.
        c = np.where(~mask, 1.0, c)

    return StencilCoeffs(c=c, n=n, s=s, e=e, w=w, ne=ne, nw=nw, se=se,
                         sw=sw, mask=mask, phi=float(phi), area=area)
