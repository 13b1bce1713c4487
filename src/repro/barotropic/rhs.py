"""Right-hand side of the implicit free-surface system.

POP's barotropic mode advances the vertically integrated flow with an
implicit treatment of the fast surface gravity waves (paper Eq. 1):

.. math::  [\\nabla\\cdot H\\nabla - \\phi(\\tau)]\\,\\eta^{n+1}
           = \\psi(\\eta^n, \\eta^{n-1}, \\tau)

After negating to the SPD form ``A = -div(H grad) + phi*diag(area)``
that :mod:`repro.grid.stencil` assembles, the second-order-in-time wave
discretization

.. math::  (\\eta^{n+1} - 2\\eta^n + \\eta^{n-1})/(g\\tau^2)
           - \\nabla\\cdot H\\nabla\\,\\eta^{n+1} = F^n / g

becomes ``A eta^{n+1} = psi`` with

.. math::  \\psi = \\phi\\,area\\,(2\\eta^n - \\eta^{n-1})
           + area\\, F^n / g

where ``F`` collects the explicit forcing (wind-stress divergence,
contributions of the baroclinic state).  ``phi = 1/(g tau^2 theta_c)``
is the same shift the operator was assembled with, so the scheme is
consistent by construction.
"""

from repro.core.constants import GRAVITY_M_S2
from repro.core.errors import SolverError


def free_surface_rhs(stencil, eta_n, eta_nm1, forcing=None,
                     gravity=GRAVITY_M_S2):
    """The implicit free-surface right-hand side ``psi``.

    Parameters
    ----------
    stencil:
        The assembled operator (provides ``phi``, ``area`` and ``mask``).
    eta_n, eta_nm1:
        SSH at the current and previous steps, shape ``(ny, nx)``.
    forcing:
        Optional explicit forcing field ``F^n`` (m/s^2-like units);
        ``None`` means unforced.

    Returns
    -------
    ``psi`` masked to ocean points.
    """
    if stencil.area is None:
        raise SolverError("stencil was assembled without area information")
    psi = stencil.phi * stencil.area * (2.0 * eta_n - eta_nm1)
    if forcing is not None:
        psi = psi + stencil.area * forcing / gravity
    return psi * stencil.mask


#: Alias kept for API symmetry with the paper's ``psi`` notation.
build_rhs = free_surface_rhs
