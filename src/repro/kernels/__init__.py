"""Pluggable kernel backends for the solver hot paths.

The per-iteration cost of the reproduction concentrates in two places:
the nine-point stencil matvec (the paper's ``9 n^2`` computation term)
and the EVP preconditioner apply (the ``14 n^2`` marching solve).  This
package makes their *implementation* selectable while guaranteeing the
*arithmetic* stays fixed:

``numpy``
    The vectorized reference -- readable, allocation-light, the oracle
    every other backend is validated against.
``fused``
    Same IEEE operation sequence: the stencil as one compiled
    ``scipy.sparse`` DIA sweep over the nine coefficient planes, EVP
    marching on a layout that makes every operand a contiguous slice
    (see :mod:`repro.kernels.fused`).  Bit-identical to ``numpy`` and
    the default under ``auto`` when numba is absent.
``numba``
    Optional nopython JIT loops; only available when ``numba`` is
    installed.  Results may drift from the reference in the last bits
    (bounded at 1e-12 relative by the parity suite).

Selection
---------
Every entry point that touches a hot path accepts ``kernels=`` -- a
backend name, a :class:`~repro.kernels.base.KernelBackend` instance, or
``None``.  ``None`` consults the ``REPRO_KERNELS`` environment variable
and then defaults to ``"auto"``, which picks the fastest *available*
backend (numba > fused > numpy).  Requesting an unknown name raises
:class:`~repro.core.errors.KernelError` listing the choices; requesting
``numba`` without numba installed raises with the import failure --
only ``auto`` falls back silently.

The EVP influence matrices are deliberately *not* backend work: they
are built once by the engine's deterministic reference sweep, so cached
artifacts (and the ring correction derived from them) are identical no
matter which backend later consumes them.
"""

import os

from repro.core.errors import KernelError
from repro.kernels.base import KernelBackend
from repro.kernels.fused import FusedKernels
from repro.kernels.numba_jit import NUMBA_AVAILABLE, NumbaKernels
from repro.kernels.numpy_ref import NumpyKernels

__all__ = [
    "KernelBackend",
    "NumpyKernels",
    "FusedKernels",
    "NumbaKernels",
    "KernelError",
    "NUMBA_AVAILABLE",
    "KERNEL_CHOICES",
    "available_backends",
    "get_backend",
    "resolve_kernels",
]

#: Environment variable consulted when no explicit backend is given.
KERNELS_ENV = "REPRO_KERNELS"

#: ``auto`` preference order: fastest first, skipping unavailable ones.
AUTO_ORDER = ("numba", "fused", "numpy")

#: Singleton backend instances (the fused backend's cached sweeps live
#: on its instance, so a process shares one instance per backend).
_BACKENDS = {
    "numpy": NumpyKernels(),
    "fused": FusedKernels(),
    "numba": NumbaKernels(),
}

#: Valid ``--kernels`` values, in CLI display order.
KERNEL_CHOICES = ("auto",) + tuple(_BACKENDS)


def available_backends():
    """Names of the backends usable in this process, in auto order."""
    return tuple(name for name in AUTO_ORDER if _BACKENDS[name].available)


def get_backend(name):
    """The backend registered under ``name`` (exact, no resolution).

    Raises :class:`KernelError` for unknown names and for known but
    unavailable backends (with the reason).
    """
    backend = _BACKENDS.get(name)
    if backend is None:
        raise KernelError(
            f"unknown kernel backend {name!r}; expected one of "
            f"{', '.join(KERNEL_CHOICES)}"
        )
    if not backend.available:
        raise KernelError(
            f"kernel backend {name!r} is unavailable: "
            f"{backend.unavailable_reason}; install the optional "
            f"dependency or select 'auto' to fall back"
        )
    return backend


def resolve_kernels(kernels=None):
    """Resolve a ``kernels=`` argument to a usable backend instance.

    ``None`` -> ``$REPRO_KERNELS`` or ``"auto"``; ``"auto"`` -> the
    first available backend in :data:`AUTO_ORDER`; a name -> that
    backend (raising if unknown/unavailable); a backend instance ->
    itself.
    """
    if isinstance(kernels, KernelBackend):
        if not kernels.available:
            raise KernelError(
                f"kernel backend {kernels.name!r} is unavailable: "
                f"{kernels.unavailable_reason}"
            )
        return kernels
    name = kernels
    if name is None:
        name = os.environ.get(KERNELS_ENV) or "auto"
    name = str(name).lower()
    if name == "auto":
        for candidate in AUTO_ORDER:
            if _BACKENDS[candidate].available:
                return _BACKENDS[candidate]
        raise KernelError("no kernel backend is available")
    return get_backend(name)
