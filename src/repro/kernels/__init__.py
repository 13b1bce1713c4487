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
    Same IEEE operation sequence, executed on layouts that make every
    hot-loop operand a contiguous slice, with reused scratch (see
    :mod:`repro.kernels.fused`).  Bit-identical to ``numpy`` and the
    default under ``auto`` when numba is absent.
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

Array modules
-------------
Backends are *array-module generic*: every backend carries an ``xp``
namespace (numpy by default) through which it allocates and operates on
arrays, so the same batched index programs run unchanged on GPU array
modules.  :func:`resolve_array_module` maps a name (``numpy``,
``cupy``, ``jax``) -- or the ``REPRO_ARRAY_MODULE`` environment
variable -- to a namespace.  A GPU module that fails to import degrades
to numpy with a single clear warning (the import error is preserved in
the message); an unknown name raises :class:`KernelError`.

The EVP influence matrices are deliberately *not* backend work: they
are built once by the engine's deterministic reference sweep, so cached
artifacts (and the ring correction derived from them) are identical no
matter which backend later consumes them.
"""

import importlib
import os
import warnings

import numpy as np

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
    "ARRAY_MODULE_CHOICES",
    "available_backends",
    "get_backend",
    "resolve_kernels",
    "resolve_array_module",
    "reset_warned_array_modules",
]

#: Environment variable consulted when no explicit backend is given.
KERNELS_ENV = "REPRO_KERNELS"

#: Environment variable naming the array module backends compute with.
ARRAY_MODULE_ENV = "REPRO_ARRAY_MODULE"

#: Recognized array-module names.  ``numpy`` is always available; the
#: GPU modules are imported lazily and fall back to numpy (with one
#: warning) when absent.
ARRAY_MODULE_CHOICES = ("numpy", "cupy", "jax")

#: Import paths for the optional array modules (the namespace exposing
#: the numpy-compatible API, not necessarily the top-level package).
_ARRAY_MODULE_IMPORTS = {"cupy": "cupy", "jax": "jax.numpy"}

#: Names we already warned about, so the degradation message is emitted
#: exactly once per process however many resolutions happen.
_WARNED_ARRAY_MODULES = set()


def reset_warned_array_modules():
    """Forget which array-module fallback warnings were already emitted.

    The warn-once set is process-global state: once a fallback warning
    for (say) ``cupy`` fires, every later resolution in the process --
    including unrelated test cases -- stays silent.  Test suites (and
    long-lived services that want to re-surface the degradation after a
    reconfiguration) call this to re-arm the warning; it never touches
    backend singletons or their scratch caches.
    """
    _WARNED_ARRAY_MODULES.clear()


def resolve_array_module(name=None):
    """Resolve an array-module name to a numpy-compatible namespace.

    ``None`` consults ``$REPRO_ARRAY_MODULE`` and defaults to numpy.
    ``cupy``/``jax`` are imported lazily; if the import fails the
    resolution *degrades to numpy* with a single clear warning so
    CPU-only hosts keep working.  Unknown names raise
    :class:`KernelError`.
    """
    if name is None:
        name = os.environ.get(ARRAY_MODULE_ENV) or "numpy"
    if not isinstance(name, str):
        # Already a module/namespace: trust the caller.
        return name
    name = name.lower()
    if name == "numpy":
        return np
    if name not in _ARRAY_MODULE_IMPORTS:
        raise KernelError(
            f"unknown array module {name!r}; expected one of "
            f"{', '.join(ARRAY_MODULE_CHOICES)}"
        )
    try:
        return importlib.import_module(_ARRAY_MODULE_IMPORTS[name])
    except ImportError as exc:
        if name not in _WARNED_ARRAY_MODULES:
            _WARNED_ARRAY_MODULES.add(name)
            warnings.warn(
                f"array module {name!r} is unavailable ({exc}); "
                f"falling back to numpy",
                RuntimeWarning,
                stacklevel=2,
            )
        return np

#: ``auto`` preference order: fastest first, skipping unavailable ones.
AUTO_ORDER = ("numba", "fused", "numpy")

#: Singleton backend instances (scratch caches live on them, so a
#: process shares one instance per backend).
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


def _with_array_module(backend, xp=None):
    """Bind ``backend`` to the requested array module.

    The numpy-``xp`` singletons are shared (their scratch caches make a
    process-wide instance worthwhile); a non-numpy module gets a fresh
    instance so device scratch never mixes with host scratch.
    """
    module = resolve_array_module(xp)
    if module is np:
        return backend
    return type(backend)(xp=module)


def get_backend(name, xp=None):
    """The backend registered under ``name`` (exact, no resolution).

    Raises :class:`KernelError` for unknown names and for known but
    unavailable backends (with the reason).  ``xp`` optionally names the
    array module the returned instance computes with.
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
    return _with_array_module(backend, xp)


def resolve_kernels(kernels=None, xp=None):
    """Resolve a ``kernels=`` argument to a usable backend instance.

    ``None`` -> ``$REPRO_KERNELS`` or ``"auto"``; ``"auto"`` -> the
    first available backend in :data:`AUTO_ORDER`; a name -> that
    backend (raising if unknown/unavailable); a backend instance ->
    itself.  ``xp`` optionally names the array module (default:
    ``$REPRO_ARRAY_MODULE`` or numpy) the backend computes with.
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
                return _with_array_module(_BACKENDS[candidate], xp)
        raise KernelError("no kernel backend is available")
    return get_backend(name, xp)
