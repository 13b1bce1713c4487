"""The two kernel implementations behind the solver hot paths.

The per-iteration cost of the reproduction concentrates in two places:
the nine-point stencil matvec (the paper's ``9 n^2`` computation term)
and the EVP preconditioner apply (the ``14 n^2`` marching solve).  Each
has exactly two implementations, and they perform the same IEEE
operation sequence -- ``np.array_equal`` results, pinned by
``tests/test_kernels.py``:

``numpy`` (:class:`NumpyKernels`)
    The reference: nine slice-multiply-accumulate passes and the
    engine's gather-based marching sweep.  Readable and slow; it is
    the oracle the parity suites compare against, and
    :mod:`repro.precond.polynomial` pins it for its Lanczos run.
``fused`` (:class:`FusedKernels`)
    The product, used by everything else: the stencil as one compiled
    ``scipy.sparse`` DIA sweep over the nine coefficient planes, EVP
    marching on a layout that makes every operand a contiguous slice
    (see :mod:`repro.kernels.fused`).

Because the two agree bit for bit there is nothing to select: no
command-line flag, no environment variable, no ``auto``.  The
``kernels=`` constructor argument on contexts, preconditioners,
``apply_stencil``, ``BlockedOperator`` and ``EVPTileEngine`` is the
seam through which a test substitutes the oracle (``"numpy"``, or a
:class:`~repro.kernels.base.KernelBackend` instance); ``None`` is the
shared ``fused`` instance.  A faster march, when one lands, belongs
*inside* :meth:`FusedKernels.prepare_evp`, chosen by whether its build
succeeded -- something the code can observe -- not behind a name.

The EVP influence matrices are deliberately *not* kernel work: they
are built once by the engine's deterministic reference sweep, so cached
artifacts (and the ring correction derived from them) do not depend on
which implementation later consumes them.
"""

from repro.core.errors import KernelError
from repro.kernels.base import KernelBackend
from repro.kernels.fused import FusedKernels
from repro.kernels.numpy_ref import NumpyKernels

__all__ = [
    "KernelBackend",
    "NumpyKernels",
    "FusedKernels",
    "KernelError",
    "resolve_kernels",
]

#: One instance per implementation for the whole process (the fused
#: kernels cache their compiled sweeps on the instance).
_BACKENDS = {
    "numpy": NumpyKernels(),
    "fused": FusedKernels(),
}


def resolve_kernels(kernels=None):
    """Resolve a ``kernels=`` argument to a kernel instance.

    ``None`` -> the shared :class:`FusedKernels`; ``"numpy"`` /
    ``"fused"`` -> the shared instance of that name; a
    :class:`KernelBackend` instance -> itself; anything else raises
    :class:`KernelError` naming the two.
    """
    if isinstance(kernels, KernelBackend):
        return kernels
    if kernels is None:
        return _BACKENDS["fused"]
    backend = _BACKENDS.get(str(kernels).lower())
    if backend is None:
        raise KernelError(
            f"unknown kernel backend {kernels!r}; expected one of "
            f"{', '.join(_BACKENDS)}"
        )
    return backend
