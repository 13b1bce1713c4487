"""The two kernel implementations behind the solver hot paths.

The per-iteration cost of the reproduction concentrates in a few loops:
the nine-point stencil matvec (the paper's ``9 n^2`` computation term),
the EVP preconditioner apply (the ``14 n^2`` marching solve), and --
for the solvers that reduce every iteration -- the masked inner product
and the vector recurrences (ChronGear's ``2 n^2 + 4 n^2``).  Each has
exactly two implementations, and they perform the same IEEE operation
sequence -- ``np.array_equal`` results, pinned by
``tests/test_kernels.py``:

``numpy`` (:class:`NumpyKernels`)
    The reference: nine slice-multiply-accumulate passes, the engine's
    gather-based marching sweep, numpy's own product-then-sum.
    Readable and slow; it is the oracle the parity suites compare
    against.
``fused`` (:class:`FusedKernels`)
    The product, used by everything else: layouts on which every hot
    loop is one pass over contiguous memory (see
    :mod:`repro.kernels.fused`), each loop run by one compiled function
    of ``native.c`` -- the stencil sweep, a chain of vector updates,
    the masked dot, the EVP march, its edge residuals, the gather /
    masked scatter around them and the solvers' spans.  The C file
    is built on first use with the system compiler and cached per user
    (:mod:`repro.kernels.native`).  Each loop is native or reference:
    where an entry point cannot be built, loaded or verified, its loop
    runs the ``numpy`` method it overrides, silently, and
    :meth:`FusedKernels.describe` says which: ``fused+native
    (bit-identical)`` or ``fused (bit-identical)``.

Because the implementations agree bit for bit there is nothing to
select: no command-line flag, no environment variable, no ``auto``.
The ``kernels=`` constructor argument on contexts, preconditioners,
``apply_stencil``, ``BlockedOperator`` and ``EVPTileEngine`` is the
seam through which a test substitutes the oracle (``"numpy"``, or a
:class:`~repro.kernels.base.KernelBackend` instance); ``None`` is the
shared ``fused`` instance.  Whether the compiled loops run is decided
inside :class:`FusedKernels` by whether the build succeeded and each
entry point passed its load-time self-test (the public calls that reach
it, against the same calls without it: :mod:`repro.kernels.selftest`)
-- something the code can observe -- not behind a name.

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
