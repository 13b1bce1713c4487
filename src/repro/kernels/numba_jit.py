"""Optional numba JIT backend (guarded import).

When ``numba`` is importable, the stencil matvec and the EVP marching
sweep compile to nopython machine-code loops: one fused
multiply-accumulate per grid point with no intermediate arrays at all.
When it is not (the default container has no numba), this module still
imports cleanly and registers an *unavailable* backend, so the registry
can explain the situation instead of raising ``ImportError`` at import
time; ``auto`` resolution simply skips it.

Numerics: the scalar loops evaluate the same formulas in the same term
order as the reference, but scalar accumulation versus numpy's
array-at-a-time temporaries can differ in the last bits (and numba may
contract to FMA on some targets).  The backend is therefore marked
non-deterministic; the parity suite bounds its drift at 1e-12 relative
against the reference, and the EVP influence matrices are *never* built
through it (they are constructed by the engine's deterministic
reference sweep, so cached artifacts stay backend-independent).
"""

import numpy as np

from repro.kernels.base import KernelBackend, validate_evp_shapes

try:
    from numba import njit

    NUMBA_AVAILABLE = True
    NUMBA_IMPORT_ERROR = None
except ImportError as exc:  # pragma: no cover - exercised without numba
    NUMBA_AVAILABLE = False
    NUMBA_IMPORT_ERROR = str(exc)


if NUMBA_AVAILABLE:  # pragma: no cover - exercised in the numba CI leg

    @njit(cache=True)
    def _stencil_point(c, n, s, e, w, ne, nw, se, sw, xp, j, i, hj, hi):
        acc = c[j, i] * xp[hj, hi]
        acc += n[j, i] * xp[hj + 1, hi]
        acc += s[j, i] * xp[hj - 1, hi]
        acc += e[j, i] * xp[hj, hi + 1]
        acc += w[j, i] * xp[hj, hi - 1]
        acc += ne[j, i] * xp[hj + 1, hi + 1]
        acc += nw[j, i] * xp[hj + 1, hi - 1]
        acc += se[j, i] * xp[hj - 1, hi + 1]
        acc += sw[j, i] * xp[hj - 1, hi - 1]
        return acc

    @njit(cache=True)
    def _stencil_2d(c, n, s, e, w, ne, nw, se, sw, xp, h, out):
        ny, nx = out.shape
        for j in range(ny):
            for i in range(nx):
                out[j, i] = _stencil_point(
                    c, n, s, e, w, ne, nw, se, sw, xp, j, i, j + h, i + h)
        return out

    @njit(cache=True)
    def _stencil_stacked(c, n, s, e, w, ne, nw, se, sw, stack, h, out):
        p, ny, nx = out.shape
        for r in range(p):
            for j in range(ny):
                for i in range(nx):
                    out[r, j, i] = _stencil_point(
                        c[r], n[r], s[r], e[r], w[r], ne[r], nw[r],
                        se[r], sw[r], stack[r], j, i, j + h, i + h)
        return out

    @njit(cache=True)
    def _evp_march(p, y, c, n, s, e, w, nw, se, sw, ne):
        batch = p.shape[0]
        my = y.shape[1]
        mx = y.shape[2]
        # Row-major order satisfies the marching data dependencies: the
        # value written at (ty+2, tx+2) only reads rows <= ty+2 at
        # columns already filled (or ring/zero cells).
        for b in range(batch):
            for ty in range(my - 1):
                for tx in range(mx - 1):
                    acc = y[b, ty, tx]
                    acc -= c[b, ty, tx] * p[b, ty + 1, tx + 1]
                    acc -= n[b, ty, tx] * p[b, ty + 2, tx + 1]
                    acc -= s[b, ty, tx] * p[b, ty, tx + 1]
                    acc -= e[b, ty, tx] * p[b, ty + 1, tx + 2]
                    acc -= w[b, ty, tx] * p[b, ty + 1, tx]
                    acc -= nw[b, ty, tx] * p[b, ty + 2, tx]
                    acc -= se[b, ty, tx] * p[b, ty, tx + 2]
                    acc -= sw[b, ty, tx] * p[b, ty, tx]
                    p[b, ty + 2, tx + 2] = acc * (1.0 / ne[b, ty, tx])
        return p

    @njit(cache=True)
    def _evp_edges(p, y, c, n, s, e, w, nw, se, sw, ne, f):
        batch = p.shape[0]
        my = y.shape[1]
        mx = y.shape[2]
        for b in range(batch):
            ty = my - 1
            for tx in range(mx):
                acc = -y[b, ty, tx]
                acc += c[b, ty, tx] * p[b, ty + 1, tx + 1]
                acc += n[b, ty, tx] * p[b, ty + 2, tx + 1]
                acc += s[b, ty, tx] * p[b, ty, tx + 1]
                acc += e[b, ty, tx] * p[b, ty + 1, tx + 2]
                acc += w[b, ty, tx] * p[b, ty + 1, tx]
                acc += nw[b, ty, tx] * p[b, ty + 2, tx]
                acc += se[b, ty, tx] * p[b, ty, tx + 2]
                acc += sw[b, ty, tx] * p[b, ty, tx]
                acc += ne[b, ty, tx] * p[b, ty + 2, tx + 2]
                f[b, tx] = acc
            tx = mx - 1
            for ty in range(my - 1):
                acc = -y[b, ty, tx]
                acc += c[b, ty, tx] * p[b, ty + 1, tx + 1]
                acc += n[b, ty, tx] * p[b, ty + 2, tx + 1]
                acc += s[b, ty, tx] * p[b, ty, tx + 1]
                acc += e[b, ty, tx] * p[b, ty + 1, tx + 2]
                acc += w[b, ty, tx] * p[b, ty + 1, tx]
                acc += nw[b, ty, tx] * p[b, ty + 2, tx]
                acc += se[b, ty, tx] * p[b, ty, tx + 2]
                acc += sw[b, ty, tx] * p[b, ty, tx]
                acc += ne[b, ty, tx] * p[b, ty + 2, tx + 2]
                f[b, mx + ty] = acc
        return f


else:
    def _missing(*_args, **_kwargs):
        raise RuntimeError(
            "the numba kernel backend was invoked without numba installed; "
            "resolve backends through repro.kernels.resolve_kernels"
        )

    _stencil_2d = _stencil_stacked = _evp_march = _evp_edges = _missing


_COEFF_ORDER = ("c", "n", "s", "e", "w", "ne", "nw", "se", "sw")

#: Marching passes coefficients in this order (ne last, it divides).
_MARCH_ORDER = ("c", "n", "s", "e", "w", "nw", "se", "sw", "ne")


class NumbaKernels(KernelBackend):
    """JIT-compiled backend; unavailable when numba is not installed."""

    name = "numba"
    deterministic = False
    available = NUMBA_AVAILABLE
    unavailable_reason = (
        None if NUMBA_AVAILABLE
        else "numba is not installed"
        + (f" ({NUMBA_IMPORT_ERROR})" if NUMBA_IMPORT_ERROR else "")
    )

    # ------------------------------------------------------------------
    # Multi-RHS batches (a trailing ``nrhs`` axis) loop column by column
    # through the compiled single-RHS loops on contiguous copies, so the
    # batched path reproduces the backend's own single-RHS arithmetic
    # stream exactly.  The global ``stencil_apply`` is the base class's:
    # the local loop on a zero-bordered copy.
    # ------------------------------------------------------------------
    def stencil_apply_local(self, coeffs, local, h, out):
        if local.ndim == 3:
            for j in range(local.shape[-1]):
                out[..., j] = _stencil_2d(
                    coeffs.c, coeffs.n, coeffs.s, coeffs.e, coeffs.w,
                    coeffs.ne, coeffs.nw, coeffs.se, coeffs.sw,
                    np.ascontiguousarray(local[..., j]), h,
                    np.empty(out.shape[:2]))
            return out
        return _stencil_2d(coeffs.c, coeffs.n, coeffs.s, coeffs.e,
                           coeffs.w, coeffs.ne, coeffs.nw, coeffs.se,
                           coeffs.sw, local, h, out)

    def stencil_apply_stacked(self, coeffs, stack, h, bny, bnx, out):
        args = tuple(np.ascontiguousarray(coeffs[name])
                     for name in _COEFF_ORDER)
        if stack.ndim == 4:
            for j in range(stack.shape[-1]):
                out[..., j] = _stencil_stacked(
                    *args, np.ascontiguousarray(stack[..., j]), h,
                    np.empty((stack.shape[0], bny, bnx)))
            return out
        return _stencil_stacked(*args, stack, h, out)

    # ------------------------------------------------------------------
    def prepare_evp(self, engine):
        # Contiguous copies of all nine coefficient stacks, in marching
        # order (zero arrays included: the scalar loop pays one fused
        # multiply-add for them, cheaper than branching).
        return tuple(np.ascontiguousarray(engine.coeffs[name])
                     for name in _MARCH_ORDER)

    def evp_solve(self, engine, plan, y, out=None):
        y = validate_evp_shapes(engine, y)
        b, my, mx = engine.batch, engine.my, engine.mx
        if y.ndim == 4:
            nrhs = y.shape[3]
            if out is None:
                out = np.empty((b, my, mx, nrhs))
            for j in range(nrhs):
                out[..., j] = self.evp_solve(
                    engine, plan, np.ascontiguousarray(y[..., j]))
            return out
        c, n, s, e, w, nw, se, sw, ne = plan
        p = np.zeros((b, my + 2, mx + 2))
        _evp_march(p, y, c, n, s, e, w, nw, se, sw, ne)
        f = np.empty((b, engine.k))
        _evp_edges(p, y, c, n, s, e, w, nw, se, sw, ne, f)
        ring = engine.ring_correction(f)
        p[...] = 0.0
        p[:, engine._ring_rows, engine._ring_cols] = ring
        _evp_march(p, y, c, n, s, e, w, nw, se, sw, ne)
        x = p[:, 1:my + 1, 1:mx + 1]
        if out is None:
            return x.copy()
        out[...] = x
        return out
