"""The load-time check of ``native.c``: each entry point against the
same public calls without it.

:data:`CASES` declares per entry point the public calls that reach it,
on small operands from the repo's own builders, and the entry points a
call needs to get there.  :func:`check` makes each call twice on the
same draws, with the entry point and its needs and with the needs alone
-- which runs what runs wherever the library is missing: the
``NumpyKernels`` method ``FusedKernels`` overrides, the preconditioner's
takes, a span's primitive calls -- and adopts the entry point only if
every array produced (whole: halo and pad cells too), every value
returned and every ledger match bit for bit, NaN for NaN.  A case whose
need was rejected is skipped: the product cannot take that path either.
"""

import functools

import numpy as np

from repro.grid import StencilCoeffs, test_config
from repro.grid.stencil import COEFF_NAMES
from repro.kernels.fused import FusedKernels
from repro.kernels.native import Native
from repro.parallel import HaloExchanger, VirtualMachine, decompose
from repro.parallel.halo import BlockField
from repro.parallel.resilience import ResiliencePolicy, ResilienceRuntime
from repro.precond.diagonal import DiagonalPreconditioner
from repro.precond.evp import EVPTileEngine, evp_for_config
from repro.solvers.context import DistributedContext, SerialContext


def check(name, fn, functions):
    """Whether ``fn`` may serve as entry point ``name``: every case of
    ``name`` whose needs ``functions`` holds (entry point -> function,
    ``None`` where rejected) gives the same results with it as without.
    A case that raises fails."""
    for needs, case in CASES[name]:
        lib = {need: functions[need] for need in needs}
        if None in lib.values():
            continue
        draws = _Draws()
        try:
            with np.errstate(all="ignore"):
                got = case(_kernels({**lib, name: fn}), draws)
                want = case(_kernels(lib), draws.replay())
        except Exception:
            return False
        if not _same(got, want):
            return False
    return True


def _kernels(functions):
    kernels = FusedKernels()
    kernels._lib = Native("self-test", functions)
    return kernels


class _Draws:
    """A case's operands, one set for its two runs: a generator whose
    draws the first run gets copies of and, after :meth:`replay`, the
    second gets as they were made."""

    def __init__(self):
        self.rng, self.made = np.random.default_rng(1130), []

    def replay(self):
        self.made = iter(self.made)
        return self

    def values(self, shape):
        return self.random(shape) * 2.0 - 1.0

    def __getattr__(self, method):
        def draw(*args):
            if not isinstance(self.made, list):
                return next(self.made)
            self.made.append(getattr(self.rng, method)(*args))
            return np.copy(self.made[-1])
        return draw


def _same(a, b):
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, dict):
        return a == b
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.array_equal(a, b, equal_nan=True))


# -- operands ------------------------------------------------------------
def _poison(rng, v, cells, h=0):
    """NaN, +Inf and -Inf in drawn rows of the first and last columns
    (``h`` in) of ``v``, whose first ``cells`` axes are cells: what a
    wavefront that reads a row too early trips on (column 0 of a batch;
    the others stay finite)."""
    rows = (rng.random((3, cells - 1)) * v.shape[:cells - 1]).astype(int)
    for at, value, i in zip(rows, (np.nan, np.inf, -np.inf),
                            (h, v.shape[cells - 1] - h - 1, h)):
        v[tuple(at) + (i,) + (0,) * (v.ndim - cells)] = value


def _planes(rng, shape):
    return dict(zip(COEFF_NAMES, rng.values((9,) + shape)))


def _stencil(rng, ny, nx, symmetric=False):
    """Drawn planes with land, the centre positive; ``symmetric``: each
    coupling equals its mirror's, bit for bit."""
    p = _planes(rng, (ny, nx))
    p["c"] = np.abs(p["c"]) + 0.5
    if symmetric:
        p["s"][1:], p["w"][:, 1:] = p["n"][:-1], p["e"][:, :-1]
        p["sw"][1:, 1:], p["se"][1:, :-1] = p["ne"][:-1, :-1], p["nw"][:-1, 1:]
    return StencilCoeffs(**p, mask=rng.random((ny, nx)) < 0.8)


def _fields(rng, decomp, shape, n, names, poisoned=""):
    """Drawn vectors ``names`` of width ``n`` (``None``: no batch axis):
    grids of ``shape`` or, over ``decomp``, stacked fields drawn whole
    (halo and pad cells too); those in ``poisoned`` carry NaN / Inf."""
    out = []
    for name in names:
        if decomp is None:
            v = array = rng.values(shape + (() if n is None else (n,)))
        else:
            v = BlockField.zeros(decomp, stacked=True, nrhs=n)
            array = v.stack
            array[...] = rng.values(array.shape)
        if name in poisoned:
            _poison(rng, array, 2 if decomp is None else 3,
                    0 if decomp is None else decomp.halo_width)
        out.append(v)
    return out


@functools.lru_cache(maxsize=None)
def _layout():
    """A ``test_config`` grid, a ragged 2x2 lattice of halo-2 blocks on
    it, and its block EVP's influence state once built."""
    config = test_config(7, 8, seed=3)
    return config, decompose(7, 8, 2, 2, mask=config.mask), {}


def _evp(kernels):
    """The block EVP on :func:`_layout`'s blocks: tiles of two shapes."""
    config, decomp, influence = _layout()
    pre = evp_for_config(config, decomp=decomp, tile_size=4, kernels=kernels,
                         influence_state=influence or None)
    influence.update(pre.influence_state())
    return pre


def _context(kernels, pre, stacked=False, policy=None):
    """A serial context with ``pre`` or, ``stacked``, one on the batched
    engine's stacks, under a resilience runtime of ``policy`` if one is
    given."""
    if not stacked:
        return SerialContext(pre.stencil, pre, kernels=kernels)
    vm = VirtualMachine(pre.decomp, mask=pre.mask)
    vm.kernels = kernels
    ctx = DistributedContext(pre.stencil, pre, vm, kernels=kernels)
    if policy is not None:
        vm.resilience = ResilienceRuntime(policy, ctx)
    return ctx


def _span(ctx, rng, n, steps, kind):
    """A span of ``kind`` on drawn vectors of width ``n``: P-CSI's ``r``
    (on a stack its interior rows: a span updates ``r``, the calls'
    residual is a fresh field), ``dx`` and ``x``, NaN and Inf in all
    three; or ChronGear's ``x``, ``r``, ``s``, ``p`` and every
    iteration's dots, NaN and Inf in ``r``, the second iteration
    updating nothing; and the ledger.  Under a resilience runtime the
    vectors are finite (a NaN would fail the row-sum check), and the
    runtime's summary, wall clock aside, follows."""
    decomp, shape = ctx.decomp, ctx.stencil.shape
    runtime = getattr(getattr(ctx, "vm", None), "resilience", None)
    out = []
    if kind == "chebyshev":
        b, r, dx, x = _fields(rng, decomp, shape, n, "brdx",
                              "" if runtime else "rdx")
        weights = [(float(w), float(c)) for w, c in
                   rng.uniform(0.5, 2.0, (steps, 2)) * (1.0, -0.5)]
        r = ctx.chebyshev_span(b, r, dx, x, weights)
        vectors = (r if decomp is None else r.interior_stack(), dx, x)
    else:
        vectors = _fields(rng, decomp, shape, n, "xrsp",
                          "" if runtime else "r")
        drawn = rng.uniform(0.5, 2.0, (steps, 2, n or 1)) * ((1.0,), (0.3,))

        def step(rho, delta):
            out.append([rho, delta])
            alpha, beta = drawn[len(out) - 1]
            if len(out) == 2:
                return None
            return (alpha, beta) if n else (float(alpha[0]), float(beta[0]))

        ctx.chrongear_span(*vectors, steps, step)
    checked = [] if runtime is None else [{**runtime.summary(), "seconds": 0}]
    return [getattr(v, "stack", v) for v in vectors] + [
        out, ctx.ledger.snapshot()] + checked


# -- the cases -----------------------------------------------------------
def _sweeps(kernels, rng):
    """Global sweeps of drawn stencils on finite grids (the global form's
    zero wrapping couplings carry an edge NaN to the opposite edge, the
    reference's zero border does not), then stacked sweeps into the
    interior of another stack, whose halo and pad stay as they were."""
    out = [kernels.stencil_apply(_stencil(rng, *shape[:2]),
                                 rng.values(shape))
           for shape in ((3, 3), (10, 15, 1), (33, 32), (10, 15, 2),
                         (5, 7, 3), (10, 15, 8), (20, 20, 11))]
    for n in ((), (1,), (3,), (8,), (11,)):
        stack, y = rng.values((2, 3, 9, 11) + n)
        _poison(rng, stack, 3, 2)
        kernels.stencil_apply_stacked(_planes(rng, (3, 5, 7)), stack, 2, 5, 7,
                                      y[:, 2:-2, 2:-2])
        out.append(y)
    return out


def _chains(kernels, rng):
    """ChronGear's four steps (later ones read what earlier ones wrote)
    on whole vectors longer than a chunk with scalar coefficients, then
    with one per column on a serial batch and on stack interiors."""
    out = []
    for shape, inner in (((2500,), ()), ((40, 30, 3), ()),
                         ((3, 11, 13, 5), np.s_[:, 2:-2, 2:-2])):
        out.append(rng.values((6,) + shape))
        s, p, x, r, z, q = (v[inner] for v in out[-1])
        a, b = (0.7, -1.1) if len(shape) == 1 else rng.values((2, shape[-1]))
        kernels.update_chain([(1, 0.0, b, z, s), (2, a, b, q, p),
                              (0, a, 0.0, s, x), (0, -a, 0.0, p, r)])
    return out


def _dots(kernels, rng):
    """Masked dots of every awkward length, then every block window and
    column of stack interiors, whole and ragged; terms of magnitudes
    2**-16 to 2**15, so that the order of a sum shows."""
    out, scales = [], 2.0 ** np.arange(-16, 16)
    for n in (1, 7, 8, 9, 127, 128, 129, 300, 1000, 17280, 30720):
        a = rng.values(n) * scales[rng.integers(0, 32, n)]
        b, w = rng.values(n), (rng.random(n) < 0.5) * 1.0
        out.append(kernels.masked_dot(a, b, w, np.empty(n)))
    mask = (rng.random((5, 12, 13)) < 0.5) * 1.0
    ragged = np.array([(12, 13), (11, 13), (12, 12), (3, 2), (11, 12)])
    for n in (1, 3, 8):
        a, b = rng.values((2, 5, 16, 17, n))
        a *= scales[rng.integers(0, 32, a.shape)]
        out += [kernels.window_dots(a[:, 2:-2, 2:-2], b[:, 2:-2, 2:-2], mask,
                                    extents) for extents in (None, ragged)]
    return out


def _tile_solves(kernels, rng, engines):
    """EVP tile solves in ``kernels``' layout, read back per cell: per
    ``(shape, widths, patterned)`` of ``engines`` drawn ``(B, my, mx)``
    tiles (and ring factors: no influence build) solving at ``widths``,
    from a zero ring and from the corrected one; ``patterned``: the
    anti-diagonals march 4, 5 and 8 terms in turn (north, south, east
    and west couplings on none of them, north only, or all)."""
    out = []
    for (b, my, mx), widths, patterned in engines:
        coeffs = _planes(rng, (b, my, mx))
        terms = np.add(*np.indices((my, mx))) % 3
        for name in "nsew" if patterned else "":
            coeffs[name] *= (terms == 2) | ((terms == 1) & (name == "n"))
        factors = rng.values((b, my + mx - 1, my + mx - 1))
        engine = EVPTileEngine(coeffs, (factors, factors), kernels=kernels)
        y_slot, x_slot, size = engine.slots()
        for n in widths:
            y, x = np.empty((y_slot.size, n)), np.zeros((size, n))
            y[y_slot.ravel()] = rng.values((y_slot.size, n))
            engine.runner(y, x)(n)
            out.append(x[x_slot])
    return out


def _applies(kernels, rng):
    """Block EVP applies over the ragged lattice -- on the grid, and from
    a stack interior into another's (its halo untouched, pad cells no
    tile covers) -- NaN and Inf in the right-hand side: non-finite
    states, masked."""
    pre = _evp(kernels)
    (r,) = _fields(rng, None, pre.mask.shape, 11, "r", "r")
    out = [pre.apply_global(r)]
    for n in (None, 2, 8):
        r, y = _fields(rng, pre.decomp, None, n, "ry", "r")
        pre.apply_stack(r.interior_stack(), out=y.interior_stack())
        out.append(y.stack)
    return out


def _diagonal_spans(kernels, rng, kind, cases):
    """Spans of ``kind`` on serial contexts with a diagonal ``M``, per
    ``(ny, nx, width, iterations, symmetric)`` of ``cases`` on a drawn
    stencil with land (``dinv`` 0.0 there)."""
    out = []
    for ny, nx, n, steps, symmetric in cases:
        stencil = _stencil(rng, ny, nx, symmetric)
        pre = DiagonalPreconditioner(stencil, kernels=kernels)
        out.append(_span(_context(kernels, pre), rng, n, steps, kind))
    return out


def _halo_copies(kernels, rng):
    """The stacked exchange's halo copy over the ragged lattice and over
    a uniform one with blocks eliminated as land."""
    out = []
    for decomp in (_layout()[1], decompose(
            12, 16, 2, 2, mask=np.arange(192).reshape(12, 16) % 16 < 8)):
        tables = HaloExchanger(decomp).halo_tables()
        for n in (None, 1, 3, 8):
            (f,) = _fields(rng, decomp, None, n, "h", "h")
            kernels.halo_copy(f.stack, tables)
            out.append(f.stack)
    return out


def _evp_spans(kernels, rng):
    """P-CSI and ChronGear + block EVP spans of 1 to 3 iterations on the
    grid and on the ragged halo-2 stacks, then on the stacks under a
    resilience runtime -- halo checksums every iteration, a row-sum
    check every second -- whose checks the spans judge from the sums
    ``evp_step`` makes."""
    pre = _evp(kernels)
    guarded = ResiliencePolicy(abft_every=2)
    return [_span(_context(kernels, pre, stacked, policy), rng, n, steps,
                  kind)
            for stacked, n, steps, kind, policy in (
                (False, None, 2, "chebyshev", None),
                (False, 3, 3, "chrongear", None),
                (True, 1, 1, "chebyshev", None),
                (True, 11, 1, "chebyshev", None),
                (True, 8, 2, "chrongear", None),
                (True, None, 3, "chebyshev", guarded),
                (True, 3, 3, "chrongear", guarded))]


def _crosschecks(kernels, rng):
    """Guarded P-CSI and ChronGear + block EVP spans of one iteration on
    the ragged halo-2 stacks, each followed by two cross-check residuals
    of its iterate against drawn right-hand sides -- the row-sum check
    due in the first -- in the span's runner where it was adopted: the
    residuals, the iterate after their halo copies, the ledger and the
    runtime's summary."""
    pre, out = _evp(kernels), []
    for n, kind, at in ((None, "chebyshev", 2), (3, "chrongear", 0)):
        ctx = _context(kernels, pre, True, ResiliencePolicy(abft_every=2))
        spanned = _span(ctx, rng, n, 1, kind)
        x = BlockField.from_stack(ctx.decomp, spanned[at])
        for _ in range(2):
            (b,) = _fields(rng, ctx.decomp, None, n, "b")
            out.append(ctx.checked_residual(b, x).stack.copy())
        runtime = ctx.vm.resilience
        out += [x.stack, ctx.ledger.snapshot(),
                {**runtime.summary(), "seconds": 0}]
    return out


_EVP = ("evp_march", "evp_edges")
#: Entry point -> its cases, ``(needs, case)``: ``case(kernels, rng)``
#: makes the public calls and returns what they produced.  The checks
#: run in ``native._SELF_TESTS``' order, so that every need is adopted
#: or not checked yet.
CASES = {
    "dia_sweep": [((), _sweeps)],
    "update_chain": [((), _chains)],
    "pairwise_dot": [((), _dots)],
    # Tiles one cell thick, where the march only sets the ring; more
    # 1x12 tiles than a chunk at width 1.
    "evp_edges": [(("evp_march",), functools.partial(_tile_solves, engines=(
        ((90, 1, 12), (1, 8), False), ((7, 4, 1), (3, 11), False))))],
    # More equations a step than a chunk at widths 1 (2x2 tiles) and 8.
    "evp_march": [(("evp_edges",), functools.partial(_tile_solves, engines=(
        ((1030, 2, 2), (1,), False), ((70, 3, 3), (1, 8, 11), True))))],
    "evp_gather": [(_EVP, _applies)],
    "evp_scatter": [(_EVP, _applies)],
    # Spans of 1 to 6 iterations on grids 3 to 11 cells wide.
    "chebyshev_span": [(("dia_sweep",), functools.partial(
        _diagonal_spans, kind="chebyshev", cases=(
            (9, 3, None, 6, False), (13, 11, 2, 6, False),
            (6, 11, 3, 1, False), (20, 7, 1, 3, False),
            (4, 5, 2, 3, False))))],
    # Sums of one pairwise leaf and trees of them, symmetric planes or not.
    "chrongear_span": [(("dia_sweep",), functools.partial(
        _diagonal_spans, kind="chrongear", cases=(
            (9, 3, None, 4, True), (13, 11, 2, 3, False),
            (6, 11, 3, 2, True), (40, 7, 8, 2, False),
            (4, 5, 11, 1, False), (30, 11, 1, 3, True))))],
    "evp_step": [((), _halo_copies), (("dia_sweep",) + _EVP, _evp_spans),
                 (("dia_sweep",) + _EVP, _crosschecks)],
}
