"""Kernel resolution and reference/product parity.

The two kernel implementations are execution details: the ``numpy``
reference and the ``fused`` product must produce bit-identical results
everywhere (same IEEE operation sequence, different dispatch).  The
parity matrix below holds ``fused`` to the reference across stencil
matvecs, EVP preconditioner applies, and full distributed solves under
both execution engines and both mask regimes -- twice: with the
compiled loops of ``native.c`` and as the product runs where the
library was not built, every loop declining to the reference it
overrides.  (Without a compiler the two are the same code and
everything still runs; only the tests of the library itself skip, with
the loader's reason.)
"""

import copy
import functools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.errors import KernelError
from repro.grid import pop_1deg
from repro.grid import test_config as make_test_config
from repro.kernels import FusedKernels, NumpyKernels, resolve_kernels
from repro.kernels.native import Native
from repro.kernels.native import load as load_native
from repro.operators import BlockedOperator, apply_stencil
from repro.operators.stencil_op import apply_stencil_local
from repro.parallel import VirtualMachine, decompose
from repro.parallel.faults import HaloFault, ReductionFault
from repro.parallel.halo import BlockField
from repro.parallel.resilience import (
    ResiliencePolicy,
    ResilienceRuntime,
    SDCDetectedError,
)
from repro.precond import make_preconditioner
from repro.precond.evp import evp_for_config
from repro.solvers import (
    DistributedContext,
    PCSISolver,
    SerialContext,
    make_solver,
)
from tests.test_checkpoint import CallsDistributedContext, CallsSerialContext
from tests.test_engine_conformance import _config_with_land_blocks


class _Unbuilt(FusedKernels):
    """The product on a machine where ``native.c`` was not built: every
    loop declines to the reference method it overrides."""

    def _native(self):
        return Native("no compiler")


#: The oracle, the product with the library, the product without it;
#: each must match the reference bit for bit.
KERNELS = {"numpy": resolve_kernels("numpy"),
           "fused": resolve_kernels("fused"),
           "fused-unbuilt": _Unbuilt()}
BACKENDS = list(KERNELS)
PRODUCTS = BACKENDS[1:]


def needs_native(entry_point):
    """Skip a test of the library itself where it was not adopted."""
    lib = load_native()
    return pytest.mark.skipif(getattr(lib, entry_point) is None,
                              reason=f"native kernels: {lib.status}")


def _assert_close(name, ref, got):
    assert np.array_equal(ref, got), name


@pytest.fixture(scope="module")
def uniform_config():
    return make_test_config(32, 48, seed=7)


@pytest.fixture(scope="module")
def uniform_decomp(uniform_config):
    d = decompose(uniform_config.ny, uniform_config.nx, 4, 4,
                  mask=uniform_config.mask)
    assert d.is_uniform and d.num_active == d.num_blocks
    return d


@pytest.fixture(scope="module")
def eliminated_config():
    return make_test_config(32, 48, seed=1, land_fraction=0.5)


@pytest.fixture(scope="module")
def eliminated_decomp(eliminated_config):
    d = decompose(eliminated_config.ny, eliminated_config.nx, 4, 4,
                  mask=eliminated_config.mask)
    assert d.num_active < d.num_blocks
    return d


def _rhs(config, seed=1):
    rng = np.random.default_rng(seed)
    return apply_stencil(config.stencil,
                         rng.standard_normal(config.shape) * config.mask)


@st.composite
def _evp_cases(draw):
    """A decomposition (uniform, ragged, land-eliminated), a tile size
    (tile sides 1..12, single-row and single-column tiles included), a
    stencil, a batch width and an application layout."""
    mby = draw(st.integers(1, 3))
    mbx = draw(st.integers(1, 3))
    land_blocks = draw(st.sets(st.integers(0, mby * mbx - 1),
                               max_size=(mby * mbx) // 3))
    # Block sides 1..14 plus a ragged remainder: with ``tile_size`` up
    # to 12 that reaches every tile side the engine supports.
    ny = mby * draw(st.integers(1, 14)) + draw(st.integers(0, mby - 1))
    nx = mbx * draw(st.integers(1, 14)) + draw(st.integers(0, mbx - 1))
    return dict(
        ny=ny, nx=nx, mby=mby, mbx=mbx, land_blocks=sorted(land_blocks),
        seed=draw(st.integers(0, 20)),
        tile_size=draw(st.sampled_from((1, 2, 3, 5, 7, 11, 12))),
        simplified=draw(st.booleans()),
        nrhs=draw(st.sampled_from((None, 1, 3, 8))),
        layout=draw(st.sampled_from(("global", "stack", "block"))),
        rank=draw(st.integers(0, 8)), tile=draw(st.integers(0, 50)),
        poison=draw(st.sampled_from((np.nan, np.inf))),
    )


@st.composite
def _boundary_cases(draw):
    """A layout the EVP boundary moves cells in -- the global grid (a
    serial batch at a width; blocks eliminated as land leave cells no
    tile covers), the strided interior of a block stack, a ragged stack
    with land blocks eliminated, a stack interior updated in place --,
    tile sides 1..12, a stencil, a batch width and the non-finite
    values to plant in a tile's first and last rows."""
    layout = draw(st.sampled_from(("global", "stack", "ragged", "inplace")))
    mby, mbx = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    side = 1 if layout == "global" else 2   # a block holds the halo
    ny = mby * draw(st.integers(side, 14))
    nx = mbx * draw(st.integers(side, 14))
    land_blocks = ()
    if layout in ("global", "ragged"):
        ny += draw(st.integers(0, mby - 1))
        nx += draw(st.integers(0, mbx - 1))
        land_blocks = draw(st.sets(st.integers(0, mby * mbx - 1),
                                   max_size=(mby * mbx) // 3))
    return dict(
        layout=layout, ny=ny, nx=nx, mby=mby, mbx=mbx,
        land_blocks=sorted(land_blocks), seed=draw(st.integers(0, 20)),
        tile_size=draw(st.integers(1, 12)), simplified=draw(st.booleans()),
        nrhs=draw(st.sampled_from((None, 1, 2, 3, 8, 11))),
        tile=draw(st.integers(0, 50)), column=draw(st.integers(0, 10)),
        poison=draw(st.sampled_from(((np.nan, np.inf), (np.inf, -np.inf),
                                     (-np.inf, np.nan)))),
    )


@st.composite
def _stencil_cases(draw):
    """A grid (sides 1..24, single rows and columns included), a layout
    -- the global grid, a uniform block stack, or a ragged stack with
    whole blocks eliminated as land -- a halo width, a batch width and
    where to plant a NaN."""
    layout = draw(st.sampled_from(("global", "uniform", "ragged")))
    ny, nx = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    mby = draw(st.integers(1, min(3, ny)))
    mbx = draw(st.integers(1, min(3, nx)))
    land_blocks = ()
    if layout == "uniform":
        ny, nx = ny - ny % mby, nx - nx % mbx
    elif layout == "ragged":
        land_blocks = draw(st.sets(st.integers(0, mby * mbx - 1),
                                   max_size=(mby * mbx) // 3))
    return dict(
        layout=layout, ny=ny, nx=nx, mby=mby, mbx=mbx,
        land_blocks=sorted(land_blocks), h=draw(st.sampled_from((1, 2))),
        nrhs=draw(st.sampled_from((None, 1, 2, 3, 8))),
        seed=draw(st.integers(0, 20)),
        where=draw(st.sampled_from(("any", "land", "halo"))),
        spot=draw(st.integers(0, 10_000)),
    )


@st.composite
def _stack_cases(draw):
    """A block stack -- uniform, ragged, or ragged with whole blocks
    eliminated as land -- a halo width, a batch width and where to
    plant a NaN or an Inf: an interior, a halo or a pad cell."""
    layout = draw(st.sampled_from(("uniform", "ragged", "eliminated")))
    h = draw(st.sampled_from((1, 2)))
    mby, mbx = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    ny = mby * draw(st.integers(h, 9))
    nx = mbx * draw(st.integers(h, 9))
    land_blocks = ()
    if layout != "uniform":
        ny += draw(st.integers(0, mby - 1))
        nx += draw(st.integers(0, mbx - 1))
    if layout == "eliminated":
        land_blocks = draw(st.sets(st.integers(0, mby * mbx - 1),
                                   max_size=(mby * mbx) // 3))
    return dict(
        ny=ny, nx=nx, mby=mby, mbx=mbx, h=h,
        land_blocks=sorted(land_blocks),
        nrhs=draw(st.sampled_from((None, 1, 2, 3, 8, 11))),
        seed=draw(st.integers(0, 20)),
        poison=draw(st.sampled_from((np.nan, np.inf))),
        where=draw(st.sampled_from(("interior", "halo", "pad"))),
        spot=draw(st.integers(0, 10_000)),
    )


class _Stack:
    """The machine, the cell classes and the field factory of one
    drawn :func:`_stack_cases` case."""

    def __init__(self, case):
        self.case = case
        self.config = _config_with_land_blocks(
            case["ny"], case["nx"], case["mby"], case["mbx"],
            case["land_blocks"], case["seed"])
        self.decomp = decompose(case["ny"], case["nx"], case["mby"],
                                case["mbx"], mask=self.config.mask,
                                halo_width=case["h"])
        self.nrhs = case["nrhs"]
        self.rng = np.random.default_rng(case["seed"])
        h = case["h"]
        probe = BlockField.zeros(self.decomp, stacked=True)
        kind = np.full(probe.stack.shape, "pad", dtype=object)
        for rank in range(self.decomp.num_active):
            probe.local(rank)[...] = 1.0
            probe.interior(rank)[...] = 2.0
        kind[probe.stack == 1.0] = "halo"
        kind[probe.stack == 2.0] = "interior"
        #: ``"interior"`` / ``"halo"`` / ``"pad"`` per stack cell.
        self.kind = kind
        self.inner = (slice(None), slice(h, -h), slice(h, -h))

    def machine(self, kernels, **kwargs):
        vm = VirtualMachine(self.decomp, mask=self.config.mask, **kwargs)
        assert vm.engine == "batched"
        vm.kernels = kernels
        return vm

    def context(self, kernels, **kwargs):
        pre = make_preconditioner("diagonal", self.config.stencil,
                                  decomp=self.decomp, kernels=kernels)
        return DistributedContext(self.config.stencil, pre,
                                  self.machine(kernels, **kwargs),
                                  kernels=kernels)

    def stacks(self, count, poisoned=True):
        """``count`` random stacks -- halo and pad cells random too --
        the first carrying the drawn NaN / Inf in a cell of the drawn
        class (anywhere when the stack has none of that class)."""
        tail = () if self.nrhs is None else (self.nrhs,)
        out = self.rng.standard_normal((count,) + self.kind.shape + tail)
        if poisoned:
            spots = np.argwhere(self.kind == self.case["where"])
            if not len(spots):
                spots = np.argwhere(self.kind != "")
            spot = tuple(spots[self.case["spot"] % len(spots)])
            out[0][spot + tuple(self.case["spot"] % n for n in tail)] \
                = self.case["poison"]
        return out

    def fields(self, stacks, stacked=True):
        """Block fields holding ``stacks``: stacked ones whole, per-rank
        ones each rank's exact window."""
        made = []
        for stack in stacks:
            field = BlockField.zeros(self.decomp, stacked=stacked,
                                     nrhs=self.nrhs)
            if stacked:
                field.stack[...] = stack
            for rank, window in enumerate(field.locals_):
                window[...] = stack[rank][:window.shape[0], :window.shape[1]]
            made.append(field)
        return made


class _RecordingKernels(FusedKernels):
    """``FusedKernels`` that counts the calls of ``native.c``'s entry
    point ``name`` (none where it was not adopted)."""

    def __init__(self, name):
        super().__init__()
        self.ran = 0
        lib = copy.copy(load_native())
        fn = getattr(lib, name)
        if fn is not None:
            def watched(*args):
                self.ran += 1
                return fn(*args)

            setattr(lib, name, watched)
        self._lib = lib


class TestRegistry:
    def test_reference_backends_always_available(self):
        assert type(resolve_kernels("numpy")) is NumpyKernels
        assert type(resolve_kernels("fused")) is FusedKernels
        assert resolve_kernels("fused") is resolve_kernels("fused")

    def test_unknown_backend_raises_listing_choices(self):
        for name in ("auto", "jit", "gpu", ""):
            with pytest.raises(KernelError,
                               match="unknown kernel backend") as err:
                resolve_kernels(name)
            assert str(err.value).endswith("expected one of numpy, fused")

    def test_none_is_fused(self):
        assert resolve_kernels(None) is resolve_kernels("fused")

    def test_env_variable_ignored(self, monkeypatch):
        for value in ("numpy", "gpu"):
            monkeypatch.setenv("REPRO_KERNELS", value)
            assert resolve_kernels(None) is resolve_kernels("fused")

    def test_instance_passthrough(self):
        for backend in (FusedKernels(), NumpyKernels()):
            assert resolve_kernels(backend) is backend

    def test_names_case_insensitive(self):
        assert resolve_kernels("FUSED").name == "fused"

    def test_describe_mentions_name(self):
        assert resolve_kernels("numpy").describe() == \
            "numpy (bit-identical)"
        fused = resolve_kernels(None)
        assert fused.describe() == (
            "fused+native (bit-identical)" if load_native().loaded
            else "fused (bit-identical)")
        assert fused.native_status() == load_native().status

    def test_cli_rejects_unknown_backend(self):
        """There is no ``--kernels`` flag: any value is a usage error."""
        env = dict(os.environ, PYTHONPATH=str(
            Path(__file__).resolve().parent.parent / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "solve", "--config",
             "test", "--kernels", "fused"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 2
        assert "unrecognized arguments: --kernels" in proc.stderr


class TestStencilParity:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_global_matvec(self, uniform_config, backend):
        ref = apply_stencil(uniform_config.stencil,
                            _rhs(uniform_config), kernels="numpy")
        got = apply_stencil(uniform_config.stencil,
                            _rhs(uniform_config), kernels=KERNELS[backend])
        _assert_close(backend, ref, got)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_local_matvec(self, uniform_config, uniform_decomp, backend):
        vm = VirtualMachine(uniform_decomp, mask=uniform_config.mask,
                            engine="perrank")
        x = vm.scatter(_rhs(uniform_config))
        vm.exchange(x)
        op_ref = BlockedOperator(uniform_config.stencil, uniform_decomp,
                                 kernels="numpy")
        op_got = BlockedOperator(uniform_config.stencil, uniform_decomp,
                                 kernels=KERNELS[backend])
        h = uniform_decomp.halo_width
        for rank in range(uniform_decomp.num_active):
            coeffs = op_ref._local_coeffs[rank]
            ref = apply_stencil_local(coeffs, x.local(rank), h,
                                      kernels="numpy")
            got = apply_stencil_local(op_got._local_coeffs[rank],
                                      x.local(rank), h,
                                      kernels=KERNELS[backend])
            _assert_close(backend, ref, got)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_stacked_matvec(self, uniform_config, uniform_decomp, backend):
        outs = {}
        for name in ("numpy", backend):
            vm = VirtualMachine(uniform_decomp, mask=uniform_config.mask,
                                engine="batched")
            op = BlockedOperator(uniform_config.stencil, uniform_decomp,
                                 kernels=KERNELS[name])
            x = vm.scatter(_rhs(uniform_config))
            vm.exchange(x)
            out = vm.zeros()
            op.apply(x, out)
            outs[name] = out.interior_stack().copy()
        _assert_close(backend, outs["numpy"], outs[backend])


@pytest.fixture(scope="module")
def ragged_decomp(uniform_config):
    d = decompose(uniform_config.ny, uniform_config.nx, 3, 5,
                  mask=uniform_config.mask)
    assert not d.is_uniform
    return d


class TestBatchStencilParity:
    """The folded multi-RHS stencil: numpy reference and column calls."""

    @pytest.mark.parametrize("nrhs", [1, 2, 3, 8])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_global_batch(self, uniform_config, backend, nrhs):
        stencil = uniform_config.stencil
        x = np.stack([_rhs(uniform_config, seed=j) for j in range(nrhs)],
                     axis=-1)
        ref = apply_stencil(stencil, x, kernels="numpy")
        got = apply_stencil(stencil, x, kernels=KERNELS[backend])
        _assert_close(backend, ref, got)
        for j in range(nrhs):
            column = apply_stencil(stencil, np.ascontiguousarray(x[..., j]),
                                   kernels=KERNELS[backend])
            _assert_close(backend, column, got[..., j])

    @pytest.mark.parametrize("nrhs", [1, 2, 3, 8])
    @pytest.mark.parametrize("layout", ["uniform", "ragged", "eliminated"])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_stacked_batch(self, request, backend, layout, nrhs):
        config = request.getfixturevalue(
            "eliminated_config" if layout == "eliminated"
            else "uniform_config")
        decomp = request.getfixturevalue(f"{layout}_decomp")
        x = np.stack([_rhs(config, seed=j) for j in range(nrhs)], axis=-1)

        def matvec(name, field):
            vm = VirtualMachine(decomp, mask=config.mask, engine="batched")
            op = BlockedOperator(config.stencil, decomp,
                                 kernels=KERNELS[name])
            src = vm.scatter(field)
            vm.exchange(src)
            out = vm.zeros(nrhs=src.nrhs)
            op.apply(src, out)
            return vm.gather(out)

        got = matvec(backend, x)
        _assert_close(backend, matvec("numpy", x), got)
        for j in range(nrhs):
            column = matvec(backend, np.ascontiguousarray(x[..., j]))
            _assert_close(backend, column, got[..., j])

    @given(case=_stencil_cases())
    @settings(max_examples=200, deadline=None, derandomize=True,
              suppress_health_check=list(HealthCheck))
    def test_drawn_layouts(self, case):
        """Grid x layout x halo x width on unmasked random fields: the
        DIA sweep against the reference loop, bit for bit."""
        config = _config_with_land_blocks(
            case["ny"], case["nx"], case["mby"], case["mbx"],
            case["land_blocks"], case["seed"])
        layout, h, nrhs = case["layout"], case["h"], case["nrhs"]
        tail = () if nrhs is None else (nrhs,)
        backends = {"numpy": NumpyKernels(), "fused": FusedKernels(),
                    "fused-unbuilt": _Unbuilt()}
        if layout == "global":
            coeffs, mask = config.stencil, config.mask
            shape = inner = config.shape
        else:
            decomp = decompose(
                case["ny"], case["nx"], case["mby"], case["mbx"],
                mask=config.mask if layout == "ragged" else None)
            coeffs = BlockedOperator(config.stencil,
                                     decomp)._get_stacked_coeffs()
            bny, bnx = decomp.max_block_shape()
            inner = (decomp.num_active, bny, bnx)
            shape = (decomp.num_active, bny + 2 * h, bnx + 2 * h)
            mask = np.zeros(shape, dtype=bool)
            mask[:, h:-h, h:-h] = decomp.stack_interiors(config.mask)

        def apply(name, x):
            if layout == "global":
                return backends[name].stencil_apply(coeffs, x)
            return backends[name].stencil_apply_stacked(
                coeffs, x, h, bny, bnx, np.empty(inner + x.shape[3:]))

        rng = np.random.default_rng(case["seed"])
        x = rng.standard_normal(shape + tail)
        got = apply("numpy", x)
        for product in PRODUCTS:
            assert np.array_equal(apply(product, x), got)
            for j in range(nrhs or 0):
                column = apply(product, np.ascontiguousarray(x[..., j]))
                assert np.array_equal(column, got[..., j])

        # A NaN -- anywhere, on a land (or pad) cell, in a halo cell --
        # comes back where the reference puts it, in its own column.
        cells = np.ones(shape, dtype=bool)
        if case["where"] == "land" and not mask.all():
            cells = ~mask
        elif case["where"] == "halo" and layout != "global":
            cells[:, h:-h, h:-h] = False
        spots = np.argwhere(cells)
        spot = tuple(spots[case["spot"] % len(spots)])
        poisoned = x.copy()
        poisoned[spot + (() if nrhs is None else (case["spot"] % nrhs,))] \
            = np.nan
        ref = apply("numpy", poisoned)
        for product in PRODUCTS:
            bad = apply(product, poisoned)
            if layout == "global" and spot[1] in (0, config.nx - 1):
                # The global form stores a coupling that would wrap into
                # the next grid row as 0.0 and multiplies a real cell
                # with it (the native sweep; not the reference):
                # ``0.0 * nan`` reaches the opposite edge column, which
                # the reference (zero border) leaves finite.  Nowhere
                # else.
                extra = np.isnan(bad) & ~np.isnan(ref)
                assert not extra[:, 1:-1].any()
                bad = np.where(extra, ref, bad)
            assert np.array_equal(ref, bad, equal_nan=True)

    def test_out_need_not_fold_in_place(self, uniform_config,
                                        uniform_decomp):
        """No ``out``, a contiguous one (the native sweep writes it
        directly), a strided window and the planar layout (trailing
        ``(nx, nrhs)`` axes not adjacent in memory) all take the
        result, global and stacked, with and without the library."""
        for backend in (FusedKernels(), _Unbuilt()):
            self._check_out_layouts(uniform_config, uniform_decomp, backend)

    @staticmethod
    def _check_out_layouts(uniform_config, uniform_decomp, backend):
        stencil = uniform_config.stencil
        x = np.stack([_rhs(uniform_config, seed=j) for j in range(2)],
                     axis=-1)
        fresh = apply_stencil(stencil, x, kernels=backend)
        assert fresh.flags.c_contiguous
        assert np.array_equal(fresh, apply_stencil(stencil, x,
                                                   kernels="numpy"))

        vm = VirtualMachine(uniform_decomp, mask=uniform_config.mask)
        src = vm.scatter(x)
        vm.exchange(src)
        bny, bnx = uniform_decomp.max_block_shape()
        reference = BlockedOperator(stencil, uniform_decomp, kernels="numpy")
        coeffs = reference._get_stacked_coeffs()
        stacked = vm.zeros(nrhs=2)
        reference.apply(src, stacked)

        applies = [
            (fresh, lambda out: apply_stencil(stencil, x, out=out,
                                              kernels=backend)),
            (stacked.interior_stack(),
             lambda out: backend.stencil_apply_stacked(
                 coeffs, src.stack, uniform_decomp.halo_width, bny, bnx,
                 out)),
        ]
        for ref, apply in applies:
            whole = np.full(ref.shape, 7.0)
            assert apply(whole) is whole
            assert np.array_equal(whole, ref)
            frame = np.full(tuple(n + 2 for n in ref.shape), 7.0)
            window = frame[(slice(1, -1),) * ref.ndim]
            assert apply(window) is window
            assert np.array_equal(window, ref)
            assert np.count_nonzero(frame == 7.0) == frame.size - window.size
            planar = np.empty(ref.shape[-1:] + ref.shape[:-1])
            apply(np.moveaxis(planar, 0, -1))
            assert np.array_equal(np.moveaxis(planar, 0, -1), ref)

    @needs_native("dia_sweep")
    def test_scratch_keeps_one_width(self, uniform_config, uniform_decomp):
        """What the backend keeps per coefficient set is its sweep:
        columns retiring one by one (8, 7, ..., 1) with a single-RHS
        apply in between leave the single-RHS planes -- all
        ``dia_sweep`` needs at any width; the backend keeps only the
        last few sets."""
        from repro.kernels.fused import _MAX_SWEEPS

        stencil = uniform_config.stencil
        x = np.stack([_rhs(uniform_config, seed=j) for j in range(8)],
                     axis=-1)
        vm = VirtualMachine(uniform_decomp, mask=uniform_config.mask)
        src = vm.scatter(x)
        vm.exchange(src)
        backend = FusedKernels()
        for nrhs in range(8, 0, -1):
            apply_stencil(stencil, np.ascontiguousarray(x[..., :nrhs]),
                          kernels=backend)
            apply_stencil(stencil, np.ascontiguousarray(x[..., 0]),
                          kernels=backend)
        (held,) = backend._sweeps.values()
        assert held[0] is stencil
        assert held[1].shape == (9, x[..., 0].size)

        for _ in range(_MAX_SWEEPS + 2):
            BlockedOperator(stencil, uniform_decomp,
                            kernels=backend).apply(src, vm.zeros(nrhs=8))
        assert len(backend._sweeps) == _MAX_SWEEPS

    @staticmethod
    def _contraction_probe(backend):
        """With an inexact second product a fused multiply-add shows:
        ``1 * (1 + 2**-26)`` is exact, ``-(1 + 2**-27) * (1 + 2**-27)``
        rounds to ``-(1 + 2**-26)``, so multiply-then-add gives 0.0 and
        a contracted ``a * b + c`` gives ``-2**-54``."""
        from repro.grid.stencil import COEFF_NAMES, StencilCoeffs

        shape = (3, 3)
        planes = {name: np.zeros(shape) for name in COEFF_NAMES}
        planes["c"][...] = 1.0
        planes["n"][...] = -(1.0 + 2.0 ** -27)
        stencil = StencilCoeffs(mask=np.ones(shape, dtype=bool), **planes)
        x = np.zeros(shape)
        x[1, 1] = 1.0 + 2.0 ** -26
        x[2, 1] = 1.0 + 2.0 ** -27
        ref = apply_stencil(stencil, x, kernels="numpy")
        got = apply_stencil(stencil, x, kernels=backend)
        assert ref[1, 1] == 0.0
        return got[1, 1], np.array_equal(ref, got)

    def test_sweep_is_not_contracted(self):
        """The probe the contraction tripwires share, on an independent
        sweep: scipy's DIA kernel rounds the product before it adds (row 0
        is ``1 * (1 + 2**-26) + -(1 + 2**-27) * (1 + 2**-27)``, 0.0 only
        then) -- the roundings ``native.c``'s sweep must keep, which the
        load-time self-test checks against the numpy reference."""
        from scipy.sparse import dia_array

        big, small = 1.0 + 2.0 ** -26, 1.0 + 2.0 ** -27
        sweep = dia_array((np.array([[1.0, 1.0], [0.0, -small]]), [0, 1]),
                          shape=(2, 2))
        value = (sweep @ np.array([big, small]))[0]
        assert value == 0.0, (
            "this scipy build contracts a*b+c into a fused multiply-add "
            f"(DIA sweep gave {value!r}, multiply-then-add gives 0.0): "
            "native.c's sweep self-test no longer checks the reference's "
            "roundings")

    @needs_native("dia_sweep")
    def test_native_sweep_is_not_contracted(self):
        """The same for ``native.c``: ``-ffp-contract=off`` held."""
        value, equal = self._contraction_probe(FusedKernels())
        assert value == 0.0 and equal, (
            "the compiler contracted a*b+c in native.c's dia_sweep "
            f"(gave {value!r}, multiply-then-add gives 0.0) and the "
            "loader's self-test did not notice")


@functools.lru_cache(maxsize=None)
def _span_config(grid):
    """The drawn span grids, with land: four test grids and the 144 x
    120 ``pop_1deg``."""
    if grid == "pop":
        return pop_1deg(scale=0.375)
    return make_test_config(*grid, seed=2)


@st.composite
def _span_cases(draw, names=("r", "x", "dx")):
    """A grid, a batch width, a span length, a seed, and NaN / Inf
    planted in the first or last rows and columns of the vectors
    ``names`` -- where the couplings that wrap around an edge read
    them."""
    grid = draw(st.sampled_from(((3, 3), (4, 5), (17, 3), (17, 120), "pop")))
    ny, nx = (144, 120) if grid == "pop" else grid
    edge = st.tuples(
        st.sampled_from(names),
        st.one_of(st.tuples(st.sampled_from((0, ny - 1)),
                            st.integers(0, nx - 1)),
                  st.tuples(st.integers(0, ny - 1),
                            st.sampled_from((0, nx - 1)))),
        st.sampled_from((np.nan, np.inf, -np.inf)))
    return dict(
        grid=grid, nrhs=draw(st.sampled_from((None, 1, 2, 3, 8, 11))),
        steps=draw(st.sampled_from((1, 2, 7, 10))),
        seed=draw(st.integers(0, 20)),
        poison=draw(st.lists(edge, max_size=3)),
    )


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # Inf * 0.0
class TestChebyshevSpan:
    """``SolverContext.chebyshev_span`` on a serial context with a
    diagonal preconditioner -- one ``native.c`` wavefront where the
    library was adopted -- against the same iterations as one
    ``precond`` / ``updates`` / ``residual`` call each, on the same
    kernels through :class:`CallsSerialContext`: ``r``, ``dx``, ``x``
    and the ledger equal, NaN and Inf at the edges included (the
    sweep's wrapping zero couplings turn them into NaN on the opposite
    edge, and a span must do so at the same iterations)."""

    @given(case=_span_cases())
    @settings(max_examples=100, deadline=None, derandomize=True,
              suppress_health_check=list(HealthCheck))
    def test_drawn_spans(self, case):
        config = _span_config(case["grid"])
        stencil = config.stencil
        rng = np.random.default_rng(case["seed"])
        shape = stencil.shape + (() if case["nrhs"] is None
                                 else (case["nrhs"],))
        b, r, dx, x = (rng.standard_normal(shape) for _ in range(4))
        vectors = {"r": r, "dx": dx, "x": x}
        for name, (j, i), value in case["poison"]:
            vectors[name][j, i] = value
        weights = [(float(w), float(c)) for w, c in
                   rng.uniform(0.5, 2.0, (case["steps"], 2)) * (1.0, -0.5)]
        results = []
        kernels = FusedKernels()
        for context in (SerialContext, CallsSerialContext):
            pre = make_preconditioner("diagonal", stencil, kernels=kernels)
            ctx = context(stencil, pre, kernels=kernels)
            got = {name: v.copy() for name, v in vectors.items()}
            fused = ctx.spans("chebyshev", b, got["r"], got["dx"], got["x"])
            assert fused == (context is SerialContext and
                             kernels._native().chebyshev_span is not None)
            got["r"] = ctx.chebyshev_span(b, got["r"], got["dx"], got["x"],
                                          weights)
            results.append((got, ctx.ledger.snapshot()))
        (span, span_ledger), (calls, calls_ledger) = results
        for name in vectors:
            assert np.array_equal(span[name], calls[name], equal_nan=True), \
                name
        assert span_ledger == calls_ledger

    @needs_native("chebyshev_span")
    def test_span_declines_what_it_cannot_run(self, uniform_config):
        """Narrow grids, strided, read-only, mis-shaped or overlapping
        vectors: ``False``, and nothing was touched."""
        kernels = FusedKernels()
        stencil = uniform_config.stencil
        inv = make_preconditioner("diagonal", stencil).inv_diag
        rng = np.random.default_rng(3)
        b, r, dx, x = rng.standard_normal((4,) + stencil.shape)
        frozen = x.copy()
        frozen.flags.writeable = False
        wide = rng.standard_normal(stencil.shape + (2,))
        narrow = make_test_config(6, 2, seed=1)
        diagonal = ("diagonal", inv)
        for args in ((b, r, dx, wide[..., 0]), (b, r, dx, frozen),
                     (b, r, dx, x[:, :-1]), (b, r, r, x)):
            before = [v.copy() for v in args]
            assert kernels.span_runner("chebyshev", stencil, 0, None,
                                       diagonal, args) is None
            assert all(np.array_equal(v, w) for v, w in zip(args, before))
        vectors = np.zeros((4, 6, 2))
        assert kernels.span_runner("chebyshev", narrow.stencil, 0, None,
                                   ("diagonal", np.ones((6, 2))),
                                   tuple(vectors)) is None
        assert NumpyKernels().span_runner("chebyshev", stencil, 0, None,
                                          diagonal, (b, r, dx, x)) is None
        run = kernels.span_runner("chebyshev", stencil, 0, None, diagonal,
                                  (b, r, dx, x))
        assert run is not None
        run.run([(1.0, 0.5)])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # Inf * 0.0
class TestChronGearSpan:
    """``SolverContext.chrongear_span`` on a serial context with a
    diagonal preconditioner -- one ``native.c`` pass per iteration where
    the library was adopted -- against the same iterations as one
    ``precond`` / ``matvec`` / ``dot_pair`` / ``updates`` call each, on
    the same kernels through :class:`CallsSerialContext`: ``x``, ``r``,
    ``s``, ``p``, every iteration's ``rho`` and ``delta`` and the ledger
    equal, NaN and Inf at the edges and an iteration that updates
    nothing included."""

    @given(case=_span_cases(("r", "x", "s", "p")),
           idle=st.integers(-1, 9))
    @settings(max_examples=100, deadline=None, derandomize=True,
              suppress_health_check=list(HealthCheck))
    def test_drawn_spans(self, case, idle):
        config = _span_config(case["grid"])
        stencil = config.stencil
        rng = np.random.default_rng(case["seed"])
        width = case["nrhs"]
        shape = stencil.shape + (() if width is None else (width,))
        vectors = {name: rng.standard_normal(shape) for name in "xrsp"}
        for name, (j, i), value in case["poison"]:
            vectors[name][j, i] = value
        drawn = rng.uniform(0.5, 2.0, (case["steps"], 2, width or 1))
        drawn[:, 1] *= 0.3

        def coefficients(seen):
            """The solver's step, drawn: ``(alpha, beta)`` as
            ``per_column`` hands them over, ``None`` at ``idle``."""
            def step(rho, delta):
                seen.append((rho, delta))
                if len(seen) - 1 == idle:
                    return None
                alpha, beta = drawn[len(seen) - 1]
                if (width or 1) == 1:
                    return float(alpha[0]), float(beta[0])
                return alpha, beta
            return step

        results = []
        kernels = FusedKernels()
        for context in (SerialContext, CallsSerialContext):
            pre = make_preconditioner("diagonal", stencil, kernels=kernels)
            ctx = context(stencil, pre, kernels=kernels)
            got = {name: v.copy() for name, v in vectors.items()}
            args = [got[name] for name in "xrsp"]
            assert ctx.spans("chrongear", *args) == (
                context is SerialContext
                and kernels._native().chrongear_span is not None)
            seen = []
            ctx.chrongear_span(*args, case["steps"], coefficients(seen))
            results.append((got, seen, ctx.ledger.snapshot()))
        (span, span_seen, span_ledger), (calls, calls_seen, calls_ledger) = \
            results
        for name in vectors:
            assert np.array_equal(span[name], calls[name], equal_nan=True), \
                name
        assert len(span_seen) == len(calls_seen) == case["steps"]
        for got, want in zip(span_seen, calls_seen):
            assert [type(v) for v in got] == [type(v) for v in want]
            assert np.array_equal(got, want, equal_nan=True)
        assert span_ledger == calls_ledger

    @needs_native("chrongear_span")
    def test_span_declines_what_it_cannot_run(self, uniform_config):
        """Narrow grids, strided, read-only, mis-shaped or overlapping
        vectors, the numpy kernels, and a mask that is not where the
        reciprocal diagonal is non-zero: no runner, today's calls."""
        kernels = FusedKernels()
        stencil = uniform_config.stencil
        pre = make_preconditioner("diagonal", stencil)
        inv = pre.inv_diag
        rng = np.random.default_rng(3)
        x, r, s, p = rng.standard_normal((4,) + stencil.shape)
        frozen = x.copy()
        frozen.flags.writeable = False
        wide = rng.standard_normal(stencil.shape + (2,))
        narrow = make_test_config(6, 2, seed=1)
        diagonal = ("diagonal", inv)
        for args in ((wide[..., 0], r, s, p), (frozen, r, s, p),
                     (x[:, :-1], r, s, p), (x, r, r, p)):
            assert kernels.span_runner("chrongear", stencil, 0, None,
                                       diagonal, args) is None
        assert kernels.span_runner("chrongear", narrow.stencil, 0, None,
                                   ("diagonal", np.ones((6, 2))),
                                   tuple(np.zeros((4, 6, 2)))) is None
        assert NumpyKernels().span_runner("chrongear", stencil, 0, None,
                                          diagonal, (x, r, s, p)) is None
        assert kernels.span_runner("chrongear", stencil, 0, None, diagonal,
                                   (x, r, s, p)) is not None
        ctx = SerialContext(stencil, pre, kernels=kernels)
        assert ctx.spans("chrongear", x, r, s, p)
        ctx = SerialContext(stencil, pre, kernels=kernels)
        ctx.mask = ctx.mask.copy()
        ctx.mask[0, 0] = not ctx.mask[0, 0]
        assert not ctx.spans("chrongear", x, r, s, p)


@st.composite
def _evp_span_extras(draw):
    """What an EVP span draws beside its layout: a tile size, a stencil,
    a span length, the vector that carries the planted NaN / Inf and
    the weights' seed."""
    return dict(tile_size=draw(st.integers(1, 12)),
                simplified=draw(st.booleans()),
                steps=draw(st.sampled_from((1, 2, 7))),
                target=draw(st.sampled_from(("r", "x", "dx"))),
                seed=draw(st.integers(0, 20)))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # Inf * 0.0
class TestEVPSpan:
    """``SolverContext.chebyshev_span`` and ``chrongear_span`` with the
    block EVP preconditioner -- one ``native.c`` call per P-CSI
    iteration, two per ChronGear iteration, where ``evp_step`` was
    adopted -- against the same iterations as one ``precond`` /
    ``updates`` / ``residual`` (``precond`` / ``matvec`` / ``dot_pair``
    / ``updates``) call each, on the same kernels through
    :class:`CallsSerialContext` / :class:`CallsDistributedContext`:
    the vectors, every ChronGear iteration's ``rho`` and ``delta`` and
    the ledger equal, on drawn grids and on drawn uniform, ragged and
    land-eliminated stacks (whole stacks, halo and pad cells included,
    and P-CSI's ``r`` on its interior rows; there the numpy oracle too),
    NaN and Inf planted at the edges, in halos and on the pad.  (On a
    grid a non-finite value at an edge reaches the opposite edge through
    the global sweep's wrapping zero couplings, which the oracle does
    not have.)"""

    #: The span's context and the calls' context, serial and stacked.
    CONTEXTS = ((SerialContext, DistributedContext),
                (CallsSerialContext, CallsDistributedContext))

    @staticmethod
    def _weights(seed, steps):
        rng = np.random.default_rng(seed)
        return [(float(w), float(c)) for w, c in
                rng.uniform(0.5, 2.0, (steps, 2)) * (1.0, -0.5)]

    @staticmethod
    def _check(results, fused):
        (span, span_ledger, ran), *rest = results
        assert ran == fused
        for got, ledger, calls in rest:
            assert not calls
            for name in span:
                assert np.array_equal(span[name], got[name], equal_nan=True), \
                    name
            assert ledger == span_ledger

    @given(case=_span_cases(), extra=_evp_span_extras())
    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=list(HealthCheck))
    def test_drawn_grids(self, case, extra):
        config = _span_config(case["grid"])
        rng = np.random.default_rng(case["seed"])
        shape = config.shape + (() if case["nrhs"] is None
                                else (case["nrhs"],))
        b, r, dx, x = (rng.standard_normal(shape) for _ in range(4))
        vectors = {"r": r, "dx": dx, "x": x}
        for name, (j, i), value in case["poison"]:
            vectors[name][j, i] = value
        weights = self._weights(extra["seed"], extra["steps"])
        results = []
        kernels = FusedKernels()
        for context, _ in self.CONTEXTS:
            pre = evp_for_config(config, tile_size=extra["tile_size"],
                                 simplified=extra["simplified"],
                                 kernels=kernels)
            ctx = context(config.stencil, pre, kernels=kernels)
            got = {name: v.copy() for name, v in vectors.items()}
            ran = ctx.spans("chebyshev", b, got["r"], got["dx"], got["x"])
            got["r"] = ctx.chebyshev_span(b, got["r"], got["dx"], got["x"],
                                          weights)
            results.append((got, ctx.ledger.snapshot(), ran))
        self._check(results, load_native().evp_step is not None)

    @given(case=_stack_cases(), extra=_evp_span_extras())
    @settings(max_examples=150, deadline=None, derandomize=True,
              suppress_health_check=list(HealthCheck))
    def test_drawn_stacks(self, case, extra):
        stack = _Stack(case)
        names = ["r", "b", "dx", "x"]
        first = names.index(extra["target"])
        names[0], names[first] = names[first], names[0]
        values = dict(zip(names, stack.stacks(4)))
        weights = self._weights(extra["seed"], extra["steps"])
        results = []
        fused = FusedKernels()
        for kernels, (_, context) in ((fused, self.CONTEXTS[0]),
                                      (fused, self.CONTEXTS[1]),
                                      (NumpyKernels(), self.CONTEXTS[0])):
            pre = evp_for_config(stack.config, decomp=stack.decomp,
                                 tile_size=extra["tile_size"],
                                 simplified=extra["simplified"],
                                 kernels=kernels)
            ctx = context(stack.config.stencil, pre,
                          stack.machine(kernels), kernels=kernels)
            b, r, dx, x = stack.fields([values[name]
                                        for name in ("b", "r", "dx", "x")])
            ran = ctx.spans("chebyshev", b, r, dx, x)
            r = ctx.chebyshev_span(b, r, dx, x, weights)
            # ``r`` on the interior rows, the cells a residual writes:
            # the calls hand back a fresh field, a span updates ``r``.
            results.append(({"r": r.interior_stack(), "dx": dx.stack,
                             "x": x.stack}, ctx.ledger.snapshot(), ran))
        self._check(results, load_native().evp_step is not None)

    @staticmethod
    def _chrongear(context, vectors, steps, seed, idle):
        """``chrongear_span`` over ``vectors`` (``x, r, s, p``) with the
        solver's step drawn -- ``(alpha, beta)`` as ``per_column`` hands
        them over, ``None`` at iteration ``idle`` --: the dots each
        iteration saw and whether the context ran a span."""
        x = vectors[0]
        width = (x.nrhs if isinstance(context, DistributedContext)
                 else None if x.ndim == 2 else x.shape[-1])
        drawn = np.random.default_rng(seed).uniform(
            0.5, 2.0, (steps, 2, width or 1))
        drawn[:, 1] *= 0.3
        seen = []

        def step(rho, delta):
            seen.append((rho, delta))
            if len(seen) - 1 == idle:
                return None
            alpha, beta = drawn[len(seen) - 1]
            if (width or 1) == 1:
                return float(alpha[0]), float(beta[0])
            return alpha, beta

        ran = context.spans("chrongear", *vectors)
        context.chrongear_span(*vectors, steps, step)
        return seen, ran

    @staticmethod
    def _check_chrongear(results, fused):
        (span, span_seen, span_ledger, ran), *rest = results
        assert ran == fused
        for got, seen, ledger, calls in rest:
            assert not calls
            for name in span:
                assert np.array_equal(span[name], got[name], equal_nan=True), \
                    name
            assert len(seen) == len(span_seen)
            for mine, want in zip(span_seen, seen):
                assert [type(v) for v in mine] == [type(v) for v in want]
                assert np.array_equal(mine, want, equal_nan=True)
            assert ledger == span_ledger

    @given(case=_span_cases(("r", "x", "s", "p")), extra=_evp_span_extras(),
           idle=st.integers(-1, 7))
    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=list(HealthCheck))
    def test_drawn_chrongear_grids(self, case, extra, idle):
        config = _span_config(case["grid"])
        rng = np.random.default_rng(case["seed"])
        shape = config.shape + (() if case["nrhs"] is None
                                else (case["nrhs"],))
        vectors = {name: rng.standard_normal(shape) for name in "xrsp"}
        for name, (j, i), value in case["poison"]:
            vectors[name][j, i] = value
        results = []
        kernels = FusedKernels()
        for context, _ in self.CONTEXTS:
            pre = evp_for_config(config, tile_size=extra["tile_size"],
                                 simplified=extra["simplified"],
                                 kernels=kernels)
            ctx = context(config.stencil, pre, kernels=kernels)
            got = {name: v.copy() for name, v in vectors.items()}
            seen, ran = self._chrongear(
                ctx, [got[name] for name in "xrsp"],
                extra["steps"], extra["seed"], idle)
            results.append((got, seen, ctx.ledger.snapshot(), ran))
        self._check_chrongear(results, load_native().evp_step is not None)

    @given(case=_stack_cases(), extra=_evp_span_extras(),
           idle=st.integers(-1, 7))
    @settings(max_examples=150, deadline=None, derandomize=True,
              suppress_health_check=list(HealthCheck))
    def test_drawn_chrongear_stacks(self, case, extra, idle):
        stack = _Stack(case)
        names = ["x", "r", "s", "p"]
        target = {"r": "r", "x": "x", "dx": "s"}[extra["target"]]
        first = names.index(target)
        names[0], names[first] = names[first], names[0]
        values = dict(zip(names, stack.stacks(4)))
        results = []
        fused = FusedKernels()
        for kernels, (_, context) in ((fused, self.CONTEXTS[0]),
                                      (fused, self.CONTEXTS[1]),
                                      (NumpyKernels(), self.CONTEXTS[0])):
            pre = evp_for_config(stack.config, decomp=stack.decomp,
                                 tile_size=extra["tile_size"],
                                 simplified=extra["simplified"],
                                 kernels=kernels)
            ctx = context(stack.config.stencil, pre,
                          stack.machine(kernels), kernels=kernels)
            fields = stack.fields([values[name] for name in "xrsp"])
            seen, ran = self._chrongear(ctx, fields, extra["steps"],
                                        extra["seed"], idle)
            results.append(({name: f.stack for name, f in zip("xrsp", fields)},
                            seen, ctx.ledger.snapshot(), ran))
        self._check_chrongear(results, load_native().evp_step is not None)

    @needs_native("evp_step")
    def test_chrongear_span_declines_another_mask(self, uniform_config,
                                                  uniform_decomp):
        """ChronGear's dots weigh cells by ``M``'s mask: a context whose
        dots weigh by another one, the numpy kernels, the per-rank
        engine or a fault injector run the primitive calls; a resilience
        runtime's checks run inside the span."""
        config, decomp = uniform_config, uniform_decomp
        kernels = FusedKernels()
        rng = np.random.default_rng(3)
        vectors = tuple(rng.standard_normal((4,) + config.shape))
        pre = evp_for_config(config, kernels=kernels)
        assert SerialContext(config.stencil, pre,
                             kernels=kernels).spans("chrongear", *vectors)
        ctx = SerialContext(config.stencil, pre, kernels=kernels)
        ctx.mask = ctx.mask.copy()
        ctx.mask[0, 0] = not ctx.mask[0, 0]
        assert not ctx.spans("chrongear", *vectors)
        assert NumpyKernels().span_runner(
            "chrongear", config.stencil, 0, None,
            pre.span_operands(False, 1, ctx.mask), vectors) is None

        def spans(mask, resilience=False, **machine):
            pre = evp_for_config(config, decomp=decomp, kernels=kernels)
            vm = VirtualMachine(decomp, mask=mask, **machine)
            ctx = DistributedContext(config.stencil, pre, vm,
                                     kernels=kernels)
            if resilience:
                vm.resilience = ResilienceRuntime(ResiliencePolicy(), ctx)
            return ctx.spans("chrongear", *(vm.zeros() for _ in range(4)))

        assert spans(config.mask)
        assert not spans(config.mask, engine="perrank")
        assert not spans(config.mask,
                         faults=[HaloFault(rank=0, value=np.nan, at=1)])
        assert spans(config.mask, resilience=True)
        assert not spans(np.ones(config.shape, dtype=bool))

    @needs_native("evp_step")
    def test_span_declines_what_it_cannot_run(self, uniform_config,
                                              uniform_decomp):
        """Strided, read-only, mis-shaped or overlapping vectors, the
        numpy kernels, per-rank fields or a fault injector: no runner,
        today's calls.  A resilience runtime keeps the runner: its
        checks run inside the span."""
        kernels = FusedKernels()
        config, decomp = uniform_config, uniform_decomp
        pre = evp_for_config(config, kernels=kernels)
        evp = pre.span_operands(False, 1)
        rng = np.random.default_rng(3)
        b, r, dx, x = rng.standard_normal((4,) + config.shape)
        frozen = x.copy()
        frozen.flags.writeable = False
        wide = rng.standard_normal(config.shape + (2,))
        for args in ((b, r, dx, wide[..., 0]), (b, r, dx, frozen),
                     (b, r, dx, x[:, :-1]), (b, r, r, x), (b, r, dx, wide)):
            assert kernels.span_runner("chebyshev", config.stencil, 0, None,
                                       evp, args) is None
        assert NumpyKernels().span_runner("chebyshev", config.stencil, 0,
                                          None, evp, (b, r, dx, x)) is None
        assert kernels.span_runner("chebyshev", config.stencil, 0, None, evp,
                                   (b, r, dx, x)) is not None

        def spans(**machine):
            pre = evp_for_config(config, decomp=decomp, kernels=kernels)
            vm = VirtualMachine(decomp, mask=config.mask, **machine)
            ctx = DistributedContext(config.stencil, pre, vm,
                                     kernels=kernels)
            return ctx, ctx.spans("chebyshev", *(vm.zeros() for _ in range(4)))

        assert spans()[1]
        assert not spans(engine="perrank")[1]
        assert not spans(faults=[HaloFault(rank=0, value=np.nan, at=1)])[1]
        ctx, _ = spans()
        ctx.vm.resilience = ResilienceRuntime(ResiliencePolicy(), ctx)
        assert ctx.spans("chebyshev", *(ctx.vm.zeros() for _ in range(4)))

    @needs_native("evp_step")
    @pytest.mark.parametrize("lattice", ["uniform", "ragged"])
    @pytest.mark.parametrize("nrhs", [None, 3])
    def test_span_sums_are_the_stacked_apply(self, uniform_config, lattice,
                                             nrhs):
        """A P-CSI span handed a check makes its sums as it goes and
        hands them over once, one row an iteration: the halo copy's
        per-slot sums of what it wrote and of what the ring then holds --
        equal bit for bit, and the numpy sums of those cells up to
        rounding -- and, on the iterations the check says are due, the
        row-sum terms of the stacked stencil apply of that iteration's
        ``x`` (its halos just copied; the same span run one iteration a
        call gives it) over every block's window: ``sum A x``, ``sum w
        x``, ``sum |w x|``.  The span's vectors are those of a span with
        no check."""
        config = uniform_config
        decomp = decompose(config.ny, config.nx,
                           *((4, 4) if lattice == "uniform" else (5, 7)),
                           mask=config.mask)
        kernels = FusedKernels()
        pre = evp_for_config(config, decomp=decomp, kernels=kernels)
        rng = np.random.default_rng(5)
        values = [rng.standard_normal(config.shape + (() if nrhs is None
                                                      else (nrhs,)))
                  for _ in range(4)]
        weights = TestEVPSpan._weights(7, 5)
        extents = np.array([(block.ny, block.nx)
                            for block in decomp.active_blocks])
        # Drawn stand-ins for A 1: the terms weigh x by whatever they read.
        a1 = np.zeros((decomp.num_active,) + decomp.max_block_shape())
        for w, (ny, nx) in zip(a1, extents):
            w[:ny, :nx] = rng.standard_normal((ny, nx))
        rowsum = (a1, None if decomp.is_uniform else extents)
        runs, stacks, applied = [], [], []
        for keeps in (None, (True, False, True, True, False), "one by one"):
            vm = VirtualMachine(decomp, mask=config.mask)
            ctx = DistributedContext(config.stencil, pre, vm,
                                     kernels=kernels)
            b, r, dx, x = (vm.scatter(v) for v in values)
            run = ctx._span_runner("chebyshev", (b, r, dx, x))
            if keeps is None:
                run.run(weights)
            elif keeps == "one by one":
                for step in weights:
                    run.run([step])
                    stacks.append(x.stack.copy())
                    applied.append(vm.zeros(nrhs=x.nrhs))
                    ctx.operator.apply(x, applied[-1])
            else:
                check = _SpanSums(rowsum, keeps)
                run.run(weights, check)
                assert check.calls == 1
                assert [terms is not None for *_, terms in check.handed] \
                    == list(keeps)
            runs.append([v.stack for v in (r, dx, x)])
        for want, got, one_by_one in zip(*runs):
            assert np.array_equal(got, want)
            assert np.array_equal(one_by_one, want)
        dst, _, zero = vm.exchanger.halo_tables()
        cells = np.concatenate([zero, dst])
        slot = cells // np.prod(x.stack.shape[1:3])
        for (pre_sums, post, terms), stack, apply in zip(
                check.handed, stacks, applied):
            assert pre_sums.tobytes() == post.tobytes()
            want = np.zeros(pre_sums.shape)
            np.add.at(want, slot, stack.reshape(-1, want.shape[1])[cells])
            assert np.allclose(pre_sums, want, rtol=1e-12, atol=1e-12)
            if terms is None:
                continue
            h = decomp.halo_width
            sums = np.zeros((3, pre_sums.shape[1]))
            for rank, (ny, nx) in enumerate(extents):
                ax = apply.interior(rank).reshape(ny, nx, -1)
                wx = (a1[rank, :ny, :nx, None]
                      * stack[rank, h:h + ny, h:h + nx].reshape(ny, nx, -1))
                sums += [ax.sum(axis=(0, 1)), wx.sum(axis=(0, 1)),
                         np.abs(wx).sum(axis=(0, 1))]
            assert np.allclose(terms, sums, rtol=1e-12, atol=1e-9)


class _SpanSums:
    """A stand-in for :class:`~repro.parallel.resilience.SpanChecks`
    handed to an EVP runner: its row-sum terms are due on the iterations
    ``keeps`` says, counted over every call (all without it), and read
    ``rowsum``'s ``(weights, extents)``; it copies what it is handed, one
    ``(pre, post, terms)`` an iteration (``terms`` ``None`` where none
    were due)."""

    def __init__(self, rowsum, keeps=None):
        self.rowsum, self.keeps = rowsum, keeps
        self.handed, self.calls = [], 0

    def due(self, n):
        seen = len(self.handed)
        return tuple(t for t in range(n)
                     if self.keeps is None or self.keeps[seen + t])

    def __call__(self, pre, post, terms, due):
        self.calls += 1
        self.handed += [(pre[t].copy(), post[t].copy(),
                         terms[t].copy() if t in due else None)
                        for t in range(len(pre))]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # Inf * 0.0
class TestStackedKernels:
    """The batched engine's four loops on drawn stacks against the numpy
    oracle.  Uniform / ragged / land-eliminated lattices x widths ``None``
    / 1 / 2 / 3 / 8 / 11 x a NaN or Inf in an interior, halo or pad
    cell; stacks are compared whole (``equal_nan``), halo and pad
    cells included."""

    DRAWN = dict(max_examples=150, deadline=None, derandomize=True,
                 suppress_health_check=list(HealthCheck))

    @staticmethod
    def _products():
        return {"fused": _RecordingKernels("update_chain")}

    @given(case=_stack_cases())
    @settings(**DRAWN)
    def test_drawn_chains(self, case):
        """Every solver's run of updates as one chain against the calls
        one by one on the oracle: whole stacks equal -- the chain
        touches no halo or pad cell the calls do not -- and ledgers
        equal; with the library the chain really ran natively, and
        per-rank fields run the numpy reference block by block."""
        stack = _Stack(case)
        values = stack.stacks(12)
        rng = np.random.default_rng(case["seed"] + 1)
        shared = [float(rng.standard_normal()) for _ in range(2)]
        own = shared if stack.nrhs is None else \
            [rng.standard_normal(stack.nrhs) for _ in range(2)]

        def run(kernels, stacked, one_by_one):
            ctx = stack.context(kernels)
            fields = dict(zip("abcdefghijkl",
                              stack.fields(values, stacked=stacked)))
            per_column = iter(own * 2)
            _, chains = TestVectorKernels._chains(
                None, None, lambda: next(per_column), vectors=fields)
            # P-CSI's coefficients are the same for every column.
            chains["pcsi"] = [("combine", shared[0], fields["a"],
                               shared[1], fields["b"]),
                              ("axpy", 1.0, fields["b"], fields["c"])]
            for chain in chains.values():
                if one_by_one:
                    for kind, *args in chain:
                        getattr(ctx, kind)(*args)
                else:
                    ctx.updates(*chain)
            arrays = [array for f in fields.values()
                      for array in ([f.stack] if stacked else f.locals_)]
            return arrays, ctx.ledger.snapshot()

        for stacked in (True, False):
            ref, ref_ledger = run(NumpyKernels(), stacked, True)
            for name, kernels in self._products().items():
                got, got_ledger = run(kernels, stacked, False)
                for want, have in zip(ref, got):
                    assert np.array_equal(want, have, equal_nan=True), name
                assert got_ledger == ref_ledger
                # Stacked fields with the library: four native chains.
                # Per-rank fields never reach the product's kernels.
                native = load_native().update_chain is not None
                assert kernels.ran == (4 if stacked and native else 0)

    @given(case=_stack_cases())
    @settings(**DRAWN)
    def test_drawn_partials(self, case):
        """``_column_partials`` hands the fault hooks the lists the
        reference's windowed dots compute on the ragged windows --
        ``==``, so the same bits -- and a :class:`ReductionFault`
        poisons the same entry of the same list whichever kernels
        produced it."""
        stack = _Stack(case)
        a, b = stack.fields(stack.stacks(2))
        results = []
        for kernels in (NumpyKernels(), *self._products().values()):
            vm = stack.machine(kernels)
            got = vm._column_partials(a, b)
            want = NumpyKernels().window_dots(
                a.interior_stack(), b.interior_stack(), vm.mask_stack,
                vm._extents).tolist()
            assert repr(got) == repr(want)    # NaN-proof ``==``
            rank = case["spot"] % vm.num_ranks
            entry = case["spot"] % (2 * (stack.nrhs or 1))
            vm.inject(ReductionFault(rank=rank, value=-7.0, entry=entry))
            results.append(np.array(vm.global_dot_pair(a, b, b, a)))
        for got in results[1:]:
            assert np.array_equal(results[0], got, equal_nan=True)

    @given(case=_stack_cases())
    @settings(**DRAWN)
    def test_drawn_multivector_sweep(self, case):
        """The planes-once sweep, written into the interior of another
        stack, against the reference loop: interiors equal, not one halo
        or pad cell of the output written."""
        stack = _Stack(case)
        h = case["h"]
        bny, bnx = stack.decomp.max_block_shape()
        coeffs = BlockedOperator(stack.config.stencil,
                                 stack.decomp)._get_stacked_coeffs()
        (x,) = stack.stacks(1)
        outs = []
        for kernels in (NumpyKernels(), FusedKernels()):
            out = np.full(x.shape, 7.0)
            got = kernels.stencil_apply_stacked(coeffs, x, h, bny, bnx,
                                                out[stack.inner])
            assert got.base is out
            ring = np.ones(x.shape, dtype=bool)
            ring[stack.inner] = False
            assert np.all(out[ring] == 7.0)
            outs.append(out)
        for got in outs[1:]:
            assert np.array_equal(outs[0], got, equal_nan=True)

    @needs_native("dia_sweep")
    def test_multivector_sweep_is_not_contracted(self):
        """``test_sweep_is_not_contracted``'s operands in every column
        of a stack: each width's accumulators round the product before
        they add."""
        from repro.grid.stencil import COEFF_NAMES

        big, small = 1.0 + 2.0 ** -26, 1.0 + 2.0 ** -27
        coeffs = {name: np.zeros((1, 3, 3)) for name in COEFF_NAMES}
        coeffs["c"][...] = 1.0
        coeffs["n"][...] = -small
        for width in range(1, 12):
            x = np.zeros((1, 5, 5, width))
            x[0, 2, 2], x[0, 3, 2] = big, small
            out = np.empty((1, 3, 3, width))
            FusedKernels().stencil_apply_stacked(coeffs, x, 1, 3, 3, out)
            assert not np.any(out[0, 1, 1]), (
                f"the compiler contracted a*b+c in native.c's width-"
                f"{min(width, 8)} sweep: got {out[0, 1, 1]!r}, "
                "multiply-then-add gives 0.0")

    @given(case=_stack_cases(), width=st.sampled_from((None, 1, 3, 8)))
    @settings(**DRAWN)
    def test_drawn_halo_copy(self, case, width):
        """The stacked exchange's halo copy -- ``native.c`` where it was
        adopted, numpy's fancy indexing in the reference -- byte for
        byte the padded global assembly with the pad zeroed, as
        ``exchange_stacked`` promises."""
        stack = _Stack(dict(case, nrhs=width))
        vm = stack.machine(NumpyKernels())
        (values,) = stack.stacks(1)
        want, native, indexed = stack.fields([values] * 3)
        vm.exchanger.exchange_via_global(want)
        want.stack[stack.kind == "pad"] = 0.0
        kernels = _RecordingKernels("evp_step")
        kernels.halo_copy(native.stack, vm.exchanger.halo_tables())
        assert kernels.ran == (load_native().evp_step is not None)
        vm.exchanger.exchange_stacked(indexed, NumpyKernels())
        for got in (native, indexed):
            assert got.stack.tobytes() == want.stack.tobytes()

    @given(case=_stack_cases())
    @settings(**DRAWN)
    def test_drawn_exchange(self, case):
        """The halo-only exchange against the padded global assembly:
        every rank's window equal, the pad -- which an update may have
        written -- zero, owned cells untouched; and what a
        :class:`HaloFault` corrupts after delivery is still seen by the
        ABFT check that follows."""
        stack = _Stack(case)
        ctx = stack.context(NumpyKernels())
        vm = ctx.vm
        (values,) = stack.stacks(1)
        got, want = stack.fields([values, values])
        vm.exchanger.exchange_stacked(got)
        vm.exchanger.exchange_via_global(want)
        for rank in range(vm.num_ranks):
            assert np.array_equal(got.local(rank), want.local(rank),
                                  equal_nan=True)
        assert not np.any(got.stack[stack.kind == "pad"])
        owned = stack.kind == "interior"
        assert np.array_equal(got.stack[owned], values[owned],
                              equal_nan=True)

        (finite,) = stack.fields(stack.stacks(1, poisoned=False))
        vm.resilience = ResilienceRuntime(ResiliencePolicy(), ctx)
        rank = case["spot"] % vm.num_ranks
        vm.inject(HaloFault(rank=rank, value=case["poison"], at=1))
        with pytest.raises(SDCDetectedError) as caught:
            vm.exchange(finite)
        assert caught.value.rank == rank


class TestVectorKernels:
    """The serial context's two vector kernels: the inner product in
    numpy's pairwise order and runs of updates in one pass."""

    GRIDS = ((120, 144), (160, 192), (320, 384))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_pairwise_dot_matches_numpy_sum(self, backend):
        """``float(np.sum(a * b * mask))`` bit for bit: every size
        1..300, the three grid sizes, magnitudes over ten decades,
        operands that are *not* zero where the mask is."""
        kernels = KERNELS[backend]
        rng = np.random.default_rng(5)
        shapes = [(n,) for n in range(1, 301)] + list(self.GRIDS)
        for shape in shapes:
            a = rng.standard_normal(shape) * 10.0 ** rng.integers(-5, 6, shape)
            b = rng.standard_normal(shape)
            mask = rng.integers(0, 2, shape).astype(np.float64)
            got = kernels.masked_dot(a, b, mask, np.empty(shape))
            assert isinstance(got, float)
            assert got == float(np.sum(a * b * mask)), shape
        # Read-only and strided operands take the numpy form.
        frozen = a.copy()
        frozen.flags.writeable = False
        assert kernels.masked_dot(frozen, b, mask, np.empty(shape)) == got
        half = (slice(None), slice(None, None, 2))
        assert kernels.masked_dot(a[half], b[half], mask[half],
                                  np.empty(a[half].shape)) \
            == float(np.sum(a[half] * b[half] * mask[half]))

    @needs_native("update_chain")
    def test_update_chain_is_not_contracted(self):
        """Each kind of step with the operands of
        ``test_sweep_is_not_contracted``: the product is rounded before
        the add."""
        big, small = 1.0 + 2.0 ** -26, 1.0 + 2.0 ** -27
        kernels = _RecordingKernels("update_chain")
        for ran, step in enumerate(
                ((0, -small, 0.0, "x", "y"), (1, 0.0, -small, "y", "x"),
                 (2, -small, 1.0, "x", "y"), (2, 1.0, -small, "y", "x")),
                start=1):
            v = {"x": np.full(2100, small), "y": np.full(2100, big)}
            # Every form computes big - small * small into the target.
            kernels.update_chain([step[:3] + (v[step[3]], v[step[4]])])
            assert kernels.ran == ran
            assert not np.any(v[step[4]]), step

    @needs_native("chebyshev_span")
    def test_chebyshev_span_is_not_contracted(self):
        """Both products of the ``dx`` update and the sweep's with the
        operands of ``test_sweep_is_not_contracted``: each rounds
        before its add, so ``dx`` and ``r`` come out 0.0 where a fused
        multiply-add leaves ``+-2**-54``."""
        from repro.grid.stencil import COEFF_NAMES, StencilCoeffs

        big, small = 1.0 + 2.0 ** -26, 1.0 + 2.0 ** -27
        shape = (3, 3)
        planes = {name: np.zeros(shape) for name in COEFF_NAMES}
        planes["c"][...] = 1.0
        planes["n"][...] = -small
        stencil = StencilCoeffs(mask=np.ones(shape, dtype=bool), **planes)
        inv = np.ones(shape)
        for w, c, r_val, dx_val in ((-small, 1.0, small, big),
                                    (1.0, -small, big, small)):
            b, r, dx, x = np.zeros((4,) + shape)
            r[1, 1], dx[1, 1], x[1, 1], x[2, 1] = r_val, dx_val, big, small
            run = FusedKernels().span_runner("chebyshev", stencil, 0, None,
                                             ("diagonal", inv), (b, r, dx, x))
            assert run is not None
            run.run([(w, c)])
            assert dx[1, 1] == 0.0 and x[1, 1] == big and r[1, 1] == 0.0, (
                "the compiler contracted a*b+c in native.c's "
                "chebyshev_span and the loader's self-test did not notice")

    @needs_native("chrongear_span")
    def test_chrongear_span_is_not_contracted(self):
        """Each product of the four recurrences with the operands of
        ``test_sweep_is_not_contracted``, on a symmetric stencil (five
        planes) and an unsymmetric one (nine): each rounds before its
        add, so the vector updated comes out 0.0 where a fused
        multiply-add leaves ``+-2**-54``."""
        from repro.grid.stencil import COEFF_NAMES, StencilCoeffs

        big, small = 1.0 + 2.0 ** -26, 1.0 + 2.0 ** -27
        shape = (3, 3)

        def stencil(c, n):
            planes = {name: np.zeros(shape) for name in COEFF_NAMES}
            planes["c"][...], planes["n"][...] = c, n
            return StencilCoeffs(mask=np.ones(shape, dtype=bool), **planes)

        # (stencil, r at (1, 1) and (2, 1), alpha, beta, what vanishes):
        # s = (-small * small) + r' and p = (-small * small) + z with
        # r' = z = big; x = big + (-small * small) with s = r' = small;
        # r = big + (-small * small) with p = z = small (north of it).
        cases = ((stencil(1.0, 0.0), big, 0.0, 0.0, -small, "sp"),
                 (stencil(1.0, 0.0), small, 0.0, -small, 0.0, "x"),
                 (stencil(0.0, 1.0), big, small, small, 0.0, "r"))
        for coeffs, r11, r21, alpha, beta, vanish in cases:
            x, r, s, p = np.zeros((4,) + shape)
            r[1, 1], r[2, 1] = r11, r21
            s[1, 1] = p[1, 1] = small
            x[1, 1] = big
            run = FusedKernels().span_runner("chrongear", coeffs, 0, None,
                                             ("diagonal", np.ones(shape)),
                                             (x, r, s, p))
            run(None, True)
            run((alpha, beta), False)
            got = {"x": x, "r": r, "s": s, "p": p}
            assert all(got[name][1, 1] == 0.0 for name in vanish), (
                "the compiler contracted a*b+c in native.c's "
                "chrongear_span and the loader's self-test did not notice")

    @needs_native("evp_step")
    def test_evp_span_is_not_contracted(self):
        """``evp_step``'s ``dx`` products and the sweep's with the
        operands of ``test_sweep_is_not_contracted``, with 1x1 EVP tiles
        of centre 1.0 (``M^-1 r = r`` exactly): each rounds before its
        add, so ``dx`` and ``r`` -- also from a tail that makes a due
        row-sum check's terms -- come out 0.0 where a fused multiply-add
        leaves ``+-2**-54``."""
        from repro.grid.stencil import COEFF_NAMES, StencilCoeffs
        from repro.precond.evp import EVPBlockPreconditioner

        big, small = 1.0 + 2.0 ** -26, 1.0 + 2.0 ** -27
        shape = (3, 3)
        planes = {name: np.zeros(shape) for name in COEFF_NAMES}
        planes["c"][...] = 1.0
        planes["n"][...] = -small
        stencil = StencilCoeffs(mask=np.ones(shape, dtype=bool), **planes)
        kernels = FusedKernels()
        pre = EVPBlockPreconditioner(stencil, tile_size=1, kernels=kernels)
        ctx = SerialContext(stencil, pre, kernels=kernels)
        for w, c, r_val, dx_val in ((-small, 1.0, small, big),
                                    (1.0, -small, big, small)):
            b, r, dx, x = np.zeros((4,) + shape)
            r[1, 1], dx[1, 1], x[1, 1], x[2, 1] = r_val, dx_val, big, small
            assert ctx.spans("chebyshev", b, r, dx, x)
            ctx.chebyshev_span(b, r, dx, x, [(w, c)])
            assert dx[1, 1] == 0.0 and x[1, 1] == big and r[1, 1] == 0.0, (
                "the compiler contracted a*b+c in native.c's evp_step and "
                "the loader's self-test did not notice")
        # A tail that sums A x for a row-sum check as it sweeps.
        b, r, dx, x = np.zeros((4,) + shape)
        x[1, 1], x[2, 1] = big, small
        check = _SpanSums((np.ones((1,) + shape), None))
        kernels.span_runner("chebyshev", stencil, 0, None,
                            pre.span_operands(False, 1),
                            (b, r, dx, x)).run([(1.0, 1.0)], check)
        ((_, _, terms),) = check.handed
        assert terms is not None and r[1, 1] == 0.0, (
            "the compiler contracted a*b+c in native.c's evp_step and the "
            "loader's self-test did not notice")

    @needs_native("evp_step")
    def test_evp_crosscheck_is_not_contracted(self):
        """A guarded loop's cross-check residual ``b - A x`` -- one
        ``evp_step`` residual pass on a copy of a span's program -- with
        the operands of ``test_sweep_is_not_contracted``: each product
        of the sweep rounds before its add, with and without a due
        row-sum check's terms, so ``r`` comes out 0.0 where a fused
        multiply-add leaves ``+-2**-54``."""
        from repro.grid.stencil import COEFF_NAMES, StencilCoeffs
        from repro.precond.evp import EVPBlockPreconditioner

        big, small = 1.0 + 2.0 ** -26, 1.0 + 2.0 ** -27
        shape = (3, 3)
        planes = {name: np.zeros(shape) for name in COEFF_NAMES}
        planes["c"][...] = 1.0
        planes["n"][...] = -small
        stencil = StencilCoeffs(mask=np.ones(shape, dtype=bool), **planes)
        kernels = FusedKernels()
        pre = EVPBlockPreconditioner(stencil, tile_size=1, kernels=kernels)
        b, r, dx, x = np.zeros((4,) + shape)
        x[1, 1], x[2, 1] = big, small
        run = kernels.span_runner("chebyshev", stencil, 0, None,
                                  pre.span_operands(False, 1), (b, r, dx, x))
        rhs = np.zeros(shape)
        assert run.sweeps(rhs, x)
        for due in (False, True):
            check = _SpanSums((np.ones((1,) + shape), None), [due])
            out = run.residual(rhs, check)
            ((_, _, terms),) = check.handed
            assert (terms is not None) == due and out[1, 1] == 0.0, (
                "the compiler contracted a*b+c in native.c's evp_step and "
                "the loader's self-test did not notice")

    @needs_native("evp_step")
    def test_evp_chrongear_span_is_not_contracted(self):
        """``evp_step``'s ChronGear products with the operands of
        ``test_sweep_is_not_contracted``, ``M^-1 r = r`` exactly (1x1 EVP
        tiles of centre 1.0): each product of the four recurrences, on a
        symmetric ``A`` and an unsymmetric one as in
        ``test_chrongear_span_is_not_contracted``, and the sweep into
        ``z`` round before their adds, so the vector updated and ``z``
        come out 0.0 where a fused multiply-add leaves ``+-2**-54``.  (A
        dot's product reaches its add through the 0.0 / 1.0 weight, where
        a contraction rounds the same; the self-test covers the dots.)"""
        from repro.grid.stencil import COEFF_NAMES, StencilCoeffs
        from repro.precond.evp import EVPBlockPreconditioner

        big, small = 1.0 + 2.0 ** -26, 1.0 + 2.0 ** -27
        shape = (3, 3)

        def stencil(c, n):
            planes = {name: np.zeros(shape) for name in COEFF_NAMES}
            planes["c"][...], planes["n"][...] = c, n
            return StencilCoeffs(mask=np.ones(shape, dtype=bool), **planes)

        kernels = FusedKernels()
        pre = EVPBlockPreconditioner(stencil(1.0, -small), tile_size=1,
                                     kernels=kernels)
        m = pre.span_operands(False, 1, pre.mask)
        # (A, r at (1, 1) and (2, 1), alpha, beta, what vanishes), as in
        # test_chrongear_span_is_not_contracted; then A's north coupling
        # -small: z = big + (-small * small) at (1, 1).
        cases = ((stencil(1.0, 0.0), big, 0.0, 0.0, -small, "sp"),
                 (stencil(1.0, 0.0), small, 0.0, -small, 0.0, "x"),
                 (stencil(0.0, 1.0), big, small, small, 0.0, "r"),
                 (stencil(1.0, -small), big, small, 0.0, 0.0, "z"))
        for coeffs, r11, r21, alpha, beta, vanish in cases:
            x, r, s, p = np.zeros((4,) + shape)
            r[1, 1], r[2, 1] = r11, r21
            s[1, 1] = p[1, 1] = small
            x[1, 1] = big
            run = kernels.span_runner("chrongear", coeffs, 0, None, m,
                                      (x, r, s, p))
            run(None, True)
            if vanish == "z":
                assert run.z[1, 1] == 0.0, (
                    "the compiler contracted a*b+c in native.c's "
                    "evp_step sweep and the loader's self-test did not "
                    "notice")
                continue
            run((alpha, beta), False)
            got = {"x": x, "r": r, "s": s, "p": p}
            assert all(got[name][1, 1] == 0.0 for name in vanish), (
                "the compiler contracted a*b+c in native.c's evp_step "
                "recurrences and the loader's self-test did not notice")

    @staticmethod
    def _chains(rng, shape, coeffs, vectors=None):
        """The update runs of the three solvers that have one, and a
        run of eight (one full native group, in which later steps
        overwrite what earlier ones read), over fresh vectors (or
        ``vectors``, named ``a`` .. ``l``); ``coeffs()`` draws a
        coefficient."""
        v = vectors or {name: rng.standard_normal(shape)
                        for name in "abcdefghijkl"}
        alpha, beta = coeffs(), coeffs()
        return v, {
            "chrongear": [("xpay", v["a"], beta, v["c"]),
                          ("xpay", v["b"], beta, v["d"]),
                          ("axpy", alpha, v["c"], v["e"]),
                          ("axpy", -alpha, v["d"], v["f"])],
            "pcg": [("axpy", alpha, v["a"], v["b"]),
                    ("axpy", -alpha, v["c"], v["d"])],
            "eight": [("xpay", v["a"], beta, v["e"]),
                       ("xpay", v["b"], beta, v["f"]),
                       ("xpay", v["c"], beta, v["g"]),
                       ("xpay", v["d"], beta, v["h"]),
                       ("axpy", alpha, v["g"], v["i"]),
                       ("axpy", -alpha, v["h"], v["j"]),
                       ("axpy", -alpha, v["f"], v["c"]),
                       ("axpy", -alpha, v["e"], v["d"])],
            "pcsi": [("combine", alpha, v["a"], beta, v["b"]),
                     ("axpy", 1.0, v["b"], v["c"])],
        }

    @pytest.mark.parametrize("product", PRODUCTS)
    @pytest.mark.parametrize("layout", ["2d", "batch-shared",
                                        "batch-per-column"])
    @pytest.mark.parametrize("chain", ["chrongear", "pcg", "eight", "pcsi"])
    def test_update_chain_matches_calls(self, uniform_config, uniform_decomp,
                                        chain, layout, product):
        """``ctx.updates`` against the same steps called one by one on
        the oracle: vectors and ledgers equal.  Later steps read what
        earlier ones wrote (ChronGear's ``x += alpha s`` after ``s = r'
        + beta s``); a batch with per-column coefficients is the calls
        one by one on every backend."""
        stencil = uniform_config.stencil
        pre = make_preconditioner("diagonal", stencil)
        shape = stencil.shape + (() if layout == "2d" else (3,))

        def coeffs_for(rng):
            if layout == "batch-per-column":
                return lambda: rng.standard_normal(3)
            return lambda: float(rng.standard_normal())

        results = []
        for kernels, one_by_one in (("numpy", True), (KERNELS[product], False)):
            rng = np.random.default_rng(9)
            ctx = SerialContext(stencil, pre, decomp=uniform_decomp,
                                kernels=kernels)
            vectors, chains = self._chains(rng, shape, coeffs_for(rng))
            for _ in range(3):
                if one_by_one:
                    for kind, *args in chains[chain]:
                        getattr(ctx, kind)(*args)
                else:
                    ctx.updates(*chains[chain])
            results.append((vectors, ctx.ledger.snapshot()))
        (ref, ref_ledger), (got, got_ledger) = results
        for name in ref:
            assert np.array_equal(ref[name], got[name]), name
        assert ref_ledger == got_ledger

    def test_updates_rejects_unknown_step(self, uniform_config):
        from repro.core.errors import SolverError

        stencil = uniform_config.stencil
        ctx = SerialContext(stencil, make_preconditioner("diagonal", stencil))
        v = np.zeros(stencil.shape)
        with pytest.raises(SolverError, match="unknown update step"):
            ctx.updates(("axpy", 1.0, v, v), ("scale", 2.0, v))

    @needs_native("update_chain")
    def test_update_chain_runs_the_reference_on_what_native_declines(self):
        """Strided and offset-overlapping operands: native declines them
        and the chain is numpy's, step by step; read-only and mis-sized
        operands raise, as numpy does, with nothing touched."""
        base = np.arange(64.0)
        x, y = base[:32], base[32:]
        for bad_x, bad_y in ((slice(0, 64, 2), slice(32, 64)),
                             (slice(8, 40), slice(0, 32))):
            got, want = base.copy(), base.copy()
            kernels = _RecordingKernels("update_chain")
            kernels.update_chain([(0, 2.0, 0.0, got[bad_x], got[bad_y])])
            want[bad_y] += 2.0 * want[bad_x]
            assert kernels.ran == 0
            assert np.array_equal(got, want)
        frozen = np.ones(32)
        frozen.flags.writeable = False
        for bad_x, bad_y in ((frozen, frozen), (x[:16], y)):
            before = base.copy()
            for kernels in (FusedKernels(), NumpyKernels()):
                with pytest.raises(ValueError):
                    kernels.update_chain([(0, 2.0, 0.0, bad_x, bad_y)])
            assert np.array_equal(base, before)
        kernels = _RecordingKernels("update_chain")
        kernels.update_chain([(0, 2.0, 0.0, x, y)])
        assert kernels.ran == 1
        assert np.array_equal(y, np.arange(32.0, 64.0) + 2.0 * np.arange(32.0))


class TestEVPParity:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("cfg_name", ["uniform", "eliminated"])
    def test_apply_global(self, uniform_config, eliminated_config,
                          backend, cfg_name, request):
        config = {"uniform": uniform_config,
                  "eliminated": eliminated_config}[cfg_name]
        decomp = request.getfixturevalue(f"{cfg_name}_decomp")
        r = _rhs(config, seed=3)
        ref = evp_for_config(config, decomp=decomp,
                             kernels="numpy").apply_global(r)
        got = evp_for_config(config, decomp=decomp,
                             kernels=KERNELS[backend]).apply_global(r)
        _assert_close(backend, ref, got)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_apply_block_and_stack(self, uniform_config, uniform_decomp,
                                   backend):
        rng = np.random.default_rng(11)
        bny, bnx = uniform_decomp.uniform_block_shape()
        r_stack = rng.standard_normal((uniform_decomp.num_active, bny, bnx))
        pres = {name: evp_for_config(uniform_config, decomp=uniform_decomp,
                                     kernels=KERNELS[name])
                for name in {"numpy", backend}}
        _assert_close(backend,
                      pres["numpy"].apply_stack(r_stack),
                      pres[backend].apply_stack(r_stack))
        for rank in (0, uniform_decomp.num_active - 1):
            _assert_close(backend,
                          pres["numpy"].apply_block(rank, r_stack[rank]),
                          pres[backend].apply_block(rank, r_stack[rank]))

    @given(case=_evp_cases())
    @settings(max_examples=150, deadline=None, derandomize=True,
              suppress_health_check=list(HealthCheck))
    def test_drawn_layouts(self, case):
        """Tile shape x stencil x width x layout: the skewed fused
        programs (the native march and the ufunc one) against the numpy
        reference sweep, bit for bit."""
        config = _config_with_land_blocks(
            case["ny"], case["nx"], case["mby"], case["mbx"],
            case["land_blocks"], case["seed"])
        decomp = decompose(case["ny"], case["nx"], case["mby"], case["mbx"],
                           mask=config.mask)
        options = dict(decomp=decomp, tile_size=case["tile_size"],
                       simplified=case["simplified"])
        ref = evp_for_config(config, kernels="numpy", **options)
        layout, nrhs = case["layout"], case["nrhs"]
        rank = case["rank"] % decomp.num_active
        block = decomp.active_blocks[rank]
        tail = () if nrhs is None else (nrhs,)
        if layout == "global":
            shape, mask = config.shape, config.mask
        elif layout == "stack":
            shape = (decomp.num_active,) + decomp.max_block_shape()
            mask = decomp.stack_interiors(config.mask)
        else:
            shape, mask = (block.ny, block.nx), config.mask[block.slices]

        def apply(p, r, out=None):
            if layout == "global":
                return p.apply_global(r, out=out)
            if layout == "stack":
                return p.apply_stack(r, out=out)
            return p.apply_block(rank, r, out=out)

        def tile_cells(tile):
            """Boolean map of one tile's cells in this layout."""
            trank, j0, j1, i0, i1 = tile
            cells = np.zeros(shape, dtype=bool)
            if layout == "global":
                cells[j0:j1, i0:i1] = True
            else:
                b = decomp.active_blocks[trank]
                local = cells[trank] if layout == "stack" else cells
                local[j0 - b.j0:j1 - b.j0, i0 - b.i0:i1 - b.i0] = True
            return cells

        rng = np.random.default_rng(case["seed"])
        r = rng.standard_normal(shape + tail)
        for product in PRODUCTS:
            # Built from the reference's cached influence payload: the
            # arrays the artifact cache would hand back.
            pre = evp_for_config(config, kernels=KERNELS[product],
                                 influence_state=ref.influence_state(),
                                 **options)
            got = apply(pre, r)
            assert np.array_equal(apply(ref, r), got)
            # Cells no tile owns (eliminated blocks, pads) and land: 0.0.
            assert not np.any(got[~mask.astype(bool)])
            for j in range(nrhs or 0):
                column = apply(pre, np.ascontiguousarray(r[..., j]))
                assert np.array_equal(column, got[..., j])

            # ``out=`` may be a strided window of a larger array.
            frame = np.full(tuple(n + 2 for n in shape) + tail, 7.0)
            inner = frame[(slice(1, -1),) * len(shape)]
            assert apply(pre, r, out=inner) is inner
            assert np.array_equal(inner, got)
            assert np.count_nonzero(frame == 7.0) == frame.size - inner.size

            # A non-finite value stays in its tile and its column.
            tiles = [t for t in pre._tiles if layout != "block" or t[0] == rank]
            cells = tile_cells(tiles[case["tile"] % len(tiles)])
            poisoned = r.copy()
            col = case["tile"] % (nrhs or 1)
            spot = tuple(np.argwhere(cells)[0]) + (() if nrhs is None else (col,))
            poisoned[spot] = case["poison"]
            with np.errstate(all="ignore"):
                bad = apply(pre, poisoned)
                assert np.array_equal(apply(ref, poisoned), bad, equal_nan=True)
            clean = np.ones(bad.shape, dtype=bool)
            clean[cells if nrhs is None else (cells, col)] = False
            assert np.array_equal(bad[clean], got[clean])

    @given(case=_boundary_cases())
    @settings(max_examples=120, deadline=None, derandomize=True,
              suppress_health_check=list(HealthCheck))
    def test_drawn_boundary(self, case):
        """Gather -> tile solves -> masked scatter on every layout the
        preconditioner hands the kernels, NaN / Inf in the first and last
        rows of a tile: the library's apply equals the reference's, bit
        for bit; the pad cells of a
        ragged stack come back 0.0 and the halo of an output stack is
        not touched."""
        config = _config_with_land_blocks(
            case["ny"], case["nx"], case["mby"], case["mbx"],
            case["land_blocks"], case["seed"])
        decomp = decompose(case["ny"], case["nx"], case["mby"], case["mbx"],
                           mask=config.mask)
        options = dict(decomp=decomp, tile_size=case["tile_size"],
                       simplified=case["simplified"])
        ref = evp_for_config(config, kernels="numpy", **options)
        fused = evp_for_config(config, kernels="fused",
                               influence_state=ref.influence_state(),
                               **options)
        nrhs, layout = case["nrhs"], case["layout"]
        tail = () if nrhs is None else (nrhs,)
        col = () if nrhs is None else (case["column"] % nrhs,)
        rng = np.random.default_rng(case["seed"])
        trank, j0, j1, i0, i1 = ref._tiles[case["tile"] % len(ref._tiles)]
        if layout == "global":
            r = rng.standard_normal(config.shape + tail)
            at = (j0, i0)
        else:
            vm = VirtualMachine(decomp, mask=config.mask)
            source, target = vm.zeros(nrhs=nrhs), vm.zeros(nrhs=nrhs)
            target.stack[...] = 7.0
            r = source.interior_stack()
            r[...] = rng.standard_normal(r.shape)
            block = decomp.active_blocks[trank]
            at = (trank, j0 - block.j0, i0 - block.i0)
        first, last = rng.integers(0, i1 - i0, 2)
        r[at[:-2] + (at[-2], at[-1] + first) + col] = case["poison"][0]
        r[at[:-2] + (at[-2] + j1 - j0 - 1, at[-1] + last) + col] = \
            case["poison"][1]
        given_r = r.copy()

        def apply(pre, v, out=None):
            if layout == "global":
                return pre.apply_global(v, out=out)
            return pre.apply_stack(v, out=out)

        with np.errstate(all="ignore"):
            want = apply(ref, given_r.copy())
            if layout == "global":
                got = apply(fused, r)
            else:
                out = r if layout == "inplace" else target.interior_stack()
                got = apply(fused, r, out=out)
                assert got is out
        assert np.array_equal(got, want, equal_nan=True)
        lib = load_native()
        if lib.evp_gather is not None and lib.evp_scatter is not None:
            # The library moved the cells (no take maps were built).
            key = None if layout == "global" else "stack"
            assert fused._maps[key][0].compiled and key not in fused._takes
        if layout == "global":
            covered = np.zeros(config.shape, dtype=bool)
            for _, a, b, c, d in ref._tiles:
                covered[a:b, c:d] = True
            assert not np.any(got[~covered])
        if layout in ("stack", "ragged"):
            h = decomp.halo_width
            halo = np.ones(target.stack.shape, dtype=bool)
            halo[:, h:-h, h:-h] = False
            assert np.all(target.stack[halo] == 7.0)
        if layout != "global":
            for rank, block in enumerate(decomp.active_blocks):
                assert not np.any(got[rank, block.ny:])
                assert not np.any(got[rank, :, block.nx:])

    def test_working_set_keeps_one_width(self, uniform_config,
                                         uniform_decomp):
        """Widths 8, 3, 1 in turn leave this thread one working set: one
        pair of buffers and, per shape group, one runner over its rows
        -- a marching program and one ring scratch where the library
        marches --, and one coefficient block per engine -- the same
        object at every width, no row of it wider than the engine's
        tiles.  The mask is repeated for no width where the scatter
        masks."""
        r = np.random.default_rng(0).standard_normal(
            uniform_config.shape + (8,))
        for backend in BACKENDS:
            kernels = KERNELS[backend]
            pre = evp_for_config(uniform_config, decomp=uniform_decomp,
                                 tile_size=5, kernels=kernels)
            blocks = None
            for nrhs in (8, 3, 1):
                pre.apply_global(np.ascontiguousarray(r[..., :nrhs]))
                if blocks is None:
                    blocks = {engine: getattr(engine._plan, "block", None)
                              for engine in pre._engines.values()}
                for engine, block in blocks.items():
                    if block is None:
                        assert engine._plan is None
                        continue
                    assert engine._plan.block is block
                    assert block.shape[1] == engine.batch
                    assert engine._plan.inv_ne.shape[1] == engine.batch
            y, x, runs = pre._per_thread.work
            assert y.shape[1] == x.shape[1] == 1
            scatters = isinstance(kernels, FusedKernels) \
                and kernels._native().evp_scatter is not None
            assert len(pre._folded) == (0 if scatters else 1)
            assert set(runs) == set(pre._engines.values())
            for engine, run in runs.items():
                if engine._plan is None:
                    continue
                assert np.shares_memory(run.y, y)
                assert np.shares_memory(run.x, x)
                assert run.f.shape == (1, engine.batch, engine.k)
                assert run.ring.shape == (1, engine.batch, 1, engine.k)

    def test_influence_matrices_backend_independent(self, uniform_config,
                                                    uniform_decomp):
        """Cached artifacts must not depend on the consuming backend."""
        pres = {name: evp_for_config(uniform_config, decomp=uniform_decomp,
                                     kernels=KERNELS[name])
                for name in BACKENDS}
        ref = pres["numpy"]
        for name, pre in pres.items():
            for shape, engine in pre._engines.items():
                ref_engine = ref._engines[shape]
                assert np.array_equal(engine._w, ref_engine._w), name
                assert np.array_equal(engine._r, ref_engine._r), name


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("precond", ["identity", "diagonal", "evp"])
class TestSolveParity:
    """Full P-CSI solves: every backend against the numpy reference,
    under both execution engines -- and serial solves of all three
    solvers, where the dot and the update chain run.  A one-column
    stack (``nrhs=1``) runs the batched path at its narrowest width."""

    @pytest.mark.parametrize("solver", ["chrongear", "pcg", "pcsi"])
    @pytest.mark.parametrize("nrhs", [None, 1, 3])
    def test_serial(self, uniform_config, uniform_decomp, backend, precond,
                    solver, nrhs):
        def solve(kernels):
            pre = (evp_for_config(uniform_config, decomp=uniform_decomp,
                                  kernels=kernels) if precond == "evp"
                   else make_preconditioner(precond, uniform_config.stencil,
                                            decomp=uniform_decomp,
                                            kernels=kernels))
            ctx = SerialContext(uniform_config.stencil, pre,
                                decomp=uniform_decomp, kernels=kernels)
            b = _rhs(uniform_config) if nrhs is None else np.stack(
                [_rhs(uniform_config, seed=j) for j in range(nrhs)], axis=-1)
            result = make_solver(solver, ctx, tol=1e-10,
                                 max_iterations=3000).solve(b)
            return result, ctx.ledger.snapshot()

        (ref, ref_ledger), (got, got_ledger) = solve("numpy"), \
            solve(KERNELS[backend])
        assert ref.iterations == got.iterations
        assert np.array_equal(ref.residual_history, got.residual_history)
        assert ref_ledger == got_ledger
        _assert_close(backend, ref.x, got.x)

    @pytest.mark.parametrize("solver", ["chrongear", "pcg", "pcsi"])
    @pytest.mark.parametrize("nrhs", [None, 1, 3])
    def test_stacked(self, uniform_config, ragged_decomp, backend, precond,
                     solver, nrhs):
        """The batched engine on a ragged stack -- update chains with
        per-column coefficients, windowed dots, the planes-once sweep,
        the halo-only exchange -- against the oracle."""
        def solve(kernels):
            vm = VirtualMachine(ragged_decomp, mask=uniform_config.mask)
            vm.kernels = kernels
            pre = (evp_for_config(uniform_config, decomp=ragged_decomp,
                                  kernels=kernels) if precond == "evp"
                   else make_preconditioner(precond, uniform_config.stencil,
                                            decomp=ragged_decomp,
                                            kernels=kernels))
            ctx = DistributedContext(uniform_config.stencil, pre, vm,
                                     kernels=kernels)
            b = _rhs(uniform_config) if nrhs is None else np.stack(
                [_rhs(uniform_config, seed=j) for j in range(nrhs)], axis=-1)
            result = make_solver(solver, ctx, tol=1e-10,
                                 max_iterations=3000).solve(b)
            return result, ctx.ledger.snapshot()

        (ref, ref_ledger), (got, got_ledger) = \
            solve(KERNELS["numpy"]), solve(KERNELS[backend])
        assert ref.iterations == got.iterations
        assert np.array_equal(ref.residual_history, got.residual_history)
        assert ref_ledger == got_ledger
        _assert_close(backend, ref.x, got.x)

    def _solve(self, config, decomp, engine, precond, backend):
        vm = VirtualMachine(decomp, mask=config.mask, engine=engine)
        kernels = KERNELS[backend]
        if precond == "evp":
            pre = evp_for_config(config, decomp=decomp, kernels=kernels)
        else:
            pre = make_preconditioner(precond, config.stencil,
                                      decomp=decomp, kernels=kernels)
        ctx = DistributedContext(config.stencil, pre, vm, kernels=kernels)
        solver = PCSISolver(ctx, tol=1e-10, max_iterations=3000)
        return solver.solve(_rhs(config))

    @pytest.mark.parametrize("engine", ["perrank", "batched"])
    def test_uniform(self, uniform_config, uniform_decomp, backend,
                     precond, engine):
        ref = self._solve(uniform_config, uniform_decomp, engine, precond,
                          "numpy")
        got = self._solve(uniform_config, uniform_decomp, engine, precond,
                          backend)
        assert ref.iterations == got.iterations
        assert ref.residual_norm == got.residual_norm
        _assert_close(backend, ref.x, got.x)

    def test_eliminated(self, eliminated_config, eliminated_decomp,
                        backend, precond):
        ref = self._solve(eliminated_config, eliminated_decomp, "perrank",
                          precond, "numpy")
        got = self._solve(eliminated_config, eliminated_decomp, "perrank",
                          precond, backend)
        assert ref.iterations == got.iterations
        _assert_close(backend, ref.x, got.x)
