"""Checkpoint/restart: storage layer, solver resume, stepper resume.

The contract under test is *bit-identity*: a solve (or model
integration) killed at a checkpoint and resumed must produce exactly
the iterates, residual history, events and final state of the
uninterrupted run -- on every execution engine and kernel backend --
and a checkpoint that cannot guarantee that (corrupt, wrong version,
wrong producer, wrong right-hand side) must be refused loudly.
"""

import functools
import json
import os

import numpy as np
import pytest

from repro.barotropic import BarotropicStepper
from repro.core.checkpoint import (
    CHECKPOINT_FORMAT_VERSION,
    CheckpointError,
    CheckpointPolicy,
    latest_checkpoint,
    list_checkpoints,
    read_checkpoint,
    sanitize_meta,
    write_checkpoint,
)
from repro.core.errors import ConvergenceError
from repro.grid import pop_1deg
from repro.grid import test_config as make_test_config
from repro.kernels import resolve_kernels
from repro.kernels.native import load as load_native
from repro.operators import apply_stencil
from repro.parallel import (
    VirtualMachine,
    decompose,
    decomposition_for_core_count,
)
from repro.precond import make_preconditioner
from repro.precond.evp import evp_for_config
from repro.solvers import (
    ChronGearSolver,
    DistributedContext,
    SerialContext,
    make_solver,
)
from repro.solvers.context import SPANS

ENVELOPE_KEY = "__checkpoint__"


@pytest.fixture(scope="module")
def config():
    return make_test_config(32, 48, seed=7)


@pytest.fixture(scope="module")
def decomp(config):
    d = decompose(config.ny, config.nx, 4, 4, mask=config.mask)
    assert d.is_uniform and d.num_active == d.num_blocks
    return d


def _rhs(config, seed=1):
    rng = np.random.default_rng(seed)
    return apply_stencil(config.stencil,
                         rng.standard_normal(config.shape) * config.mask)


class CallsSerialContext(SerialContext):
    """A serial context that overrides ``precond``, a primitive every
    span replaces: the span gate (``_spans_own``) then keeps the
    primitive calls -- one iteration a call, on the same kernels."""

    def precond(self, r, out=None, phase="preconditioning"):
        return super().precond(r, out, phase)


class CallsDistributedContext(DistributedContext):
    """:class:`CallsSerialContext` on the distributed context."""

    def precond(self, r, out=None, phase="preconditioning"):
        return super().precond(r, out, phase)


#: Whether a context runs spans -> its (serial, distributed) classes.
CONTEXTS = {"native": (SerialContext, DistributedContext),
            "calls": (CallsSerialContext, CallsDistributedContext)}


def _context(config, decomp, engine, kernels_name, precond="diagonal",
             spans="native"):
    kernels = resolve_kernels(kernels_name)
    serial, distributed = CONTEXTS[spans]
    if engine == "serial":
        if precond == "evp":
            pre = evp_for_config(config, kernels=kernels)
        else:
            pre = make_preconditioner(precond, config.stencil,
                                      kernels=kernels)
        return serial(config.stencil, pre, kernels=kernels)
    vm = VirtualMachine(decomp, mask=config.mask, engine=engine)
    if precond == "evp":
        pre = evp_for_config(config, decomp=decomp, kernels=kernels)
    else:
        pre = make_preconditioner(precond, config.stencil, decomp=decomp,
                                  kernels=kernels)
    return distributed(config.stencil, pre, vm, kernels=kernels)


def _assert_results_identical(a, b):
    assert np.array_equal(a.x, b.x)
    assert a.iterations == b.iterations
    assert a.converged == b.converged
    assert a.residual_norm == b.residual_norm
    assert a.residual_history == b.residual_history
    for phase in ("computation", "preconditioning", "boundary",
                  "reduction"):
        assert vars(a.events[phase]) == vars(b.events[phase]), phase


class TestStorageLayer:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "one.ckpt.npz")
        arrays = {"x": np.arange(6.0).reshape(2, 3),
                  "flags": np.array([True, False])}
        meta = {"iteration": 40, "nested": {"tol": 1e-13, "nan": float(
            "nan")}}
        assert write_checkpoint(path, "solver", arrays, meta) == path
        got_arrays, got_meta = read_checkpoint(path, kind="solver")
        assert np.array_equal(got_arrays["x"], arrays["x"])
        assert np.array_equal(got_arrays["flags"], arrays["flags"])
        assert got_meta["iteration"] == 40
        assert got_meta["nested"]["tol"] == 1e-13
        assert np.isnan(got_meta["nested"]["nan"])

    def test_reserved_array_name_rejected(self, tmp_path):
        with pytest.raises(CheckpointError, match="reserved"):
            write_checkpoint(str(tmp_path / "x.ckpt.npz"), "solver",
                             {ENVELOPE_KEY: np.zeros(1)}, {})

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(CheckpointError, match="does not exist"):
            read_checkpoint(str(tmp_path / "absent.ckpt.npz"))

    def test_truncated_file_rejected(self, tmp_path):
        path = str(tmp_path / "torn.ckpt.npz")
        write_checkpoint(path, "solver", {"x": np.zeros(64)}, {})
        with open(path, "r+b") as handle:
            handle.truncate(os.path.getsize(path) // 2)
        with pytest.raises(CheckpointError):
            read_checkpoint(path)

    def test_bitflip_fails_checksum(self, tmp_path):
        path = str(tmp_path / "flip.ckpt.npz")
        write_checkpoint(path, "solver", {"x": np.ones(256)}, {"i": 1})
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.seek(size // 2)
            handle.write(b"\x00\x01\x02\x03")
        with pytest.raises(CheckpointError):
            read_checkpoint(path)

    def test_version_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "old.ckpt.npz")
        write_checkpoint(path, "solver", {"x": np.zeros(3)}, {})
        with np.load(path, allow_pickle=False) as data:
            envelope = json.loads(str(data[ENVELOPE_KEY][()]))
            payload = {n: data[n] for n in data.files if n != ENVELOPE_KEY}
        envelope["version"] = CHECKPOINT_FORMAT_VERSION + 1
        payload[ENVELOPE_KEY] = np.array(json.dumps(envelope))
        np.savez(path, **payload)
        with pytest.raises(CheckpointError, match="format version"):
            read_checkpoint(path)

    def test_pre_unification_snapshot_names_both_versions(self, tmp_path):
        """Format 1 had ``solver``/``solver_multi``/``capcg`` layouts;
        this code reads none of them and says so -- it never tries to
        parse one."""
        assert CHECKPOINT_FORMAT_VERSION == 2
        path = str(tmp_path / "v1.ckpt.npz")
        write_checkpoint(path, "solver_multi", {"x_full": np.zeros(3)},
                         {"loop": {"iterations": 10}})
        with np.load(path, allow_pickle=False) as data:
            envelope = json.loads(str(data[ENVELOPE_KEY][()]))
            payload = {n: data[n] for n in data.files if n != ENVELOPE_KEY}
        envelope["version"] = 1
        payload[ENVELOPE_KEY] = np.array(json.dumps(envelope))
        np.savez(path, **payload)
        with pytest.raises(CheckpointError,
                           match=r"format version 1; .* version 2"):
            read_checkpoint(path)
        stencil = make_test_config(8, 8).stencil
        solver = ChronGearSolver(SerialContext(
            stencil, make_preconditioner("diagonal", stencil)))
        with pytest.raises(CheckpointError, match="format version 1"):
            solver.solve(np.ones((8, 8)), resume_from=path)

    def test_kind_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "kind.ckpt.npz")
        write_checkpoint(path, "stepper", {}, {})
        with pytest.raises(CheckpointError, match="written by"):
            read_checkpoint(path, kind="solver")

    def test_listing_is_ordered(self, tmp_path):
        policy = CheckpointPolicy(str(tmp_path), every=10, keep=0)
        for iteration in (30, 10, 20):
            policy.write(iteration, "solver", {}, {"i": iteration})
        paths = list_checkpoints(str(tmp_path), prefix="solve-")
        iters = [read_checkpoint(p)[1]["i"] for p in paths]
        assert iters == [10, 20, 30]
        assert latest_checkpoint(str(tmp_path), prefix="solve-") == \
            paths[-1]

    def test_policy_due_and_prune(self, tmp_path):
        policy = CheckpointPolicy(str(tmp_path), every=10, keep=2)
        assert policy.due(10) and policy.due(20)
        assert not policy.due(5)
        for iteration in (10, 20, 30, 40):
            policy.write(iteration, "solver", {}, {"i": iteration})
        kept = list_checkpoints(str(tmp_path), prefix="solve-")
        assert [read_checkpoint(p)[1]["i"] for p in kept] == [30, 40]

    def test_failure_snapshots_survive_pruning(self, tmp_path):
        policy = CheckpointPolicy(str(tmp_path), every=10, keep=1)
        policy.write(10, "solver", {}, {"i": 10}, failure=True)
        for iteration in (20, 30, 40):
            policy.write(iteration, "solver", {}, {"i": iteration})
        names = [os.path.basename(p) for p in
                 list_checkpoints(str(tmp_path), prefix="solve-")]
        assert any("fail" in n for n in names)

    def test_sanitize_meta(self):
        out = sanitize_meta({
            "np_int": np.int64(3),
            "np_arr": np.arange(2.0),
            "tuple": (1, 2),
            "obj": object(),
        })
        assert out["np_int"] == 3 and isinstance(out["np_int"], int)
        assert out["np_arr"] == [0.0, 1.0]
        assert out["tuple"] == [1, 2]
        assert isinstance(out["obj"], str)


class TestSolverResume:
    """Killed-and-resumed solves are bit-identical to uninterrupted
    ones, across engines and kernel backends."""

    @pytest.mark.parametrize("engine", ["serial", "perrank", "batched"])
    @pytest.mark.parametrize("kernels_name", ["numpy", "fused"])
    def test_pcsi_resume_bit_identical(self, tmp_path, config, decomp,
                                       engine, kernels_name):
        b = _rhs(config)
        ctx = _context(config, decomp, engine, kernels_name,
                       precond="evp")
        full = make_solver("pcsi", ctx, tol=1e-10).solve(b)

        ctx2 = _context(config, decomp, engine, kernels_name,
                        precond="evp")
        policy = CheckpointPolicy(str(tmp_path / engine / kernels_name),
                                  every=20)
        make_solver("pcsi", ctx2, tol=1e-10).solve(b, checkpoint=policy)
        assert policy.written

        ctx3 = _context(config, decomp, engine, kernels_name,
                        precond="evp")
        resumed = make_solver("pcsi", ctx3, tol=1e-10).solve(
            b, resume_from=policy.written[0])
        _assert_results_identical(full, resumed)

    @pytest.mark.parametrize("engine", ["serial", "batched"])
    def test_chrongear_resume_bit_identical(self, tmp_path, config,
                                            decomp, engine):
        b = _rhs(config)
        full = ChronGearSolver(
            _context(config, decomp, engine, "numpy"), tol=1e-10).solve(b)

        policy = CheckpointPolicy(str(tmp_path / engine), every=40)
        ChronGearSolver(
            _context(config, decomp, engine, "numpy"),
            tol=1e-10).solve(b, checkpoint=policy)
        resumed = ChronGearSolver(
            _context(config, decomp, engine, "numpy"), tol=1e-10).solve(
                b, resume_from=policy.written[0])
        _assert_results_identical(full, resumed)

    def test_cross_engine_resume(self, tmp_path, config, decomp):
        """A snapshot written under one engine resumes under another:
        checkpoints are stored in the engine-agnostic global layout.

        The batched and per-rank engines are the bit-identical pair
        (engine parity); the serial context orders its reductions
        differently, so it is not part of this contract.
        """
        b = _rhs(config)
        full = make_solver(
            "pcsi", _context(config, decomp, "perrank", "numpy",
                             precond="evp"), tol=1e-10).solve(b)

        policy = CheckpointPolicy(str(tmp_path), every=20)
        make_solver(
            "pcsi", _context(config, decomp, "batched", "numpy",
                             precond="evp"),
            tol=1e-10).solve(b, checkpoint=policy)
        resumed = make_solver(
            "pcsi", _context(config, decomp, "perrank", "numpy",
                             precond="evp"), tol=1e-10).solve(
                b, resume_from=policy.written[0])
        _assert_results_identical(full, resumed)

    def test_resume_refuses_different_rhs(self, tmp_path, config, decomp):
        b = _rhs(config)
        policy = CheckpointPolicy(str(tmp_path), every=40)
        ChronGearSolver(
            _context(config, decomp, "serial", "numpy"),
            tol=1e-10).solve(b, checkpoint=policy)
        other = _rhs(config, seed=2)
        with pytest.raises(CheckpointError, match="right-hand side"):
            ChronGearSolver(
                _context(config, decomp, "serial", "numpy"),
                tol=1e-10).solve(other, resume_from=policy.written[0])

    def test_resume_refuses_different_tolerance(self, tmp_path, config,
                                                decomp):
        b = _rhs(config)
        policy = CheckpointPolicy(str(tmp_path), every=40)
        ChronGearSolver(
            _context(config, decomp, "serial", "numpy"),
            tol=1e-10).solve(b, checkpoint=policy)
        with pytest.raises(CheckpointError):
            ChronGearSolver(
                _context(config, decomp, "serial", "numpy"),
                tol=1e-12).solve(b, resume_from=policy.written[0])

    def test_failure_writes_snapshot_and_diagnosis_carries_ledger(
            self, tmp_path, config, decomp):
        """A diagnosed failure leaves a resumable snapshot, and the
        diagnosis always carries the iteration ledger and the last
        finite residual."""
        b = _rhs(config)
        policy = CheckpointPolicy(str(tmp_path), every=0,
                                  on_failure=True)
        starved = ChronGearSolver(
            _context(config, decomp, "serial", "numpy"), tol=1e-12,
            max_iterations=30)
        with pytest.raises(ConvergenceError) as err:
            starved.solve(b, checkpoint=policy)
        diagnosis = err.value.diagnosis
        assert diagnosis is not None
        assert "ledger" in diagnosis.data
        assert diagnosis.data["ledger"]["computation"]["flops"] > 0
        assert np.isfinite(diagnosis.data["last_finite_residual"])
        assert err.value.result is not None

        fail_path = policy.latest()
        assert fail_path is not None and "fail" in fail_path

        # Resuming with an adequate budget finishes the solve exactly
        # where an uninterrupted adequate run lands.
        full = ChronGearSolver(
            _context(config, decomp, "serial", "numpy"), tol=1e-12,
            max_iterations=3000).solve(b)
        resumed = ChronGearSolver(
            _context(config, decomp, "serial", "numpy"), tol=1e-12,
            max_iterations=3000).solve(b, resume_from=fail_path)
        _assert_results_identical(full, resumed)


def _spans(solver):
    """Record the span length of every ``_iterate_span`` call."""
    spans, plain = [], solver._iterate_span

    def spy(state, first, n):
        spans.append(n)
        return plain(state, first, n)

    solver._iterate_span = spy
    return spans


def _result_bits(result):
    """What a span must not change: iterates, counts, histories,
    ledgers, per-column accounting and the diagnosis."""
    extra = {key: value for key, value in result.extra.items()
             if key != "diagnosis"}
    diagnosis = result.diagnosis.to_dict() if result.diagnosis else None
    return (result.iterations, result.converged, result.residual_history,
            result.events, result.setup_events, repr(extra), diagnosis)


class TestPCSISpans:
    """The guarded loop hands P-CSI + diagonal on a serial context the
    iterations up to the next check, due checkpoint or budget end as
    one span -- a ``native.c`` wavefront where it was adopted -- and
    that changes no bit against one iteration a call (the same kernels
    through :class:`CallsSerialContext`, the per-iteration calls);
    every other case keeps spans of one."""

    PRODUCTS = CONTEXTS

    @staticmethod
    def _fused():
        return load_native().chebyshev_span is not None

    def _solve(self, config, kernels, b, tmp_path=None, x0=None,
               resume_from=None, **kwargs):
        ctx = _context(config, None, "serial", "fused", spans=kernels)
        kwargs = {"tol": 1e-10, "check_freq": 10, **kwargs}
        solver = make_solver("pcsi", ctx, raise_on_failure=False, **kwargs)
        spans = _spans(solver)
        policy = None if tmp_path is None else CheckpointPolicy(
            str(tmp_path / kernels), every=7, keep=0)
        result = solver.solve(b, x0=x0, checkpoint=policy,
                              resume_from=resume_from)
        return result, spans, policy

    @pytest.mark.parametrize("width", [None, 2])
    def test_spans_stop_at_checks_checkpoints_and_budget(
            self, tmp_path, config, width):
        b = _rhs(config)
        if width is not None:
            b = np.stack([b, _rhs(config, seed=2)], axis=-1)
        runs = {kernels: self._solve(config, kernels, b, tmp_path,
                                     max_iterations=23)
                for kernels in self.PRODUCTS}
        (got, spans, policy), (ref, ref_spans, ref_policy) = runs.values()
        assert got.diagnosis.kind == "budget_exhausted"
        assert _result_bits(got) == _result_bits(ref)
        assert np.array_equal(got.x, ref.x)
        assert [os.path.basename(p) for p in policy.written] == \
            [os.path.basename(p) for p in ref_policy.written]
        assert ref_spans == [1] * 23
        if self._fused():
            # checkpoint 7, check 10, checkpoint 14, check 20,
            # checkpoint 21, budget 23
            assert spans == [7, 3, 4, 6, 1, 2]

    def test_checkpoint_written_mid_span_resumes(self, tmp_path, config):
        """A snapshot at iteration 7 of one iteration a call resumes
        under spans (8 .. 10 is one), and the other way round, on the
        uninterrupted run's bits."""
        b = _rhs(config)
        full, _, _ = self._solve(config, "calls", b)
        for writer, reader in (("calls", "native"), ("native", "calls")):
            _, _, policy = self._solve(config, writer, b, tmp_path / writer)
            resumed, spans, _ = self._solve(
                config, reader, b, resume_from=policy.written[0])
            assert _result_bits(resumed) == _result_bits(full)
            assert np.array_equal(resumed.x, full.x)
            if self._fused() and reader == "native":
                assert spans[0] == 3

    def test_retired_column_compacts_to_width_one(self, config):
        """Column 0 starts at its solution and retires at the first
        check; column 1 runs on alone as a batch of width one."""
        b = np.stack([_rhs(config), _rhs(config, seed=2)], axis=-1)
        exact, _, _ = self._solve(config, "calls", b[..., 0], tol=1e-12)
        x0 = np.zeros_like(b)
        x0[..., 0] = exact.x
        runs = [self._solve(config, kernels, b, x0=x0)
                for kernels in self.PRODUCTS]
        (got, spans, _), (ref, _, _) = runs
        assert got.extra["per_rhs_iterations"][0] == 10
        assert got.extra["per_rhs_iterations"][1] > 10
        assert _result_bits(got) == _result_bits(ref)
        assert np.array_equal(got.x, ref.x)
        if self._fused():
            assert set(spans) == {10}

    def test_divergence_recovery_widens_with_the_same_bits(self, config):
        b = _rhs(config)
        runs = [self._solve(config, kernels, b, eig_bounds=(0.05, 0.9),
                            max_recoveries=4, mu_backoff=2.0,
                            max_iterations=5000)
                for kernels in self.PRODUCTS]
        (got, _, _), (ref, _, _) = runs
        assert got.converged and got.extra["recoveries"] >= 1
        assert _result_bits(got) == _result_bits(ref)
        assert np.array_equal(got.x, ref.x)

    #: Per declared span kind: the solver that declares it and the
    #: cases below that span, with the ``native.c`` entry point each
    #: needs.
    SPANNING = {
        "chebyshev": ("pcsi", {"evp": "evp_step", "evp_batched": "evp_step"}),
        "chrongear": ("chrongear", {"evp": "evp_step",
                                    "evp_batched": "evp_step"}),
    }

    @pytest.mark.parametrize("case", ["evp", "perrank", "batched",
                                      "resilience", "evp_batched"])
    def test_other_cases_keep_spans_of_one(self, config, decomp, case):
        """Every declared span kind (``SPANS``; a kind without a row in
        ``SPANNING`` fails): one iteration a call on the distributed
        contexts with a diagonal ``M`` and under a resilience runtime.
        P-CSI + EVP and ChronGear + EVP, serially and on the batched
        engine's stacks, span up to each check (``evp_step`` calls, where
        it was adopted)."""
        engine = {"evp": "serial", "resilience": "batched",
                  "evp_batched": "batched"}.get(case, case)
        for kind in SPANS:
            name, spanning = self.SPANNING[kind]
            ctx = _context(config, decomp, engine, "fused",
                           precond="evp" if case.startswith("evp")
                           else "diagonal")
            solver = make_solver(name, ctx, tol=1e-10)
            assert solver._SPAN[0] == kind
            spans = _spans(solver)
            result = solver.solve(
                _rhs(config),
                resilience=True if case == "resilience" else None)
            spanned = (case in spanning
                       and getattr(load_native(), spanning[case]) is not None)
            assert result.converged, name
            if spanned:
                assert set(spans) == {solver.check_freq}
                assert sum(spans) == result.iterations
            else:
                assert set(spans) == {1}, name
                assert len(spans) == result.iterations, name


#: The three ``pop_1deg`` grids of the serial ChronGear rows.
POP_GRIDS = {"144x120": 0.375, "192x160": 0.5, "384x320": 1.0}


@functools.lru_cache(maxsize=None)
def _pop(grid):
    return pop_1deg(scale=POP_GRIDS[grid])


def _batch_rhs(config, width):
    """``width`` right-hand sides (a 2-D one for ``None``)."""
    if width is None:
        return _rhs(config)
    return np.stack([_rhs(config, seed=1 + c) for c in range(width)],
                    axis=-1)


class TestChronGearSpans:
    """The guarded loop hands ChronGear + diagonal on a serial context
    the iterations up to the next check, due checkpoint or budget end as
    one span -- one ``native.c`` pass per iteration where it was
    adopted, the coefficients formed in between -- and that changes no
    bit against one iteration a call (the same kernels through
    :class:`CallsSerialContext`): iterates, iteration counts, residual
    histories, events, per-column iterations and diagnoses, on the
    three ``pop_1deg`` grids at every width."""

    PRODUCTS = CONTEXTS

    @staticmethod
    def _fused():
        return load_native().chrongear_span is not None

    def _solve(self, config, kernels, b, tmp_path=None, x0=None,
               resume_from=None, poison=None, **kwargs):
        ctx = _context(config, None, "serial", "fused", spans=kernels)
        kwargs = {"tol": 1e-10, "check_freq": 10, **kwargs}
        solver = make_solver("chrongear", ctx, raise_on_failure=False,
                             **kwargs)
        spans = _spans(solver)
        if poison is not None:
            spanned = solver._iterate_span

            def poisoned(state, first, n):
                if first == 11:
                    poison(state["r"])
                spanned(state, first, n)

            solver._iterate_span = poisoned
        policy = None if tmp_path is None else CheckpointPolicy(
            str(tmp_path / kernels), every=7, keep=0)
        result = solver.solve(b, x0=x0, checkpoint=policy,
                              resume_from=resume_from)
        return result, spans, policy

    def _both(self, config, b, **kwargs):
        """The two products' solves, checked equal; the spans ran."""
        (got, spans, _), (ref, ref_spans, _) = [
            self._solve(config, kernels, b, **kwargs)
            for kernels in self.PRODUCTS]
        assert _result_bits(got) == _result_bits(ref)
        assert np.array_equal(got.x, ref.x, equal_nan=True)
        assert set(ref_spans) == {1}
        return got, spans

    @pytest.mark.parametrize("width", [None, 1, 2, 3, 8, 11])
    @pytest.mark.parametrize("grid", list(POP_GRIDS))
    def test_pop_grids_match_the_calls(self, grid, width):
        got, spans = self._both(_pop(grid), _batch_rhs(_pop(grid), width),
                                max_iterations=25)
        assert got.diagnosis.kind == "budget_exhausted"
        if self._fused():
            assert spans == [10, 10, 5]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("width", [None, 2, 11])
    def test_nonfinite_edges_match_the_calls(self, width):
        """NaN, +Inf and -Inf in the first and last grid column of the
        residual before iteration 11 (column 0 of a batch): the sweep's
        wrapping couplings carry them across, the poisoned column
        retires ``nonfinite_residual`` at the check at 20 and the
        others run on."""
        config = _pop("144x120")

        def poison(r):
            column = r if r.ndim == 2 else r[..., 0]
            column[5, 0], column[40, -1], column[70, 0] = \
                np.nan, np.inf, -np.inf

        got, spans = self._both(config, _batch_rhs(config, width),
                                poison=poison, max_iterations=40)
        assert got.diagnosis.kind == "nonfinite_residual"
        if width is not None:
            assert got.extra["per_rhs_iterations"][0] == 20
            assert got.extra["per_rhs_iterations"][1] == 40
        if self._fused():
            assert set(spans) == {10}

    @pytest.mark.parametrize("width", [None, 2])
    def test_exactly_solved_column_freezes(self, width):
        """``b = A x0`` exactly: ``rho = delta = 0``, so the iteration
        updates nothing (one column) or freezes that column (a batch)
        and the first check says converged."""
        config = _pop("144x120")
        rng = np.random.default_rng(4)
        x0 = rng.standard_normal(config.shape) * config.mask
        exact = apply_stencil(config.stencil, x0)
        b, start = exact, x0
        if width is not None:
            b = np.stack([exact, _rhs(config)], axis=-1)
            start = np.stack([x0, np.zeros(config.shape)], axis=-1)
        got, spans = self._both(config, b, x0=start, max_iterations=60)
        iterations = got.extra.get("per_rhs_iterations",
                                   [got.iterations])
        assert iterations[0] == 10
        if self._fused():
            assert spans[0] == 10

    @pytest.mark.parametrize("width", [None, 2])
    def test_spans_stop_at_checks_checkpoints_and_budget(
            self, tmp_path, width):
        config = _pop("144x120")
        b = _batch_rhs(config, width)
        runs = {kernels: self._solve(config, kernels, b, tmp_path,
                                     max_iterations=23)
                for kernels in self.PRODUCTS}
        (got, spans, policy), (ref, ref_spans, ref_policy) = runs.values()
        assert got.diagnosis.kind == "budget_exhausted"
        assert _result_bits(got) == _result_bits(ref)
        assert np.array_equal(got.x, ref.x)
        assert [os.path.basename(p) for p in policy.written] == \
            [os.path.basename(p) for p in ref_policy.written]
        assert ref_spans == [1] * 23
        if self._fused():
            # checkpoint 7, check 10, checkpoint 14, check 20,
            # checkpoint 21, budget 23
            assert spans == [7, 3, 4, 6, 1, 2]

    def test_checkpoint_written_mid_span_resumes(self, tmp_path):
        """A snapshot at iteration 7 of one iteration a call resumes
        under spans (8 .. 10 is one), and the other way round, on the
        uninterrupted run's bits."""
        config = _pop("144x120")
        b = _rhs(config)
        full, _, _ = self._solve(config, "calls", b)
        for writer, reader in (("calls", "native"), ("native", "calls")):
            _, _, policy = self._solve(config, writer, b, tmp_path / writer)
            resumed, spans, _ = self._solve(
                config, reader, b, resume_from=policy.written[0])
            assert _result_bits(resumed) == _result_bits(full)
            assert np.array_equal(resumed.x, full.x)
            if self._fused() and reader == "native":
                assert spans[0] == 3


#: The batched lattices of ``TestEVPSpans`` over ``pop_1deg`` at
#: 144x120: 8x6 uniform blocks, 7x5 ragged ones, and the 48-core lattice
#: with two land blocks eliminated (46 active).
EVP_LATTICES = {
    "uniform": lambda c: decompose(c.ny, c.nx, 8, 6, mask=c.mask,
                                   eliminate_land=False),
    "ragged": lambda c: decompose(c.ny, c.nx, 7, 5, mask=c.mask,
                                  eliminate_land=False),
    "eliminated": lambda c: decomposition_for_core_count(
        c.ny, c.nx, 48, mask=c.mask, eliminate_land=True),
}


@functools.lru_cache(maxsize=None)
def _lattice(name):
    config = _pop("144x120")
    decomp = EVP_LATTICES[name](config)
    assert decomp.is_uniform == (name != "ragged")
    assert (decomp.num_active < decomp.num_blocks) == (name == "eliminated")
    return decomp


@functools.lru_cache(maxsize=None)
def _evp(grid, lattice):
    """One EVP preconditioner per grid and lattice: the influence
    matrices are the expensive part of a solve here."""
    decomp = None if lattice is None else _lattice(lattice)
    return evp_for_config(_pop(grid), decomp=decomp)


class TestEVPSpans:
    """P-CSI + block EVP -- serial, or on the batched engine's stacks --
    runs each iteration of a span as one ``native.c`` call where
    ``evp_step`` was adopted (ChronGear + EVP as two, the coefficients
    formed in between), and the guarded loop hands it the iterations up
    to the next check, due checkpoint or budget end; that changes no bit
    against one iteration a call (the same kernels through
    :class:`CallsSerialContext` / :class:`CallsDistributedContext`),
    nor, on the stacks, against the per-rank oracle: iterates,
    iteration counts, residual histories, events, per-column iterations
    and diagnoses, on the three ``pop_1deg`` grids and on uniform,
    ragged and land-eliminated lattices at every width."""

    PRODUCTS = CONTEXTS

    @staticmethod
    def _fused():
        return load_native().evp_step is not None

    def _solve(self, kernels, b, grid="144x120", lattice=None,
               engine="batched", tmp_path=None, resume_from=None,
               poison=None, solver="pcsi", x0=None, **kwargs):
        config = _pop(grid)
        pre = _evp(grid, lattice)
        serial, distributed = self.PRODUCTS[kernels]
        if lattice is None:
            ctx = serial(config.stencil, pre)
        else:
            vm = VirtualMachine(_lattice(lattice), mask=config.mask,
                                engine=engine)
            ctx = distributed(config.stencil, pre, vm)
        kwargs = {"tol": 1e-10, "check_freq": 10, **kwargs}
        solver = make_solver(solver, ctx, raise_on_failure=False, **kwargs)
        spans = _spans(solver)
        if poison is not None:
            spanned = solver._iterate_span

            def poisoned(state, first, n):
                if first == 11:
                    poison(state["r"])
                spanned(state, first, n)

            solver._iterate_span = poisoned
        policy = None if tmp_path is None else CheckpointPolicy(
            str(tmp_path / f"{kernels}-{engine}"), every=7, keep=0)
        result = solver.solve(b, x0=x0, checkpoint=policy,
                              resume_from=resume_from)
        return result, spans, policy

    def _both(self, b, oracle=False, **kwargs):
        """The products' solves (and the per-rank oracle's), checked
        equal; the spans ran."""
        (got, spans, _), (ref, ref_spans, _) = [
            self._solve(kernels, b, **kwargs) for kernels in self.PRODUCTS]
        assert _result_bits(got) == _result_bits(ref)
        assert np.array_equal(got.x, ref.x, equal_nan=True)
        assert set(ref_spans) == {1}
        if oracle:
            slow, slow_spans, _ = self._solve("native", b, engine="perrank",
                                              **kwargs)
            assert _result_bits(got) == _result_bits(slow)
            assert np.array_equal(got.x, slow.x, equal_nan=True)
            assert set(slow_spans) == {1}
        return got, spans

    @pytest.mark.parametrize("width", [None, 1, 2, 3, 8])
    @pytest.mark.parametrize("grid", list(POP_GRIDS))
    def test_pop_grids_match_the_calls(self, grid, width):
        got, spans = self._both(_batch_rhs(_pop(grid), width), grid=grid,
                                max_iterations=25)
        assert got.diagnosis.kind == "budget_exhausted"
        if self._fused():
            assert spans == [10, 10, 5]

    @pytest.mark.parametrize("width", [None, 1, 2, 3, 8])
    @pytest.mark.parametrize("lattice", list(EVP_LATTICES))
    def test_lattices_match_the_calls_and_the_oracle(self, lattice, width):
        got, spans = self._both(_batch_rhs(_pop("144x120"), width),
                                oracle=True, lattice=lattice,
                                max_iterations=25)
        assert got.diagnosis.kind == "budget_exhausted"
        if self._fused():
            assert spans == [10, 10, 5]

    @pytest.mark.parametrize("width", [None, 2])
    @pytest.mark.parametrize("lattice", [None, "eliminated"])
    def test_spans_stop_at_checks_checkpoints_and_budget(
            self, tmp_path, lattice, width):
        b = _batch_rhs(_pop("144x120"), width)
        runs = {kernels: self._solve(kernels, b, lattice=lattice,
                                     tmp_path=tmp_path, max_iterations=23)
                for kernels in self.PRODUCTS}
        (got, spans, policy), (ref, ref_spans, ref_policy) = runs.values()
        assert got.diagnosis.kind == "budget_exhausted"
        assert _result_bits(got) == _result_bits(ref)
        assert np.array_equal(got.x, ref.x)
        assert [os.path.basename(p) for p in policy.written] == \
            [os.path.basename(p) for p in ref_policy.written]
        assert ref_spans == [1] * 23
        if self._fused():
            # checkpoint 7, check 10, checkpoint 14, check 20,
            # checkpoint 21, budget 23
            assert spans == [7, 3, 4, 6, 1, 2]

    @pytest.mark.parametrize("lattice", [None, "ragged"])
    def test_checkpoint_written_mid_span_resumes(self, tmp_path, lattice):
        """A snapshot at iteration 7 of one iteration a call resumes
        under spans (8 .. 10 is one), and the other way round, on the
        uninterrupted run's bits."""
        b = _rhs(_pop("144x120"))
        full, _, _ = self._solve("calls", b, lattice=lattice)
        for writer, reader in (("calls", "native"), ("native", "calls")):
            _, _, policy = self._solve(writer, b, lattice=lattice,
                                       tmp_path=tmp_path / writer)
            resumed, spans, _ = self._solve(
                reader, b, lattice=lattice, resume_from=policy.written[0])
            assert _result_bits(resumed) == _result_bits(full)
            assert np.array_equal(resumed.x, full.x)
            if self._fused() and reader == "native":
                assert spans[0] == 3

    @pytest.mark.parametrize("lattice", [None, "eliminated"])
    def test_divergence_recovery_widens_with_the_same_bits(self, lattice):
        got, _ = self._both(_rhs(_pop("144x120")), lattice=lattice,
                            eig_bounds=(0.05, 0.9), max_recoveries=4,
                            mu_backoff=2.0, max_iterations=5000)
        assert got.converged and got.extra["recoveries"] >= 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("width", [None, 2])
    @pytest.mark.parametrize("lattice", [None, "ragged", "eliminated"])
    def test_nonfinite_edges_match_the_calls(self, lattice, width):
        """NaN, +Inf and -Inf in cells on block edges (the grid's first
        and last columns serially) of the residual before iteration 11,
        column 0 of a batch: the poisoned column retires
        ``nonfinite_residual`` at the check at 20 and the others run
        on."""
        def poison(r):
            if lattice is None:
                column = r if r.ndim == 2 else r[..., 0]
                column[5, 0], column[40, -1], column[70, 0] = \
                    np.nan, np.inf, -np.inf
                return
            for rank, value in zip((0, 3, 7), (np.nan, np.inf, -np.inf)):
                block = r.interior(rank)
                block = block if block.ndim == 2 else block[..., 0]
                block[2, 0], block[-1, -1] = value, value

        got, spans = self._both(_batch_rhs(_pop("144x120"), width),
                                lattice=lattice, poison=poison,
                                max_iterations=40)
        assert got.diagnosis.kind == "nonfinite_residual"
        if width is not None:
            assert got.extra["per_rhs_iterations"][0] == 20
            assert got.extra["per_rhs_iterations"][1] == 40
        if self._fused():
            assert set(spans) == {10}


    # -- ChronGear + EVP: two calls an iteration ---------------------------
    @pytest.mark.parametrize("width", [None, 1, 2, 3, 8])
    @pytest.mark.parametrize("lattice", [None] + list(EVP_LATTICES))
    def test_chrongear_matches_the_calls_and_the_oracle(self, lattice,
                                                        width):
        got, spans = self._both(_batch_rhs(_pop("144x120"), width),
                                oracle=lattice is not None, lattice=lattice,
                                solver="chrongear", max_iterations=25)
        assert got.diagnosis.kind == "budget_exhausted"
        if self._fused():
            assert spans == [10, 10, 5]

    @pytest.mark.parametrize("lattice", [None, "ragged"])
    def test_chrongear_retired_column_compacts_to_width_seven(self,
                                                              lattice):
        """Column 0 of eight starts at its solution and retires at the
        first check; the other seven run on as a batch of width seven,
        on a fresh working set."""
        b = _batch_rhs(_pop("144x120"), 8)
        exact, _, _ = self._solve("calls", np.ascontiguousarray(b[..., 0]),
                                  lattice=lattice, solver="chrongear",
                                  tol=1e-12)
        x0 = np.zeros_like(b)
        x0[..., 0] = exact.x
        got, spans = self._both(b, lattice=lattice, solver="chrongear",
                                x0=x0, max_iterations=30)
        assert got.extra["per_rhs_iterations"][0] == 10
        assert min(got.extra["per_rhs_iterations"][1:]) > 10
        if self._fused():
            assert spans == [10, 10, 10]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("width", [None, 2])
    @pytest.mark.parametrize("lattice", [None, "eliminated"])
    def test_chrongear_nonfinite_edges_match_the_calls(self, lattice,
                                                       width):
        """NaN, +Inf and -Inf in edge cells of the residual before
        iteration 11, as for P-CSI: the poisoned column retires
        ``nonfinite_residual`` at the check at 20, the others run on."""
        def poison(r):
            if lattice is None:
                column = r if r.ndim == 2 else r[..., 0]
                column[5, 0], column[40, -1], column[70, 0] = \
                    np.nan, np.inf, -np.inf
                return
            for rank, value in zip((0, 3, 7), (np.nan, np.inf, -np.inf)):
                block = r.interior(rank)
                block = block if block.ndim == 2 else block[..., 0]
                block[2, 0], block[-1, -1] = value, value

        got, spans = self._both(_batch_rhs(_pop("144x120"), width),
                                lattice=lattice, poison=poison,
                                solver="chrongear", max_iterations=40)
        assert got.diagnosis.kind == "nonfinite_residual"
        if width is not None:
            assert got.extra["per_rhs_iterations"][0] == 20
            assert got.extra["per_rhs_iterations"][1] == 40
        if self._fused():
            assert set(spans) == {10}

    @pytest.mark.parametrize("width", [None, 2])
    @pytest.mark.parametrize("lattice", [None, "uniform"])
    def test_chrongear_breakdown_inside_a_span(self, monkeypatch, lattice,
                                               width):
        """The coefficient step of iteration 14 raises (column by column
        on a batch): the count stops at 14, its head charged and its
        recurrences not, as one iteration a call."""
        from repro.core.errors import BreakdownError
        from repro.solvers import chrongear

        step, calls = chrongear._coefficients, []

        def exploding(*column):
            calls.append(column)
            if len(calls) == 13 * (width or 1) + 1:
                raise BreakdownError("synthetic breakdown")
            return step(*column)

        monkeypatch.setattr(chrongear, "_coefficients", exploding)
        results = []
        for kernels in self.PRODUCTS:
            calls.clear()
            results.append(self._solve(kernels,
                                       _batch_rhs(_pop("144x120"), width),
                                       lattice=lattice, solver="chrongear",
                                       max_iterations=40))
        (got, spans, _), (ref, ref_spans, _) = results
        assert got.diagnosis.kind == "breakdown"
        assert got.iterations == 14
        assert _result_bits(got) == _result_bits(ref)
        assert np.array_equal(got.x, ref.x)
        assert ref_spans == [1] * 14
        if self._fused():
            assert spans == [10, 10]

    @pytest.mark.parametrize("lattice", [None, "ragged"])
    def test_chrongear_checkpoints_stop_spans_and_resume(self, tmp_path,
                                                         lattice):
        """Due checkpoints end spans as checks do; a snapshot at
        iteration 7 of one iteration a call resumes under spans (8 ..
        10 is one), and the other way round, on the uninterrupted run's
        bits."""
        b = _batch_rhs(_pop("144x120"), 2)
        runs = {kernels: self._solve(kernels, b, lattice=lattice,
                                     solver="chrongear",
                                     tmp_path=tmp_path / "stops",
                                     max_iterations=23)
                for kernels in self.PRODUCTS}
        (got, spans, policy), (ref, ref_spans, ref_policy) = runs.values()
        assert got.diagnosis.kind == "budget_exhausted"
        assert _result_bits(got) == _result_bits(ref)
        assert np.array_equal(got.x, ref.x)
        assert [os.path.basename(p) for p in policy.written] == \
            [os.path.basename(p) for p in ref_policy.written]
        assert ref_spans == [1] * 23
        if self._fused():
            assert spans == [7, 3, 4, 6, 1, 2]
        full, _, _ = self._solve("calls", b, lattice=lattice,
                                 solver="chrongear")
        for writer, reader in (("calls", "native"), ("native", "calls")):
            _, _, policy = self._solve(writer, b, lattice=lattice,
                                       solver="chrongear",
                                       tmp_path=tmp_path / writer)
            resumed, spans, _ = self._solve(
                reader, b, lattice=lattice, solver="chrongear",
                resume_from=policy.written[0])
            assert _result_bits(resumed) == _result_bits(full)
            assert np.array_equal(resumed.x, full.x)
            if self._fused() and reader == "native":
                assert spans[0] == 3

class TestStepperResume:
    def _build(self, config):
        pre = make_preconditioner("diagonal", config.stencil)
        solver = ChronGearSolver(SerialContext(config.stencil, pre),
                                 tol=1e-12, max_iterations=5000,
                                 raise_on_failure=False)
        return BarotropicStepper(config, solver)

    @staticmethod
    def _forcing(step):
        rng = np.random.default_rng(900 + step)
        return rng.standard_normal((32, 48))

    def test_run_resume_bit_identical(self, tmp_path, config):
        full = self._build(config)
        full.run(6, forcing=self._forcing)

        interrupted = self._build(config)
        policy = CheckpointPolicy(str(tmp_path), every=3,
                                  prefix="stepper")
        interrupted.run(3, forcing=self._forcing, checkpoint=policy)
        snapshot = latest_checkpoint(str(tmp_path), prefix="stepper-")
        assert snapshot is not None

        resumed = self._build(config).restore(snapshot)
        assert resumed.step_count == 3
        resumed.run(3, forcing=self._forcing)

        assert np.array_equal(full.eta_n, resumed.eta_n)
        assert np.array_equal(full.eta_nm1, resumed.eta_nm1)
        assert [vars(s) for s in full.history] == \
            [vars(s) for s in resumed.history]

    def test_restore_refuses_other_grid(self, tmp_path, config):
        path = str(tmp_path / "grid.ckpt.npz")
        self._build(config).checkpoint(path)
        other = make_test_config(32, 48, seed=9)
        with pytest.raises(CheckpointError, match="different grid"):
            self._build(other).restore(path)

    def test_restore_refuses_other_shape(self, tmp_path, config):
        path = str(tmp_path / "shape.ckpt.npz")
        self._build(config).checkpoint(path)
        other = make_test_config(24, 24, seed=3, aquaplanet=True)
        with pytest.raises(CheckpointError, match="shape"):
            self._build(other).restore(path)
