"""Checkpoint/restart: storage layer, solver resume, stepper resume.

The contract under test is *bit-identity*: a solve (or model
integration) killed at a checkpoint and resumed must produce exactly
the iterates, residual history, events and final state of the
uninterrupted run -- on every execution engine and kernel backend --
and a checkpoint that cannot guarantee that (corrupt, wrong version,
wrong producer, wrong right-hand side) must be refused loudly.
"""

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
from repro.grid import test_config as make_test_config
from repro.kernels import resolve_kernels
from repro.operators import apply_stencil
from repro.parallel import VirtualMachine, decompose
from repro.precond import make_preconditioner
from repro.precond.evp import evp_for_config
from repro.solvers import (
    ChronGearSolver,
    DistributedContext,
    SerialContext,
    make_solver,
)

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


def _context(config, decomp, engine, kernels_name, precond="diagonal"):
    kernels = resolve_kernels(kernels_name)
    if engine == "serial":
        if precond == "evp":
            pre = evp_for_config(config, kernels=kernels)
        else:
            pre = make_preconditioner(precond, config.stencil,
                                      kernels=kernels)
        return SerialContext(config.stencil, pre, kernels=kernels)
    vm = VirtualMachine(decomp, mask=config.mask, engine=engine)
    if precond == "evp":
        pre = evp_for_config(config, decomp=decomp, kernels=kernels)
    else:
        pre = make_preconditioner(precond, config.stencil, decomp=decomp,
                                  kernels=kernels)
    return DistributedContext(config.stencil, pre, vm, kernels=kernels)


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
