"""Tests for the legacy port check and the strategy-comparison extension."""

import numpy as np
import pytest

from repro.barotropic import MiniPOP
from repro.core.errors import ConfigurationError
from repro.grid import test_config as make_test_config
from repro.precond import make_preconditioner
from repro.solvers import ChronGearSolver, SerialContext
from repro.verification import generate_reference, port_check


def _model(tol=1e-13, seed=11):
    cfg = make_test_config(16, 24, seed=seed, dt=10800.0)
    pre = make_preconditioner("diagonal", cfg.stencil)
    solver = ChronGearSolver(SerialContext(cfg.stencil, pre), tol=tol,
                             max_iterations=4000, raise_on_failure=False)
    return MiniPOP(cfg, solver), cfg


class TestPortCheck:
    def test_identical_run_passes(self):
        ref_model, cfg = _model()
        reference = generate_reference(ref_model, days=3)
        candidate, _ = _model()
        report = port_check(candidate, reference, cfg.mask,
                            threshold=1e-12, days=3)
        assert report.passed
        assert "PASS" in report.describe()

    def test_grossly_wrong_run_fails(self):
        ref_model, cfg = _model()
        reference = generate_reference(ref_model, days=3)
        candidate, _ = _model()
        # big *non-uniform* perturbation (a uniform one is projected out
        # by per-basin mass conservation)
        rng = np.random.default_rng(3)
        candidate.state.temperature += \
            rng.standard_normal(cfg.shape) * cfg.mask
        report = port_check(candidate, reference, cfg.mask,
                            threshold=1e-12, days=3)
        assert not report.passed

    def test_insufficiency_for_solver_changes(self):
        """The paper's point: a loosened solver passes a threshold sized
        for its own five-day footprint -- the check carries no
        information about climate consistency."""
        ref_model, cfg = _model()
        reference = generate_reference(ref_model, days=3)
        loose, _ = _model(tol=1e-8)
        report = port_check(loose, reference, cfg.mask,
                            threshold=1e-5, days=3)
        assert report.passed  # and yet fig13 flags this case

    def test_invalid_days(self):
        model, cfg = _model()
        with pytest.raises(ConfigurationError):
            port_check(model, np.zeros(cfg.shape), cfg.mask, days=0)


class TestStrategyExtension:
    def test_strategy_comparison_shape(self):
        from repro.experiments import ext_solver_strategies

        result = ext_solver_strategies.run(
            scale=0.125, cores=(470, 16875), precond="diagonal")
        fuse = result.series_by_label("fuse (ChronGear)").y
        overlap = result.series_by_label("overlap (PipeCG)").y
        eliminate = result.series_by_label("eliminate (P-CSI)").y
        # At the top core count: overlap <= fuse, eliminate is best.
        assert overlap[-1] <= fuse[-1] * 1.02
        assert eliminate[-1] < overlap[-1]
        assert result.notes["eliminate beats overlap at max cores"]
