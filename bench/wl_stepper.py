"""``stepper_day``: one simulated day of MiniPOP per op.

``pop_1deg`` x0.5 (192x160), serial ChronGear + diagonal (POP's
default).  This is the path ensembles and verification run, and the
only workload whose solver reduces on every iteration: the time goes to
the matvec, ``dot_pair`` and the axpy/xpay recurrences, not to the
preconditioner.

Every op spins a *fresh* model up from rest (temperature perturbed from
the seed and the op index) and times its first ``run_days(1)``: 22
warm-started solves plus the per-step fixed cost.  Successive days of
one model would not be the same work -- the iteration count drifts down
as the gyres spin up -- so their median would depend on how many days
fitted into the window.
"""

import statistics

import numpy as np

from common import (
    CHECK_FREQ,
    OP_STREAM,
    TOL,
    WARMUP_STREAM,
    Workload,
    clock,
    digest_arrays,
    event_metrics,
    layer_metrics,
    perfmodel_metrics,
)
from wl_solve import LAYERS, wrap_solver_stack

SCALE = 0.5
#: Large enough to change every right-hand side of the day, small
#: enough to leave the model in the regime the defaults were tuned for.
PERTURBATION = 1.0e-3
WARMUP_STEPS = 2

STEP_LAYERS = {
    "barotropic.prepare": ("barotropic.prepare_s", None),
    "barotropic.finish": ("barotropic.finish_s", "barotropic.steps"),
}


class StepperWorkload(Workload):
    name = "stepper_day"
    config_base = "pop_1deg"

    def setup(self):
        from repro.grid import pop_1deg
        from repro.precond import make_preconditioner
        from repro.solvers import SerialContext, make_solver

        t0 = clock()
        self.config = pop_1deg(scale=SCALE)
        t1 = clock()
        self.pre = make_preconditioner("diagonal", self.config.stencil)
        t2 = clock()
        self.ctx = SerialContext(self.config.stencil, self.pre)
        self.solver = make_solver("chrongear", self.ctx, tol=TOL,
                                  check_freq=CHECK_FREQ)
        self.setup_layers = {"grid.build_s": t1 - t0,
                             "precond.setup_s": t2 - t1}
        if not self.smoke:
            model = self._model(WARMUP_STREAM, 0)
            for _ in range(WARMUP_STEPS):
                model.step()

    def _model(self, stream, index):
        from repro.barotropic import MiniPOP

        model = MiniPOP(self.config, self.solver)
        # One integer seed per (run seed, stream, op), drawn the same
        # way the RHS generators are.
        model_seed = int(np.random.SeedSequence(
            [self.seed, stream, index]).generate_state(1)[0])
        return model.perturb_temperature(magnitude=PERTURBATION,
                                         seed=model_seed)

    def make_inputs(self, index):
        return self._model(OP_STREAM, index)

    def digest(self, model):
        return digest_arrays(model.state.temperature)

    def run_op(self, model):
        if self.tracer is not None:
            self.tracer.wrap(model, "begin_step", "barotropic.prepare",
                             name="model.begin_step")
            self.tracer.wrap(model, "finish_step", "barotropic.finish",
                             name="model.finish_step")
        before = self.ctx.ledger.snapshot()
        model.run_days(1)
        return model, self.ctx.ledger.since(before)

    def check(self, _inputs, output):
        model = output[0]
        problems = []
        if not all(s.converged for s in model.stepper.history):
            problems.append("a step's solve did not converge")
        if not np.all(np.isfinite(model.state.eta)):
            problems.append("non-finite SSH")
        return problems

    def summarize(self, output):
        model, events = output
        return {"iterations": [s.iterations for s in model.stepper.history],
                "events": events}

    def install_wrappers(self, tracer):
        super().install_wrappers(tracer)
        wrap_solver_stack(tracer, self.solver, self.ctx, self.pre)

    def describe(self):
        return {"config": self.config.describe(), "solver": "chrongear",
                "precond": self.pre.name, "engine": "serial",
                "perturbation": PERTURBATION}

    def per_layer(self, log, tracer):
        ops = tracer.op_ids()
        out = dict(self.setup_layers)
        out.update(layer_metrics(tracer, ops, {**LAYERS, **STEP_LAYERS}))
        solve_s = []
        for op in ops:
            spans = tracer.indices(name="solver.solve", op=op)
            solve_s.append(sum(tracer.duration(i) for i in spans))
        traced = log.samples(traced=True)
        out["barotropic.solve_s"] = statistics.median(solve_s)
        if traced:
            out["barotropic.nonsolver_frac"] = (
                1.0 - statistics.median(solve_s) / statistics.median(traced))
        out["trace.solve_span_s"] = out["barotropic.solve_s"]
        layer_sum = sum(out[seconds] for seconds, _calls in LAYERS.values())
        out["trace.layer_sum_frac"] = layer_sum / out["barotropic.solve_s"]
        # Counted events of the whole first day (its 22 solves' set-up
        # phases are kept apart from the loop phases, as in a solve).
        events = log.outputs[0]["events"]
        loop = {k: v for k, v in events.items() if k != "setup"}
        setup = {k: v for k, v in events.items() if k == "setup"}
        out.update(event_metrics(loop, setup))
        out.update(perfmodel_metrics(self.config, self.config_base,
                                     loop, None, per_day=1))
        return out
