"""Tests of the benchmark harness itself.

Run with ``python -m pytest bench/ -q`` from the repository root (not
part of the tier-1 suite: ``pyproject.toml`` points pytest at
``tests/`` only).
"""

import socket
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from common import digest_arrays, run_ops  # noqa: E402
from stats import percentile, spread, tail_percentile  # noqa: E402
from tracer import Tracer  # noqa: E402
from wl_service import ServiceWorkload  # noqa: E402
from wl_solve import SolveWorkload  # noqa: E402


class FakeClock:
    """Advances only when told to, so span arithmetic is exact."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class Layered:
    def __init__(self, clock):
        self.clock = clock

    def outer(self):
        self.clock.now += 1.0
        self.inner()
        self.inner()
        self.clock.now += 2.0

    def inner(self):
        self.clock.now += 10.0

    def failing(self):
        self.clock.now += 3.0
        self.inner()
        raise ValueError("boom")


# -- tracer --------------------------------------------------------------
def test_self_time_is_duration_minus_children():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    obj = Layered(clock)
    tracer.wrap(obj, "outer", "a")
    tracer.wrap(obj, "inner", "b")
    obj.outer()
    (outer,) = tracer.indices(name="Layered.outer")
    inners = tracer.indices(name="Layered.inner")
    assert tracer.duration(outer) == 23.0
    assert tracer.self_time(outer) == 3.0
    assert [tracer.parents[i] for i in inners] == [outer, outer]
    assert tracer.layer_totals() == {"a": (3.0, 1), "b": (20.0, 2)}


def test_span_closes_when_the_wrapped_call_raises():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    obj = Layered(clock)
    tracer.wrap(obj, "failing", "a")
    tracer.wrap(obj, "inner", "b")
    with pytest.raises(ValueError):
        obj.failing()
    (failing,) = tracer.indices(name="Layered.failing")
    assert tracer.duration(failing) == 13.0
    assert tracer.self_time(failing) == 3.0
    # The stack unwound: the next span is a root again.
    obj.inner()
    assert tracer.parents[tracer.indices(name="Layered.inner")[-1]] == -1


def test_unwrap_restores_the_class_methods():
    tracer = Tracer()
    obj = Layered(FakeClock())
    tracer.wrap(obj, "inner", "b")
    with pytest.raises(RuntimeError):
        tracer.wrap(obj, "inner", "b")
    tracer.unwrap_all()
    assert "inner" not in vars(obj)
    assert obj.inner.__func__ is Layered.inner


# -- statistics ----------------------------------------------------------
def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(19) is None
    assert tail_percentile(20) == 50
    assert tail_percentile(100) == 90
    assert tail_percentile(1000) == 99
    for n in (20, 37, 100, 250):
        pct = tail_percentile(n)
        values = list(range(n))
        beyond = sum(v > percentile(values, pct) for v in values)
        assert beyond >= 10


def test_spread_is_quartile_distance_over_median():
    assert spread([10.0] * 10) == 0.0
    assert spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx((4.5 - 1.5) / 3)


# -- workloads on a small grid -------------------------------------------
@pytest.fixture
def small_config():
    from repro.grid import test_config

    return test_config(48, 64, seed=7)


def small_workload(name, seed, tmp_path, config):
    workload = SolveWorkload(name, seed, tmp_path, config=config)
    workload.setup()
    return workload


def test_same_seed_same_inputs_other_seed_other_inputs(tmp_path,
                                                       small_config):
    def digests(seed):
        workload = SolveWorkload("serial_pcsi_evp", seed, tmp_path,
                                 smoke=True, config=small_config)
        workload.setup()
        return [workload.digest(workload.make_inputs(i)) for i in range(3)]

    assert digests(5) == digests(5)
    assert len(set(digests(5))) == 3
    assert not set(digests(5)) & set(digests(6))

    def request_digests(seed):
        service = ServiceWorkload(seed, tmp_path)
        service.prepare_requests()
        return [digest_arrays(service.request_for(c, i)[1])
                for c in range(2) for i in range(4)]

    assert request_digests(5) == request_digests(5)
    assert request_digests(5) != request_digests(6)
    # Every fourth request repeats one of the other client's.
    repeats = request_digests(5)
    assert repeats[3] == repeats[4 + 1] and repeats[4 + 3] == repeats[1]


@pytest.mark.parametrize("name", ["serial_pcsi_evp", "dist_land_pcsi_evp",
                                  "dist_batched_guarded"])
def test_traced_solve_equals_untraced(name, tmp_path, small_config):
    workload = small_workload(name, 3, tmp_path, small_config)
    b = workload.make_inputs(0)
    bare = workload.run_op(b)
    tracer = Tracer()
    workload.install_wrappers(tracer)
    try:
        traced = workload.run_op(b)
    finally:
        workload.remove_wrappers(tracer)
    assert np.array_equal(bare.x, traced.x)
    assert bare.iterations == traced.iterations
    assert bare.events == traced.events
    assert bare.setup_events == traced.setup_events
    assert tracer.indices(name="solver.solve")
    assert tracer.indices(layer="precond.apply")


def test_wrappers_do_not_leak_between_ops(tmp_path, small_config):
    workload = small_workload("dist_batched_guarded", 3, tmp_path,
                              small_config)
    tracer = Tracer()
    log = run_ops(workload, 0.0, tracer=tracer, min_ops=4)
    assert log.failed == 0 and log.traced == [False, True, False, True]
    for obj in (workload.solver, workload.ctx, workload.pre, workload.vm):
        assert not [k for k, v in vars(obj).items() if callable(v)
                    and getattr(v, "__name__", "") == "traced"]
    assert workload.tracer is None
    # Only the odd ops left spans behind.
    assert tracer.op_ids() == [1, 3]
    assert tracer.indices(name="checkpoint.write")


def test_nan_rhs_is_a_counted_failure_not_an_abort(tmp_path, small_config):
    workload = small_workload("serial_pcsi_evp", 3, tmp_path, small_config)
    make_inputs = workload.make_inputs

    def poisoned(index):
        b = make_inputs(index)
        if index == 1:
            b[small_config.mask] = np.nan
        return b

    workload.make_inputs = poisoned
    log = run_ops(workload, 0.0, min_ops=3)
    assert (log.attempted, log.failed, len(log.durations)) == (3, 1, 2)
    assert "op 1" in log.failures[0]


def test_refused_request_is_a_counted_failure(tmp_path):
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        closed_port = sock.getsockname()[1]
    service = ServiceWorkload(3, tmp_path, smoke=True)
    service.prepare_requests()
    log = service.measure(0.0, port=closed_port)
    assert (log.attempted, log.failed, log.durations) == (2, 2, [])
    assert "client 0 request 0" in log.failures[0]
