"""Unit tests for FIFO resources, ported resources, and semaphores."""

import pytest

from repro.sim import (
    CountingSemaphore,
    Delay,
    Engine,
    PortedResource,
    Resource,
    SimulationError,
)


def test_single_job_completes_after_duration():
    eng = Engine()
    cpu = Resource(eng, "cpu")
    resumed = []

    def proc():
        yield cpu.use(100)
        resumed.append(eng.now)

    done = eng.spawn(proc())
    eng.run()
    assert done.resolved
    assert resumed == [100]
    assert eng.now == 100
    assert cpu.busy_ns == 100
    assert cpu.jobs == 1


def test_jobs_queue_fifo():
    eng = Engine()
    cpu = Resource(eng, "cpu")
    finish_times = []

    def submit():
        for dur in (100, 50, 25):
            finish = cpu.occupy_end(dur)
            eng.complete_at(finish, lambda: finish_times.append(eng.now), ())
        yield Delay(0)

    eng.spawn(submit())
    eng.run()
    assert finish_times == [100, 150, 175]


def test_job_submitted_later_starts_when_free():
    eng = Engine()
    cpu = Resource(eng, "cpu")
    results = []

    def job(at, dur):
        yield Delay(at)
        yield cpu.use(dur)
        results.append(eng.now)

    eng.spawn(job(0, 100))
    # Submitted at t=30 while the first job runs: starts at 100.
    eng.spawn(job(30, 10))
    eng.run()
    assert results == [100, 110]


def test_idle_gap_not_counted_busy():
    eng = Engine()
    cpu = Resource(eng, "cpu")
    cpu.occupy_end(10)
    eng.call_at(100, lambda: cpu.occupy_end(10))
    eng.run()
    assert cpu.busy_ns == 20
    assert cpu.free_at == 110
    assert cpu.utilization(110) == pytest.approx(20 / 110)


def test_occupy_charges_without_future():
    eng = Engine()
    cpu = Resource(eng, "cpu")
    assert cpu.occupy_end(40) == 40
    eng.run()
    assert eng.events_dispatched == 0     # no completion event scheduled
    assert cpu.free_at == 40

    def proc():
        yield cpu.use(10)

    done = eng.spawn(proc())
    eng.run()
    assert done.resolved
    assert eng.now == 50


def test_completion_hops_behind_same_instant_events():
    # complete_at takes two (time, seq) slots: the continuation runs after
    # an event scheduled for the finish instant once the job was submitted.
    eng = Engine()
    cpu = Resource(eng, "cpu")
    order = []
    eng.complete_at(cpu.occupy_end(10), order.append, ("job",))
    eng.call_at(10, order.append, "timer")
    eng.run()
    assert order == ["timer", "job"]
    assert eng.events_dispatched == 3


def test_negative_duration_rejected():
    eng = Engine()
    cpu = Resource(eng, "cpu")
    with pytest.raises(SimulationError):
        cpu.occupy_end(-5)

    def proc():
        yield cpu.use(-1)

    eng.spawn(proc())
    with pytest.raises(SimulationError):
        eng.run()
    assert cpu.busy_ns == 0 and cpu.jobs == 0


def test_ported_single_job_serves_at_release():
    eng = Engine()
    ports = PortedResource(eng, 2)
    start, finish = ports.serve_at(0, 30, 10)
    assert (start, finish) == (30, 40)
    assert ports.free_at(0) == 40
    assert ports.busy_ns == [10, 0]
    assert ports.wait_ns == [0, 0]


def test_ported_jobs_queue_fifo_per_port():
    # Two jobs racing for port 0: the second starts when the first
    # finishes, and its wait is exactly the overlap.
    eng = Engine()
    ports = PortedResource(eng, 2)
    s0, f0 = ports.serve_at(0, 10, 100)
    s1, f1 = ports.serve_at(0, 40, 50)
    assert (s0, f0) == (10, 110)
    assert (s1, f1) == (110, 160)
    assert ports.wait_ns[0] == 70
    assert ports.jobs[0] == 2


def test_ported_ports_are_independent():
    eng = Engine()
    ports = PortedResource(eng, 2)
    ports.serve_at(0, 0, 100)
    s1, _f1 = ports.serve_at(1, 0, 100)
    assert s1 == 0                        # no cross-port interference
    assert ports.wait_ns == [0, 0]


def test_ported_submission_order_wins_over_release_order():
    # FIFO arbitration is engine-event (submission) order: a job
    # submitted second never overtakes, even with an earlier release.
    eng = Engine()
    ports = PortedResource(eng, 1)
    ports.serve_at(0, 50, 10)
    s1, _f1 = ports.serve_at(0, 0, 10)
    assert s1 == 60
    assert ports.wait_ns[0] == 60


def test_ported_free_at_tracks_clock_and_backlog():
    eng = Engine()
    ports = PortedResource(eng, 1)
    assert ports.free_at(0) == 0
    ports.serve_at(0, 0, 25)
    assert ports.free_at(0) == 25
    eng.call_at(100, lambda: None)
    eng.run()
    assert ports.free_at(0) == 100        # never in the past


def test_ported_invalid_submissions_rejected():
    eng = Engine()
    with pytest.raises(SimulationError):
        PortedResource(eng, 0)
    ports = PortedResource(eng, 1)
    with pytest.raises(SimulationError):
        ports.serve_at(0, 0, -1)
    eng.call_at(10, lambda: None)
    eng.run()
    with pytest.raises(SimulationError):
        ports.serve_at(0, 5, 1)           # release in the past


def test_semaphore_wait_satisfied_by_later_posts():
    eng = Engine()
    sema = CountingSemaphore(eng, "arrivals")
    fut = sema.wait_for(3)
    for t in (10, 20, 30):
        eng.call_at(t, sema.post)
    eng.run()
    assert fut.resolved
    assert eng.now == 30
    assert sema.count == 0


def test_semaphore_wait_already_satisfied():
    eng = Engine()
    sema = CountingSemaphore(eng)
    sema.post(5)
    fut = sema.wait_for(3)
    assert fut.resolved
    assert sema.count == 2  # threshold consumed, surplus kept


def test_semaphore_wait_for_zero_resolves_immediately():
    eng = Engine()
    sema = CountingSemaphore(eng)
    fut = sema.wait_for(0)
    assert fut.resolved


def test_semaphore_reusable_across_phases():
    eng = Engine()
    sema = CountingSemaphore(eng)
    sema.post(2)
    f1 = sema.wait_for(2)
    assert f1.resolved
    f2 = sema.wait_for(1)
    assert not f2.resolved
    sema.post()
    assert f2.resolved


def test_semaphore_second_waiter_rejected():
    eng = Engine()
    sema = CountingSemaphore(eng)
    sema.wait_for(1)
    with pytest.raises(SimulationError):
        sema.wait_for(1)


def test_semaphore_negative_post_rejected():
    eng = Engine()
    sema = CountingSemaphore(eng)
    with pytest.raises(SimulationError):
        sema.post(-1)
