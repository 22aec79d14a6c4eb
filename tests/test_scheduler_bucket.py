"""The bucket-queue scheduler against the heap oracle; controller semantics.

The bucket queue is the scheduler's only event queue, and it may be so only
because it is *invisible*: for every registered delay model and fault plan,
with or without a schedule controller, a run must produce the trace (same
fingerprint) and the schedule decisions of the same run on the binary-heap
reference :class:`repro.sim.reference.HeapScheduler`.  These tests pin that
equivalence, the timer cancel / re-arm semantics on both schedulers, and the
clock a controller-injected recovery runs at.
"""

from __future__ import annotations

from contextlib import nullcontext

import pytest

from conftest import heap_oracle
from repro.db import ClusterConfig, run_cluster
from repro.env import Process
from repro.exp.registry import (
    NamedDelayFactory,
    NamedFaultFactory,
    delay_model_names,
    fault_plan_names,
)
from repro.explore.schedule import ScheduleController
from repro.explore.strategies import STRATEGIES, make_strategy
from repro.protocols import INBAC, TwoPhaseCommit
from repro.sim.events import TimerEvent
from repro.sim.network import FixedDelay
from repro.sim.reference import HeapScheduler
from repro.sim.runner import Scheduler, Simulation
from repro.workloads.transactions import bank_transfer_workload


def _both(run):
    """``run()`` on the production scheduler, then on the heap reference."""
    production = run()
    with heap_oracle():
        reference = run()
    return production, reference


def _run_fingerprint(protocol, delay_name, fault_name, seed=7):
    sim = Simulation(
        n=4,
        f=1,
        process_class=protocol,
        delay_model=NamedDelayFactory(delay_name, {})(seed),
        fault_plan=NamedFaultFactory(fault_name, {})(),
        seed=seed,
        trace_level="full",
    )
    return sim.run(votes=[1, 1, 0, 1]).trace.fingerprint()


class _SeeScheduler(ScheduleController):
    """Records the class of every scheduler it is attached to."""

    seen: list = []

    def begin(self, scheduler):
        self.seen.append(type(scheduler))


def test_heap_oracle_routes_both_drivers_through_the_reference():
    # the batteries below are vacuous unless the swap reaches both drivers
    workload = bank_transfer_workload(num_transfers=1, num_partitions=2, seed=1)

    def run_both_drivers():
        Simulation(n=3, f=1, process_class=TwoPhaseCommit).run(
            votes=[1, 1, 1], controller=_SeeScheduler()
        )
        config = ClusterConfig(
            num_partitions=2, commit_protocol="2PC", commit_f=1,
            controller=_SeeScheduler(),
        )
        run_cluster(config, workload.transactions)

    _SeeScheduler.seen.clear()
    _both(run_both_drivers)
    assert _SeeScheduler.seen == [Scheduler, Scheduler, HeapScheduler, HeapScheduler]


class TestBucketHeapEquivalence:
    @pytest.mark.parametrize("fault_name", sorted(fault_plan_names()))
    @pytest.mark.parametrize("delay_name", sorted(delay_model_names()))
    @pytest.mark.parametrize("protocol", [TwoPhaseCommit, INBAC])
    def test_fingerprints_identical_across_queues(
        self, protocol, delay_name, fault_name
    ):
        production, reference = _both(
            lambda: _run_fingerprint(protocol, delay_name, fault_name)
        )
        assert production == reference

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equivalence_holds_across_seeds(self, seed):
        production, reference = _both(
            lambda: _run_fingerprint(INBAC, "uniform", "crash", seed=seed)
        )
        assert production == reference


#: one controller per registered strategy, plus crash-point with a rejoin;
#: the replay decisions defer, crash and rejoin so every kind applies
CONTROLLED = {
    "timestamp-order": ("timestamp-order", {}),
    "random-walk": ("random-walk", {"defer_prob": 0.3, "crash_prob": 0.05}),
    "delay-reorder": ("delay-reorder", {"k": 3, "window": 12}),
    "crash-point": ("crash-point", {"pid": 0, "point": 1}),
    "crash-point+recover": ("crash-point", {"pid": 2, "point": 0, "recover_after": 1}),
    "replay": (
        "replay",
        {"decisions": [(2, "defer", 1.6), (4, "crash", 3), (9, "recover", 3)]},
    ),
}


class TestControlledEquivalence:
    def test_battery_covers_every_registered_strategy(self):
        assert {strategy for strategy, _ in CONTROLLED.values()} == set(STRATEGIES)

    @pytest.mark.parametrize("delay_name", ["fixed", "uniform", "flaky-link"])
    @pytest.mark.parametrize("protocol", [TwoPhaseCommit, INBAC])
    @pytest.mark.parametrize("label", sorted(CONTROLLED))
    def test_decisions_and_trace_identical_to_the_heap_reference(
        self, label, protocol, delay_name
    ):
        strategy, params = CONTROLLED[label]

        def run():
            sim = Simulation(
                n=5,
                f=2,
                process_class=protocol,
                delay_model=NamedDelayFactory(delay_name, {})(3),
                seed=3,
                max_time=60.0,
            )
            trace = sim.run(
                votes=[1, 1, 1, 1, 1],
                controller=make_strategy(strategy, seed=3, **params),
            ).trace
            return trace.metadata["schedule_decisions"], trace.fingerprint()

        production, reference = _both(run)
        assert production == reference
        if label != "timestamp-order":
            # the battery must exercise decisions, not only the identity path
            decisions, _ = production
            assert decisions, f"{label} applied no decision"

    def test_controlled_cluster_run_identical_to_the_heap_reference(self):
        workload = bank_transfer_workload(num_transfers=6, num_partitions=3, seed=11)

        def run():
            config = ClusterConfig(
                num_partitions=3,
                commit_protocol="INBAC",
                commit_f=1,
                seed=11,
                max_time=4000.0,
                controller=make_strategy("crash-point", pid=2, point=2, recover_after=3),
            )
            report = run_cluster(config, workload.transactions)
            return (
                report.schedule_decisions,
                report.trace_fingerprint,
                report.recovery_events,
            )

        production, reference = _both(run)
        assert production == reference
        kinds = [kind for _, kind, _ in production[0]]
        assert kinds == ["crash", "recover"]


class _TimerSleeper(Process):
    """Arms one timer for t=5; optionally sends one message on rejoin."""

    def __init__(self, pid, n, f, env, send_on_recover=False):
        super().__init__(pid, n, f, env)
        self.send_on_recover = send_on_recover

    def on_start(self):
        self.env.set_timer(5.0, "wake")

    def on_propose(self, value):
        pass

    def on_deliver(self, src, payload):
        pass

    def on_timeout(self, name):
        pass

    def on_recover(self):
        if self.send_on_recover:
            self.send(1, "back")


class _CrashThenRecoverAtFirstTimer(ScheduleController):
    """Crash P2 at step 0; rejoin it when the first timer fires."""

    def intercept(self, scheduler, event, step):
        if step == 0:
            return ("crash", 2)
        if isinstance(event, TimerEvent) and scheduler.processes[2].crashed:
            return ("recover", 2)
        return None


class TestControllerRecoveryClock:
    """A controller-injected rejoin runs at the popped event's time.

    Regression: the controller used to be consulted before the clock moved,
    so the rejoin was stamped at the previous event's time (0.0), and a
    message sent from ``on_recover`` was scheduled in the past.
    """

    def _run(self, send_on_recover, on_reference):
        sim = Simulation(
            n=3,
            f=1,
            process_class=_TimerSleeper,
            protocol_kwargs={"send_on_recover": send_on_recover},
            delay_model=FixedDelay(0.1),
            stop_when_all_correct_decided=False,
            max_time=20.0,
        )
        with heap_oracle() if on_reference else nullcontext():
            result = sim.run(votes=[1, 1, 1], controller=_CrashThenRecoverAtFirstTimer())
        return result.trace

    @pytest.mark.parametrize("on_reference", [False, True], ids=["bucket", "heap"])
    def test_silent_rejoin_is_stamped_at_the_timer_time(self, on_reference):
        trace = self._run(send_on_recover=False, on_reference=on_reference)
        assert trace.crashes == {2: 0.0}
        assert trace.recoveries == {2: 5.0}
        assert [kind for _, kind, _ in trace.metadata["schedule_decisions"]] == [
            "crash",
            "recover",
        ]

    @pytest.mark.parametrize("on_reference", [False, True], ids=["bucket", "heap"])
    def test_rejoin_sends_at_the_timer_time(self, on_reference):
        trace = self._run(send_on_recover=True, on_reference=on_reference)
        assert trace.recoveries == {2: 5.0}
        [message] = trace.messages
        assert (message.src, message.dst) == (2, 1)
        assert message.send_time == 5.0
        assert message.recv_time == pytest.approx(5.1)
        assert message.delivered


class TestCancelTimer:
    def test_cancel_of_never_armed_timer_is_a_noop(self):
        # regression: cancelling a name that was never armed used to insert
        # a generation entry, growing the map for defensive cancellers
        scheduler = Scheduler(n=4, f=1, delay_model=FixedDelay(1.0))
        scheduler.cancel_timer(1, "never-armed")
        assert (1, "never-armed") not in scheduler._timer_generation

    def test_cancel_of_armed_timer_still_suppresses_it(self):
        fired = []

        class OneTimer(TwoPhaseCommit):
            def on_start(self):
                super().on_start()
                if self.pid == 1:
                    self.env.set_timer(2.0, "probe")
                    self.env.cancel_timer("probe")

            def timeout(self, name):
                if name == "probe":
                    fired.append(self.pid)
                super().timeout(name)

        def run():
            fired.clear()
            sim = Simulation(
                n=4,
                f=1,
                process_class=OneTimer,
                delay_model=FixedDelay(0.5),
                max_time=10.0,
                # keep running past the decision so the timer window elapses
                stop_when_all_correct_decided=False,
            )
            sim.run(votes=[1, 1, 1, 1])
            return list(fired)

        assert _both(run) == ([], [])

    def test_rearmed_timer_fires_once_on_both_queues(self):
        fired = []

        class Rearm(TwoPhaseCommit):
            def on_start(self):
                super().on_start()
                if self.pid == 1:
                    self.env.set_timer(1.0, "probe")
                    self.env.set_timer(2.0, "probe")  # supersedes the first

            def timeout(self, name):
                if name == "probe":
                    fired.append(self.env.now())
                super().timeout(name)

        def run():
            fired.clear()
            sim = Simulation(
                n=4,
                f=1,
                process_class=Rearm,
                delay_model=FixedDelay(0.2),
                max_time=10.0,
                stop_when_all_correct_decided=False,
            )
            sim.run(votes=[1, 1, 1, 1])
            return list(fired)

        assert _both(run) == ([2.0], [2.0])
