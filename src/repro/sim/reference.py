"""The binary-heap scheduler: the oracle the bucket queue is checked against.

:class:`HeapScheduler` is the simulator's original event loop.  Every event,
deliveries and timers included, is a full :class:`~repro.sim.events.Event` on
a binary heap keyed by ``(time, priority, seq)``, with ``seq`` a counter
assigned at push time — the total order the production
:class:`~repro.sim.runner.Scheduler` must reproduce on its
:class:`~repro.sim.batch.BucketQueue`.  It is kept for two readers only:

* the equivalence batteries (``tests/test_scheduler_bucket.py`` and the
  hypothesis property in ``tests/test_property_based.py``), which assert that
  production and reference produce byte-identical traces and schedule
  decisions;
* ``benchmarks/bench_sweep_throughput.py``, whose ``legacy`` and
  ``counters+heap`` variants use it as their heap baseline.

Nothing in the library builds it and the package does not export it.  The
protocol and cluster drivers look ``Scheduler`` up by name in
:mod:`repro.sim.runner` and :mod:`repro.db.cluster`, so a test routes a whole
run through the oracle by patching those names.
"""

from __future__ import annotations

import heapq
from typing import Any, List

from repro.errors import SimulationError
from repro.sim.events import (
    PRIORITY_DELIVERY,
    PRIORITY_TIMER,
    Event,
    MessageDeliveryEvent,
    TimerEvent,
)
from repro.sim.runner import Scheduler
from repro.sim.trace import Trace


class HeapScheduler(Scheduler):
    """:class:`~repro.sim.runner.Scheduler` on a binary heap of Event objects."""

    def __init__(self, *args: Any, **kwargs: Any):
        # the base constructor already pushes the fault plan's crashes
        self._heap: List[tuple] = []
        super().__init__(*args, **kwargs)

    def _push(self, event: Event) -> None:
        heapq.heappush(self._heap, (event.sort_key(), event))

    def post_message(self, src: int, dst: int, payload: Any, module: str = "main") -> None:
        if dst < 1 or dst > self.n:
            raise SimulationError(f"message to unknown process P{dst}")
        send_time = self.clock.now
        self._msg_counter += 1
        msg_id = self._msg_counter
        if src == dst:
            recv_time = send_time
            counted = False
        else:
            sampler = self._delay_sampler
            if sampler is not None and not self.network._overrides:
                delay = sampler.next_delay()
            else:
                delay = self.network.transit_delay(src, dst, payload, send_time, msg_id)
            recv_time = send_time + delay
            counted = True
        record = self.trace.record_send(
            msg_id, src, dst, payload, send_time, recv_time, counted, module
        )
        if record is not None:
            self._pending_records[msg_id] = record
        self._push(
            MessageDeliveryEvent(
                time=recv_time,
                priority=PRIORITY_DELIVERY,
                seq=self._next_seq(),
                src=src,
                dst=dst,
                payload=payload,
                send_time=send_time,
                msg_id=msg_id,
            )
        )

    def set_timer(self, pid: int, at_units: float, name: str) -> None:
        key = (pid, name)
        generation = self._timer_generation.get(key, 0) + 1
        self._timer_generation[key] = generation
        self._push(
            TimerEvent(
                time=max(self.clock.now, self.clock.units_to_time(at_units)),
                priority=PRIORITY_TIMER,
                seq=self._next_seq(),
                pid=pid,
                name=name,
                generation=generation,
            )
        )

    def run(self) -> Trace:
        if self._controller is not None and not self._controller_began:
            self._controller_began = True
            begin = getattr(self._controller, "begin", None)
            if begin is not None:
                begin(self)
        while self._heap:
            _, event = heapq.heappop(self._heap)
            if event.time > self.max_time:
                break
            self.clock.advance_to(event.time)
            if self._controller is not None and not self._consult_controller(event):
                continue  # deferred: back on the heap at a later time
            self._dispatch(event)
            if self._stopped:
                break
            if self._correct_pids is not None and self._undecided_correct == 0:
                break
            if self._stop_predicate is not None and self._stop_predicate(self):
                break
        self.trace.end_time = self.clock.time_to_units(self.clock.now)
        return self.trace
