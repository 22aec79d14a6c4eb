"""Outside-in layer ledger: spans around the public functions of each layer.

The ledger times calls into the program by replacing public functions and
methods with thin wrappers, installed only from this directory: no file of
the program changes.  Each wrapper records one span per call.  Spans nest on
one stack per process, so a span's *self time* is its duration minus the
time covered by the wrapped spans it called.  Spans are folded into
per-name totals ``[calls, total_s, self_s]`` in memory as they close (an
n=200 INBAC trial opens ~50k spans, too many to keep one by one) and are
written out only when the run ends, or, in a forked pool worker, after each
chunk of trials, so the parent can merge them after the pool is gone.

The handlers all run synchronously (the simulator's dispatch and the asyncio
node's consumer both call ``Process.deliver`` etc. between awaits), so one
stack per process is exact for both runtimes.
"""

from __future__ import annotations

import asyncio
import functools
import json
import math
import os
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional


class Ledger:
    """Per-name span totals plus plain counters, for one process."""

    def __init__(self) -> None:
        #: span name -> [calls, total_s, self_s]; lists are zeroed in place so
        #: installed wrappers keep their references
        self.spans: Dict[str, List[float]] = {}
        self.counts: Dict[str, int] = {}
        self._stack: List[List[float]] = []
        self._patches: List[tuple] = []

    # ------------------------------------------------------------------ #
    # installing and removing wrappers
    # ------------------------------------------------------------------ #
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        after: Optional[Callable[[tuple, Any], None]] = None,
    ) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper named ``name``.

        ``after(args, result)`` runs once the call returned, outside the
        span's timed interval.
        """
        original = owner.__dict__[attr]
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def unwrap_all(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------ #
    # reading totals
    # ------------------------------------------------------------------ #
    def count(self, name: str) -> None:
        self.counts[name] = self.counts.get(name, 0) + 1

    def snapshot(self) -> Dict[str, Any]:
        return {
            "spans": {name: list(stats) for name, stats in self.spans.items()},
            "counts": dict(self.counts),
        }

    def reset(self) -> None:
        for stats in self.spans.values():
            stats[0] = 0
            stats[1] = 0.0
            stats[2] = 0.0
        self.counts.clear()
        self._stack.clear()

    def take(self) -> Dict[str, Any]:
        """The totals since the last take/reset, then zero them."""
        snap = self.snapshot()
        self.reset()
        return snap


def merge_snapshots(snaps: List[Dict[str, Any]]) -> Dict[str, Any]:
    spans: Dict[str, List[float]] = {}
    counts: Dict[str, int] = {}
    for snap in snaps:
        for name, stats in snap["spans"].items():
            mine = spans.setdefault(name, [0, 0.0, 0.0])
            for i in range(3):
                mine[i] += stats[i]
        for name, value in snap["counts"].items():
            counts[name] = counts.get(name, 0) + value
    return {"spans": spans, "counts": counts}


# ---------------------------------------------------------------------- #
# per-layer installation
# ---------------------------------------------------------------------- #
def _process_classes() -> list:
    from repro.env import Process
    import repro.protocols.registry  # noqa: F401  (imports every protocol)
    import repro.db.partition  # noqa: F401
    import repro.db.coordinator  # noqa: F401

    seen, todo = [], [Process]
    while todo:
        cls = todo.pop()
        if cls not in seen:
            seen.append(cls)
            todo.extend(cls.__subclasses__())
    return seen


def _wrap_handlers(ledger: Ledger, prefix: str, after=None) -> None:
    """Process.deliver / timeout and every on_propose override."""
    from repro.env import Process

    ledger.wrap(Process, "deliver", f"{prefix}.deliver", after)
    ledger.wrap(Process, "timeout", f"{prefix}.timeout", after)
    for cls in _process_classes():
        if "on_propose" in cls.__dict__:
            ledger.wrap(cls, "on_propose", f"{prefix}.on_propose", after)


def install_sweep(ledger: Ledger, spill_dir: Path) -> None:
    """Wrap the sim, protocols, exp and core layers for a sweep workload.

    Forked pool workers inherit the wrappers; each resets its copy of the
    totals at fork and writes them to ``spill_dir`` after every chunk.
    """
    from repro.exp import engine
    from repro.exp.results import SweepAggregate
    from repro.sim.batch import BatchedDelaySampler
    from repro.sim.network import Network
    from repro.sim.runner import Scheduler, Simulation
    from repro.sim.trace import CounterTrace, Trace

    # distinct simulated timestamps among dispatched events; a trial's end
    # forgets the last one, since the next trial's clock starts again at 0
    last_time = [None]

    def count_timestamp(args, result):
        now = args[0].env.now()
        if now != last_time[0]:
            last_time[0] = now
            ledger.count("sim.timestamps")

    def end_of_trial(args, result):
        last_time[0] = None

    ledger.wrap(Scheduler, "run", "Scheduler.run", end_of_trial)
    ledger.wrap(Scheduler, "post_message", "Scheduler.post_message")
    ledger.wrap(Network, "transit_delay", "Network.transit_delay")
    ledger.wrap(BatchedDelaySampler, "next_delay", "BatchedDelaySampler.next_delay")
    for cls in (Trace, CounterTrace):
        for attr in sorted(cls.__dict__):
            if attr.startswith("record_"):
                ledger.wrap(cls, attr, "trace.record")
    ledger.wrap(Simulation, "run", "Simulation.run")
    _wrap_handlers(ledger, "handler", count_timestamp)
    ledger.wrap(engine, "run_trial", "run_trial")
    ledger.wrap(engine, "check_nbac", "check_nbac")
    ledger.wrap(SweepAggregate, "merge", "SweepAggregate.merge")
    ledger.wrap(SweepAggregate, "fold", "SweepAggregate.fold")

    parent = os.getpid()

    def spill(args, result):
        if os.getpid() != parent:
            path = spill_dir / f"worker-{os.getpid()}.json"
            tmp = path.with_suffix(".tmp")
            tmp.write_text(json.dumps(ledger.snapshot()))
            os.replace(tmp, path)

    ledger.wrap(engine, "_run_chunk", "exp.chunk", spill)
    ledger.wrap(engine, "_run_index", "exp.index", spill)
    os.register_at_fork(after_in_child=ledger.reset)


def collect_spills(spill_dir: Path) -> List[Dict[str, Any]]:
    """Read and remove the worker spill files of the pools that have ended."""
    snaps = []
    for path in sorted(spill_dir.glob("worker-*.json")):
        snaps.append(json.loads(path.read_text()))
        path.unlink()
    return snaps


def install_kv(ledger: Ledger) -> None:
    """Wrap the runtime and db layers for the live KV workload."""
    from repro.db.coordinator import ClientCoordinator
    from repro.db.locks import LockManager
    from repro.db.wal import WriteAheadLog
    from repro.runtime.runtime import AsyncRuntime
    from repro.runtime.transport import LocalTransport

    ledger.wrap(LocalTransport, "send", "LocalTransport.send")
    ledger.wrap(AsyncRuntime, "set_timer", "AsyncRuntime.set_timer")
    _wrap_handlers(ledger, "handler")
    ledger.wrap(ClientCoordinator, "submit_transaction", "handler.submit")
    for attr in (
        "records", "records_for", "transaction_ids", "outcome_of",
        "prepare_record_of", "in_doubt", "replay",
    ):
        ledger.wrap(WriteAheadLog, attr, "wal.read")
    ledger.wrap(WriteAheadLog, "append", "wal.append")

    def conflicts(args, granted):
        if not granted:
            ledger.count("locks.conflicts")

    ledger.wrap(LockManager, "try_acquire_all", "locks.acquire_all", conflicts)
    for attr in ("try_acquire", "release", "release_all"):
        ledger.wrap(LockManager, attr, "locks")


async def loop_lag_probe(samples: List[float], interval: float = 0.001) -> None:
    """Append how late each ``interval`` sleep wakes, in seconds, until cancelled."""
    loop = asyncio.get_running_loop()
    while True:
        due = loop.time() + interval
        await asyncio.sleep(interval)
        samples.append(loop.time() - due)


# ---------------------------------------------------------------------- #
# from span totals to the per-layer metrics
# ---------------------------------------------------------------------- #
HANDLERS = ("handler.deliver", "handler.timeout", "handler.on_propose", "handler.submit")
CALLS, TOTAL, SELF = 0, 1, 2


def _sum(snap: Dict[str, Any], field: int, *names: str) -> float:
    """One field of the named spans' totals, summed (0 for spans never opened)."""
    return sum(snap["spans"].get(name, (0, 0.0, 0.0))[field] for name in names)


def sweep_layers(
    parent: Dict[str, Any],
    workers: List[Dict[str, Any]],
    rounds: int,
    n_workers: int,
    traced_wall_s: float,
) -> Dict[str, float]:
    """Per-round layer figures of a sweep (the runtime and db layers are idle)."""
    merged = merge_snapshots([parent] + workers)
    loop_s = _sum(merged, SELF, "Scheduler.run")
    events = _sum(merged, CALLS, *HANDLERS)
    timestamps = merged["counts"].get("sim.timestamps", 0)
    # trials run in the workers when there is a pool, else in this process
    trial_s = _sum(merge_snapshots(workers) if workers else parent, TOTAL, "run_trial")
    return {
        "sim.loop.self_s": loop_s / rounds,
        "sim.loop.us_per_event": 1e6 * loop_s / events if events else 0.0,
        "sim.send.self_s": _sum(merged, SELF, "Scheduler.post_message") / rounds,
        "sim.trace_s": _sum(merged, SELF, "trace.record") / rounds,
        "sim.delay_s": _sum(
            merged, SELF, "Network.transit_delay", "BatchedDelaySampler.next_delay"
        ) / rounds,
        "sim.setup_s": (
            _sum(merged, TOTAL, "Simulation.run") - _sum(merged, TOTAL, "Scheduler.run")
        ) / rounds,
        "sim.events": events / rounds,
        "sim.messages": _sum(merged, CALLS, "Scheduler.post_message") / rounds,
        "sim.timers_fired": _sum(merged, CALLS, "handler.timeout") / rounds,
        "sim.events_per_timestamp": events / timestamps if timestamps else 0.0,
        "protocols.handler.self_s": _sum(merged, SELF, *HANDLERS) / rounds,
        "protocols.handler_calls": events / rounds,
        "exp.trial.self_s": _sum(merged, SELF, "run_trial") / rounds,
        "core.check_s": _sum(merged, TOTAL, "check_nbac") / rounds,
        "exp.merge_s": _sum(
            parent, TOTAL, "SweepAggregate.merge", "SweepAggregate.fold"
        ) / rounds,
        "exp.worker_busy_frac": trial_s / (n_workers * traced_wall_s),
    }


def kv_layers(
    snap: Dict[str, Any],
    rounds: int,
    lag_samples: List[float],
    messages: int,
    completed: int,
    aborted: int,
) -> Dict[str, float]:
    """Per-round layer figures of the live KV workload (the sim is idle)."""
    attempts = _sum(snap, CALLS, "locks.acquire_all")
    conflicts = snap["counts"].get("locks.conflicts", 0)
    return {
        "runtime.transport.send_s": _sum(snap, SELF, "LocalTransport.send") / rounds,
        "runtime.transport.sends": _sum(snap, CALLS, "LocalTransport.send") / rounds,
        "runtime.handler.self_s": _sum(snap, SELF, *HANDLERS) / rounds,
        "runtime.loop.lag_ms_p99": 1e3 * percentile(sorted(lag_samples), 0.99),
        "runtime.timers_armed": _sum(snap, CALLS, "AsyncRuntime.set_timer") / rounds,
        "runtime.msgs_per_txn": messages / completed if completed else 0.0,
        "db.wal.lookup_s": _sum(snap, SELF, "wal.read") / rounds,
        "db.wal.append_s": _sum(snap, SELF, "wal.append") / rounds,
        "db.locks_s": _sum(snap, SELF, "locks", "locks.acquire_all") / rounds,
        "db.locks.conflict_ratio": conflicts / attempts if attempts else 0.0,
        "db.abort_frac": aborted / completed if completed else 0.0,
    }


def percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0.0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]
