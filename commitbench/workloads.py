"""The benchmark's three workloads: inputs from a seed, one timed round each.

A *round* runs the workload's whole fixed input once: a sweep round is one
``run_sweep`` call over the grid, a kv round boots a fresh service and pushes
every transaction through it.  A run repeats rounds until its time budget is
spent and reports medians over rounds, so a faster program runs more rounds
of the same input instead of a different input.  Why each workload exists is
in ``WORKLOADS.md`` beside this file.
"""

from __future__ import annotations

import asyncio
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

import checks

#: simulated trials per sweep round, per grid cell
SYNC_SEEDS_PER_ROUND = 8
GRID_SEEDS_PER_ROUND = 8
#: kv-live: transactions per round, client sessions, U, and the wall-clock
#: deadline after which a submit counts as failed
KV_TXNS_PER_ROUND = 2000
KV_SESSIONS = 2
KV_PARTITIONS = 4
KV_UNIT_S = 10e-6
KV_DEADLINE_S = 2.0


@dataclass
class Round:
    """What one round measured and whether its outputs were right."""

    wall_s: float
    attempted: int
    failed: int
    #: per-operation wall times (kv: submit to outcome; failures at the deadline)
    latencies_s: List[float] = field(default_factory=list)
    fingerprint: Optional[str] = None
    failures: List[str] = field(default_factory=list)
    #: kv: counted messages and aborted transactions, from the cluster report
    messages: int = 0
    aborted: int = 0
    #: seconds the speed kernel took around this round (``speed.probe``)
    probe_s: float = 0.0

    @property
    def completed(self) -> int:
        return self.attempted - self.failed


def _fresh_caches() -> None:
    """Empty the module-global memos a fresh process starts without.

    Every round must pay what a user's sweep pays, so the per-process cell
    memo and INBAC's ack-analysis memo never carry over between rounds.
    """
    from repro.exp import engine
    from repro.protocols import inbac

    engine._LAST_RUNTIME = None
    inbac._ACK_MEMO.clear()


# ---------------------------------------------------------------------- #
# the sweeps
# ---------------------------------------------------------------------- #
class SweepWorkload:
    kind = "sweep"

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        self.workers = 1

    def setup(self) -> None:
        from repro.exp import GridSpec

        seeds = [self.seed * 1000 + i for i in range(self.seeds_per_round)]
        self.trials = GridSpec(seeds=seeds, **self.grid_axes()).trials()

    def run_round(self) -> Round:
        from repro.exp import run_sweep

        _fresh_caches()
        start = time.perf_counter()
        aggregate = run_sweep(self.trials, workers=self.workers, mode="aggregate")
        wall = time.perf_counter() - start
        return Round(
            wall_s=wall,
            attempted=aggregate.total_trials,
            failed=aggregate.error_count,
            fingerprint=aggregate.aggregate_fingerprint(),
            failures=self.check(aggregate),
        )


class InbacSync(SweepWorkload):
    """INBAC, n=200, f=40, FixedDelay(1), all-yes, failure-free, serial."""

    seeds_per_round = SYNC_SEEDS_PER_ROUND

    def grid_axes(self) -> Dict[str, Any]:
        return dict(
            protocols=["INBAC"],
            systems=[(200, 40)],
            delays=["fixed"],
            faults=["failure-free"],
            votes=["all-yes"],
        )

    def check(self, aggregate) -> List[str]:
        return checks.check_sync_rows(aggregate.aggregate_rows(), "INBAC", 200, 40)


class GridFaults(SweepWorkload):
    """Four protocols at n=20 under three delay models, crashes and no-votes."""

    seeds_per_round = GRID_SEEDS_PER_ROUND

    def __init__(self, name: str, seed: int):
        super().__init__(name, seed)
        # two pool workers, never more than the machine has processors
        self.workers = max(1, min(2, os.cpu_count() or 1))

    def grid_axes(self) -> Dict[str, Any]:
        return dict(
            protocols=["INBAC", "2PC", "3PC", "PaxosCommit"],
            systems=[(20, 4)],
            delays=["uniform", "lognormal", "flaky-link"],
            faults=["failure-free", ("crash(at=1.0)", "crash", {"at": 1.0})],
            votes=["all-yes", "mixed:0.1"],
        )

    def check(self, aggregate) -> List[str]:
        return checks.check_grid(aggregate)


# ---------------------------------------------------------------------- #
# the live KV cluster
# ---------------------------------------------------------------------- #
class KvLive:
    """INBAC commits on the asyncio KV service, two closed-loop sessions."""

    kind = "kv"

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        self.workers = 1
        #: called once the service is up and again once the last reply is in,
        #: so a traced run can keep exactly the timed window's spans
        self.on_window: Callable[[str], None] = lambda edge: None
        #: when set, a loop-lag probe runs through the timed window
        self.lag_samples: Optional[List[float]] = None

    def setup(self) -> None:
        from repro.workloads.transactions import bank_transfer_workload

        self.transactions = bank_transfer_workload(
            num_transfers=KV_TXNS_PER_ROUND,
            num_partitions=KV_PARTITIONS,
            seed=self.seed,
        ).transactions

    async def boot(self):
        from repro.db.cluster import ClusterConfig
        from repro.runtime import AsyncClusterService

        service = AsyncClusterService(
            ClusterConfig(
                num_partitions=KV_PARTITIONS, commit_protocol="INBAC", seed=self.seed
            ),
            unit=KV_UNIT_S,
        )
        await service.start()
        return service

    def run_round(self) -> Round:
        return asyncio.run(self._round())

    async def _round(self) -> Round:
        from repro.protocols.base import COMMIT

        service = await self.boot()
        budget_units = KV_DEADLINE_S / KV_UNIT_S
        latencies: List[float] = []
        failed = [0]

        async def session(share):
            for txn in share:
                start = time.perf_counter()
                outcome = await service.submit(txn, timeout_units=budget_units)
                elapsed = time.perf_counter() - start
                if outcome is None:
                    failed[0] += 1
                    elapsed = max(elapsed, KV_DEADLINE_S)
                latencies.append(elapsed)

        probe = None
        if self.lag_samples is not None:
            from ledger import loop_lag_probe

            probe = asyncio.get_running_loop().create_task(
                loop_lag_probe(self.lag_samples)
            )
        self.on_window("start")
        start = time.perf_counter()
        await asyncio.gather(
            *(session(self.transactions[i::KV_SESSIONS]) for i in range(KV_SESSIONS))
        )
        wall = time.perf_counter() - start
        self.on_window("end")
        if probe is not None:
            probe.cancel()
            try:
                await probe
            except asyncio.CancelledError:
                pass
        report = await service.shutdown()
        decisions = [o.decision for o in report.outcomes if o.decision is not None]
        return Round(
            wall_s=wall,
            attempted=len(self.transactions),
            failed=failed[0],
            latencies_s=latencies,
            failures=checks.check_kv(report, len(self.transactions), failed[0]),
            messages=report.messages_total,
            aborted=sum(1 for d in decisions if d != COMMIT),
        )


WORKLOADS = {
    "inbac-n200-sync": InbacSync,
    "grid-n20-faults": GridFaults,
    "kv-live-inbac": KvLive,
}


def make(name: str, seed: int):
    return WORKLOADS[name](name, seed)
