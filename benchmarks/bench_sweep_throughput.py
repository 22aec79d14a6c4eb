"""Sweep-throughput benchmark: the fast-path simulation core, measured.

Measures trials/sec for aggregate-mode sweeps at n in {20, 100, 200} across
four core configurations:

* ``legacy`` — an emulation of the pre-fast-path core: full trace records,
  the O(messages) reversed delivery scan in ``_dispatch``, the O(n)-per-event
  all-correct-decided predicate, and per-trial result IPC.  This is the
  baseline the speedup claim is made against.
* ``full+trial`` — today's core at ``trace_level="full"`` with per-trial
  streaming folds (O(1) bookkeeping already in effect).
* ``counters+trial`` — the counters trace level, still folding per trial.
* ``counters+heap`` — the aggregate-mode configuration on the binary-heap
  reference scheduler (:class:`repro.sim.reference.HeapScheduler`),
  isolating what the bucket queue itself buys.
* ``counters+chunk`` — the aggregate-mode default: counters level, chunk
  folds, the bucket queue and batched sampling.

Every configuration must produce the *same* ``SweepAggregate`` fingerprint —
the fast path buys speed, never different bytes — and the measured rates are
written to ``BENCH_sweep_throughput.json`` as the repo's perf baseline
(``--out`` / ``REPRO_BENCH_OUT`` override the path; ``--quick`` runs the
small smoke configuration).
"""

from __future__ import annotations

import argparse
import json
import os
import time
from typing import Dict, List, Optional

from _helpers import attach_rows
from repro.analysis import render_table
from repro.exp import GridSpec, run_sweep
from repro.sim import runner as sim_runner
from repro.sim.events import MessageDeliveryEvent
from repro.sim.reference import HeapScheduler

#: (n, f, trials) per measured point — f = n/5 throughout, the resilience
#: ratio the large-scale grids sweep; INBAC's 2fn-message nice executions
#: then give each point a message volume that grows quadratically with n,
#: which is exactly the regime the legacy core's O(messages) delivery scan
#: collapsed in
FULL_CONFIGS = ((20, 4, 150), (100, 20, 16), (200, 40, 4))
QUICK_CONFIGS = ((20, 4, 40), (100, 20, 4))

#: the acceptance bar: fast path >= 2x the legacy core at n=100
HEADLINE_N = 100
MIN_HEADLINE_SPEEDUP = 2.0

DEFAULT_OUT = os.path.join(os.path.dirname(__file__), "BENCH_sweep_throughput.json")


class _LegacyScheduler(HeapScheduler):
    """The pre-fast-path event bookkeeping, reinstated for the baseline.

    Faithful to the pre-optimisation core: ``post_message`` records the
    message without any msg-id map insert, delivery marking scans
    ``trace.messages`` in reverse until it finds the record (O(messages) per
    delivery), and the all-correct-decided stop is a predicate re-evaluated
    over every correct pid on every event — exactly the costs the fast-path
    core replaced with an msg-id map and a decremented counter.
    """

    def __init__(self, *args, **kwargs):
        # the pre-fast-path core had no bucket queue or batched sampling: the
        # baseline runs on the binary-heap reference and draws every delay
        # through the network
        kwargs["trace_level"] = "full"
        super().__init__(*args, **kwargs)

    def post_message(self, src, dst, payload, module="main"):
        from repro.errors import SimulationError
        from repro.sim.events import PRIORITY_DELIVERY

        if dst < 1 or dst > self.n:
            raise SimulationError(f"message to unknown process P{dst}")
        send_time = self.clock.now
        self._msg_counter += 1
        msg_id = self._msg_counter
        if src == dst:
            recv_time = send_time
            counted = False
        else:
            delay = self.network.transit_delay(src, dst, payload, send_time, msg_id)
            recv_time = send_time + delay
            counted = True
        self.trace.record_send(
            msg_id=msg_id,
            src=src,
            dst=dst,
            payload=payload,
            send_time=send_time,
            recv_time=recv_time,
            counted=counted,
            module=module,
        )
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

    def _dispatch(self, event):
        if isinstance(event, MessageDeliveryEvent):
            process = self.processes.get(event.dst)
            if process is None or process.crashed:
                return
            for record in reversed(self.trace.messages):
                if record.msg_id == event.msg_id:
                    record.delivered = True
                    break
            process.deliver(event.src, event.payload)
            return
        super()._dispatch(event)

    def stop_when_all_correct_decided(self):
        correct = [
            pid for pid in range(1, self.n + 1) if pid not in self.fault_plan.crashes
        ]
        self.set_stop_predicate(
            lambda s: all(pid in s.trace.decisions for pid in correct)
        )


def grid(n: int, f: int, trials: int) -> GridSpec:
    return GridSpec(
        protocols=["INBAC"], systems=[(n, f)], seeds=range(trials), max_time=1000
    )


def _measure_once(n, f, trials, workers, trace_level, fold, scheduler_cls=None):
    """One timed aggregate sweep; returns (trials/sec, fingerprint)."""
    previous = sim_runner.Scheduler
    if scheduler_cls is not None:
        sim_runner.Scheduler = scheduler_cls
    try:
        start = time.perf_counter()
        agg = run_sweep(
            grid(n, f, trials),
            workers=workers,
            mode="aggregate",
            trace_level=trace_level,
            fold=fold,
        )
        elapsed = time.perf_counter() - start
    finally:
        sim_runner.Scheduler = previous
    assert agg.error_count == 0, agg.sample_errors
    return trials / elapsed, agg.aggregate_fingerprint()


def measure(n, f, trials, workers, trace_level, fold, scheduler_cls=None, repeats=2):
    """Best-of-``repeats`` throughput (and the fingerprint, identical each run)."""
    best, fingerprint = 0.0, None
    for _ in range(repeats):
        rate, fingerprint = _measure_once(
            n, f, trials, workers, trace_level, fold, scheduler_cls
        )
        best = max(best, rate)
    return best, fingerprint


#: label -> (trace_level, fold, scheduler_cls)
VARIANTS = {
    "legacy": ("full", "trial", _LegacyScheduler),
    "full+trial": ("full", "trial", None),
    "counters+trial": ("counters", "trial", None),
    "counters+heap": ("counters", "chunk", HeapScheduler),
    "counters+chunk": ("counters", "chunk", None),
}


def run_battery(configs, workers: Optional[int] = 1, repeats: int = 2) -> List[Dict]:
    """Measure every variant at every (n, f, trials) point.

    Asserts, per point, that all five variants produce byte-identical
    ``SweepAggregate`` fingerprints — the determinism half of the benchmark.
    """
    rows: List[Dict] = []
    for n, f, trials in configs:
        fingerprints: Dict[str, str] = {}
        rates: Dict[str, float] = {}
        for label, (level, fold, scheduler_cls) in VARIANTS.items():
            rates[label], fingerprints[label] = measure(
                n, f, trials, workers, level, fold, scheduler_cls, repeats=repeats
            )
        distinct = set(fingerprints.values())
        assert len(distinct) == 1, (
            f"fingerprints diverged across core configurations at n={n}: {fingerprints}"
        )
        rows.append(
            {
                "n": n,
                "f": f,
                "trials": trials,
                **{f"{label} t/s": round(rate, 1) for label, rate in rates.items()},
                "speedup": round(rates["counters+chunk"] / rates["legacy"], 2),
                "fingerprint": next(iter(distinct))[:16],
            }
        )
    return rows


def write_baseline(rows: List[Dict], out_path: str, workers, quick: bool) -> Dict:
    headline = next((r for r in rows if r["n"] == HEADLINE_N), rows[-1])
    baseline = {
        "benchmark": "sweep_throughput",
        "quick": quick,
        "workers": workers,
        "headline": {
            "n": headline["n"],
            "speedup_counters_chunk_vs_legacy": headline["speedup"],
            "minimum_required": MIN_HEADLINE_SPEEDUP,
        },
        "configs": rows,
    }
    with open(out_path, "w") as handle:
        json.dump(baseline, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return baseline


def test_sweep_throughput(benchmark):
    rows = benchmark.pedantic(
        lambda: run_battery(FULL_CONFIGS, workers=1), rounds=1, iterations=1
    )
    out_path = os.environ.get("REPRO_BENCH_OUT", DEFAULT_OUT)
    baseline = write_baseline(rows, out_path, workers=1, quick=False)
    attach_rows(benchmark, "sweep_throughput", rows)
    print()
    print(render_table(rows, title="Sweep throughput: legacy core vs fast path (trials/sec)"))
    print(f"baseline written to {out_path}")
    # the perf half of the acceptance bar: counters + chunk folds at n=100
    # must at least double the legacy core's throughput
    headline = baseline["headline"]
    assert headline["speedup_counters_chunk_vs_legacy"] >= MIN_HEADLINE_SPEEDUP, baseline


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small smoke configuration (fingerprint checks only, "
                             "no speedup assertion)")
    parser.add_argument("--out", default=os.environ.get("REPRO_BENCH_OUT", DEFAULT_OUT),
                        help="where to write the JSON baseline")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes per sweep (default: 1, serial)")
    args = parser.parse_args()

    configs = QUICK_CONFIGS if args.quick else FULL_CONFIGS
    rows = run_battery(configs, workers=args.workers, repeats=1 if args.quick else 2)
    baseline = write_baseline(rows, args.out, workers=args.workers, quick=args.quick)
    print(render_table(rows, title="Sweep throughput: legacy core vs fast path (trials/sec)"))
    print(f"baseline written to {args.out}")
    if not args.quick:
        headline = baseline["headline"]
        assert headline["speedup_counters_chunk_vs_legacy"] >= MIN_HEADLINE_SPEEDUP, (
            f"fast path below the {MIN_HEADLINE_SPEEDUP}x bar: {headline}"
        )


if __name__ == "__main__":
    main()
