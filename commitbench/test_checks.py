"""The benchmark's own tests: every output check rejects a wrong result.

Run from the repository root::

    python3 -m pytest commitbench -q
"""

from __future__ import annotations

import asyncio
import dataclasses
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(ROOT / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import checks  # noqa: E402
import ledger  # noqa: E402
import speed  # noqa: E402
from repro.db.cluster import ClusterConfig  # noqa: E402
from repro.db.invariants import check_cluster  # noqa: E402
from repro.db.wal import ABORT, COMMIT  # noqa: E402
from repro.exp import GridSpec, run_sweep  # noqa: E402
from repro.runtime import AsyncClusterService  # noqa: E402
from repro.workloads.transactions import bank_transfer_workload  # noqa: E402


# ---------------------------------------------------------------------- #
# fingerprints
# ---------------------------------------------------------------------- #
def test_recorded_fingerprint_accepted_and_perturbed_one_rejected():
    seed = checks.RECORDED_SEED
    for workload in ("inbac-n200-sync", "grid-n20-faults"):
        recorded = checks.recorded_fingerprint(workload, seed)
        assert recorded is not None
        assert checks.check_fingerprints(workload, seed, [recorded] * 3) == []
        perturbed = ("0" if recorded[0] != "0" else "1") + recorded[1:]
        assert checks.check_fingerprints(workload, seed, [perturbed])


def test_rounds_that_disagree_are_rejected_under_any_seed():
    assert checks.check_fingerprints("grid-n20-faults", 12345, ["aa", "aa"]) == []
    assert checks.check_fingerprints("grid-n20-faults", 12345, ["aa", "ab"])


# ---------------------------------------------------------------------- #
# nice-execution rows
# ---------------------------------------------------------------------- #
def _nice_rows(n: int = 10, f: int = 2):
    grid = GridSpec(protocols=["INBAC"], systems=[(n, f)], delays=["fixed"], seeds=[0, 1])
    return run_sweep(grid, workers=1, mode="aggregate").aggregate_rows()


def test_sync_rows_pass_and_wrong_message_count_is_rejected():
    rows = _nice_rows()
    assert checks.check_sync_rows(rows, "INBAC", 10, 2) == []
    for field, wrong in (
        ("mean_messages", rows[0]["mean_messages"] - 1),
        ("max_delays", 3.0),
        ("commit_rate", 0.5),
        ("solved_rate", 0.875),
    ):
        bad = [dict(rows[0], **{field: wrong})]
        failures = checks.check_sync_rows(bad, "INBAC", 10, 2)
        assert failures and field in failures[0]
    assert checks.check_sync_rows([], "INBAC", 10, 2)


# ---------------------------------------------------------------------- #
# grid properties and errors
# ---------------------------------------------------------------------- #
class _Aggregate:
    def __init__(self, rows, error_count=0):
        self._rows = rows
        self.error_count = error_count
        self.sample_errors = ["Traceback: boom"] if error_count else []

    def aggregate_rows(self):
        return self._rows


def test_grid_check_rejects_errors_and_missing_properties():
    grid = GridSpec(
        protocols=["INBAC", "2PC"],
        systems=[(5, 1)],
        delays=["uniform"],
        faults=["failure-free", ("crash(at=1.0)", "crash", {"at": 1.0})],
        seeds=[0, 1],
    )
    aggregate = run_sweep(grid, workers=1, mode="aggregate")
    assert checks.check_grid(aggregate) == []
    rows = aggregate.aggregate_rows()
    assert checks.check_grid(_Aggregate(rows, error_count=1))
    inbac_crash = next(
        i for i, r in enumerate(rows)
        if r["protocol"] == "INBAC" and r["class"] == "crash-failure"
    )
    weakened = list(rows)
    weakened[inbac_crash] = dict(rows[inbac_crash], properties="AV")
    failures = checks.check_grid(_Aggregate(weakened))
    assert failures and "misses ['T']" in failures[0]


def test_required_label_follows_the_registry_cell():
    assert checks.required_label("INBAC", "failure-free") == "AVT"
    assert checks.required_label("INBAC", "crash-failure") == "AVT"
    assert checks.required_label("2PC", "failure-free") == "AVT"
    assert checks.required_label("2PC", "crash-failure") == ""


# ---------------------------------------------------------------------- #
# kv invariants
# ---------------------------------------------------------------------- #
def _kv_run(num_txns: int = 20):
    transactions = bank_transfer_workload(
        num_transfers=num_txns, num_partitions=3, seed=1
    ).transactions

    async def main():
        service = AsyncClusterService(
            ClusterConfig(num_partitions=3, commit_protocol="INBAC", seed=1), unit=10e-6
        )
        await service.start()
        for txn in transactions:
            assert await service.submit(txn, timeout_units=200_000) is not None
        report = await service.shutdown()
        partitions = {pid: service.runtime.processes[pid] for pid in (1, 2, 3)}
        return report, partitions

    return asyncio.run(main())


def test_kv_check_passes_then_rejects_a_violated_invariant():
    report, partitions = _kv_run()
    assert checks.check_kv(report, 20, 0) == []
    # a participant that later logs ABORT for a transaction another
    # participant committed splits the outcome: atomicity is violated
    committed = {
        pid: [r for r in server.wal.records() if r.kind == COMMIT]
        for pid, server in partitions.items()
    }
    victim_pid = next(pid for pid in sorted(committed) if committed[pid])
    txn_id = committed[victim_pid][0].txn_id
    other = next(
        pid for pid, recs in committed.items()
        if pid != victim_pid and any(r.txn_id == txn_id for r in recs)
    )
    partitions[other].wal.append(ABORT, txn_id)
    broken = dataclasses.replace(report, invariants=check_cluster(partitions))
    failures = checks.check_kv(broken, 20, 0)
    assert failures and "atomicity" in failures[0]


def test_kv_check_rejects_an_answer_the_coordinator_never_recorded():
    report, _ = _kv_run(num_txns=5)
    outcomes = [dataclasses.replace(o, decision=None) for o in report.outcomes]
    assert checks.check_kv(dataclasses.replace(report, outcomes=outcomes), 5, 0)


# ---------------------------------------------------------------------- #
# ledger arithmetic, the speed probe and the missing-sources exit
# ---------------------------------------------------------------------- #
class _Layers:
    def outer(self):
        self.inner()
        self.inner()

    def inner(self):
        sum(range(1000))


def test_ledger_self_time_excludes_wrapped_children():
    book = ledger.Ledger()
    book.wrap(_Layers, "outer", "outer")
    book.wrap(_Layers, "inner", "inner")
    try:
        _Layers().outer()
    finally:
        book.unwrap_all()
    snap = book.take()
    calls_o, total_o, self_o = snap["spans"]["outer"]
    calls_i, total_i, self_i = snap["spans"]["inner"]
    assert (calls_o, calls_i) == (1, 2)
    assert self_i == total_i
    assert abs(self_o - (total_o - total_i)) < 1e-9
    assert book.take()["spans"]["outer"] == [0, 0.0, 0.0]


def test_speed_probe_restores_the_collector_and_scales_inversely():
    import gc

    assert gc.isenabled()
    assert speed.probe() > 0
    assert gc.isenabled()
    # a host twice as slow as the reference halves the round's reference time
    assert speed.to_reference(2.0, 2 * speed.REFERENCE_S) == 1.0


def test_run_without_the_program_sources_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "kv-live-inbac",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
