"""Output checks: each returns the list of what is wrong (empty when right).

They are plain functions over what the program returned, so the
benchmark's tests can hand them a perturbed result and see it rejected.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional

#: aggregate fingerprints of each sweep workload under one seed, which is
#: the benchmark's default seed
RECORDED = json.loads(Path(__file__).with_name("fingerprints.json").read_text())
RECORDED_SEED: int = RECORDED["seed"]


def recorded_fingerprint(workload: str, seed: int) -> Optional[str]:
    """The recorded fingerprint for ``workload`` at ``seed``, if one exists."""
    if seed != RECORDED_SEED:
        return None
    return RECORDED["fingerprints"].get(workload)


def check_fingerprints(
    workload: str, seed: int, fingerprints: List[str]
) -> List[str]:
    """Every round agrees, and matches the recorded one under the default seed."""
    failures = []
    distinct = sorted(set(fingerprints))
    if len(distinct) > 1:
        failures.append(f"{workload}: rounds disagree on the fingerprint: {distinct}")
    expected = recorded_fingerprint(workload, seed)
    if expected is not None and any(fp != expected for fp in fingerprints):
        failures.append(
            f"{workload}: fingerprint {distinct} differs from the recorded {expected}"
        )
    return failures


def check_sync_rows(
    rows: List[Dict[str, Any]], protocol: str, n: int, f: int
) -> List[str]:
    """Nice executions: all commit, all solve, at the paper's delays and messages."""
    from repro.analysis.formulas import paper_table5_delays, paper_table5_messages

    delays = paper_table5_delays(protocol, n, f)
    messages = paper_table5_messages(protocol, n, f)
    failures = []
    if not rows:
        failures.append("no aggregate rows")
    for row in rows:
        cell = f"{row['protocol']} n={row['n']} f={row['f']}"
        if row["commit_rate"] != 1:
            failures.append(f"{cell}: commit_rate {row['commit_rate']} != 1")
        if row["solved_rate"] != 1:
            failures.append(f"{cell}: solved_rate {row['solved_rate']} != 1")
        if row["max_delays"] != delays:
            failures.append(f"{cell}: max_delays {row['max_delays']} != {delays}")
        if row["mean_messages"] != messages:
            failures.append(
                f"{cell}: mean_messages {row['mean_messages']} != {messages}"
            )
    return failures


def required_label(protocol: str, execution_class: str) -> str:
    """The properties a protocol's registry cell requires, as e.g. ``"AVT"``.

    A protocol without a cell (2PC, the blocking baseline) promises nothing
    beyond failure-free executions, where every protocol must solve NBAC.
    """
    from repro.core.checker import required_properties
    from repro.core.lattice import canonical_props
    from repro.protocols.registry import get_protocol

    cell = get_protocol(protocol).cell
    if cell is None and execution_class != "failure-free":
        return ""
    required = required_properties(cell, execution_class)
    return "".join(prop.value for prop in canonical_props(required))


def check_grid(aggregate) -> List[str]:
    """No trial errored, and every cell holds what its problem cell requires."""
    failures = []
    if aggregate.error_count:
        failures.append(
            f"{aggregate.error_count} trials errored; first: "
            f"{aggregate.sample_errors[0] if aggregate.sample_errors else '?'}"
        )
    for row in aggregate.aggregate_rows():
        required = required_label(row["protocol"], row["class"])
        missing = sorted(set(required) - set(row["properties"]))
        if missing:
            failures.append(
                f"{row['protocol']} {row['delay']} {row['fault']} {row['votes']} "
                f"({row['class']}): holds {row['properties']!r}, misses {missing}"
            )
    return failures


def check_kv(report, attempted: int, failed: int) -> List[str]:
    """Cluster invariants hold and every answered submit has its outcome."""
    failures = []
    if report.invariants is None or not report.invariants.holds:
        detail = report.invariants.describe() if report.invariants else "not evaluated"
        failures.append(f"cluster invariants broken: {detail}")
    decided = sum(1 for o in report.outcomes if o.decision is not None)
    if decided < attempted - failed:
        failures.append(
            f"{attempted - failed} submits returned an outcome but the "
            f"coordinator recorded {decided} decisions"
        )
    return failures
