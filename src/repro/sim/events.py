"""Event types processed by the discrete-event scheduler.

Ordering
--------
Events are totally ordered by ``(time, priority, seq)``.  The priority encodes
the paper's scheduling remark from Appendix A: *"a message delivery event has
a higher priority than a timeout event; i.e., if both events occur at a
process, the process is first triggered by the delivery event and then the
timeout event"*.  Crash events carry the highest priority so that a process
crashing at time ``t`` does not handle any other event scheduled at ``t``
("crashes before sending any message that is expected to send upon the
message received at t").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

# Priorities: lower value == processed earlier at equal time.
PRIORITY_CRASH = 0
# a recovery at time t happens before any traffic scheduled at t reaches the
# rejoining process (ties against propose events break on seq, which is
# deterministic); it shares the propose slot so existing orderings are
# untouched on recovery-free runs
PRIORITY_RECOVER = 1
PRIORITY_PROPOSE = 1
PRIORITY_DELIVERY = 2
PRIORITY_TIMER = 3
PRIORITY_CONTROL = 4


@dataclass(frozen=True)
class Event:
    """Base class for scheduler events."""

    time: float
    priority: int
    seq: int

    def sort_key(self) -> tuple:
        return (self.time, self.priority, self.seq)


@dataclass(frozen=True)
class ProposeEvent(Event):
    """Delivery of the initial ``Propose`` event to a process.

    ``value`` is the process' vote (1 = willing to commit, 0 = abort) for
    atomic-commit protocols, or an arbitrary proposal for consensus.
    """

    pid: int = 0
    value: Any = None


@dataclass(frozen=True)
class MessageDeliveryEvent(Event):
    """Arrival of a message at its destination."""

    src: int = 0
    dst: int = 0
    payload: Any = None
    send_time: float = 0.0
    msg_id: int = -1


@dataclass(frozen=True)
class TimerEvent(Event):
    """Expiry of a timer previously set by a process."""

    pid: int = 0
    name: str = "timer"
    generation: int = 0


@dataclass(frozen=True)
class CrashEvent(Event):
    """Scheduled crash of a process (it halts and sends nothing afterwards)."""

    pid: int = 0


@dataclass(frozen=True)
class RecoverEvent(Event):
    """Scheduled rejoin of a previously crashed process.

    What the process rejoins *with* is up to the scheduler's recovery
    factory; the default is the crashed object itself (amnesia-free rejoin),
    while the cluster layer rebuilds partition servers from their
    write-ahead log.
    """

    pid: int = 0


@dataclass(frozen=True)
class ControlEvent(Event):
    """Generic control callback (used by higher layers such as workloads)."""

    pid: int = 0
    action: Any = None
    payload: Any = field(default=None)
