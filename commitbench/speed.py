"""How fast the host's CPU runs Python right now, to take its drift out of timings.

The benchmark's host shares its processors with other tenants, and its
speed drifts by up to 1.6x in phases that last minutes (``WORKLOADS.md``,
"Machine noise").  A run of 30 s often lands wholly in one phase, so
run-to-run spread follows the host, not the program.

``probe()`` times a fixed standard-library kernel: two coroutines on a fresh
asyncio event loop pass tuples through queues, the mix of interpreter work,
C-level futures and event-loop turns that the live runtime does.  It imports
nothing from the program, so no change to the program can change its time.
The benchmark times it around every round and scales the round's wall times
by ``REFERENCE_S / probe``: a figure is then in *reference seconds*, the
time the round would have taken on a host where the kernel takes
``REFERENCE_S``.  A program that gets faster still runs its rounds in less
wall time against the same kernel time, so its gain shows in full.
"""

from __future__ import annotations

import asyncio
import gc
import statistics
import time

#: a typical time of the kernel on the host where the benchmark was defined
REFERENCE_S = 0.012
#: timed kernel runs per probe, after one untimed warm-up; the median counts
REPEATS = 3
#: messages each way per kernel run
MESSAGES = 1000


async def _ping_pong(messages: int) -> int:
    """Send ``messages`` tuples to an echo coroutine and await each reply."""
    requests, replies = asyncio.Queue(), asyncio.Queue()

    async def echo():
        for _ in range(messages):
            seq, body = await requests.get()
            await replies.put((seq + 1, body))

    echoer = asyncio.get_running_loop().create_task(echo())
    total = 0
    for seq in range(messages):
        await requests.put((seq, (seq, seq & 7)))
        total += (await replies.get())[0]
        if seq % 50 == 0:
            await asyncio.sleep(0)
    await echoer
    return total


def kernel() -> int:
    """One run of the fixed kernel on a fresh event loop."""
    return asyncio.run(_ping_pong(MESSAGES))


def probe() -> float:
    """Median seconds of one kernel run, with the collector off.

    The collector is off so that the program's heap, which a collection
    of the oldest generation would walk, cannot lengthen the kernel.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        kernel()
        times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


def to_reference(wall_s: float, probe_s: float) -> float:
    """``wall_s`` measured while the kernel took ``probe_s``, in reference seconds."""
    return wall_s * REFERENCE_S / probe_s
