"""The sweep executor: fan trials out over worker processes, deterministically.

Design constraints, in order:

1. **Parallel == serial, exactly.**  Every trial's RNG seed is derived from
   its grid coordinates (:attr:`~repro.exp.spec.TrialSpec.derived_seed`), so
   the schedule a trial sees is independent of which worker runs it.  Results
   are re-ordered by trial index before aggregation.  A sweep with
   ``workers=8`` therefore produces byte-identical aggregates to ``workers=1``
   (asserted by :meth:`~repro.exp.results.SweepResult.fingerprint`).

2. **Arbitrary specs, including closures.**  Fault plans and delay models in
   this repo routinely carry lambdas (payload predicates, adversarial delay
   functions) that cannot cross a pickling process boundary.  The pool
   therefore prefers the ``fork`` start method and ships the trial list to
   the workers *by inheritance*: the parent parks it in a module-level slot
   that the forked children share, and only integer trial indices and
   plain-data :class:`~repro.exp.results.TrialResult` records travel over
   the queues.  A *spawn-safe* spec — lambda-free, e.g. built from the
   registry names in :mod:`repro.exp.registry` — may instead run under the
   ``spawn`` start method (``start_method="spawn"``, or automatically where
   fork does not exist); :func:`ensure_spawn_safe` validates the spec up
   front and names the offending grid field rather than letting the pool
   fail with an anonymous ``PicklingError``.

3. **One execution path: plan x executor x sink.**  Every sweep splits its
   trial list into contiguous trial-index chunks under one size rule — one
   trial per chunk in-process, otherwise about four chunks per worker,
   capped at ``_MAX_STREAM_CHUNK`` — and hands the chunk indices to an
   executor: a pool's ``imap`` (``chunksize=1``) or, where no usable start
   method remains (no ``fork`` and a spec that is not spawn-safe) or the
   sweep is too small to amortise worker start-up, an in-process ``map``.
   One loop consumes the completed chunks in chunk order and feeds the
   sink (the result list, a custom reducer, or a ``SweepAggregate``);
   ``SweepResult.meta["mode"]`` records which executor ran.

4. **Bounded-memory aggregation.**  ``mode="aggregate"`` (or a custom
   ``reducer=``) streams results instead of collecting them: each
   :class:`~repro.exp.results.TrialResult` is folded into per-coordinate
   accumulators the moment it arrives and then dropped, so a 10^5-10^6-trial
   sweep holds one accumulator per grid cell rather than every trial.
   Accumulator statistics are order-independent (integer tallies and
   value → multiplicity digests; see :mod:`repro.exp.results`), so streamed
   aggregates are byte-identical to both the serial streamed run and the
   in-memory ``mode="full"`` aggregation of the same grid and seeds.  Note
   the bound is on *results*: the expanded ``TrialSpec`` list itself is
   still materialised (lightweight frozen records sharing their axis-spec
   objects, inherited by workers via fork, not copied) — it is the per-trial
   measurement records, orders of magnitude heavier, that streaming never
   holds.

5. **Worker-side chunk folds.**  A chunk's worker returns either the
   chunk's TrialResults in index order or, for a pooled aggregate-mode sweep
   with the default :class:`~repro.exp.results.SweepAggregate` sink
   (``fold="auto"`` or ``"chunk"``), the chunk folded into one *partial*
   accumulator bundle, which the parent merges in chunk (= trial index)
   order.  IPC drops from one pickled TrialResult per trial to one small
   bundle per chunk, and because every accumulator statistic merges exactly
   (no float-sum reordering), the chunked fingerprints match the per-trial
   fold — and the in-memory path — byte for byte at any worker count.
   ``fold="trial"`` ships the TrialResults instead (required for, and
   implied by, custom reducers, which only expose ``fold``).

6. **Trace levels.**  Aggregate-mode sweeps only consume the aggregate
   tallies a :class:`~repro.sim.trace.CounterTrace` maintains, so they
   default to ``trace_level="counters"`` — the scheduler skips per-message
   record allocation entirely — unless a ``collector=`` needs the live full
   trace.  ``mode="full"`` keeps ``trace_level="full"``.  Either default can
   be overridden per sweep (``run_sweep(..., trace_level=...)``) or per grid
   (``GridSpec(trace_level=...)``); measurements and fingerprints are
   byte-identical across levels by construction.

7. **Cluster trials.**  A trial whose spec carries a
   :class:`~repro.exp.spec.WorkloadSpec` runs a :mod:`repro.db` cluster
   battery (``n`` partitions, the protocol axis embedded as the commit
   protocol, the workload's transactions as the load) instead of a bare
   protocol execution, and condenses the
   :class:`~repro.db.cluster.ClusterReport` into the same TrialResult shape
   — including the cluster-invariant battery (atomicity/durability/lock
   safety, :mod:`repro.db.invariants`) mapped onto the property flags.  A
   cluster trial may additionally carry a
   :class:`~repro.exp.spec.ScheduleSpec`: the whole cluster then runs under
   the schedule controller (deferred deliveries, injected crashes into
   partitions or the client coordinator) and records the same replayable
   ``schedule_trace`` / ``trace_fingerprint`` extras as a controlled
   protocol trial.

8. **Per-cell setup amortisation.**  Trials of one grid cell differ only in
   their seed, and the expansion order keeps a cell's trials contiguous, so
   the per-trial hot path resolves the protocol factory, keyword arguments
   and vote vector once per cell (a one-slot memo keyed by the cell's spec
   objects) and reuses one :class:`~repro.sim.runner.Simulation` across the
   cell's trials with per-trial delay/fault/seed overrides.
"""

from __future__ import annotations

import contextlib
import functools
import multiprocessing
import os
import pickle
import traceback
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from repro.core.checker import check_nbac
from repro.errors import ConfigurationError
from repro.exp.results import SweepAggregate, SweepResult, TrialResult
from repro.exp.spec import GridSpec, TrialSpec
from repro.sim.batch import BatchedDelaySampler
from repro.sim.runner import Simulation, SimulationResult
from repro.sim.trace import TRACE_LEVELS

#: a collector receives (trial, result) in the worker and returns extra
#: picklable data to attach to the TrialResult (e.g. protocol-internal state
#: such as INBAC's branch log, which never leaves the worker otherwise).
#: For cluster trials the second argument is the ClusterReport instead.
Collector = Callable[[TrialSpec, Any], Dict[str, Any]]

#: below this many trials a pool costs more than it saves
_MIN_TRIALS_FOR_POOL = 4

# ships (trials, collector, trace levels, chunk plan) to forked workers by
# memory inheritance; the in-process executor borrows the same slots
_WORKER_TRIALS: List[TrialSpec] = []
_WORKER_COLLECTOR: Optional[Collector] = None
_WORKER_LEVELS: tuple = (None, "full")  # (explicit override, sweep default)
_WORKER_CHUNK: tuple = (1, False, False)  # (size, fold a partial, profile chunk)


class _CellRuntime:
    """Per-cell objects resolved once and reused across the cell's trials.

    Trials of one grid cell share everything but their seed, and grid
    expansion keeps a cell's trials contiguous, so a one-slot memo (see
    :func:`_cell_runtime`) amortises the protocol-kwargs dict, the vote
    vector and the :class:`~repro.sim.runner.Simulation` (with its process
    factory) over the whole seed axis instead of rebuilding them per trial.
    """

    __slots__ = ("simulation", "votes", "sampler")

    def __init__(self, simulation: Simulation, votes: List[Any]):
        self.simulation = simulation
        self.votes = votes
        # one delay sampler per cell: each trial rebinds it to that trial's
        # freshly seeded delay model, reusing the pre-draw buffer across the
        # cell instead of allocating one per trial
        self.sampler = BatchedDelaySampler()


#: (cell signature, runtime) of the most recently run cell, per process
_LAST_RUNTIME: Optional[tuple] = None


def _cell_runtime(trial: TrialSpec, trace_level: str) -> _CellRuntime:
    global _LAST_RUNTIME
    # spec dataclasses compare by (label, callable identity), so two cells
    # only share a runtime when they share the actual spec objects — labels
    # alone can collide across grids within one process
    signature = (trial.protocol, trial.n, trial.f, trial.votes, trial.max_time, trace_level)
    if _LAST_RUNTIME is not None and _LAST_RUNTIME[0] == signature:
        return _LAST_RUNTIME[1]
    runtime = _CellRuntime(
        simulation=Simulation(
            n=trial.n,
            f=trial.f,
            process_class=trial.protocol.cls,
            max_time=trial.max_time,
            protocol_kwargs=trial.protocol.protocol_kwargs(),
            trace_level=trace_level,
        ),
        # per-trial (seeded) vote patterns cannot be resolved at the cell
        # level; run_trial resolves them from the derived seed instead
        votes=None if trial.votes.per_trial else trial.votes.resolve(trial.n, 0),
    )
    _LAST_RUNTIME = (signature, runtime)
    return runtime


def _effective_level(trial: TrialSpec, override: Optional[str], default: str) -> str:
    """Trace-level precedence: sweep override > per-trial pin > sweep default."""
    return override or trial.trace_level or default


def run_trial(
    trial: TrialSpec,
    collector: Optional[Collector] = None,
    trace_level: Optional[str] = None,
) -> TrialResult:
    """Run one trial to completion and condense it into a TrialResult.

    ``trace_level`` overrides the trial's own level; with both unset the
    trial runs at ``"full"``.  Measurements are identical at either level.
    """
    level = trace_level or trial.trace_level or "full"
    seed = trial.derived_seed
    base = TrialResult(
        index=trial.index,
        protocol=trial.protocol.label,
        n=trial.n,
        f=trial.f,
        delay_label=trial.delay.label,
        fault_label=trial.fault.label,
        votes_label=trial.votes.label,
        base_seed=trial.base_seed,
        derived_seed=seed,
        workload_label=trial.workload_label,
        schedule_label=trial.schedule_label,
    )
    if trial.workload is not None:
        return _run_cluster_trial(trial, base, collector, level)
    try:
        runtime = _cell_runtime(trial, level)
        votes = (
            runtime.votes
            if runtime.votes is not None
            else trial.votes.resolve(trial.n, seed)
        )
        controller = trial.schedule.build(seed) if trial.schedule is not None else None
        result = runtime.simulation.run(
            votes,
            delay_model=trial.delay.factory(seed),
            fault_plan=trial.fault.factory(),
            seed=seed,
            controller=controller,
            delay_sampler=runtime.sampler,
        )
    except Exception:
        base.error = traceback.format_exc(limit=8)
        return base

    trace = result.trace
    report = check_nbac(trace)
    base.execution_class = trace.metadata.get("execution_class", "failure-free")
    base.decisions = result.decisions()
    base.decision_latencies = sorted(
        rec.time for rec in trace.decisions.values()
    )
    base.first_decision = trace.first_decision_time()
    base.last_decision = trace.last_decision_time()
    base.messages_total = trace.message_count()
    base.messages_main = trace.message_count(module="main")
    base.messages_consensus = base.messages_total - base.messages_main
    last = trace.last_decision_time()
    base.messages_until_last_decision = (
        trace.messages_received_by(last) if last is not None else base.messages_total
    )
    base.agreement = report.agreement.holds
    base.validity = report.validity.holds
    base.termination = report.termination.holds
    base.crashes = dict(trace.crashes)
    if controller is not None:
        # the replayable schedule plus the fingerprint replay is checked
        # against — all plain data, so it crosses the worker queue intact
        from repro.explore.schedule import ScheduleTrace

        base.extra["schedule_trace"] = ScheduleTrace(
            strategy=trial.schedule.strategy,
            seed=seed,
            params=trial.schedule.strategy_params(),
            decisions=trace.metadata.get("schedule_decisions", []),
        ).to_jsonable()
        base.extra["trace_fingerprint"] = trace.fingerprint()
    if collector is not None:
        # collector failures (e.g. a per-message trace query against a trial
        # pinned to the counters level) are captured like simulation
        # failures, not allowed to abort the whole sweep
        try:
            base.extra = {**base.extra, **dict(collector(trial, result) or {})}
        except Exception:
            base.error = traceback.format_exc(limit=8)
    return base


def _run_cluster_trial(
    trial: TrialSpec,
    base: TrialResult,
    collector: Optional[Collector],
    trace_level: str = "full",
) -> TrialResult:
    """Run one :mod:`repro.db` cluster battery and condense its report.

    The mapping onto the TrialResult shape: ``decisions`` holds one entry per
    transaction (txn id -> commit/abort decision), ``decision_latencies`` the
    per-transaction commit latencies, and ``termination`` whether every
    transaction completed.  The property flags carry the cluster-invariant
    battery (:mod:`repro.db.invariants`): ``agreement`` is transaction
    atomicity, ``validity`` is WAL-replay durability AND lock-table safety —
    always True for a correct commit protocol, so the flags only flip when a
    schedule (or a bug) produces an actual anomaly.  The full
    ``ClusterReport.summary_row`` lands in ``extra``; a trial carrying a
    :class:`~repro.exp.spec.ScheduleSpec` runs under the schedule controller
    and additionally records its replayable ``schedule_trace`` and
    ``trace_fingerprint``, exactly like a controlled protocol trial.
    """
    # imported lazily: repro.db pulls in the whole store/partition stack,
    # which bare protocol sweeps never need
    from repro.db.cluster import ClusterConfig, run_cluster

    try:
        seed = trial.derived_seed
        delay_model = trial.delay.factory(seed)
        fault_plan = trial.fault.factory()
        controller = trial.schedule.build(seed) if trial.schedule is not None else None
        config = ClusterConfig(
            num_partitions=trial.n,
            commit_protocol=trial.protocol.cls,
            commit_f=trial.f,
            protocol_kwargs=trial.protocol.protocol_kwargs(),
            delay_model=delay_model,
            fault_plan=fault_plan,
            seed=seed,
            max_time=trial.max_time,
            trace_level=trace_level,
            controller=controller,
        )
        transactions = trial.workload.factory(trial.n, seed)
        report = run_cluster(config, transactions)
    except Exception:
        base.error = traceback.format_exc(limit=8)
        return base

    base.execution_class = report.execution_class
    base.decisions = {o.txn_id: o.decision for o in report.outcomes}
    base.decision_latencies = sorted(report.commit_latencies())
    if base.decision_latencies:
        base.first_decision = base.decision_latencies[0]
        base.last_decision = base.decision_latencies[-1]
    base.messages_total = report.messages_total
    base.messages_main = report.messages_by_module.get("main", 0)
    base.messages_consensus = base.messages_total - base.messages_main
    base.messages_until_last_decision = report.messages_until_last_decision
    # pending_transactions also covers transactions never submitted (a crashed
    # client coordinator), which report.incomplete — submitted-only — misses
    base.termination = not report.pending_transactions
    # realised crashes, schedule-injected ones included — the same accounting
    # protocol trials get from trace.crashes
    base.crashes = dict(report.crashes)
    invariants = report.invariants
    if invariants is not None:
        base.agreement = invariants.atomicity
        base.validity = invariants.durability and invariants.lock_safety
    summary = report.summary_row()
    summary["protocol"] = trial.protocol.label  # the sweep's label, not the class name
    if invariants is not None and not invariants.holds:
        summary["invariant_violations"] = list(invariants.violations)
    if controller is not None:
        # same replayable extras as a controlled protocol trial
        from repro.explore.schedule import ScheduleTrace

        summary["schedule_trace"] = ScheduleTrace(
            strategy=trial.schedule.strategy,
            seed=seed,
            params=trial.schedule.strategy_params(),
            decisions=report.schedule_decisions,
        ).to_jsonable()
        summary["trace_fingerprint"] = report.trace_fingerprint
    base.extra = summary
    if collector is not None:
        try:
            base.extra = {**summary, **(collector(trial, report) or {})}
        except Exception:
            base.error = traceback.format_exc(limit=8)
    return base


# --------------------------------------------------------------------------- #
# worker plumbing (fork start method only; see module docstring)
# --------------------------------------------------------------------------- #
def _pool_init(
    trials: List[TrialSpec],
    collector: Optional[Collector],
    levels: tuple = (None, "full"),
    chunk: tuple = (1, False, False),
) -> None:
    global _WORKER_TRIALS, _WORKER_COLLECTOR, _WORKER_LEVELS, _WORKER_CHUNK
    _WORKER_TRIALS = trials
    _WORKER_COLLECTOR = collector
    _WORKER_LEVELS = levels
    _WORKER_CHUNK = chunk


def _run_index(index: int) -> TrialResult:
    trial = _WORKER_TRIALS[index]
    override, default = _WORKER_LEVELS
    return run_trial(
        trial, _WORKER_COLLECTOR, trace_level=_effective_level(trial, override, default)
    )


def _maybe_profiled(label: str):
    """cProfile wrapper for one unit of sweep work, gated on ``REPRO_PROFILE``.

    Profiling is observability: it perturbs wall-clock timings but never the
    aggregates, so the determinism battery runs a profiled sweep and checks
    the fingerprint is unchanged.  The import is lazy and the gate is a plain
    environment lookup, so unprofiled sweeps pay one dict probe per unit.
    """
    if os.environ.get("REPRO_PROFILE", "") not in ("", "0", "false", "False"):
        from repro.obs.profile import profiled

        return profiled(label)
    return contextlib.nullcontext()


def _emit_progress(
    progress,
    phase: str,
    *,
    trials_total: int,
    trials_done: int,
    chunks_total: int,
    chunks_done: int,
    workers: int,
    mode: str,
    fold: str,
) -> None:
    """Hand one count-only observation to the progress callback (parent side).

    The engine supplies raw counts and nothing else — no timestamps, no
    rates — so it stays inside the DET002 wall-clock rule; reporters in
    :mod:`repro.obs.progress` add timing on their own clocks.  Callback
    exceptions propagate: a broken reporter should fail the run loudly, not
    silently observe nothing.
    """
    if progress is None:
        return
    from repro.obs.progress import ProgressEvent

    progress(
        ProgressEvent(
            phase=phase,
            trials_total=trials_total,
            trials_done=trials_done,
            chunks_total=chunks_total,
            chunks_done=chunks_done,
            queue_depth=max(0, chunks_total - chunks_done),
            workers=workers,
            mode=mode,
            fold=fold,
        )
    )


def _run_chunk(chunk_index: int) -> Union[SweepAggregate, List[TrialResult]]:
    """Run one contiguous trial-index chunk and return it for the sink.

    The chunk ``[start, stop)`` runs in index order.  With chunk folds it is
    folded into a fresh :class:`SweepAggregate`, and that bundle — a few
    cell accumulators, not per-trial records — is the only thing shipped
    back over the result queue; the parent merges bundles in chunk order,
    which (with order-independent accumulators) reproduces the per-trial
    fold byte for byte.  Otherwise the chunk's TrialResults come back as a
    list.  Pool workers profile each chunk; the in-process executor
    profiles the whole sweep instead, since cProfile does not nest.
    """
    size, partial, profile = _WORKER_CHUNK
    start = chunk_index * size
    stop = min(start + size, len(_WORKER_TRIALS))
    out = SweepAggregate() if partial else []
    fold = out.fold if partial else out.append
    label = f"chunk{chunk_index:04d}"
    with _maybe_profiled(label) if profile else contextlib.nullcontext():
        for index in range(start, stop):
            fold(_run_index(index))
    return out


def _resolve_workers(workers: Optional[int], n_trials: int) -> int:
    """Resolve the worker count, validating explicit and environment overrides.

    A malformed or non-positive ``REPRO_EXP_WORKERS`` (or ``workers=``
    argument) raises :class:`~repro.errors.ConfigurationError` naming the
    offending value, rather than leaking a bare ``ValueError`` or silently
    clamping a negative count to 1.
    """
    if workers is None:
        env = os.environ.get("REPRO_EXP_WORKERS")
        if env:
            try:
                workers = int(env)
            except ValueError:
                raise ConfigurationError(
                    f"REPRO_EXP_WORKERS must be a positive integer, got {env!r}"
                ) from None
            if workers <= 0:
                raise ConfigurationError(
                    f"REPRO_EXP_WORKERS must be a positive integer, got {env!r}"
                )
        else:
            workers = os.cpu_count() or 1
    else:
        try:
            workers = int(workers)
        except (TypeError, ValueError):
            raise ConfigurationError(
                f"workers must be a positive integer, got {workers!r}"
            ) from None
        if workers <= 0:
            raise ConfigurationError(
                f"workers must be a positive integer, got {workers}"
            )
    return max(1, min(workers, n_trials))


def _fork_available() -> bool:
    try:
        return "fork" in multiprocessing.get_all_start_methods()
    except Exception:  # pragma: no cover - exotic platforms
        return False


def _spawn_available() -> bool:
    try:
        return "spawn" in multiprocessing.get_all_start_methods()
    except Exception:  # pragma: no cover - exotic platforms
        return False


#: the start methods run_trials/run_sweep accept
_START_METHODS = (None, "fork", "spawn")


def ensure_spawn_safe(
    trials: Sequence[TrialSpec], collector: Optional[Collector] = None
) -> None:
    """Verify every spec component can cross a ``spawn`` process boundary.

    The fork pool ships closures by memory inheritance, so grids may carry
    lambdas; the spawn pool pickles everything.  This check pickles each
    distinct axis-spec object individually and raises a
    :class:`~repro.errors.ConfigurationError` naming the offending grid field
    and label — instead of letting ``multiprocessing`` fail deep inside the
    pool with an anonymous ``PicklingError``.  Registry-named delay models,
    vote patterns, schedules and reducers (see :mod:`repro.exp.registry`)
    are spawn-safe by construction.

    The fields checked come from
    :data:`repro.lint.rules.spawn_safety.SPAWN_AXIS_FIELDS` — the same rule
    table the static analyser (``python -m repro.lint``) scans, so the
    runtime and static checks cannot drift apart.
    """
    from repro.lint.rules.spawn_safety import SPAWN_AXIS_FIELDS

    seen: set = set()

    def _check(field: str, label: str, obj: Any) -> None:
        if id(obj) in seen:
            return
        seen.add(id(obj))
        try:
            pickle.dumps(obj)
        except Exception as exc:
            raise ConfigurationError(
                f"GridSpec field {field}[{label!r}] is not picklable and cannot "
                f"cross a 'spawn' process boundary ({type(exc).__name__}: {exc}); "
                f"use a registry-named value (see repro.exp.registry) or a "
                f"module-level callable, or run with the fork start method"
            ) from None

    for trial in trials:
        for grid_field, attr in SPAWN_AXIS_FIELDS:
            spec = getattr(trial, attr)
            if spec is not None:
                _check(grid_field, spec.label, spec)
    if collector is not None:
        _check("collector", getattr(collector, "__name__", "collector"), collector)


def _resolve_start_method(
    start_method: Optional[str],
    trials: Sequence[TrialSpec],
    collector: Optional[Collector],
) -> Optional[str]:
    """Pick the pool start method; ``None`` means "no pool available".

    Explicitly requested methods are validated loudly (a spawn request over a
    lambda-carrying grid raises, naming the offending field).  The default
    keeps the historical behaviour — fork where available — and otherwise
    falls back to spawn only when the spec is verifiably spawn-safe, so
    platforms without fork degrade to the serial path rather than crash.
    """
    if start_method not in _START_METHODS:
        raise ConfigurationError(
            f"unknown start_method {start_method!r}; expected one of {_START_METHODS}"
        )
    if start_method == "fork":
        if not _fork_available():
            raise ConfigurationError(
                "the 'fork' start method is not available on this platform"
            )
        return "fork"
    if start_method == "spawn":
        if not _spawn_available():  # pragma: no cover - spawn exists everywhere
            raise ConfigurationError(
                "the 'spawn' start method is not available on this platform"
            )
        ensure_spawn_safe(trials, collector)
        return "spawn"
    if _fork_available():
        return "fork"
    if _spawn_available():
        try:
            ensure_spawn_safe(trials, collector)
        except ConfigurationError:
            return None  # not spawn-safe: silently keep the serial fallback
        return "spawn"
    return None  # pragma: no cover - platforms with neither method


#: cap on the pool chunk size, so a worker never buffers an unbounded slice
#: of results (or folds an unbounded chunk) before shipping back to the parent
_MAX_STREAM_CHUNK = 64

#: the modes run_trials/run_sweep accept
_MODES = ("full", "aggregate")

#: the fold strategies streaming sweeps accept
_FOLDS = ("auto", "trial", "chunk")


def run_trials(
    trials: Sequence[TrialSpec],
    workers: Optional[int] = None,
    collector: Optional[Collector] = None,
    mode: str = "full",
    reducer: Optional[Any] = None,
    trace_level: Optional[str] = None,
    fold: str = "auto",
    start_method: Optional[str] = None,
    progress: Optional[Any] = None,
) -> Union[SweepResult, Any]:
    """Run an explicit trial list (see :func:`repro.exp.spec.make_cases`)."""
    if mode not in _MODES:
        raise ConfigurationError(
            f"unknown sweep mode {mode!r}; expected one of {_MODES}"
        )
    if fold not in _FOLDS:
        raise ConfigurationError(
            f"unknown fold strategy {fold!r}; expected one of {_FOLDS}"
        )
    if trace_level is not None and trace_level not in TRACE_LEVELS:
        raise ConfigurationError(
            f"unknown trace_level {trace_level!r}; expected one of {TRACE_LEVELS}"
        )
    trials = list(trials)
    if progress is not None:
        # lazy: the obs package is only imported when somebody observes
        from repro.obs.progress import resolve_progress

        progress = resolve_progress(progress)
    if isinstance(reducer, str):
        # registry-named sinks are spawn-safe and keep grids lambda-free
        from repro.exp.registry import make_reducer

        reducer = make_reducer(reducer)
    streaming = mode == "aggregate" or reducer is not None
    if fold == "chunk" and reducer is not None:
        raise ConfigurationError(
            "fold='chunk' requires the default SweepAggregate sink; custom "
            "reducers only expose per-trial fold() and cannot merge partials"
        )
    if fold == "chunk" and not streaming:
        raise ConfigurationError(
            "fold='chunk' only applies to streaming sweeps; pass "
            "mode='aggregate' (mode='full' returns every TrialResult and "
            "has nothing to fold)"
        )
    # aggregate-mode sweeps only read the tallies a CounterTrace maintains,
    # so they default to the counters level — unless a collector needs the
    # live (full) trace, or the caller/grid pinned a level
    default_level = "counters" if (streaming and collector is None) else "full"
    levels = (trace_level, default_level)
    n_workers = _resolve_workers(workers, len(trials))
    method = _resolve_start_method(start_method, trials, collector)
    use_pool = (
        n_workers > 1 and len(trials) >= _MIN_TRIALS_FOR_POOL and method is not None
    )
    exec_mode = "parallel" if use_pool else "serial"
    # the level(s) the trials actually run at: the sweep override wins, then
    # any per-trial GridSpec pin, then the mode-dependent default
    resolved_levels = {_effective_level(t, trace_level, default_level) for t in trials}
    if len(resolved_levels) == 1:
        level_label = resolved_levels.pop()
    elif resolved_levels:
        level_label = "mixed"
    else:  # empty trial list
        level_label = trace_level or default_level
    meta = {
        "mode": exec_mode,
        "workers": n_workers if use_pool else 1,
        "requested_workers": workers,
        "trials": len(trials),
        "sweep_mode": "aggregate" if streaming else "full",
        "trace_level": level_label,
    }
    if use_pool:
        meta["start_method"] = method

    # the plan: contiguous trial-index chunks under one size rule; chunk
    # folds only pay where a worker has result IPC to cut
    size = (
        max(1, min(_MAX_STREAM_CHUNK, len(trials) // (n_workers * 4)))
        if use_pool
        else 1
    )
    n_chunks = -(-len(trials) // size)
    chunked = use_pool and reducer is None and streaming and fold != "trial"
    # the sink: the result list, a custom reducer, or a SweepAggregate
    if streaming:
        sink = reducer if reducer is not None else SweepAggregate()
        fold_one = sink.fold
    else:
        sink = []
        fold_one = sink.append
    emit = functools.partial(
        _emit_progress,
        progress,
        trials_total=len(trials),
        chunks_total=n_chunks,
        workers=meta["workers"],
        mode=exec_mode,
        fold="chunk" if chunked else "trial",
    )
    trials_done = chunks_done = 0
    emit("start", trials_done=0, chunks_done=0)
    with contextlib.ExitStack() as stack:
        # the executor: both yield chunk outputs in chunk (= trial index) order
        if use_pool:
            pool = stack.enter_context(
                multiprocessing.get_context(method).Pool(
                    processes=n_workers,
                    initializer=_pool_init,
                    initargs=(trials, collector, levels, (size, chunked, True)),
                )
            )
            outputs = pool.imap(_run_chunk, range(n_chunks), chunksize=1)
        else:
            # borrow the worker slots for this call only, restoring whatever
            # an enclosing sweep (e.g. one run by a collector) parked there
            saved = (_WORKER_TRIALS, _WORKER_COLLECTOR, _WORKER_LEVELS, _WORKER_CHUNK)
            stack.callback(_pool_init, *saved)
            _pool_init(trials, collector, levels)
            stack.enter_context(_maybe_profiled("serial"))
            outputs = map(_run_chunk, range(n_chunks))
        for output in outputs:
            if chunked:
                sink.merge(output)
            else:
                for result in output:
                    fold_one(result)
            chunks_done += 1
            trials_done = min(chunks_done * size, len(trials))
            emit("chunk", trials_done=trials_done, chunks_done=chunks_done)
    emit("summary", trials_done=trials_done, chunks_done=chunks_done)
    if not streaming:
        return SweepResult(trials=sink, meta=meta)
    meta["fold"] = "chunk" if chunked else "trial"
    if chunked:
        meta["chunk_size"] = size
        meta["chunks"] = n_chunks
    if hasattr(sink, "meta"):
        sink.meta.update(meta)
    return sink


def run_sweep(
    grid: Union[GridSpec, Sequence[TrialSpec]],
    workers: Optional[int] = None,
    collector: Optional[Collector] = None,
    mode: str = "full",
    reducer: Optional[Any] = None,
    trace_level: Optional[str] = None,
    fold: str = "auto",
    start_method: Optional[str] = None,
    progress: Optional[Any] = None,
) -> Union[SweepResult, Any]:
    """Expand a grid and run every trial, fanning out across workers.

    Parameters
    ----------
    grid:
        A :class:`~repro.exp.spec.GridSpec` (or an already-expanded trial
        list) describing the protocol x (n, f) x delay x fault x votes x
        workload x seed cross product.
    workers:
        Worker process count.  ``None`` means "one per CPU" (overridable via
        the ``REPRO_EXP_WORKERS`` environment variable, which must be a
        positive integer); ``1`` forces the serial path.  Parallel and serial
        runs produce identical results.
    collector:
        Optional per-trial hook run *inside the worker* with the live
        :class:`~repro.sim.runner.SimulationResult` (the
        :class:`~repro.db.cluster.ClusterReport` for cluster trials);
        whatever picklable dict it returns lands in ``TrialResult.extra``.
    mode:
        ``"full"`` (default) returns a :class:`~repro.exp.results.SweepResult`
        holding every trial.  ``"aggregate"`` streams: trial results are
        folded into a :class:`~repro.exp.results.SweepAggregate` and
        discarded, so memory is bounded by the grid's cell count instead of
        its trial count, and the aggregate tables are byte-identical to the
        in-memory path on the same grid and seeds.
    reducer:
        Custom streaming sink: any object with a ``fold(TrialResult)``
        method.  Implies streaming regardless of ``mode``; the engine folds
        every result in trial-index order and returns the reducer (updating
        its ``meta`` dict attribute, if present, with execution metadata).
        Custom reducers always fold per trial (``fold="chunk"`` is rejected).
    trace_level:
        ``"full"`` or ``"counters"`` (see :mod:`repro.sim.trace`), applied to
        every trial of this sweep.  ``None`` (default) picks ``"counters"``
        for aggregate-mode sweeps without a collector — the fast path: no
        per-message records are allocated — and ``"full"`` otherwise; a
        per-grid ``GridSpec(trace_level=...)`` pin sits between the two.
        Aggregate tables and fingerprints are byte-identical across levels.
        Note a ``"counters"`` pin wins over the collector-keeps-full-traces
        default: a collector that needs per-message records must not be
        combined with such a pin (its failure is captured per trial in
        ``TrialResult.error``, like any simulation failure).
    fold:
        What a pooled worker ships per chunk; every sweep runs one plan of
        contiguous trial-index chunks (one trial each in-process, about four
        per worker otherwise, capped at 64 trials).  ``"auto"`` (default)
        ships one partial accumulator bundle per chunk (a chunk fold)
        whenever the sink is the default
        :class:`~repro.exp.results.SweepAggregate` and a pool is in use;
        ``"trial"`` ships the chunk's TrialResults for the parent to fold
        one by one.  ``"chunk"`` selects chunk folds for pooled runs and is
        rejected with a custom reducer (which only exposes per-trial
        ``fold``) or ``mode="full"``; a serial run has no result IPC to cut,
        so it always folds per trial and records the executed path in
        ``meta["fold"]``.  Fingerprints are byte-identical across fold
        strategies and worker counts.
    start_method:
        Pool start method.  ``None`` (default) keeps the historical
        behaviour: ``fork`` where available, otherwise ``spawn`` when the
        spec is verifiably lambda-free (see :func:`ensure_spawn_safe`),
        otherwise the serial path.  An explicit ``"spawn"`` validates the
        spec up front and raises a :class:`~repro.errors.ConfigurationError`
        naming the offending grid field if anything cannot be pickled;
        registry-named delay models, vote patterns, schedules and reducers
        (:mod:`repro.exp.registry`) are spawn-safe by construction.
        Results are byte-identical across start methods.
    progress:
        Live progress stream.  ``None`` (default) observes nothing; a
        callable receives one count-only
        :class:`~repro.obs.progress.ProgressEvent` per phase — ``start``,
        one ``chunk`` per completed chunk of the plan (one trial per chunk
        on a serial run), ``summary`` — always in the parent process, after
        results crossed the worker queue, with ``chunks_total`` the plan's
        chunk count on every path.  The strings ``"tty"`` and
        ``"jsonl:PATH"`` resolve to the stock reporters in
        :mod:`repro.obs.progress`.  Progress is strictly out of band:
        results, aggregates and fingerprints are byte-identical with and
        without it.
    """
    trials = grid.trials() if isinstance(grid, GridSpec) else list(grid)
    return run_trials(
        trials,
        workers=workers,
        collector=collector,
        mode=mode,
        reducer=reducer,
        trace_level=trace_level,
        fold=fold,
        start_method=start_method,
        progress=progress,
    )
