"""The repository benchmark: sweep trials/s and live-KV commit latency.

Run from the repository root::

    python3 commitbench/run.py --workload inbac-n200-sync --seed 2017 \\
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` measures the same rounds untraced, then again with the layer
ledger installed (``ledger.py``), and reports the per-layer metrics plus
the tracing overhead.  Every round's outputs are checked (``checks.py``);
the last line of standard output is one JSON object::

    {"correct": true, "attempted": 3072, "failed": 0, "metrics": {...}}

and the exit code is 1 when a check failed.  End-to-end times are in
reference seconds, scaled by a speed probe around each round (``speed.py``).
The workloads and what each metric should move are described in
``WORKLOADS.md``.
"""

import time

#: the set-up clock starts before the program is imported
_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import speed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: the seed whose sweep fingerprints ``fingerprints.json`` records
DEFAULT_SEED = checks.RECORDED_SEED
#: set-up is timed in this many extra fresh processes; the median is reported
SETUP_PROBES = 8
#: a run measures at least this many rounds, however short ``--seconds`` is
MIN_ROUNDS = 3

#: workload names and the metrics to report, with their units
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help="only time set-up in this fresh process and print it",
    )
    return parser.parse_args(argv)


def set_up(workload) -> float:
    """Imports, input generation and (kv) a service boot; seconds since start."""
    workload.setup()
    if workload.kind == "kv":
        import asyncio

        async def boot_once():
            service = await workload.boot()
            booted = time.perf_counter()
            await service.shutdown()
            return booted

        booted = asyncio.run(boot_once())
    else:
        booted = time.perf_counter()
    return booted - _START


def probe_setup(args) -> float:
    """Time set-up in a fresh interpreter, as a user's first run pays it."""
    done = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", args.workload, "--seed", str(args.seed), "--setup-probe",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def run_rounds(workload, seconds, before=None, after=None):
    """Repeat the workload's round until ``seconds`` have passed.

    The speed kernel runs before the first round and after every round.  The
    host's speed also flickers within seconds, faster than a round, so a
    round's ``probe_s`` is the mean of the four probes nearest to it: the
    two on either side of it and one more a round further out each way.
    """
    rounds = []
    probes = [speed.probe()]
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        if before is not None:
            before()
        rounds.append(workload.run_round())
        if after is not None:
            after()
        probes.append(speed.probe())
    for i, done in enumerate(rounds):
        done.probe_s = statistics.mean(probes[max(0, i - 1) : i + 3])
    return rounds


def peak_rss_mb(workers: int) -> float:
    """Peak RSS of this process plus ``workers`` times its largest child's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + (workers * child if workers > 1 else 0)) / 1024.0


def end_to_end(workload, rounds, setup_s, rss_mb):
    from ledger import percentile

    # every time is in reference seconds (``speed.py``), scaled by the speed
    # kernel's time around its own round
    times = [speed.to_reference(r.wall_s, r.probe_s) for r in rounds]
    rates = [r.completed / t for r, t in zip(rounds, times)]
    if workload.kind == "kv":
        # each round's percentiles, then the median over rounds: a burst of
        # host stalls that fills one round's tail does not set the run's
        per_round = [
            sorted(speed.to_reference(s, r.probe_s) for s in r.latencies_s)
            for r in rounds
        ]
        p50 = statistics.median(statistics.median(l) for l in per_round)
        p99 = statistics.median(percentile(l, 0.99) for l in per_round)
        samples = sum(len(l) for l in per_round)
    else:
        # a sweep exposes no per-trial timing untraced: each round gives the
        # time per simulated commit of its fixed trial list
        latencies = sorted(t / r.attempted for r, t in zip(rounds, times))
        p50 = statistics.median(latencies)
        p99 = percentile(latencies, 0.99)
        samples = len(latencies)
    figures = {
        "setup_s": setup_s,
        "trials_per_s": statistics.median(rates),
        "txn_per_s": statistics.median(rates),
        "commit_ms_p50": 1e3 * p50,
        "commit_ms_p99": 1e3 * p99,
        "peak_rss_mb": rss_mb,
    }
    return figures, samples


def round_failures(workload, rounds):
    failures = [f for r in rounds for f in r.failures]
    if workload.kind == "sweep":
        failures += checks.check_fingerprints(
            workload.name, workload.seed, [r.fingerprint for r in rounds]
        )
    return failures


def measure(workload, args, setup_s):
    rounds = run_rounds(workload, args.seconds)
    rss = peak_rss_mb(workload.workers)
    setups = [setup_s] + [probe_setup(args) for _ in range(SETUP_PROBES)]
    figures, samples = end_to_end(workload, rounds, statistics.median(setups), rss)
    info = {
        "rounds": len(rounds),
        "latency_samples": samples,
        "setup_samples_s": setups,
        "probe_ms": 1e3 * statistics.median(r.probe_s for r in rounds),
        "wall_per_s": statistics.median(r.completed / r.wall_s for r in rounds),
    }
    return rounds, round_failures(workload, rounds), figures, info


def measure_traced(workload, args):
    """Untraced rounds, then the same rounds through the layer ledger.

    Each phase gets half of ``--seconds``, so a traced run takes as long as
    an untraced one.
    """
    import ledger as ledger_mod

    half = args.seconds / 2
    plain = run_rounds(workload, half)
    book = ledger_mod.Ledger()
    if workload.kind == "kv":
        ledger_mod.install_kv(book)
        windows = []
        workload.lag_samples = []
        workload.on_window = lambda edge: (
            book.reset() if edge == "start" else windows.append(book.take())
        )
        traced = run_rounds(workload, half)
        layers = ledger_mod.kv_layers(
            ledger_mod.merge_snapshots(windows),
            len(traced),
            workload.lag_samples,
            messages=sum(r.messages for r in traced),
            completed=sum(r.completed for r in traced),
            aborted=sum(r.aborted for r in traced),
        )
    else:
        build = ROOT / ".bench_build"
        build.mkdir(exist_ok=True)
        spill_dir = Path(tempfile.mkdtemp(prefix="commitbench-spill-", dir=build))
        try:
            ledger_mod.install_sweep(book, spill_dir)
            parents, workers = [], []
            traced = run_rounds(
                workload,
                half,
                before=book.reset,
                after=lambda: (
                    parents.append(book.take()),
                    workers.extend(ledger_mod.collect_spills(spill_dir)),
                ),
            )
        finally:
            book.unwrap_all()
            shutil.rmtree(spill_dir, ignore_errors=True)
        layers = ledger_mod.sweep_layers(
            ledger_mod.merge_snapshots(parents),
            workers,
            len(traced),
            workload.workers,
            sum(r.wall_s for r in traced),
        )
    info = {
        "rounds_untraced": len(plain),
        "rounds_traced": len(traced),
        "round_s_untraced": statistics.median(
            speed.to_reference(r.wall_s, r.probe_s) for r in plain
        ),
        "round_s_traced": statistics.median(
            speed.to_reference(r.wall_s, r.probe_s) for r in traced
        ),
    }
    layers["trace.overhead_frac"] = info["round_s_traced"] / info["round_s_untraced"] - 1.0
    failures = round_failures(workload, plain + traced)
    if workload.kind == "sweep" and plain[0].fingerprint != traced[0].fingerprint:
        failures.append(
            f"traced fingerprint {traced[0].fingerprint} != untraced "
            f"{plain[0].fingerprint}: observation changed the output"
        )
    return plain + traced, failures, layers, info


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"commitbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.make(args.workload, args.seed)
    setup_wall_s = set_up(workload)
    probe_s = speed.probe()
    setup_s = speed.to_reference(setup_wall_s, probe_s)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s, "wall_s": setup_wall_s, "probe_s": probe_s}))
        return 0
    if args.trace:
        rounds, failures, figures, info = measure_traced(workload, args)
        section = "per_layer"
    else:
        rounds, failures, figures, info = measure(workload, args, setup_s)
        section = "end_to_end"
    names = [metric["name"] for metric in SPEC[section]]
    unknown = sorted(set(figures) - set(names))
    if unknown:
        raise KeyError(f"figures not declared in BENCHMARK.json: {unknown}")
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    info.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        python=platform.python_version(),
        nproc=os.cpu_count(),
        workers=workload.workers,
        failed_frac=failed / attempted,
        check_failures=failures[:10],
    )
    print(json.dumps(info, sort_keys=True))
    for failure in failures:
        print(f"commitbench: check failed: {failure}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        # a layer the workload never enters reports 0 for its per-layer
        # metrics; every end-to-end metric is measured on every workload
        "metrics": {
            metric["name"]: {
                "value": figures[metric["name"]]
                if section == "end_to_end"
                else figures.get(metric["name"], 0.0),
                "unit": metric["unit"],
            }
            for metric in SPEC[section]
        },
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
