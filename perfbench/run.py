#!/usr/bin/env python3
"""ArchGym sweep benchmark: four closed-loop lottery-sweep workloads.

Usage, from the repository root::

    python3 perfbench/run.py --workload dram-serial --seed 1 --seconds 20 --trace 0

One driver process runs the workload's lottery of sweep rounds, one
trial at a time, checks every trial against its pinned digest, and
prints one JSON object as the last line of standard output::

    {"correct": true, "attempted": 16, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps the
public functions at each layer boundary (from ``spans.py``; nothing in
``src/`` is edited), reports the per-layer metrics, and writes the
spans as Chrome trace-event JSON under ``perfbench/.work/`` (open it in
Perfetto). End-to-end times are in reference seconds (``calib.py``).
``README.md`` beside this file describes the workloads and metrics;
``digests.json`` is regenerated by ``pin.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
WORK = HERE / ".work"
#: Run length the round counts in ``workloads.py`` are sized for.
DEFAULT_SECONDS = 15
#: Set-up is timed this many times per run (the run's own plus fresh
#: child processes) and reported as the median.
SETUP_SAMPLES = 3


def log(msg: str) -> None:
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


class Context:
    """What set-up hands to the timed sweep."""

    def __init__(self, run_dir: Path) -> None:
        self.run_dir = run_dir
        self.factory = None
        self.hosts = []
        self.urls = None

    def close(self) -> None:
        from hosts import stop_hosts

        stop_hosts(self.hosts)


def setup(workload, run_dir: Path) -> Context:
    """Everything between workload start and the first trial: imports,
    the probe env, spawning and health-checking hosts, and opening the
    first warm-corpus copy."""
    sys.path.insert(0, str(REPO / "src"))
    from repro.cli import RegistryEnvFactory  # imports the whole stack

    ctx = Context(run_dir)
    try:
        ctx.factory = RegistryEnvFactory(workload.env_id)
        ctx.factory().close()
        if workload.hosts:
            from hosts import start_hosts

            ctx.hosts = start_hosts(REPO, workload.env_id, workload.hosts, run_dir)
            ctx.urls = [h.url for h in ctx.hosts]
        if workload.proxy:
            from corpus import copy_corpus
            from repro.core.cache_store import SharedCacheStore

            copy_corpus(WORK, run_dir / "round-0")
            SharedCacheStore(run_dir / "round-0" / "shared-cache")
    except BaseException:
        ctx.close()
        raise
    return ctx


def timed_setup(workload, run_dir: Path):
    """``setup`` timed in reference seconds, by kernel samples taken just
    before and after it: ``(ctx, seconds)``."""
    speed = calib.SpeedMeter()
    for _ in range(5):
        speed.sample()
    start = time.perf_counter()
    ctx = setup(workload, run_dir)
    elapsed = time.perf_counter() - start
    for _ in range(5):
        speed.sample()
    return ctx, elapsed * speed.factor(0)


def setup_probes(args, n: int) -> list:
    """Time set-up in ``n`` fresh interpreters, one after another."""
    times = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(args.seed),
             "--setup-probe"],
            cwd=REPO, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr[-2000:]}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def ensure_corpus() -> None:
    """Build the warm corpus in a child process, so this process's
    imports are still cold when set-up timing starts."""
    from corpus import corpus_ready

    if corpus_ready(WORK):
        return
    log("building the warm corpus (first run in this checkout)")
    subprocess.run(
        [sys.executable, str(HERE / "corpus.py"), str(WORK)],
        cwd=REPO, check=True, timeout=850,
    )


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def cpu_self() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


@contextlib.contextmanager
def calibrated(speed: calib.SpeedMeter):
    """Take calibration samples while rounds run, before trials, env
    steps and proxy tree fits. The hooks wrap whatever is installed (the
    tracer's wrappers in a traced run), so calibration never falls
    inside the span of the call it precedes."""
    import repro.sweeps.executor as executor
    from repro.core.env import ArchGymEnv
    from repro.proxy.tree import DecisionTreeRegressor

    def hook(func):
        def calibrated_call(*args, **kwargs):
            speed.maybe_sample()
            return func(*args, **kwargs)

        return calibrated_call

    # Proxy refits run for seconds between env steps; each tree fit
    # within them is a sampling point too.
    targets = [(executor, "run_trial"), (DecisionTreeRegressor, "fit")] + [
        (ArchGymEnv, name) for name in ("step", "step_batch", "step_batch_stream")
    ]
    saved = [(owner, name, getattr(owner, name)) for owner, name in targets]
    for owner, name, func in saved:
        setattr(owner, name, hook(func))
    try:
        yield
    finally:
        for owner, name, func in saved:
            setattr(owner, name, func)


def run_workload(args, workload, ctx: Context, tracer) -> dict:
    from repro.sweeps import run_lottery_sweep

    import workloads as wl

    pinned = wl.load_digests()[workload.name]
    n_rounds = max(1, round(workload.rounds * args.seconds / DEFAULT_SECONDS))
    order = wl.round_order(workload, args.seed, n_rounds)
    attempted = failed = samples = 0
    wall = measured = driver_cpu = 0.0
    results = []
    speed = calib.SpeedMeter()
    before = [h.snapshot() for h in ctx.hosts]
    speed.sample()
    with calibrated(speed):
        for position, round_seed in enumerate(order):
            out_dir = None
            if workload.proxy:
                out_dir = ctx.run_dir / f"round-{position}"
                if position:  # round 0's copy was opened by set-up
                    from corpus import copy_corpus

                    copy_corpus(WORK, out_dir)
            kwargs = wl.sweep_kwargs(workload, ctx.urls, out_dir)
            attempted += workload.trials_per_round
            region = (
                tracer.region("sweeps.round", "sweeps") if tracer is not None
                else contextlib.nullcontext()
            )
            mark = len(speed.samples) - 1
            speed.take_inside()
            t0, c0 = time.perf_counter(), cpu_self()
            try:
                with region:
                    report = run_lottery_sweep(ctx.factory, seed=round_seed, **kwargs)
            except Exception as exc:  # a failed round counts, the run goes on
                log(f"round {round_seed} raised {exc!r}")
                failed += workload.trials_per_round
                continue
            finally:
                # Calibration inside the round is taken out; the rest is
                # scaled by the machine speed measured around the round.
                inside = speed.take_inside()
                elapsed = time.perf_counter() - t0 - inside
                cpu = cpu_self() - c0 - inside
                speed.sample()
                factor = speed.factor(mark)
                measured += elapsed
                wall += elapsed * factor
                driver_cpu += cpu * factor
            trials = [r for agent in workload.agents for r in report.results[agent]]
            results.extend(trials)
            samples += sum(r.n_samples for r in trials)
            bad = wl.check_round(report, workload, pinned.get(str(round_seed), []))
            for index, reason in sorted(bad.items()):
                log(f"round {round_seed} trial {index}: {reason}")
            failed += len(bad)
            if out_dir is not None:
                shutil.rmtree(out_dir, ignore_errors=True)
    after = [h.snapshot() for h in ctx.hosts]
    host_delta = [{k: a[k] - b[k] for k in a} for b, a in zip(before, after)]
    checks_ok = True
    if ctx.hosts:
        host_evals = sum(d["evaluations"] for d in host_delta)
        misses = sum(r.cache_misses for r in results)
        if host_evals != misses:
            log(f"hosts ran {host_evals:.0f} evaluations for {misses} misses")
            checks_ok = False
    log(f"{len(speed.samples)} calibration samples, mean kernel "
        f"{1e3 * statistics.fmean(d for _, d in speed.samples):.3f} ms")
    return dict(
        attempted=attempted, failed=failed, samples=samples, wall=wall,
        measured=measured, speed=wall / measured if measured else 1.0,
        driver_cpu=driver_cpu, host_delta=host_delta, results=results,
        checks_ok=checks_ok,
    )


def end_to_end(run: dict, setup_times: list) -> dict:
    samples = max(run["samples"], 1)
    host_cpu = sum(d["cpu_s"] for d in run["host_delta"]) * run["speed"]
    return {
        "samples_per_s": (run["samples"] / max(run["wall"], 1e-9), "samples/s"),
        "cpu_ms_per_sample": (
            1000.0 * (run["driver_cpu"] + host_cpu) / samples, "ms"
        ),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
        "success_rate": (
            1.0 - run["failed"] / max(run["attempted"], 1), "ratio"
        ),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (REPO / "src" / "repro" / "__init__.py").is_file():
        log(f"no repro package under {REPO / 'src'}; run from a full checkout")
        return 2
    import workloads as wl

    workload = wl.WORKLOADS.get(args.workload)
    if workload is None:
        log(f"unknown workload {args.workload!r}; have {sorted(wl.WORKLOADS)}")
        return 2
    WORK.mkdir(exist_ok=True)
    kind = "probe" if args.setup_probe else "run"
    run_dir = fresh_dir(WORK / kind / f"{workload.name}-{args.seed}")
    if not args.setup_probe:
        ensure_corpus()
    ctx, setup_time = timed_setup(workload, run_dir)
    tracer = None
    try:
        if args.setup_probe:
            print(repr(setup_time))
            return 0
        setup_times = [setup_time] + setup_probes(args, SETUP_SAMPLES - 1)
        if args.trace:
            import spans

            tracer = spans.Tracer()
            tracer.install()
        try:
            run = run_workload(args, workload, ctx, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        ctx.close()
        shutil.rmtree(run_dir, ignore_errors=True)
    if tracer is not None:
        trace_path = WORK / f"trace-{workload.name}.json"
        tracer.write_chrome_trace(trace_path)
        log(f"wrote {trace_path}")
        metrics = tracer.per_layer(run)
    else:
        metrics = end_to_end(run, setup_times)
    log(f"{workload.name} seed {args.seed}: {run['samples']} samples in "
        f"{run['measured']:.2f}s measured = {run['wall']:.2f} reference s; "
        f"set-up {[round(t, 3) for t in setup_times]} reference s")
    print(json.dumps({
        "correct": run["failed"] == 0 and run["checks_ok"] and run["attempted"] > 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
