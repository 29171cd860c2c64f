"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``envs``
    List registered environments and their action-space sizes.
``agents``
    List available agents and their hyperparameter grids.
``run``
    Run one agent on one environment and print the best design.
``sweep``
    Run a hyperparameter-lottery sweep and print the Fig. 4/5-style
    distribution table.
``collect``
    Run several agents, log all trajectories, and write an ArchGym
    dataset (JSONL) — the §3.4 pipeline.
``serve``
    Host registered environments as an HTTP evaluation service
    (``POST /evaluate_batch`` + ``GET /healthz`` + the ``/cache``
    lookup, write and listing) that remote sweeps point
    ``--service-url`` at.

``sweep`` and ``collect`` accept ``--workers N`` to fan trials out over
a process pool (results are bit-identical for any worker count) and
``--no-cache`` to disable the per-environment design-point evaluation
cache. ``--out-dir DIR`` streams every finished trial to disk as an
atomic shard (killed runs keep their progress), ``--resume`` re-enters
such a directory and runs only the missing trials, and
``--shared-cache`` adds a cross-process design-point cache under the
out-dir so concurrent trials reuse each other's evaluations.
``--service-url URL[=WEIGHT]`` dispatches every cost-model call to a
running ``repro serve`` instance instead of evaluating in-process —
results stay bit-identical (same seeds, same trial order); repeat the
flag to spread one sweep over several hosts (round-robin scheduling,
automatic failover when a host dies), with ``=WEIGHT`` declaring a
host's relative capacity, its share of a scattered generation (or let
``--auto-weights`` tune the weights from each host's observed service
rate). With ``--shared-cache`` the
(first) service also hosts the shared design-point cache, so sweeps
on different machines reuse each other's evaluations — writes are
replicated to ``--cache-replicas`` pool hosts (default 2), reads
fail over to a replica if the cache host dies, and revived hosts are
backfilled, so no entry is ever lost. Population-based agents
(GA/ACO) evaluate whole generations per round trip, scattered across
the host pool by weight. ``--pipeline`` upgrades that scatter to
streaming dispatch with work stealing: hosts pull work units as they
finish, idle hosts steal a straggler's remainder, and the next
generation starts while the straggler's abandoned request drains
(results stay byte-identical).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

import repro
from repro.agents import (
    AGENT_NAMES,
    HYPERPARAM_GRIDS,
    make_agent,
    run_agent,
)
from repro.core.dataset import ArchGymDataset
from repro.sweeps import (
    TrialTask,
    execute_trials,
    resolve_execution_backend,
    run_lottery_sweep,
    validate_sweep_args,
)

__all__ = ["main", "build_parser"]


class RegistryEnvFactory:
    """A picklable ``env_factory``: ``repro.make`` deferred to call time.

    ``--workers`` sends trial tasks across a process boundary, so the
    factory must pickle — a lambda closed over argparse values cannot.
    """

    def __init__(self, env_id: str, **kwargs: object) -> None:
        self.env_id = env_id
        self.kwargs = kwargs

    def __call__(self) -> repro.ArchGymEnv:
        return repro.make(self.env_id, **self.kwargs)

    @property
    def env_kwargs(self) -> dict:
        """Construction kwargs a remote backend forwards to the server,
        so ``repro serve`` builds the same workload/objective variant."""
        return dict(self.kwargs)

    @property
    def fingerprint_signature(self) -> str:
        """Folds the construction kwargs (workload, objective, …) into
        the durable-sweep fingerprint — same env_id with a different
        workload is a different experiment and must not resume-merge."""
        return json.dumps(
            {"env_id": self.env_id, "kwargs": self.kwargs},
            sort_keys=True, default=str,
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ArchGym reproduction: ML-assisted architecture DSE.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("envs", help="list registered environments")

    sub.add_parser("agents", help="list agents and hyperparameter grids")

    run_p = sub.add_parser("run", help="run one agent on one environment")
    run_p.add_argument("--env", required=True, help="environment id (see `envs`)")
    run_p.add_argument("--agent", required=True, choices=sorted(HYPERPARAM_GRIDS))
    run_p.add_argument("--workload", default=None, help="environment workload")
    run_p.add_argument("--objective", default=None, help="environment objective")
    run_p.add_argument("--samples", type=int, default=200)
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--hyperparams", default=None,
                       help="JSON dict of agent hyperparameters")

    sweep_p = sub.add_parser("sweep", help="hyperparameter-lottery sweep")
    sweep_p.add_argument("--env", required=True)
    sweep_p.add_argument("--agents", default=",".join(AGENT_NAMES),
                         help="comma-separated agent names")
    sweep_p.add_argument("--workload", default=None)
    sweep_p.add_argument("--objective", default=None)
    sweep_p.add_argument("--trials", type=int, default=4)
    sweep_p.add_argument("--samples", type=int, default=150)
    sweep_p.add_argument("--seed", type=int, default=0)
    sweep_p.add_argument("--workers", type=int, default=1,
                         help="process-pool width; trial results are "
                              "bit-identical for any worker count")
    sweep_p.add_argument("--no-cache", action="store_true",
                         help="disable the design-point evaluation cache")
    _add_durability_args(sweep_p)
    sweep_p.add_argument("--boxplots", action="store_true",
                         help="render per-agent distribution box plots")
    sweep_p.add_argument("--export", default=None,
                         help="write all trials to this path (.json or .csv)")

    col_p = sub.add_parser("collect", help="collect a multi-agent dataset")
    col_p.add_argument("--env", required=True)
    col_p.add_argument("--agents", default="rw,ga,aco")
    col_p.add_argument("--workload", default=None)
    col_p.add_argument("--samples", type=int, default=200,
                       help="samples per agent")
    col_p.add_argument("--seed", type=int, default=0)
    col_p.add_argument("--workers", type=int, default=1,
                       help="process-pool width (one task per agent)")
    col_p.add_argument("--no-cache", action="store_true",
                       help="disable the design-point evaluation cache")
    _add_durability_args(col_p)
    col_p.add_argument("--out", required=True, help="output JSONL path")

    serve_p = sub.add_parser(
        "serve", help="host environments as an HTTP evaluation service"
    )
    serve_p.add_argument("--envs", default=None,
                         help="comma-separated environment ids to serve "
                              "(default: every registered environment)")
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument("--port", type=int, default=0,
                         help="bind port (0 picks a free one; the bound "
                              "url is printed on startup)")
    serve_p.add_argument("--cache-dir", default=None,
                         help="back the /cache design-point store with "
                              "this directory so it survives restarts "
                              "(default: in-memory)")
    return parser


def _add_durability_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out-dir", default=None,
                        help="stream per-trial result shards into this "
                             "directory (atomic writes; killed runs keep "
                             "their progress)")
    parser.add_argument("--resume", action="store_true",
                        help="with --out-dir: skip trials whose shard is "
                             "already on disk and run only the remainder")
    parser.add_argument("--shared-cache", action="store_true",
                        help="share design-point evaluations across "
                             "trials/processes via a file-backed cache "
                             "under --out-dir (or, with --service-url, "
                             "the service's /cache store)")
    parser.add_argument("--service-url", default=None, action="append",
                        metavar="URL[=WEIGHT]",
                        help="dispatch cost-model evaluations to the "
                             "`repro serve` instance at this URL instead "
                             "of running them in-process (results stay "
                             "bit-identical); repeat the flag to spread "
                             "the sweep over several hosts with "
                             "round-robin scheduling and failover. Append "
                             "=WEIGHT (default 1) to declare a host's "
                             "relative capacity: a weight-2 host takes "
                             "twice the share of every scattered "
                             "generation")
    parser.add_argument("--pipeline", action="store_true",
                        help="stream generations instead of scattering "
                             "behind a barrier: hosts pull work units as "
                             "they finish and idle hosts steal a "
                             "straggler's remainder, so the next "
                             "generation starts without waiting on the "
                             "slowest host (results stay byte-identical)")
    parser.add_argument("--auto-weights", action="store_true",
                        help="self-tune the pool's dispatch weights "
                             "from each host's observed service rate "
                             "(/healthz counters, EWMA-smoothed, "
                             "clamped so no host starves) — "
                             "heterogeneous fleets rebalance "
                             "automatically (results stay "
                             "byte-identical); requires --service-url")
    parser.add_argument("--cache-replicas", type=int, default=None,
                        metavar="N",
                        help="with --shared-cache and --service-url: "
                             "replicate every shared-cache write to N "
                             "pool hosts (default: min(2, pool size)) "
                             "so a dying cache host loses no entries — "
                             "reads fail over to a replica and revived "
                             "hosts are backfilled")
    parser.add_argument("--proxy-screen", action="store_true",
                        help="pre-screen generations with an online "
                             "surrogate trained from the shared cache: "
                             "agents' proposals are ranked by predicted "
                             "fitness and only the top slice is really "
                             "simulated (requires --shared-cache plus "
                             "--out-dir or --service-url; results change "
                             "— the decision is fingerprinted)")
    parser.add_argument("--proxy-oversample", type=int, default=4,
                        metavar="X",
                        help="with --proxy-screen: evaluate roughly 1/X "
                             "of each generation for real, the surrogate "
                             "answers the rest (default: 4)")
    parser.add_argument("--proxy-topk", type=int, default=None,
                        metavar="K",
                        help="with --proxy-screen: simulate exactly the "
                             "K best-predicted proposals per generation "
                             "(overrides --proxy-oversample)")
    parser.add_argument("--proxy-refresh", type=float, default=0.1,
                        metavar="FRAC",
                        help="with --proxy-screen: always ground-truth a "
                             "seeded random FRAC (of the accepted count) "
                             "of proxy-rejected proposals so the "
                             "surrogate cannot drift unchallenged "
                             "(default: 0.1)")
    parser.add_argument("--proxy-min-corpus", type=int, default=64,
                        metavar="N",
                        help="with --proxy-screen: fall back to plain "
                             "dispatch until the shared cache holds at "
                             "least N design points and the surrogate's "
                             "validation RMSE clears the gate "
                             "(default: 64)")
    parser.add_argument("--service-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="per-attempt socket timeout for service "
                             "requests; size it above your slowest "
                             "single evaluation (default: 60)")
    parser.add_argument("--service-retries", type=int, default=None,
                        help="transport-failure retries per service "
                             "request (default: 2)")


def _env_kwargs(args: argparse.Namespace) -> dict:
    kwargs = {}
    if getattr(args, "workload", None):
        kwargs["workload"] = args.workload
    if getattr(args, "objective", None):
        kwargs["objective"] = args.objective
    return kwargs


def _cmd_envs() -> int:
    for env_id in repro.registered_ids():
        env = repro.make(env_id)
        print(f"{env_id:18s} dim={env.action_space.dimension:3d} "
              f"|A|={env.action_space.cardinality:.3g} "
              f"obs={env.observation_metrics}")
    return 0


def _cmd_agents() -> int:
    for name in sorted(HYPERPARAM_GRIDS):
        print(f"{name}:")
        for key, values in HYPERPARAM_GRIDS[name].items():
            print(f"    {key} in {values}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    env = repro.make(args.env, **_env_kwargs(args))
    hyperparams = json.loads(args.hyperparams) if args.hyperparams else {}
    agent = make_agent(args.agent, env.action_space, seed=args.seed, **hyperparams)
    result = run_agent(agent, env, n_samples=args.samples, seed=args.seed)
    print(f"agent:       {agent.hyperparam_tag()}")
    print(f"samples:     {result.n_samples}")
    print(f"best reward: {result.best_reward:.6g}")
    print(f"target met:  {result.target_met}")
    print("best metrics:")
    for key, value in sorted(result.best_metrics.items()):
        print(f"    {key:14s} = {value:.6g}")
    print("best design:")
    for key, value in sorted(result.best_action.items()):
        print(f"    {key:22s} = {value}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    agents = tuple(a.strip() for a in args.agents.split(",") if a.strip())
    report = run_lottery_sweep(
        RegistryEnvFactory(args.env, **_env_kwargs(args)),
        agents=agents, n_trials=args.trials,
        n_samples=args.samples, seed=args.seed,
        workers=args.workers, cache=False if args.no_cache else None,
        out_dir=args.out_dir, resume=args.resume,
        shared_cache=args.shared_cache, service_url=args.service_url,
        service_timeout_s=args.service_timeout,
        service_retries=args.service_retries,
        pipeline=args.pipeline,
        auto_weights=args.auto_weights,
        cache_replicas=args.cache_replicas,
        proxy_screen=args.proxy_screen,
        proxy_oversample=args.proxy_oversample,
        proxy_topk=args.proxy_topk,
        proxy_refresh=args.proxy_refresh,
        proxy_min_corpus=args.proxy_min_corpus,
    )
    print(report.print_table(boxplots=args.boxplots))
    if args.export:
        from repro.sweeps.export import save_report_csv, save_report_json

        if str(args.export).endswith(".csv"):
            save_report_csv(report, args.export)
        else:
            save_report_json(report, args.export)
        print(f"exported trials to {args.export}")
    return 0


def _cmd_collect(args: argparse.Namespace) -> int:
    agents = tuple(a.strip() for a in args.agents.split(",") if a.strip())
    validate_sweep_args(
        agents, args.samples, args.workers, resume=args.resume,
        out_dir=args.out_dir, shared_cache=args.shared_cache,
        service_url=args.service_url, proxy_screen=args.proxy_screen,
        proxy_oversample=args.proxy_oversample, proxy_topk=args.proxy_topk,
        proxy_refresh=args.proxy_refresh, proxy_min_corpus=args.proxy_min_corpus,
    )
    factory = RegistryEnvFactory(args.env, **_env_kwargs(args))
    backend, server_cache, shared_cache_dir = resolve_execution_backend(
        args.service_url, args.shared_cache, args.out_dir,
        env_kwargs=factory.env_kwargs,
        timeout_s=args.service_timeout, retries=args.service_retries,
        auto_weights=args.auto_weights,
        cache_replicas=args.cache_replicas,
        proxy_screen=args.proxy_screen,
    )
    tasks = [
        TrialTask(
            index=i, agent=name, hyperparams={},
            agent_seed=args.seed, run_seed=args.seed,
            n_samples=args.samples, env_factory=factory,
            collect=True, cache=False if args.no_cache else None,
            shared_cache_dir=shared_cache_dir,
            backend=backend, server_cache=server_cache,
            cache_replicas=args.cache_replicas,
            pipeline=args.pipeline,
            proxy_screen=args.proxy_screen,
            proxy_oversample=args.proxy_oversample,
            proxy_topk=args.proxy_topk,
            proxy_refresh=args.proxy_refresh,
            proxy_min_corpus=args.proxy_min_corpus,
        )
        for i, name in enumerate(agents)
    ]
    if args.out_dir:
        from repro.sweeps.shards import execute_durable, sweep_fingerprint

        probe = factory()
        try:
            env_id = probe.env_id
        finally:
            probe.close()
        # Two call sites on purpose: adding the proxy kwargs
        # unconditionally would change every historical fingerprint and
        # strand pre-existing --out-dir shards. Only proxy-screened
        # collections carry the extra keys.
        if args.proxy_screen:
            fingerprint = sweep_fingerprint(
                kind="collect", env_id=env_id,
                env_signature=factory.fingerprint_signature,
                agents=list(agents), n_samples=args.samples, seed=args.seed,
                proxy_screen=args.proxy_screen,
                proxy_oversample=args.proxy_oversample,
                proxy_topk=args.proxy_topk,
                proxy_refresh=args.proxy_refresh,
                proxy_min_corpus=args.proxy_min_corpus,
            )
        else:
            fingerprint = sweep_fingerprint(
                kind="collect", env_id=env_id,
                env_signature=factory.fingerprint_signature,
                agents=list(agents), n_samples=args.samples, seed=args.seed,
            )
        manifest = {
            "fingerprint": fingerprint, "kind": "collect", "env_id": env_id,
            "env_signature": factory.fingerprint_signature,
            "agents": list(agents), "n_trials": 1, "n_samples": args.samples,
            "seed": args.seed, "collect": True, "n_tasks": len(tasks),
            "workers": args.workers,
        }
        outcomes = execute_durable(
            tasks, args.out_dir, manifest, workers=args.workers,
            resume=args.resume, keep_outcomes=True,
        )
    else:
        outcomes = execute_trials(tasks, workers=args.workers)
    dataset = ArchGymDataset.merge_all(
        [ArchGymDataset(o.env_id, o.transitions) for o in outcomes]
    )
    # Per-task environments restart their step counters; restore the
    # single-process global numbering before writing.
    dataset.renumber_steps()
    dataset.save_jsonl(args.out)
    print(f"wrote {len(dataset)} transitions from {len(dataset.sources)} "
          f"sources to {args.out}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import functools

    from repro.core.errors import ArchGymError
    from repro.service import EvaluationService

    if args.envs:
        env_ids = [e.strip() for e in args.envs.split(",") if e.strip()]
        unknown = [e for e in env_ids if e not in repro.registered_ids()]
        if unknown:
            raise ArchGymError(
                f"unknown environment id(s) {unknown}; "
                f"registered: {repro.registered_ids()}"
            )
    else:
        env_ids = list(repro.registered_ids())
    service = EvaluationService(
        host=args.host, port=args.port, cache_dir=args.cache_dir
    )
    for env_id in env_ids:
        service.register(env_id, functools.partial(repro.make, env_id))
    url = service.start()
    # The exact phrase tools/check_service.py (and humans) parse for.
    print(f"serving {len(env_ids)} environment(s) at {url}", flush=True)
    for env_id in env_ids:
        print(f"    {env_id}", flush=True)
    try:
        service.wait()
    except KeyboardInterrupt:
        print("shutting down", flush=True)
        service.stop()
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "envs":
        return _cmd_envs()
    if args.command == "agents":
        return _cmd_agents()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "collect":
        return _cmd_collect(args)
    if args.command == "serve":
        return _cmd_serve(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
