"""Command-line interface.

A small CLI that exposes the common pipeline without writing any Python::

    repro-em generate --preset hepth --scale 0.25 --output data.json
    repro-em cover    --dataset data.json
    repro-em match    --dataset data.json --matcher mln --scheme smp --output clusters.json
    repro-em stream-trace --dataset data.json --base-output base.json --trace-output trace.json
    repro-em stream   --dataset base.json --deltas trace.json --verify
    repro-em stream   --dataset base.json --deltas trace.json --durable-dir wal/
    repro-em recover  --durable-dir wal/ --verify
    repro-em serve    --dataset data.json --port 8080
    repro-em serve    --durable-dir wal/ --port 8080
    repro-em info

Every subcommand prints a plain-text report; ``match`` additionally writes the
resolved clusters as JSON when ``--output`` is given and reports
precision/recall against the dataset's ground truth.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from . import __version__
from .blocking import CanopyBlocker, build_total_cover
from .core import EMFramework
from .datamodel import CompactStore, MatchSet
from .datasets import (
    BibliographicDataset,
    dblp_big_like,
    dblp_like,
    hepth_like,
    load_dataset,
    save_dataset,
)
from .evaluation import evaluate_cover, format_key_values, format_table, precision_recall_f1
from .exceptions import (
    DeltaError,
    DurabilityError,
    InputFormatError,
    RecoveryError,
    ServiceError,
    TaskFailedError,
)
from .matchers import MLNMatcher, PairwiseMatcher, RulesMatcher
from .parallel import EXECUTOR_KINDS

_PRESETS = {
    "hepth": hepth_like,
    "dblp": dblp_like,
    "dblp-big": dblp_big_like,
}

_MATCHERS = {
    "mln": MLNMatcher,
    "rules": RulesMatcher,
    "pairwise": PairwiseMatcher,
}

#: Exit codes of the typed failures the CLI turns into one-line messages.
EXIT_TASK_FAILED = 4
EXIT_RECOVERY_FAILED = 5
EXIT_DURABILITY_ERROR = 6
EXIT_SERVICE_ERROR = 7
EXIT_DELTA_ERROR = 8
EXIT_BAD_INPUT = 9


def _add_kernel_argument(subparser: argparse.ArgumentParser) -> None:
    """The batch-kernel backend flag shared by the scoring subcommands."""
    from .kernels import VALID_CHOICES
    subparser.add_argument(
        "--kernel-backend", choices=list(VALID_CHOICES), default=None,
        help="batch scoring kernel backend: 'numpy' requires the "
             "[speed] extra, 'python' forces the scalar reference "
             "paths, 'auto' probes (default; scores are byte-identical "
             "either way)")


def _add_trace_argument(subparser: argparse.ArgumentParser) -> None:
    """The structured-tracing flag shared by the pipeline subcommands."""
    subparser.add_argument(
        "--trace-out", type=Path, default=None, metavar="PATH",
        help="record structured spans for the whole command (blocking, "
             "grid rounds, worker tasks, inference, WAL, ...) and write "
             "them to this JSONL file; summarize with 'repro-em "
             "trace-report PATH'")


def _add_fault_arguments(subparser: argparse.ArgumentParser) -> None:
    """Fault-tolerance flags shared by the grid-running subcommands."""
    subparser.add_argument(
        "--task-timeout", type=float, default=None, metavar="SECONDS",
        help="abandon and retry any grid task running longer than this "
             "(fault-tolerant supervision; default: no deadline)")
    subparser.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help="retry a failed grid task up to N times with exponential "
             "backoff before degrading it to an inline run (enables "
             "fault-tolerant supervision; default policy retries 2)")
    subparser.add_argument(
        "--speculate", action="store_true",
        help="launch speculative duplicates of straggler grid tasks "
             "(first result wins; match sets are unchanged)")


def _fault_policy(args: argparse.Namespace):
    """Build a FaultPolicy from the CLI flags, or None when none were given."""
    if args.task_timeout is None and args.retries is None \
            and not args.speculate:
        return None
    if args.task_timeout is not None and args.task_timeout <= 0:
        raise SystemExit("--task-timeout must be positive")
    if args.retries is not None and args.retries < 0:
        raise SystemExit("--retries must be >= 0")
    from .parallel import FaultPolicy
    kwargs = {"speculate": args.speculate}
    if args.task_timeout is not None:
        kwargs["task_timeout"] = args.task_timeout
    if args.retries is not None:
        kwargs["retries"] = args.retries
    return FaultPolicy(**kwargs)


def _check_shared_arguments(args: argparse.Namespace) -> None:
    """Rules on ``--workers``, ``--checkpoint-every``, ``--rebase-threshold``,
    ``--scale`` and the canopy thresholds for every subcommand that takes
    them, checked before any work starts."""
    workers = getattr(args, "workers", None)
    if workers is not None:
        if args.executor is None:
            raise SystemExit("--workers requires --executor")
        if workers < 1:
            raise SystemExit("--workers must be >= 1")
    if getattr(args, "checkpoint_every", 0) < 0:
        raise SystemExit("--checkpoint-every must be >= 0")
    if getattr(args, "rebase_threshold", 1) < 1:
        raise SystemExit("--rebase-threshold must be >= 1")
    if not getattr(args, "scale", 1.0) > 0:
        raise SystemExit("--scale must be positive")
    if not 0.0 <= getattr(args, "loose", 0.0) <= getattr(args, "tight", 1.0) <= 1.0:
        raise SystemExit("--loose and --tight must satisfy "
                         "0 <= loose <= tight <= 1")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-em",
        description="Scalable collective entity matching (PVLDB 2011 reproduction)",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser("generate", help="generate a synthetic labelled dataset")
    generate.add_argument("--preset", choices=sorted(_PRESETS), default="hepth")
    generate.add_argument("--scale", type=float, default=0.25,
                          help="size multiplier of the preset (default 0.25)")
    generate.add_argument("--seed", type=int, default=None, help="override the preset seed")
    generate.add_argument("--output", type=Path, required=True, help="JSON file to write")

    cover = subparsers.add_parser("cover", help="build and evaluate a total cover")
    cover.add_argument("--dataset", type=Path, required=True)
    cover.add_argument("--loose", type=float, default=0.78, help="canopy loose threshold")
    cover.add_argument("--tight", type=float, default=0.92, help="canopy tight threshold")
    _add_kernel_argument(cover)
    _add_trace_argument(cover)

    match = subparsers.add_parser("match", help="run a matcher under a message-passing scheme")
    match.add_argument("--dataset", type=Path, required=True)
    match.add_argument("--matcher", choices=sorted(_MATCHERS), default="mln")
    match.add_argument("--scheme", choices=["no-mp", "smp", "mmp", "full"], default="smp")
    match.add_argument("--executor", choices=list(EXECUTOR_KINDS), default=None,
                       help="map-phase engine of the round-based grid the "
                            "scheme runs on (not available with --scheme "
                            "full); omit for serial")
    match.add_argument("--workers", type=int, default=None,
                       help="pool size for --executor processes")
    match.add_argument("--output", type=Path, default=None,
                       help="write resolved clusters to this JSON file")
    _add_kernel_argument(match)
    _add_trace_argument(match)
    _add_fault_arguments(match)

    trace = subparsers.add_parser(
        "stream-trace",
        help="synthesise a streaming scenario (base dataset + delta trace) "
             "from a dataset")
    trace.add_argument("--dataset", type=Path, required=True,
                       help="the *final* instance the stream converges to")
    trace.add_argument("--batches", type=int, default=10)
    trace.add_argument("--holdout", type=float, default=0.3,
                       help="fraction of entities streamed in via deltas")
    trace.add_argument("--seed", type=int, default=7)
    trace.add_argument("--no-churn", action="store_true",
                       help="pure insertion stream (no transient "
                            "entities/edges/tuples)")
    trace.add_argument("--base-output", type=Path, required=True,
                       help="JSON file for the base dataset")
    trace.add_argument("--trace-output", type=Path, required=True,
                       help="JSON file for the delta trace")

    stream = subparsers.add_parser(
        "stream", help="replay a delta trace against a standing match set")
    stream.add_argument("--dataset", type=Path, required=True,
                        help="the base instance the session starts from")
    stream.add_argument("--deltas", type=Path, required=True,
                        help="delta trace produced by stream-trace")
    stream.add_argument("--matcher", choices=sorted(_MATCHERS), default="mln")
    stream.add_argument("--executor", choices=list(EXECUTOR_KINDS), default=None,
                        help="map-phase engine for the dirty-neighborhood "
                             "rounds (default serial)")
    stream.add_argument("--workers", type=int, default=None)
    stream.add_argument("--rebase-threshold", type=int, default=5000,
                        help="overlay size at which the session rebases onto "
                             "a fresh snapshot")
    stream.add_argument("--verify", action="store_true",
                        help="after the replay, cold-match the final "
                             "instance and require byte-identical matches")
    stream.add_argument("--durable-dir", type=Path, default=None,
                        help="run the session durably: write-ahead-log every "
                             "batch to this directory and checkpoint "
                             "periodically (see the recover subcommand)")
    stream.add_argument("--checkpoint-every", type=int, default=8,
                        help="batches between snapshot checkpoints when "
                             "--durable-dir is given (0 disables periodic "
                             "checkpoints)")
    stream.add_argument("--checkpoint-on-signal", action="store_true",
                        help="with --durable-dir: on SIGTERM/SIGINT finish "
                             "the in-flight batch, write a final checkpoint "
                             "and exit cleanly")
    stream.add_argument("--output", type=Path, default=None,
                        help="write final resolved clusters to this JSON file")
    _add_kernel_argument(stream)
    _add_trace_argument(stream)
    _add_fault_arguments(stream)

    recover = subparsers.add_parser(
        "recover",
        help="rebuild a durable streaming session after a crash "
             "(latest checkpoint + WAL tail replay)")
    recover.add_argument("--durable-dir", type=Path, required=True,
                         help="directory a durable stream session wrote "
                              "(WAL + checkpoints)")
    recover.add_argument("--executor", choices=list(EXECUTOR_KINDS),
                         default=None,
                         help="map-phase engine for the replayed batches")
    recover.add_argument("--workers", type=int, default=None)
    recover.add_argument("--verify", action="store_true",
                         help="after recovery, cold-match the recovered "
                              "instance and require byte-identical matches")
    recover.add_argument("--output", type=Path, default=None,
                         help="write recovered resolved clusters to this "
                              "JSON file")
    _add_kernel_argument(recover)
    _add_trace_argument(recover)
    _add_fault_arguments(recover)

    serve = subparsers.add_parser(
        "serve",
        help="serve the standing match set over HTTP (epoch-snapshot reads, "
             "delta commits, load shedding, read-only degradation)")
    serve.add_argument("--dataset", type=Path, default=None,
                       help="serve a fresh session over this dataset "
                            "(cold SMP run at startup)")
    serve.add_argument("--durable-dir", type=Path, default=None,
                       help="with --dataset: run the served session durably "
                            "(WAL + checkpoints) into this directory; "
                            "without --dataset: recover the session from it "
                            "(readiness is gated until recovery completes)")
    serve.add_argument("--matcher", choices=sorted(_MATCHERS), default="mln")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080,
                       help="listen port (0 picks a free one; default 8080)")
    serve.add_argument("--executor", choices=list(EXECUTOR_KINDS), default=None,
                       help="map-phase engine for the commit-loop grid rounds")
    serve.add_argument("--workers", type=int, default=None)
    serve.add_argument("--max-inflight", type=int, default=32,
                       help="reads executing at once (default 32)")
    serve.add_argument("--max-waiting", type=int, default=64,
                       help="reads queued for a slot before shedding with "
                            "429 (default 64)")
    serve.add_argument("--delta-queue-limit", type=int, default=16,
                       help="delta batches pending commit before writes shed "
                            "(default 16)")
    serve.add_argument("--deadline", type=float, default=5.0,
                       help="default per-read deadline in seconds "
                            "(504 when missed; default 5)")
    serve.add_argument("--breaker-threshold", type=int, default=3,
                       help="consecutive commit failures that trip the "
                            "service to read-only mode (default 3)")
    serve.add_argument("--breaker-cooldown", type=float, default=5.0,
                       help="seconds in read-only mode before probing one "
                            "commit (default 5)")
    serve.add_argument("--checkpoint-every", type=int, default=8,
                       help="batches between checkpoints when serving "
                            "durably (default 8)")
    serve.add_argument("--duration", type=float, default=None, metavar="SECONDS",
                       help="drain and exit after this long (smoke/CI runs; "
                            "default: serve until SIGTERM/SIGINT)")
    _add_kernel_argument(serve)
    _add_trace_argument(serve)
    _add_fault_arguments(serve)

    trace_report = subparsers.add_parser(
        "trace-report",
        help="summarize a JSONL trace written with --trace-out (top spans "
             "by self-time, per-phase duration histograms)")
    trace_report.add_argument("trace", type=Path,
                              help="trace JSONL file written by --trace-out")
    trace_report.add_argument("--top", type=int, default=15,
                              help="rows in the top-spans table (default 15)")

    subparsers.add_parser("info", help="print version, dataset presets and matchers")
    return parser


def _load(path: Path) -> BibliographicDataset:
    if not path.exists():
        raise SystemExit(f"dataset file not found: {path}")
    return load_dataset(path)


def _command_generate(args: argparse.Namespace) -> int:
    factory = _PRESETS[args.preset]
    kwargs = {"scale": args.scale}
    if args.seed is not None:
        kwargs["seed"] = args.seed
    dataset = factory(**kwargs)
    path = save_dataset(dataset, args.output)
    print(format_key_values(dataset.stats(), title=f"generated {dataset.name}"))
    print(f"written to {path}")
    return 0


def _command_cover(args: argparse.Namespace) -> int:
    dataset = _load(args.dataset)
    blocker = CanopyBlocker(loose_threshold=args.loose, tight_threshold=args.tight)
    cover = build_total_cover(blocker, CompactStore.from_store(dataset.store),
                              relation_names=["coauthor"])
    print(format_key_values(cover.stats(), title="cover"))
    report = evaluate_cover(cover, dataset.true_matches(),
                            entity_count=len(dataset.store.entity_ids()))
    print(format_key_values(report.as_dict(), title="blocking quality"))
    return 0


def _command_match(args: argparse.Namespace) -> int:
    dataset = _load(args.dataset)
    matcher = _MATCHERS[args.matcher]()
    framework = EMFramework(matcher, dataset.store,
                            blocker=CanopyBlocker(), relation_names=["coauthor"])
    if args.scheme == "mmp" and not matcher.is_probabilistic:
        raise SystemExit(f"matcher {args.matcher!r} is not probabilistic; "
                         "mmp requires a Type-II matcher")
    fault_policy = _fault_policy(args)
    if fault_policy is not None and args.executor is None:
        raise SystemExit("--task-timeout/--retries/--speculate supervise the "
                         "grid executor; they require --executor")
    if args.executor is not None and args.scheme == "full":
        raise SystemExit("--executor runs the round-based grid; "
                         "it does not apply to --scheme full")
    result = framework.run(args.scheme, executor=args.executor,
                           workers=args.workers, fault_policy=fault_policy)

    closed = MatchSet(result.matches).transitive_closure()
    metrics = precision_recall_f1(closed.pairs, dataset.true_matches())
    rows = [{
        "matcher": args.matcher,
        "scheme": result.scheme,
        "matches": len(result.matches),
        "precision": round(metrics.precision, 3),
        "recall": round(metrics.recall, 3),
        "f1": round(metrics.f1, 3),
        "seconds": round(result.elapsed_seconds, 2),
        "neighborhood_runs": result.neighborhood_runs,
    }]
    print(format_table(rows, title=f"{dataset.name}: {args.matcher} under {args.scheme}"))

    if args.output is not None:
        _write_clusters(result.matches, args.output)
    return 0


def _command_stream_trace(args: argparse.Namespace) -> int:
    from .streaming import save_delta_log, synthesize_stream
    dataset = _load(args.dataset)
    if args.batches < 1:
        raise SystemExit("--batches must be >= 1")
    if not 0.0 < args.holdout < 1.0:
        raise SystemExit("--holdout must be in (0, 1)")
    scenario = synthesize_stream(dataset, batches=args.batches,
                                 holdout_fraction=args.holdout,
                                 seed=args.seed, churn=not args.no_churn)
    base_path = save_dataset(scenario.base, args.base_output)
    trace_path = save_delta_log(scenario.log, args.trace_output)
    print(format_key_values({
        "final_entities": len(dataset.store.entity_ids()),
        "base_entities": len(scenario.base.store.entity_ids()),
        "batches": len(scenario.log),
        "delta_ops": scenario.log.op_count(),
    }, title="stream scenario"))
    print(f"base dataset written to {base_path}")
    print(f"delta trace written to {trace_path}")
    return 0


def _command_stream(args: argparse.Namespace) -> int:
    from .streaming import StreamSession, load_delta_log
    if args.checkpoint_on_signal and args.durable_dir is None:
        raise SystemExit("--checkpoint-on-signal requires --durable-dir")
    dataset = _load(args.dataset)
    if not args.deltas.exists():
        raise SystemExit(f"delta trace file not found: {args.deltas}")
    log = load_delta_log(args.deltas)
    matcher = _MATCHERS[args.matcher]()
    session = StreamSession(matcher, dataset.store,
                            blocker=CanopyBlocker(),
                            relation_names=["coauthor"],
                            executor=args.executor, workers=args.workers,
                            rebase_threshold=args.rebase_threshold,
                            fault_policy=_fault_policy(args))
    if args.durable_dir is not None:
        from .durability import DurableStreamSession
        session = DurableStreamSession(
            session, args.durable_dir,
            checkpoint_every=args.checkpoint_every,
            checkpoint_on_signal=args.checkpoint_on_signal)
    cold = session.start()
    rows = [{
        "batch": "start",
        "ops": 0,
        "reran": f"{cold.reran_neighborhoods}/{cold.total_neighborhoods}",
        "frac": round(cold.reran_fraction, 3),
        "added": len(cold.added),
        "retracted": 0,
        "matches": len(cold.matches),
        "seconds": round(cold.elapsed_seconds, 3),
    }]
    for batch in log:
        result = session.apply(batch)
        rows.append({
            "batch": result.batch_index,
            "ops": result.ops,
            "reran": f"{result.reran_neighborhoods}/{result.total_neighborhoods}",
            "frac": round(result.reran_fraction, 3),
            "added": len(result.added),
            "retracted": len(result.retracted),
            "matches": len(result.matches),
            "seconds": round(result.elapsed_seconds, 3),
        })
    print(format_table(rows, title=f"{dataset.name}: replay of {log.name} "
                                   f"({log.op_count()} ops)"))

    if args.durable_dir is not None:
        session.close()
        print(f"durable state (WAL + checkpoints) in {args.durable_dir}")

    if args.verify:
        identical = session.verify()
        verdict = "byte-identical" if identical else "MISMATCH"
        print(f"replay vs cold batch run on the final instance: {verdict}")
        if not identical:
            return 1

    _write_clusters(session.matches, args.output)
    return 0


def _command_recover(args: argparse.Namespace) -> int:
    import time

    from .durability import DurableStreamSession
    # A missing/empty directory surfaces as the typed RecoveryError from
    # DurableStreamSession.recover (exit code 5), naming the path.
    started = time.perf_counter()
    session = DurableStreamSession.recover(args.durable_dir,
                                           executor=args.executor,
                                           workers=args.workers,
                                           fault_policy=_fault_policy(args))
    elapsed = time.perf_counter() - started
    print(format_key_values({
        "batches_applied": session.batches_applied,
        "matches": len(session.matches),
        "recovery_seconds": round(elapsed, 3),
    }, title=f"recovered session from {args.durable_dir}"))

    if args.verify:
        identical = session.verify()
        verdict = "byte-identical" if identical else "MISMATCH"
        print(f"recovered state vs cold batch run: {verdict}")
        if not identical:
            return 1

    _write_clusters(session.matches, args.output)
    session.close(checkpoint=False)
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    from .serving import MatchService, MatchServingHTTPServer, ServiceConfig
    if args.dataset is None and args.durable_dir is None:
        raise SystemExit("serve needs --dataset (fresh session) or "
                         "--durable-dir (crash recovery), or both "
                         "(durable serving)")
    if args.duration is not None and args.duration <= 0:
        raise SystemExit("--duration must be positive")
    config = ServiceConfig(max_inflight=args.max_inflight,
                           max_waiting=args.max_waiting,
                           delta_queue_limit=args.delta_queue_limit,
                           default_deadline=args.deadline,
                           breaker_threshold=args.breaker_threshold,
                           breaker_cooldown=args.breaker_cooldown)
    fault_policy = _fault_policy(args)
    if args.dataset is not None:
        dataset = _load(args.dataset)
        framework = EMFramework(_MATCHERS[args.matcher](), dataset.store,
                                blocker=CanopyBlocker(),
                                relation_names=["coauthor"])
        service = framework.serve(config=config, executor=args.executor,
                                  workers=args.workers,
                                  durable_dir=args.durable_dir,
                                  checkpoint_every=args.checkpoint_every,
                                  fault_policy=fault_policy)
        origin = f"dataset {args.dataset}"
        if args.durable_dir is not None:
            origin += f" (durable in {args.durable_dir})"
    else:
        service = MatchService.recover(args.durable_dir, config=config,
                                       executor=args.executor,
                                       workers=args.workers,
                                       checkpoint_every=args.checkpoint_every,
                                       fault_policy=fault_policy)
        origin = f"recovery from {args.durable_dir}"

    # The HTTP frontend comes up first: /health and /ready answer (503)
    # while the cold run / recovery is still in progress.
    server = MatchServingHTTPServer(service, host=args.host, port=args.port)
    server.start()
    service.install_signal_handlers()
    print(f"listening on {server.url} ({origin}); readiness gated until "
          "startup completes")
    try:
        service.start()
    except BaseException:
        server.stop()
        raise
    epoch = service.current_epoch()
    print(format_key_values({
        "epoch": epoch.epoch_id,
        "entities": len(epoch.entity_ids),
        "matches": len(epoch.matches),
        "mode": "read-write",
    }, title="ready"))
    try:
        if service.wait_for_drain_request(args.duration):
            print("drain requested (signal): finishing accepted batches, "
                  "checkpointing, stopping")
        else:
            print(f"--duration {args.duration:g}s elapsed: draining")
        service.drain()
    finally:
        server.stop()
    final = service.metrics()
    print(format_key_values({
        "reads": final["counters"]["reads_total"],
        "commits": final["counters"]["commits_total"],
        "shed": final["counters"]["deltas_shed"]
        + final["admission"]["shed_total"],
        "final_epoch": final["epoch"],
    }, title="stopped cleanly"))
    return 0


def _write_clusters(matches, output: Optional[Path]) -> None:
    """Write the resolved clusters of a match set as JSON (atomically)."""
    if output is None:
        return
    from .atomicio import atomic_write_json
    closed = MatchSet(matches).transitive_closure()
    clusters = [sorted(c) for c in closed.clusters() if len(c) > 1]
    atomic_write_json(output, clusters, indent=1)
    print(f"wrote {len(clusters)} clusters to {output}")


def _command_trace_report(args: argparse.Namespace) -> int:
    from .obs.report import format_report, load_trace, summarize
    if args.top < 1:
        raise SystemExit("--top must be >= 1")
    if not args.trace.exists():
        raise SystemExit(f"trace file not found: {args.trace}")
    spans = load_trace(args.trace)
    print(format_report(summarize(spans), top=args.top))
    return 0


def _command_info(_: argparse.Namespace) -> int:
    print(f"repro {__version__}")
    print("presets: " + ", ".join(sorted(_PRESETS)))
    print("matchers: " + ", ".join(sorted(_MATCHERS)))
    return 0


_COMMANDS = {
    "generate": _command_generate,
    "cover": _command_cover,
    "match": _command_match,
    "stream": _command_stream,
    "stream-trace": _command_stream_trace,
    "recover": _command_recover,
    "serve": _command_serve,
    "trace-report": _command_trace_report,
    "info": _command_info,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    The library's typed operational failures become one-line stderr messages
    with distinct exit codes instead of tracebacks: a grid task that
    exhausted its fault-tolerance budget exits ``4``, a failed crash
    recovery exits ``5``, any other durability violation exits ``6``, a
    serving-layer failure ``7``, a bad delta trace ``8``, a dataset or trace
    file that is not one ``9``.  Programming errors still traceback — those
    are bugs, not conditions.
    """
    parser = _build_parser()
    args = parser.parse_args(argv)
    _check_shared_arguments(args)
    if getattr(args, "kernel_backend", None) is not None:
        from .exceptions import ExperimentError
        from .kernels import set_backend
        try:
            set_backend(args.kernel_backend)
        except ExperimentError as error:
            print(f"repro-em: {error}", file=sys.stderr)
            return 2
    trace_out = getattr(args, "trace_out", None)
    if trace_out is not None:
        from .obs import trace as obs_trace
        obs_trace.enable(trace_out)
    try:
        return _COMMANDS[args.command](args)
    except TaskFailedError as error:
        print(f"repro-em: task failed permanently: {error}", file=sys.stderr)
        return EXIT_TASK_FAILED
    except RecoveryError as error:
        print(f"repro-em: recovery failed: {error}", file=sys.stderr)
        return EXIT_RECOVERY_FAILED
    except DurabilityError as error:
        print(f"repro-em: durability error: {error}", file=sys.stderr)
        return EXIT_DURABILITY_ERROR
    except ServiceError as error:
        print(f"repro-em: service error: {error}", file=sys.stderr)
        return EXIT_SERVICE_ERROR
    except DeltaError as error:
        print(f"repro-em: delta error: {error}", file=sys.stderr)
        return EXIT_DELTA_ERROR
    except InputFormatError as error:
        print(f"repro-em: bad input file: {error}", file=sys.stderr)
        return EXIT_BAD_INPUT
    finally:
        # The trace is flushed even when the command failed — a trace of
        # the failing run is exactly what one wants to look at.
        if trace_out is not None:
            written = obs_trace.export_jsonl()
            if written is not None:
                print(f"trace written to {written}", file=sys.stderr)


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    sys.exit(main())
