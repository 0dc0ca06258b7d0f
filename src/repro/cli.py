"""Command-line interface: ``python -m repro <command>``.

Commands mirror the user journeys of the examples:

- ``map KERNEL``    — map a paper kernel and print the mapping summary
  plus the per-tile context-usage chart (the Fig 2 view);
- ``run KERNEL``    — map, assemble, simulate, verify against the
  reference, and print cycles vs the CPU baseline;
- ``energy KERNEL`` — one Table II row with component breakdowns;
- ``area``          — the Fig 11 area comparison;
- ``kernels``       — list the available kernels;
- ``sweep``         — batch-run kernels × configs × flow variants in
  parallel (``--workers N``) against the persistent result cache
  (``--no-cache`` / ``--clear-cache`` to bypass or wipe it); with
  ``--shard i/N`` runs one deterministic slice of the batch and with
  ``--json`` emits a machine-readable result payload that a later
  ``merge`` reassembles; ``--backend`` picks the execution backend
  (see :mod:`repro.runtime.backends`);
- ``diff``          — run the suite through two backends and compare
  per-point cycles/outputs within configurable tolerances
  (``--backends``, ``--abs-tol``, ``--rel-tol``); exits 4 on any
  out-of-tolerance mismatch — the CI differential lane;
- ``merge``         — combine N shard JSON files back into the one
  sweep result the unsharded run would have produced;
- ``cache``         — manage the persistent result cache
  (``stats`` / ``prune`` / ``clear``);
- ``figure NAME``   — regenerate one paper figure/table; the
  mapping-bound ones accept ``--workers``, ``--shard`` (distributed
  prewarm) and ``--json``;
- ``explore``       — design-space exploration (see
  :mod:`repro.dse`): search homogeneous ladders, Table I, banded and
  per-tile heterogeneous CM assignments with a pluggable strategy
  (``--strategy exhaustive|random|adaptive``, ``--budget``,
  ``--objectives``) and report the Pareto frontier; ``--shard i/N``
  prewarms one slice of the exhaustive grid, ``--json`` emits the
  exploration document;
- ``bench``         — time ``map_kernel`` across benchmark cases with
  warmup/repeat control and emit/compare the ``BENCH_*.json`` perf
  document (``--compare BASELINE.json`` exits 3 when a case is more
  than 25% slower; see :mod:`repro.perf`);
- ``trace``         — run a sweep with pipeline tracing on and write
  the spans as Chrome trace-event JSON (load in Perfetto or
  ``chrome://tracing``); ``--analyze`` adds the critical path /
  self-time / occupancy / straggler report, ``--from FILE`` analyses
  a saved trace instead of running; ``sweep``/``diff``/``submit``/
  ``explore`` write the same capture via ``--trace-out FILE``
  (see :mod:`repro.obs`);
- ``metrics``       — print the Prometheus text exposition of this
  process's metric registry, or scrape a running server's
  ``/metrics`` with ``--server URL``;
- ``profile``       — map one case ``--repeat`` times under the
  sampling profiler (:mod:`repro.obs.flame`) and print the hottest
  functions, so perf work starts from data; ``--flame-out`` writes
  the collapsed stacks (``sweep``/``bench`` accept the same flag;
  a sampled run is never recorded in the ledger or gated);
- ``history``       — render the persistent run ledger every
  unsampled bench/sweep/diff run appends to (see
  :mod:`repro.perf.ledger`);
- ``report``        — write the self-contained watchtower dashboard
  HTML (ledger trends, critical path, metrics snapshot; also served
  at ``GET /dashboard``);
- ``serve``         — expose sweeps and explorations over HTTP
  (``--port``, ``--workers``): submission, status, NDJSON point
  streaming, cache stats; job scheduling and retention bounds are
  constants of :mod:`repro.serve.jobs` (see :mod:`repro.serve`);
- ``serve --resume``  replays the durable job journal on startup,
  requeueing jobs a killed server left queued or running under
  their original IDs (see :mod:`repro.serve.journal`);
- ``submit``        — dispatch a sweep to one ``repro serve``
  instance — or, with ``--shard-across``, shard it across several
  and merge the streamed results locally;
- ``chaos``         — run the same sweep clean and under an injected
  fault plan (``--faults`` / ``$REPRO_FAULT``: worker crashes,
  point hangs, cache corruption) and exit 5 unless the self-healing
  runtime converged the faulted runs to the clean answer
  (see :mod:`repro.chaos`).

Sweeps and figure prewarms stream one progress line per landed point
to stderr, so stdout stays clean for tables and JSON; ``--quiet`` (or
``REPRO_QUIET=1``) silences those lines.

Plumbing the commands share is written once: one table in
``_parser`` declares every shared flag (``--workers`` below 1 is a
usage error on every command); ``_sweep_specs`` resolves the
sweep axes; ``_run_shard`` runs every ``--shard I/N`` on the server's
:class:`~repro.runtime.shard.SweepRequest`; ``_traced`` writes the
spans of ``--trace-out`` and ``repro trace``; ``_print_sweep`` and
``_emit`` print sweep results and ``--out`` reports.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

import numpy as np

from repro.arch.configs import CGRA_CONFIGS, get_config
from repro.codegen.assembler import assemble
from repro.codegen.listing import usage_chart
from repro.errors import ReproError, UnmappableError
from repro.kernels import PAPER_KERNEL_ORDER, get_kernel
from repro.mapping.flow import VARIANTS, map_kernel
from repro.sim.cgra import CGRASimulator
from repro.sim.cpu import CPUModel


def positive_int(text):
    """argparse type of a count that must be at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be at least 1, got {value}")
    return value


def _parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Context-memory aware CGRA mapping (DATE 2019 "
                    "reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    # Flags several commands take, each declared once; ``add`` puts
    # them on a subcommand, ``overrides`` maps a dest to the keyword
    # arguments that differ there.
    shared = {
        "--kernels": dict(default=None,
                          help="comma-separated kernels (default: all)"),
        "--configs": dict(default=None,
                          help="comma-separated configs (default: "
                               "HOM64,HOM32,HET1,HET2)"),
        "--variants": dict(default=None,
                           help="comma-separated flow variants "
                                "(default: all)"),
        "--seed": dict(type=int, default=7,
                       help="input seed (default 7)"),
        "--backend": dict(default=None,
                          help="execution backend: analytic (default) "
                               "or cycle — see repro.runtime.backends"),
        "--workers": dict(type=positive_int, default=1,
                          help="worker processes (1 = serial)"),
        "--shard": dict(default=None, metavar="I/N",
                        help="run only shard I of N (deterministic, "
                             "disjoint, cost-balanced slices); emits "
                             "the partial sweep, which merges with the "
                             "other shards"),
        "--cache-balanced": dict(action="store_true",
                                 help="balance shards by residual "
                                      "(uncached) cost — every shard "
                                      "producer must see the same "
                                      "shared cache"),
        "--trace-out": dict(default=None, metavar="FILE",
                            help="record pipeline spans and write "
                                 "Chrome trace JSON to FILE "
                                 "(Perfetto-loadable)"),
        "--no-cache": dict(action="store_true",
                           help="bypass the persistent result cache"),
        "--cache-dir": dict(default=None,
                            help="cache directory, also holding the run "
                                 "ledger and job journal (default "
                                 "~/.cache/repro or $REPRO_CACHE_DIR)"),
        "--quiet": dict(action="store_true",
                        help="suppress per-point progress lines on "
                             "stderr (also $REPRO_QUIET=1)"),
    }
    axes = ("--kernels", "--configs", "--variants")
    cache_flags = ("--no-cache", "--cache-dir")

    def add(p, *flags, **overrides):
        for flag in flags:
            dest = flag[2:].replace("-", "_")
            p.add_argument(flag, **{**shared[flag],
                                    **overrides.get(dest, {})})
        return p

    def add_common(p):
        p.add_argument("kernel", choices=PAPER_KERNEL_ORDER)
        p.add_argument("--config", default="HET1",
                       choices=sorted(CGRA_CONFIGS))
        p.add_argument("--flow", default="full",
                       choices=sorted(VARIANTS))
        return add(p, "--seed")

    add_common(sub.add_parser("map", help="map a kernel, show usage"))
    add_common(sub.add_parser("run", help="map + simulate + verify"))
    add(add_common(sub.add_parser("energy", help="energy breakdown row")),
        *cache_flags)
    sub.add_parser("area", help="Fig 11 area comparison")
    sub.add_parser("kernels", help="list available kernels")

    sweep = add(sub.add_parser(
        "sweep", help="batch-run experiment points in parallel"),
        *axes, "--seed", "--backend", "--workers", "--shard",
        "--cache-balanced", "--trace-out", *cache_flags, "--quiet")
    sweep.add_argument("--point-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="per-point wall-clock deadline: an "
                            "overrunning point's worker is reaped "
                            "and the point retried, then yielded as "
                            "a timeout error (default "
                            "$REPRO_POINT_TIMEOUT, else unlimited)")
    sweep.add_argument("--clear-cache", action="store_true",
                       help="wipe the cache before running")
    sweep.add_argument("--json", action="store_true",
                       help="emit a machine-readable result payload "
                            "on stdout instead of the table")
    sweep.add_argument("--flame-out", default=None, metavar="FILE",
                       help="sample the driving thread during the "
                            "sweep and write collapsed flame stacks "
                            "to FILE (needs --workers 1, no --shard "
                            "and no point deadline; not recorded in "
                            "the ledger)")

    diff = add(sub.add_parser(
        "diff", help="run specs through two backends and compare "
                     "cycles/outputs (see repro.runtime.diff)"),
        *axes, "--seed", "--workers", "--trace-out", *cache_flags,
        "--quiet")
    diff.add_argument("--backends", default=None, metavar="A,B",
                      help="the two backends to compare "
                           "(default analytic,cycle)")
    diff.add_argument("--abs-tol", type=float, default=None,
                      help="absolute cycle tolerance (default 2; "
                           "measured bound is 1)")
    diff.add_argument("--rel-tol", type=float, default=None,
                      help="relative cycle tolerance vs the first "
                           "backend (default 0.01)")
    diff.add_argument("--json", action="store_true",
                      help="emit the diff report as JSON on stdout")
    diff.add_argument("--out", default=None, metavar="FILE",
                      help="also write the JSON report to FILE "
                           "(the CI artifact)")

    merge = sub.add_parser(
        "merge", help="combine shard JSON result files into one sweep")
    merge.add_argument("files", nargs="+",
                       help="JSON files written by sweep/figure --json")
    merge.add_argument("--json", action="store_true",
                       help="emit the merged payload as JSON")

    cache = add(sub.add_parser(
        "cache", help="manage the persistent result cache"), "--cache-dir")
    cache.add_argument("action", choices=("stats", "prune", "clear"))
    cache.add_argument("--max-bytes", default=None,
                       help="byte cap for prune, e.g. 4096 / 512K / "
                            "64M / 2G (default $REPRO_CACHE_MAX_BYTES)")
    cache.add_argument("--json", action="store_true",
                       help="machine-readable stats")

    # Mirrors experiments.FIGURE_NAMES (cross-checked by a test);
    # kept literal so building the parser never imports the whole
    # eval/experiments stack for commands that don't touch figures.
    figure = sub.add_parser(
        "figure", help="regenerate one paper figure/table")
    figure.add_argument("name", choices=(
        "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
        "table2"))
    add(figure, "--workers", "--shard", "--cache-balanced",
        *cache_flags, "--quiet",
        workers=dict(help="worker processes for the mapping-bound "
                          "figures (fig6-8, fig10, table2)"))
    figure.add_argument("--json", action="store_true",
                        help="emit the figure data (or the shard "
                             "payload) as JSON")

    explore = sub.add_parser(
        "explore", help="design-space exploration (see repro.dse)")
    explore.add_argument("--space", default="ladder,table1",
                         help="comma-separated design generators: "
                              "ladder,table1,rowband,colband,tiles "
                              "(default ladder,table1)")
    explore.add_argument("--depths", default=None,
                         help="comma-separated CM depths for the "
                              "ladder/banded/tiles spaces "
                              "(default 8,16,24,32,48,64)")
    explore.add_argument("--samples", type=int, default=None,
                         help="sampled per-tile designs for the "
                              "'tiles' space (default 8)")
    explore.add_argument("--variant", default=None,
                         help="flow variant to evaluate under "
                              "(default full)")
    explore.add_argument("--strategy", default=None,
                         help="search strategy: exhaustive, random "
                              "or adaptive (default exhaustive)")
    explore.add_argument("--budget", type=int, default=None,
                         help="max evaluated (design, kernel) points "
                              "(default unlimited)")
    explore.add_argument("--objectives", default=None,
                         help="comma-separated subset of "
                              "energy,latency,cm_area,mappability "
                              "(default all four)")
    explore.add_argument("--seed", type=int, default=None,
                         help="input seed; also drives the random "
                              "strategy's sampling")
    explore.add_argument("--rows", type=int, default=None,
                         help="array rows for generated designs "
                              "(default 4)")
    explore.add_argument("--cols", type=int, default=None,
                         help="array columns for generated designs "
                              "(default 4)")
    explore.add_argument("--json", action="store_true",
                         help="emit the exploration document (or the "
                              "shard payload) as JSON")
    add(explore, "--kernels", "--backend", "--workers", "--shard",
        "--cache-balanced", "--trace-out", *cache_flags, "--quiet")

    bench = sub.add_parser(
        "bench", help="time map_kernel across cases (see repro.perf)")
    bench.add_argument("--cases", default=None,
                       help="comma-separated kernel@CONFIG/variant "
                            "cases (overrides the axes)")
    add(bench, *axes, "--cache-dir", "--quiet",
        configs=dict(help="comma-separated configs (default: HOM32)"),
        variants=dict(help="comma-separated flow variants "
                           "(default: full)"))
    bench.add_argument("--warmup", type=int, default=1,
                       help="unrecorded runs per case (default 1)")
    bench.add_argument("--repeat", type=int, default=3,
                       help="recorded runs per case (default 3)")
    bench.add_argument("--out", default=None, metavar="FILE",
                       help="also write the JSON document to FILE")
    bench.add_argument("--json", action="store_true",
                       help="emit the benchmark document on stdout")
    bench.add_argument("--compare", default=None, metavar="BASELINE",
                       help="compare against a BENCH_*.json baseline; "
                            "exit 3 if a case is over 25%% slower")
    bench.add_argument("--compare-ledger", action="store_true",
                       help="gate against the rolling median of the "
                            "last 5 same-host bench runs in the run "
                            "ledger; exit 3 if a case is over 25%% "
                            "slower")
    bench.add_argument("--flame-out", default=None, metavar="FILE",
                       help="sample the bench thread and write "
                            "collapsed flame stacks to FILE (no "
                            "gate; not recorded in the ledger)")

    # No abbreviations here: the retired ``--flame`` would otherwise
    # still parse, as a prefix of ``--flame-out``.
    profile = sub.add_parser(
        "profile", help="sample repeated map_kernel runs of one case "
                        "(see repro.obs.flame)", allow_abbrev=False)
    profile.add_argument("--kernel", required=True,
                        choices=PAPER_KERNEL_ORDER)
    profile.add_argument("--config", default="HOM32",
                        choices=sorted(CGRA_CONFIGS))
    profile.add_argument("--variant", default="full",
                        choices=sorted(VARIANTS))
    profile.add_argument("--top", type=int, default=20,
                        help="functions to print (default 20)")
    profile.add_argument("--hz", type=float, default=None,
                        help="sampling rate (default 97)")
    profile.add_argument("--repeat", type=int, default=5,
                        help="mappings sampled under one profile, at "
                             "least 1 (default 5 — one mapping is too "
                             "fast to sample)")
    profile.add_argument("--flame-out", default=None, metavar="FILE",
                        help="write collapsed flame stacks to FILE "
                             "(flamegraph.pl / speedscope input)")

    trace_cmd = add(sub.add_parser(
        "trace", help="run a traced sweep, write Chrome trace JSON "
                      "(see repro.obs)"),
        *axes, "--seed", "--backend", "--workers", *cache_flags,
        "--quiet")
    trace_cmd.add_argument("--out", default="trace.json",
                           metavar="FILE",
                           help="Chrome trace-event JSON output "
                                "(default trace.json); load it in "
                                "Perfetto or chrome://tracing")
    trace_cmd.add_argument("--analyze", action="store_true",
                           help="also print trace analytics: "
                                "critical path, per-stage self time, "
                                "worker occupancy, straggler shards")
    trace_cmd.add_argument("--from", dest="from_file", default=None,
                           metavar="FILE",
                           help="analyze a saved --trace-out file "
                                "instead of running a sweep "
                                "(implies --analyze)")
    trace_cmd.add_argument("--json", action="store_true",
                           help="emit the trace-analysis payload as "
                                "JSON on stdout")

    history = add(sub.add_parser(
        "history", help="render the persistent run ledger "
                        "(see repro.perf.ledger)"), "--cache-dir")
    history.add_argument("--command", dest="filter_command",
                         default=None,
                         choices=("bench", "sweep", "diff"),
                         help="only entries from this command")
    history.add_argument("--limit", type=int, default=20,
                         help="newest entries shown (default 20)")
    history.add_argument("--json", action="store_true",
                         help="emit the entries as JSON")

    report = add(sub.add_parser(
        "report", help="write the watchtower dashboard HTML "
                       "(see repro.obs.report)"), *cache_flags)
    report.add_argument("--out", default="report.html", metavar="FILE",
                        help="output file (default report.html; "
                             "'-' for stdout)")
    report.add_argument("--trace", default=None, metavar="FILE",
                        help="fold the critical-path analysis of "
                             "this saved --trace-out file into the "
                             "report")
    report.add_argument("--limit", type=int, default=50,
                        help="newest ledger entries charted "
                             "(default 50)")

    metrics_cmd = add(sub.add_parser(
        "metrics", help="print Prometheus metrics (local registry or "
                        "a server's /metrics)"), *cache_flags)
    metrics_cmd.add_argument("--server", default=None, metavar="URL",
                             help="scrape URL/metrics from a running "
                                  "repro serve instead of the local "
                                  "registry")

    serve = add(sub.add_parser(
        "serve", help="expose sweeps over HTTP (see repro.serve)"),
        "--workers", *cache_flags, "--quiet",
        workers=dict(help="worker processes shared by the running "
                          "jobs (default 1)"))
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8000,
                       help="TCP port (0 = ephemeral; default 8000)")
    serve.add_argument("--token", default=None,
                       help="bearer token clients must present "
                            "(default $REPRO_SERVE_TOKEN; required "
                            "to bind beyond 127.0.0.1)")
    serve.add_argument("--point-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="per-point deadline for every sweep job "
                            "(default $REPRO_POINT_TIMEOUT); a "
                            "wedged point is reaped and retried "
                            "instead of hanging its job forever")
    serve.add_argument("--resume", action="store_true",
                       help="replay the job journal on startup: "
                            "jobs left queued/running by a killed "
                            "server are requeued under their "
                            "original IDs (the journal is first "
                            "compacted to those jobs)")
    serve.add_argument("--no-journal", action="store_true",
                       help="do not record job transitions to the "
                            "durable journal (<cache-dir>/"
                            "jobs.jsonl)")

    submit = add(sub.add_parser(
        "submit", help="dispatch a sweep to repro serve instance(s)"),
        *axes, "--backend", "--shard", "--trace-out", "--quiet")
    submit.add_argument("--server", required=True, metavar="URL[,URL]",
                        help="server URL; several (comma-separated) "
                             "with --shard-across")
    submit.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the server's)")
    submit.add_argument("--figure", default=None, metavar="NAME",
                        help="submit a figure's prewarm points "
                             "instead of sweep axes")
    submit.add_argument("--shard-across", action="store_true",
                        help="split the sweep across all given "
                             "servers (one shard per URL) and merge "
                             "the results locally")
    submit.add_argument("--timeout", type=float, default=600.0,
                        help="per-request timeout in seconds for "
                             "submit/status calls")
    submit.add_argument("--priority", type=int, default=None,
                        help="job priority, -100..100; higher runs "
                             "first (default 0)")
    submit.add_argument("--token", default=None,
                        help="bearer token for the server(s) "
                             "(default $REPRO_SERVE_TOKEN)")
    submit.add_argument("--json", action="store_true",
                        help="emit the result payload as JSON")

    chaos_cmd = add(sub.add_parser(
        "chaos", help="run a sweep under injected faults and prove "
                      "it converges to the clean answer "
                      "(see repro.chaos)"),
        *axes, "--seed", "--backend", "--workers", "--quiet",
        workers=dict(default=2,
                     help="worker processes (>= 2: process faults "
                          "need real worker children)"))
    chaos_cmd.add_argument("--faults", default=None, metavar="PLAN",
                           help="fault plan, e.g. 'worker_crash:"
                                "p=0.1,attempts=1;cache_corrupt:"
                                "p=0.2' (default $REPRO_FAULT, else "
                                "a crash+corrupt plan)")
    chaos_cmd.add_argument("--point-timeout", type=float,
                           default=30.0, metavar="SECONDS",
                           help="per-point deadline during the "
                                "faulted runs (default 30)")
    chaos_cmd.add_argument("--allow-quarantine", type=int, default=0,
                           metavar="N",
                           help="tolerate up to N >= 0 quarantined "
                                "points in the verdict (default 0: "
                                "every fault must heal)")
    chaos_cmd.add_argument("--json", action="store_true",
                           help="emit the chaos report as JSON on "
                                "stdout")
    chaos_cmd.add_argument("--out", default=None, metavar="FILE",
                           help="also write the JSON report to FILE "
                                "(the CI artifact)")
    return parser


#: Environment variable silencing per-point progress (any value but
#: ``0``/``false``/``no``/empty counts as on).
ENV_QUIET = "REPRO_QUIET"


def _quiet_requested(args):
    """``--quiet`` or ``$REPRO_QUIET`` — either silences progress."""
    if getattr(args, "quiet", False):
        return True
    value = os.environ.get(ENV_QUIET, "")
    return value.strip().lower() not in ("", "0", "false", "no")


def _progress(args, describe=lambda update: update.describe()):
    """The stderr progress callback, or None under ``--quiet``/
    ``$REPRO_QUIET``: each call prints ``describe(*arguments)`` as
    one line (default: a streaming sweep's ``StreamUpdate``)."""
    if _quiet_requested(args):
        return None
    return lambda *update: print(describe(*update), file=sys.stderr,
                                 flush=True)


@contextlib.contextmanager
def _sampling(flame_out=None, hz=None):
    """Run the block under the sampling profiler; yields the profiler.

    The one place a command starts and stops
    :class:`~repro.obs.flame.SamplingProfiler`: ``profile`` always,
    ``sweep``/``bench`` under ``--flame-out``.  Only the calling
    thread is sampled.  ``flame_out`` receives the collapsed stacks
    even when the wrapped run fails — a profile of the run that
    misbehaved is the one worth keeping.
    """
    import threading

    from repro.obs import flame
    rate = flame.DEFAULT_HZ if hz is None else hz
    profiler = flame.SamplingProfiler(
        rate, thread_ids={threading.get_ident()})
    profiler.start()
    try:
        yield profiler
    finally:
        counts = profiler.stop()
        if flame_out:
            flame.write_collapsed(flame_out, counts)
            print(f"{sum(counts.values())} stack sample(s) @ "
                  f"{rate:g} Hz -> {flame_out}",
                  file=sys.stderr, flush=True)


@contextlib.contextmanager
def _traced(out):
    """Record pipeline spans during the block and write them to
    ``out`` as Chrome trace JSON; yields the list the spans land in
    (filled on exit).  A no-op without ``out``.

    The one span writer, behind every ``--trace-out`` and
    ``repro trace --out``.  The file is written even when the block
    fails — a trace of the run that misbehaved is the one worth
    keeping.
    """
    spans = []
    if not out:
        yield spans
        return
    from repro.obs import trace
    trace.enable_tracing()
    try:
        yield spans
    finally:
        spans.extend(trace.drain_spans())
        trace.write_chrome_trace(out, spans)
        print(f"{len(spans)} spans -> {out}", file=sys.stderr,
              flush=True)


def _record_ledger(args, command, summary):
    """Best-effort ledger append for a finished measured run.

    A sampled run (``--flame-out``) is not recorded: the sampler
    slows it down, and ``--compare-ledger`` gates on the ledger.
    """
    if getattr(args, "flame_out", None):
        return
    from repro.perf import ledger
    ledger.record(command, summary,
                  cache_dir=getattr(args, "cache_dir", None))


def _emit(args, payload, render):
    """Print a report: its JSON under ``--json``, else
    ``render(payload)``; ``--out FILE`` also writes the JSON to FILE
    (the CI artifact).  For ``diff``, ``chaos`` and ``bench``."""
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    print(json.dumps(payload, indent=2) if args.json
          else render(payload))


def _print_sweep(args, result, payload=None, heading=None):
    """The tail of every command that yields a sweep: under
    ``--json`` the payload (default: ``result``'s own), else the
    table below an optional ``heading``; exit 1 if a point crashed."""
    from repro.eval.reporting import render_sweep
    from repro.runtime.shard import sweep_json_payload

    if args.json:
        print(json.dumps(payload if payload is not None
                         else sweep_json_payload(result), indent=2))
    else:
        if heading:
            print(heading)
        print(render_sweep(result))
    return 1 if result.crashed else 0


def _split_axis(value):
    """Comma-separated CLI axis -> tuple, or None (use the default)."""
    return tuple(value.split(",")) if value else None


def _sweep_specs(args):
    """The specs the ``--kernels/--configs/--variants`` axes (plus
    ``--seed`` and, where the command has it, ``--backend``) name —
    validated, so a typo fails before any work starts."""
    from repro.runtime.sweep import validated_sweep_specs

    return validated_sweep_specs(kernels=_split_axis(args.kernels),
                                 configs=_split_axis(args.configs),
                                 variants=_split_axis(args.variants),
                                 seed=args.seed,
                                 backend=getattr(args, "backend", None))


def _cache_from(args):
    """ResultCache honouring --no-cache/--cache-dir (None = disabled).

    ``sweep --clear-cache`` wipes the directory here — even under
    ``--no-cache`` ("clear it, then recompute without it") — so
    commands open the cache only once every argument is validated:
    a typo must not cost the user their whole accumulated cache.
    """
    from repro.runtime.cache import ResultCache

    cache = None if getattr(args, "no_cache", False) \
        else ResultCache(getattr(args, "cache_dir", None))
    if getattr(args, "clear_cache", False):
        target = cache if cache is not None \
            else ResultCache(args.cache_dir)
        removed = target.clear()
        # Status narration, not a result: under --json stdout must
        # hold nothing but the payload.
        print(f"cleared {removed} cache entries from {target.directory}",
              file=sys.stderr if args.json else sys.stdout)
    return cache


def _run_sweep(args, specs, cache):
    """Run ``specs`` with the command's workers, progress and point
    deadline: the sweep behind ``sweep``, ``trace`` and every
    ``--shard`` run."""
    from repro.runtime.pool import run_sweep

    return run_sweep(specs, workers=args.workers, cache=cache,
                     progress=_progress(args),
                     point_timeout=getattr(args, "point_timeout", None))


def _run_shard(args, specs, label=""):
    """Run the ``--shard I/N`` slice of ``specs``: a mergeable
    ``--json`` payload or a partial-sweep table.

    Serves ``sweep``, ``figure`` and ``explore``, and carves with the
    :class:`~repro.runtime.shard.SweepRequest` the server uses, so a
    shard computed here merges with shards served over HTTP.
    ``--cache-balanced`` charges already-cached specs ~zero cost when
    carving, so warm re-runs split the residual work evenly —
    coherent only while every cooperating producer sees the same
    shared cache.
    """
    from repro.runtime.shard import (
        SweepRequest, parse_shard, sweep_json_payload)

    shard = parse_shard(args.shard)
    if args.no_cache:
        # A shard's contribution lives on only through the shared
        # cache or a mergeable payload; with neither, hours of
        # mapping would print a table and evaporate.
        if not args.json:
            raise ReproError(
                "--shard with --no-cache discards all results: "
                "add --json (mergeable payload) or drop --no-cache")
        if args.cache_balanced:
            raise ReproError(
                "--cache-balanced balances against the shared cache; "
                "drop --no-cache")
    cache = _cache_from(args)
    request = SweepRequest(specs, shard=shard,
                           cache=cache if args.cache_balanced else None)
    result = _run_sweep(args, request.specs, cache)
    payload = sweep_json_payload(
        result, shard=shard, positions=request.positions,
        spec_total=request.spec_total,
        fingerprint=request.fingerprint) if args.json else None
    return _print_sweep(args, result, payload, heading=(
        f"{label}shard {shard[0]}/{shard[1]}: "
        f"{len(request.specs)} of {request.spec_total} points"))


def _map(args):
    kernel = get_kernel(args.kernel)
    result = map_kernel(kernel.cdfg, get_config(args.config),
                        VARIANTS[args.flow]())
    print(result.summary())
    program = assemble(result, kernel.cdfg, enforce_fit=False)
    print(usage_chart(program))
    return 0


def _run(args):
    kernel = get_kernel(args.kernel)
    result = map_kernel(kernel.cdfg, get_config(args.config),
                        VARIANTS[args.flow]())
    program = assemble(result, kernel.cdfg,
                       enforce_fit=result.options.ecmap)
    inputs = kernel.make_inputs(np.random.default_rng(args.seed))
    memory = kernel.make_memory(inputs)
    run = CGRASimulator(program, memory).run()
    expected = kernel.reference(inputs)
    for region in kernel.output_regions:
        if run.region(kernel.cdfg, region) != expected[region]:
            print(f"FAIL: region {region} mismatch", file=sys.stderr)
            return 1
    cpu = CPUModel(kernel.cdfg).run(memory)
    print(f"{args.kernel} on {args.config} ({args.flow} flow): "
          f"verified OK")
    print(f"  CGRA: {run.cycles} cycles   CPU: {cpu.cycles} cycles   "
          f"speedup {cpu.cycles / run.cycles:.1f}x")
    return 0


def _energy(args):
    from repro.eval.experiments import (
        PointSpec, cpu_point, execute_spec, prefetch_points)
    cpu_cycles, cpu_energy = cpu_point(args.kernel)
    print(f"{args.kernel}: CPU {cpu_energy.total_uj:.4f} uJ "
          f"({cpu_cycles} cycles)")
    spec = PointSpec(args.kernel, args.config, args.flow, seed=args.seed)
    prefetch_points([spec], cache=_cache_from(args))
    point = execute_spec(spec)
    if not point.mapped:
        print(f"  {args.config}/{args.flow}: no mapping ({point.error})")
        return 1
    gain = cpu_energy.total_uj / point.energy_uj
    print(f"  {args.config}/{args.flow}: {point.energy_uj:.4f} uJ "
          f"({point.cycles} cycles, {gain:.1f}x vs CPU)")
    for part, pj in sorted(point.energy.parts.items()):
        print(f"    {part:15s} {pj / 1e6:8.4f} uJ "
              f"({point.energy.fraction(part):5.1%})")
    return 0


def _area(_args):
    from repro.eval.experiments import fig11_data
    from repro.eval.reporting import render_fig11
    print(render_fig11(fig11_data()))
    return 0


def _sweep(args):
    from repro.runtime.stream import resolve_point_timeout

    specs = _sweep_specs(args)
    if args.flame_out and (
            args.workers > 1 or args.shard
            or resolve_point_timeout(args.point_timeout) is not None):
        # The sampler sees the driving thread only: with worker
        # processes — which a point deadline forces even at one
        # worker — it would record a pool waiting, and a shard
        # slice is partial by construction.
        raise ReproError("--flame-out samples the driving thread: "
                         "run the sweep with --workers 1, without "
                         "--shard and without a point deadline "
                         "(--point-timeout / $REPRO_POINT_TIMEOUT)")
    if args.shard:
        # Shard slices are partial by construction — they are not
        # recorded in the ledger, whose trends compare whole runs.
        return _run_shard(args, specs)
    cache = _cache_from(args)
    with (_sampling(args.flame_out) if args.flame_out
          else contextlib.nullcontext()):
        result = _run_sweep(args, specs, cache)
    from repro.perf.ledger import sweep_summary
    _record_ledger(args, "sweep", sweep_summary(result))
    status = _print_sweep(args, result)
    if cache is not None and not args.json:
        print(f"cache: {cache.directory} ({cache.hits} hits, "
              f"{cache.stores} new entries)")
    return status


def _diff(args):
    from repro.runtime.diff import (
        DEFAULT_ABS_TOL, DEFAULT_REL_TOL, run_diff,
        validated_diff_backends)

    backends = validated_diff_backends(
        _split_axis(args.backends))
    specs = _sweep_specs(args)
    abs_tol = args.abs_tol if args.abs_tol is not None \
        else DEFAULT_ABS_TOL
    rel_tol = args.rel_tol if args.rel_tol is not None \
        else DEFAULT_REL_TOL
    result = run_diff(specs, backends=backends, abs_tol=abs_tol,
                      rel_tol=rel_tol, workers=args.workers,
                      cache=_cache_from(args),
                      progress=_progress(args))
    from repro.perf.ledger import diff_summary
    _record_ledger(args, "diff", diff_summary(result))

    def render(_payload):
        return "\n".join(
            [f"  {record.classify(abs_tol, rel_tol):8s} "
             f"{record.describe()}: "
             f"{record.backend_a}={record.cycles_a} "
             f"{record.backend_b}={record.cycles_b} "
             f"output_match={record.digest_match} "
             f"errors=({record.error_a!r}, {record.error_b!r})"
             for record in result.mismatches] + [result.summary()])

    _emit(args, result.to_json(), render)
    # Exit 4 is the differential verdict, distinct from usage errors
    # (1) and unmappable (2) — CI keys off it.
    return 0 if result.ok else 4


def _chaos(args):
    from repro.chaos.harness import render_report, run_chaos

    report = run_chaos(_sweep_specs(args), faults=args.faults,
                       workers=args.workers,
                       point_timeout=args.point_timeout,
                       allow_quarantine=args.allow_quarantine,
                       progress=_progress(args))
    _emit(args, report, render_report)
    # Exit 5 is the chaos verdict — the faulted sweep failed to
    # converge to the clean answer — distinct from usage errors (1),
    # unmappable (2), bench regressions (3) and diff mismatches (4).
    return 0 if report["ok"] else 5


def _merge(args):
    from repro.runtime.shard import merge_sweep_files

    return _print_sweep(args, merge_sweep_files(args.files))


def _format_bytes(n):
    for unit in ("B", "KiB", "MiB", "GiB"):
        if n < 1024 or unit == "GiB":
            return f"{n:.1f} {unit}" if unit != "B" else f"{n} B"
        n /= 1024


def _cache(args):
    from repro.runtime.cache import ResultCache, parse_bytes

    cache = ResultCache(getattr(args, "cache_dir", None))
    if args.action == "stats":
        stats = cache.stats()
        if args.json:
            print(json.dumps(stats, indent=2))
        else:
            cap = (_format_bytes(stats["max_bytes"])
                   if stats["max_bytes"] is not None else "none")
            print(f"cache: {stats['directory']} "
                  f"(format {stats['format']})")
            print(f"  entries:     {stats['entries']}")
            print(f"  total size:  "
                  f"{_format_bytes(stats['total_bytes'])}")
            if stats["orphaned_entries"]:
                print(f"  orphaned:    {stats['orphaned_entries']} "
                      f"entries from older cache formats, "
                      f"{_format_bytes(stats['orphaned_bytes'])} "
                      f"(reclaim with prune/clear)")
            print(f"  byte cap:    {cap}")
        return 0
    if args.action == "clear":
        removed = cache.clear()
        print(f"cleared {removed} entries from {cache.directory}")
        return 0
    try:
        cap = (parse_bytes(args.max_bytes)
               if args.max_bytes is not None else None)
        evicted = cache.prune(cap)
    except ValueError as error:
        raise ReproError(str(error)) from None
    print(f"evicted {evicted} entries; "
          f"{_format_bytes(cache.size_bytes())} in {cache.directory}")
    return 0


def _figure(args):
    from repro.eval import experiments, reporting
    if args.shard:
        # Distributed prewarm: the shards fill a shared cache and/or
        # merge into the full point set; the figure itself renders
        # from any machine that sees all of them.
        specs = experiments.figure_point_specs(args.name)
        if not specs:
            raise ReproError(
                f"{args.name} has no prewarmable experiment points to "
                f"shard; only the latency figures (fig6-8), fig10 and "
                f"table2 have one")
        return _run_shard(args, specs, label=f"{args.name} ")
    # How the mapping-bound figures run their points.
    runtime = dict(workers=args.workers, cache=_cache_from(args),
                   progress=_progress(args))
    if args.name == "fig5":
        data = experiments.fig5_data()
        render = reporting.render_fig5
    elif args.name in experiments.FIGURE_VARIANTS:
        variant = experiments.FIGURE_VARIANTS[args.name]
        data = experiments.latency_figure_data(variant, **runtime)

        def render(chart):
            return reporting.render_latency_figure(
                f"Fig {args.name[3:]} — {variant} flow", chart,
                experiments.LATENCY_CONFIGS)
    elif args.name == "fig9":
        # Compile-time measurements stay serial: sharing cores would
        # distort the very quantity the figure reports.
        data = experiments.fig9_data()
        render = reporting.render_fig9
    elif args.name == "fig10":
        data = experiments.fig10_data(**runtime)
        render = reporting.render_fig10
    elif args.name == "fig11":
        data = experiments.fig11_data()
        render = reporting.render_fig11
    else:
        data = experiments.table2_data(**runtime)
        render = reporting.render_table2
    print(json.dumps(data, indent=2) if args.json else render(data))
    return 0


def _explore(args):
    from repro.dse.runner import (
        exploration_grid_specs,
        run_exploration,
        validated_exploration_config,
    )
    from repro.eval.reporting import render_exploration

    depths = None
    if args.depths:
        try:
            depths = [int(d) for d in args.depths.split(",")]
        except ValueError:
            raise ReproError(
                f"--depths expects comma-separated integers "
                f"(e.g. 8,16,32), got {args.depths!r}") from None
    config = validated_exploration_config(
        space=_split_axis(args.space),
        depths=depths,
        samples=args.samples,
        kernels=_split_axis(args.kernels),
        variant=args.variant,
        strategy=args.strategy,
        budget=args.budget,
        seed=args.seed,
        objectives=_split_axis(args.objectives),
        rows=args.rows, cols=args.cols,
        backend=args.backend)
    if args.shard:
        # The prewarm unit is the exhaustive grid: shards fill the
        # shared cache; any strategy run afterwards resolves its
        # requests from hits.
        return _run_shard(args, exploration_grid_specs(config),
                          label="explore ")
    result = run_exploration(config, workers=args.workers,
                             cache=_cache_from(args),
                             progress=_progress(args))
    payload = result.payload()
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(render_exploration(payload))
    return 0


def _bench(args):
    import time as _time

    from repro.perf import (
        bench_payload, compare_benchmarks, default_cases,
        load_bench_file, parse_case, render_bench, render_comparison,
        run_bench)

    if args.flame_out and (args.compare or args.compare_ledger):
        # The sampler slows the run it profiles: a gate would report
        # its overhead as a regression.
        raise ReproError("--flame-out cannot be gated: drop --compare "
                         "/ --compare-ledger or the profile")
    if args.cases:
        cases = [parse_case(text.strip())
                 for text in args.cases.split(",") if text.strip()]
        if not cases:
            raise ReproError("--cases named no cases")
    else:
        cases = default_cases(kernels=_split_axis(args.kernels),
                              configs=_split_axis(args.configs),
                              variants=_split_axis(args.variants))
    with (_sampling(args.flame_out) if args.flame_out
          else contextlib.nullcontext()):
        results = run_bench(cases, warmup=args.warmup,
                            repeat=args.repeat,
                            progress=_progress(args, describe=str))
    payload = bench_payload(results, args.warmup, args.repeat,
                            created_unix=int(_time.time()))
    _emit(args, payload, render_bench)
    # Each gate is (heading, rows, regressions).
    gates = []
    if args.compare:
        gates.append(("", *compare_benchmarks(
            payload, load_bench_file(args.compare))))
    if args.compare_ledger:
        import platform as _platform

        from repro.perf import ledger
        # Gate against history *before* recording this run, so a run
        # can never be part of its own baseline; same-host only,
        # since wall-clock across machines compares nothing.
        entries, _skipped = ledger.read_ledger(
            ledger.ledger_path(getattr(args, "cache_dir", None)),
            host=_platform.node())
        rows, regressions, used = ledger.compare_to_ledger(
            payload, entries)
        gates.append((f"ledger gate: rolling median of the last "
                      f"{used} same-host bench run(s)\n", rows,
                      regressions))
    for heading, rows, regressions in gates:
        # The comparison is narration under --json (stdout holds the
        # document); regressions still gate the exit code.
        print(heading + render_comparison(rows, regressions),
              file=sys.stderr if args.json else sys.stdout)
    from repro.perf.ledger import bench_summary
    _record_ledger(args, "bench", bench_summary(payload))
    return 3 if any(regressions for _, _, regressions in gates) else 0


def _print_analysis(spans, as_json):
    from repro.obs import analyze
    payload = analyze.analyze_spans(spans)
    print(json.dumps(payload, indent=2) if as_json
          else analyze.render_analysis(payload))


def _trace(args):
    from repro.obs import analyze

    if args.from_file:
        # Post-mortem mode: analyse a saved --trace-out file without
        # running anything.
        _print_analysis(analyze.load_trace_file(args.from_file),
                        args.json)
        return 0
    specs = _sweep_specs(args)
    with _traced(args.out) as spans:
        result = _run_sweep(args, specs, _cache_from(args))
    if args.analyze:
        _print_analysis(spans, args.json)
    return 1 if result.crashed else 0


def _history(args):
    from repro.perf import ledger

    path = ledger.ledger_path(getattr(args, "cache_dir", None))
    entries, skipped = ledger.read_ledger(
        path, command=args.filter_command, limit=args.limit)
    if args.json:
        print(json.dumps({
            "kind": "ledger-history",
            "schema": ledger.LEDGER_SCHEMA,
            "path": str(path),
            "entries": entries,
            "skipped": skipped,
        }, indent=2))
    else:
        print(ledger.render_history(entries, skipped))
    return 0


def _report(args):
    from repro.obs import analyze, metrics, report
    from repro.perf import ledger

    entries, _skipped = ledger.read_ledger(
        ledger.ledger_path(getattr(args, "cache_dir", None)),
        limit=args.limit)
    analysis = None
    if args.trace:
        analysis = analyze.analyze_spans(
            analyze.load_trace_file(args.trace))
    cache = _cache_from(args)
    cache_stats = cache.stats() if cache is not None else None
    html_text = report.render_report(
        ledger_entries=entries, analysis=analysis,
        metrics_text=metrics.REGISTRY.render(),
        cache_stats=cache_stats)
    if args.out == "-":
        sys.stdout.write(html_text)
    else:
        with open(args.out, "w") as fh:
            fh.write(html_text)
        print(f"report -> {args.out}", file=sys.stderr, flush=True)
    return 0


def _metrics(args):
    if args.server:
        import urllib.error
        import urllib.request
        url = args.server.rstrip("/") + "/metrics"
        # Every way a scrape fails — non-2xx, refused connection,
        # unresolvable host, schemeless URL — is one diagnostic line
        # and exit 1, never a traceback.
        try:
            with urllib.request.urlopen(url, timeout=30.0) as response:
                sys.stdout.write(response.read().decode("utf-8"))
        except urllib.error.HTTPError as error:
            raise ReproError(
                f"scrape of {url} failed: HTTP {error.code} "
                f"{error.reason}") from None
        except urllib.error.URLError as error:
            raise ReproError(
                f"cannot scrape {url}: {error.reason}") from None
        except OSError as error:
            raise ReproError(
                f"cannot scrape {url}: {error}") from None
        except ValueError as error:
            raise ReproError(
                f"bad --server URL {args.server!r}: {error}") \
                from None
        return 0
    from repro.obs import metrics
    # Prime the cache gauges so a fresh process reports the
    # persistent cache's real state, not zeros.
    cache = _cache_from(args)
    if cache is not None:
        cache.stats()
    sys.stdout.write(metrics.REGISTRY.render())
    return 0


def _profile(args):
    from repro.obs.flame import render_flame
    from repro.perf import BenchCase, run_bench

    if args.repeat < 1:
        raise ReproError(f"--repeat must be at least 1, "
                         f"got {args.repeat}")
    case = BenchCase(args.kernel, args.config, args.variant)
    # One mapping is milliseconds — too fast for a wall-clock
    # sampler to see much — so the case is mapped repeatedly under
    # one profile.
    with _sampling(args.flame_out, hz=args.hz) as profiler:
        run_bench([case], warmup=0, repeat=args.repeat)
    print(f"flame: {case.name} ({profiler.samples} wakeup(s) @ "
          f"{profiler.hz:g} Hz x {args.repeat} mapping(s))")
    print(render_flame(profiler.counts, top=args.top))
    return 0


def _kernels(_args):
    for name in PAPER_KERNEL_ORDER:
        kernel = get_kernel(name)
        print(f"{name:14s} {kernel.cdfg.n_ops:4d} static ops, "
              f"{len(kernel.cdfg.blocks):2d} blocks — "
              f"{kernel.description}")
    return 0


def _serve(args):
    from repro.serve.journal import JobJournal, journal_path
    from repro.serve.server import make_server

    cache = _cache_from(args)
    token = args.token or os.environ.get("REPRO_SERVE_TOKEN") or None
    # The journal lives next to ledger.jsonl in the cache directory
    # (the cache may itself be disabled; the journal still needs a
    # home, so it falls back to the default directory).
    journal = None
    if not args.no_journal:
        journal = JobJournal(journal_path(
            cache.directory if cache is not None
            else getattr(args, "cache_dir", None)))
    if args.resume and journal is None:
        raise ReproError(
            "--resume needs the job journal; drop --no-journal")
    try:
        server = make_server(host=args.host, port=args.port,
                             workers=args.workers, cache=cache,
                             quiet=_quiet_requested(args),
                             token=token, journal=journal,
                             point_timeout=args.point_timeout,
                             resume=args.resume)
    except (OSError, OverflowError) as error:
        # Port in use / privileged / out of range / bad address: a
        # one-line diagnosis, not a traceback.  (bind() reports an
        # out-of-range port as OverflowError, not OSError.)
        raise ReproError(f"cannot bind {args.host}:{args.port}: "
                         f"{error}") from None
    host, port = server.server_address[:2]
    where = cache.directory if cache is not None else "disabled"
    from repro.obs import get_logger
    log = get_logger("repro.serve")
    log.info("serving", url=f"http://{host}:{port}",
             workers=args.workers, cache=where,
             auth="token" if token else "off",
             journal=str(journal.path) if journal else "off")
    if server.manager.replay_stats is not None:
        log.info("journal.replayed", **server.manager.replay_stats)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        log.info("shutting down")
    finally:
        server.server_close()
    return 0


def _submit_request(args):
    """Build the POST body from the submit axes/figure flags."""
    request = {}
    if args.figure:
        if args.kernels or args.configs or args.variants:
            raise ReproError(
                "--figure and the kernels/configs/variants axes are "
                "exclusive")
        request["figure"] = args.figure
    else:
        for key, value in (("kernels", args.kernels),
                           ("configs", args.configs),
                           ("variants", args.variants)):
            if value:
                request[key] = value.split(",")
    if args.backend is not None:
        if args.figure:
            raise ReproError(
                "--backend applies to axes submissions, not --figure "
                "(figures pin their own specs)")
        request["backend"] = args.backend
    if args.seed is not None:
        request["seed"] = args.seed
    if args.priority is not None:
        request["priority"] = args.priority
    return request


def _submit(args):
    from repro.runtime.shard import parse_shard, sweep_result_from_payload
    from repro.serve.client import (
        SweepClient, describe_record, run_distributed)

    servers = [url.strip() for url in args.server.split(",")
               if url.strip()]
    if not servers:
        raise ReproError("no server URLs given")
    request = _submit_request(args)
    token = args.token or os.environ.get("REPRO_SERVE_TOKEN") or None
    client_kwargs = {"timeout": args.timeout, "token": token}

    if args.shard_across:
        if args.shard:
            raise ReproError(
                "--shard picks one slice by hand; --shard-across "
                "shards over the servers — use one or the other")
        result, _ = run_distributed(
            servers, request,
            progress=_progress(args, lambda record, done, total, url:
                               describe_record(record, done, total,
                                               origin=url)),
            **client_kwargs)
        return _print_sweep(args, result)

    if len(servers) > 1:
        raise ReproError(
            "several --server URLs only make sense with "
            "--shard-across; pick one URL otherwise")
    if args.shard:
        request["shard"] = list(parse_shard(args.shard))
    payload = SweepClient(servers[0], **client_kwargs).run(
        request, progress=_progress(args, describe_record))
    return _print_sweep(args, sweep_result_from_payload(payload),
                        payload)


def main(argv=None):
    args = _parser().parse_args(argv)
    handlers = {"map": _map, "run": _run, "energy": _energy,
                "area": _area, "kernels": _kernels, "sweep": _sweep,
                "diff": _diff, "merge": _merge, "cache": _cache,
                "figure": _figure, "explore": _explore,
                "serve": _serve, "submit": _submit, "bench": _bench,
                "profile": _profile, "trace": _trace,
                "metrics": _metrics, "history": _history,
                "report": _report, "chaos": _chaos}
    # ``--trace-out`` records the whole command, failing exits too.
    with _traced(getattr(args, "trace_out", None)):
        try:
            return handlers[args.command](args)
        except UnmappableError as error:
            print(f"no mapping: {error}", file=sys.stderr)
            return 2
        except ReproError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
