"""Command-line interface: ``fastbfs`` (or ``python -m repro``).

Subcommands:

* ``generate`` — build a synthetic graph (rmat/powerlaw/random/grid or a
  Table II dataset stand-in) and write it as a binary edge list + config;
* ``run`` — run BFS (or WCC) on a graph file or named dataset with a chosen
  engine and simulated machine, printing the execution report;
* ``batch`` — stage a graph once and run one BFS query per given root,
  printing per-query and staging-amortized timings;
* ``compare`` — run all three engines on one input and print the
  paper-style comparison (time / input data / iowait / speedups);
* ``profile`` — analyze a span-trace JSONL file (stage breakdowns, stay
  overlap; ``--host`` adds the dual-clock host-cost table for traces
  recorded with ``--host-profile``) or, with ``--graph``/``--dataset``,
  print the per-level convergence profile (Fig. 1 data);
* ``top`` — poll a running graph service's ``/debug/timeseries`` ring
  and render a live per-graph RPS / queue-depth / latency-quantile
  view (``--once`` for a single CI-friendly sample);
* ``bench`` — collect a ``BENCH_<seq>.json`` benchmark snapshot
  (``bench run``) or diff the two newest under the tolerance policy
  (``bench compare``, nonzero exit on regression);
* ``chaos`` — sweep seeded fault-injection schedules across engines and
  disk placements; every surviving run must produce bit-identical BFS
  levels (nonzero exit on any violation);
* ``analyze`` — the repo static checker (per-module rules FB102-FB109,
  whole-program effect rules FB200-FB208; text/JSON/SARIF);
* ``datasets`` — list the Table II registry.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

from repro.algorithms.reference import level_profile
from repro.algorithms.streaming import WCCAlgorithm
from repro.algorithms.validation import teps, validate_bfs_result
from repro.analysis.calibration import (
    scaled_engine_config,
    scaled_fastbfs_config,
    scaled_graphchi_config,
    scaled_machine,
)
from repro.analysis.harness import default_root
from repro.analysis.tables import format_table
from repro.api import ENGINES, AnyEngine, export_observability, make_engine
from repro.errors import ReproError
from repro.graph.datasets import DATASETS, build_dataset
from repro.graph.graph import Graph
from repro.storage.machine import Machine
from repro.graph.generators import (
    grid_graph,
    powerlaw_graph,
    random_graph,
    rmat_graph,
)
from repro.graph.io import load_graph, save_graph
from repro.utils.units import format_bytes, format_seconds


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fastbfs",
        description="FastBFS (IPDPS 2016) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic graph file")
    gen.add_argument("kind", choices=["rmat", "powerlaw", "random", "grid", "dataset"])
    gen.add_argument("output", help="output path (binary edge list)")
    gen.add_argument("--scale", type=int, default=14, help="rmat scale")
    gen.add_argument("--edge-factor", type=int, default=16)
    gen.add_argument("--vertices", type=int, default=1 << 16)
    gen.add_argument("--edges", type=int, default=1 << 20)
    gen.add_argument("--width", type=int, default=256)
    gen.add_argument("--height", type=int, default=256)
    gen.add_argument("--dataset", choices=sorted(DATASETS), default="rmat22")
    gen.add_argument("--seed", type=int, default=1)

    run = sub.add_parser("run", help="run an engine on a graph")
    _add_input_args(run)
    run.add_argument("--engine", choices=list(ENGINES), default="fastbfs")
    run.add_argument("--algorithm", choices=["bfs", "wcc", "sssp"],
                     default="bfs")
    run.add_argument("--max-weight", type=int, default=8,
                     help="sssp: synthetic edge weights in [1, max]")
    run.add_argument("--root", type=int, default=None,
                     help="BFS root (default: highest-out-degree vertex)")
    run.add_argument("--roots", type=int, nargs="+", default=None,
                     help="multi-source traversal: start from all of these")
    run.add_argument("--validate", action="store_true",
                     help="validate the BFS tree against the in-memory reference")
    run.add_argument("--verbose", action="store_true",
                     help="print the per-iteration breakdown")
    _add_machine_args(run)
    _add_obs_args(run)

    batch = sub.add_parser(
        "batch",
        help="stage a graph once and run one BFS query per root",
    )
    _add_input_args(batch)
    batch.add_argument("--engine", choices=list(ENGINES), default="fastbfs")
    batch.add_argument("--roots", type=int, nargs="+", required=True,
                       help="one BFS query is run per root")
    batch.add_argument("--batch", action="store_true",
                       help="MS-BFS batched scheduling: advance up to 64 "
                            "queries per shared edge scan (bit-identical "
                            "per-query results; see docs/batched_bfs.md)")
    batch.add_argument("--verbose", action="store_true",
                       help="print each query's per-iteration breakdown")
    _add_machine_args(batch)
    _add_obs_args(batch)

    cmp_ = sub.add_parser("compare", help="compare all engines on one graph")
    _add_input_args(cmp_)
    cmp_.add_argument("--root", type=int, default=None)
    _add_machine_args(cmp_)

    prof = sub.add_parser(
        "profile",
        help="analyze a span trace (or print the BFS convergence profile)",
    )
    prof.add_argument(
        "trace", nargs="?", default=None,
        help="span-trace JSONL (e.g. from 'run --trace'); omit to profile "
             "convergence of --graph/--dataset instead",
    )
    prof.add_argument("--width", type=int, default=100,
                      help="trace report width (columns)")
    prof.add_argument("--host", action="store_true",
                      help="append the dual-clock host-cost section "
                           "(needs a trace recorded with --host-profile)")
    _add_input_args(prof, required=False)
    prof.add_argument("--root", type=int, default=None)

    bench = sub.add_parser(
        "bench",
        help="benchmark snapshots (BENCH_<seq>.json) and the regression gate",
    )
    bsub = bench.add_subparsers(dest="bench_command", required=True)
    brun = bsub.add_parser("run", help="collect a new snapshot file")
    brun.add_argument("--dir", default=".", dest="bench_dir",
                      help="directory holding BENCH_*.json (default: .)")
    brun.add_argument("--scale-divisor", type=int, default=None,
                      help="scale divisor (default: REPRO_SCALE_DIVISOR)")
    brun.add_argument("--seed", type=int, default=1)
    bcmp = bsub.add_parser(
        "compare",
        help="diff the two newest snapshots; exit 1 on regression",
    )
    bcmp.add_argument("--dir", default=".", dest="bench_dir",
                      help="directory holding BENCH_*.json (default: .)")

    chaos = sub.add_parser(
        "chaos",
        help="sweep seeded fault schedules; exit 1 on any violation",
    )
    chaos.add_argument(
        "--profile", choices=["smoke", "full", "serve"], default="smoke",
        help="sweep size: smoke (CI gate), full (acceptance, >=50 seeds) "
             "or serve (live GraphService under seeded faults)",
    )
    chaos.add_argument("--seed", type=int, default=0,
                       help="master seed; trials derive their schedules from it")
    chaos.add_argument("--trials", type=int, default=None,
                       help="override the profile's trial count")
    chaos.add_argument("--verbose", action="store_true",
                       help="print every trial, not just failures")

    sub.add_parser("datasets", help="list the Table II dataset registry")

    # Every argument after "analyze" goes to the analyzer's own parser
    # (see main), so its options are declared in one place.
    sub.add_parser(
        "analyze",
        add_help=False,
        help="repo static checker (rules FB102-FB109, FB200-FB208); "
             "`analyze -h` lists its options",
    )

    gantt = sub.add_parser(
        "gantt",
        help="run one BFS with request tracing and draw the device Gantt",
    )
    _add_input_args(gantt)
    gantt.add_argument("--engine", choices=list(ENGINES), default="fastbfs")
    gantt.add_argument("--root", type=int, default=None)
    gantt.add_argument("--width", type=int, default=100)
    _add_machine_args(gantt)

    shapes = sub.add_parser(
        "shapes",
        help="run the executable shape claims (the EXPERIMENTS scoreboard)",
    )
    shapes.add_argument("--divisor", type=int, default=1024,
                        help="scale divisor (default 1024 for speed)")
    shapes.add_argument("--datasets", nargs="*", default=["rmat25"])

    serve_p = sub.add_parser(
        "serve",
        help="boot the long-lived graph query service (docs/serving.md)",
    )
    serve_p.add_argument("--host", default="127.0.0.1",
                         help="bind address (default 127.0.0.1)")
    serve_p.add_argument("--port", type=int, default=8080,
                         help="bind port; 0 picks an ephemeral port")
    serve_p.add_argument(
        "--warmup", nargs="*", default=[], metavar="SPEC",
        help="graph specs staged at boot: a dataset name ('rmat22'), a "
             "generator spec ('rmat:scale=12,edge_factor=8,seed=7'), or "
             "'name@spec' to alias",
    )
    serve_p.add_argument("--engine", choices=["fastbfs", "x-stream"],
                         default="fastbfs",
                         help="engine staged artifacts are built for")
    serve_p.add_argument("--capacity", type=int, default=128,
                         help="per-graph admission queue capacity")
    serve_p.add_argument("--max-graphs", type=int, default=4,
                         help="artifact registry LRU size")
    serve_p.add_argument(
        "--fault-profile", choices=["transient", "crashy", "hostile"],
        default=None, metavar="NAME",
        help="attach a seeded serve fault plan to every registered "
             "graph's machine (transient | crashy | hostile; see "
             "docs/serving.md#serving-under-faults)",
    )
    serve_p.add_argument("--fault-seed", type=int, default=0,
                         help="seed the --fault-profile plan is drawn with")
    serve_p.add_argument(
        "--default-deadline-ms", type=float, default=None, metavar="MS",
        help="server-wide per-request deadline; expired requests get "
             "typed 504s (default: no deadline)",
    )
    serve_p.add_argument("--flush-retries", type=int, default=2,
                         help="batched flush attempts before the serial "
                              "fallback (default 2)")

    top = sub.add_parser(
        "top",
        help="live per-graph view of a running service (/debug/timeseries)",
    )
    top.add_argument("--url", default="http://127.0.0.1:8080",
                     help="service base URL (default http://127.0.0.1:8080)")
    top.add_argument("--interval", type=float, default=2.0,
                     help="poll interval in seconds (default 2)")
    top.add_argument("--once", action="store_true",
                     help="print a single sample and exit (CI mode)")

    rep = sub.add_parser(
        "reproduce",
        help="run the paper's experiments and write a markdown report",
    )
    rep.add_argument("--figures", nargs="*", default=None,
                     help="subset, e.g. fig4 fig5 (default: all)")
    rep.add_argument("--datasets", nargs="*", default=None,
                     help="subset of the big datasets (default: all four)")
    rep.add_argument("--divisor", type=int, default=None,
                     help="scale divisor override (default: env or 256)")
    rep.add_argument("--output", default=None,
                     help="write the report here (default: stdout)")
    return parser


def _add_input_args(p: argparse.ArgumentParser, required: bool = True) -> None:
    group = p.add_mutually_exclusive_group(required=required)
    group.add_argument("--graph", help="path to a binary edge-list file")
    group.add_argument("--dataset", choices=sorted(DATASETS),
                       help="Table II dataset stand-in")
    p.add_argument("--seed", type=int, default=1)


def _add_machine_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--memory", default="4GB",
                   help="paper-scale memory budget (scaled by the divisor)")
    p.add_argument("--cores", type=int, default=4)
    p.add_argument("--disks", type=int, default=1)
    p.add_argument("--disk-kind", choices=["hdd", "ssd"], default="hdd")
    p.add_argument("--threads", type=int, default=4)


def _add_obs_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trace", metavar="PATH", default=None,
                   help="write the span trace as JSONL (repro.obs)")
    p.add_argument("--metrics", metavar="PATH", default=None,
                   help="write a Prometheus-style counter snapshot")
    p.add_argument("--host-profile", action="store_true",
                   help="bind the host wall clock to the tracer so spans "
                        "carry host stamps ('profile --host' reads them; "
                        "simulated results are unaffected)")


def _obs_attach(machine: Machine, args: argparse.Namespace) -> None:
    """Install a tracer before the run when ``--trace``/``--host-profile``
    was given; ``--host-profile`` additionally binds the host clock."""
    host_profile = getattr(args, "host_profile", False)
    if getattr(args, "trace", None) is not None or host_profile:
        from repro.obs import Tracer

        machine.attach_tracer(Tracer())
    if host_profile:
        from repro.obs import HOST_CLOCK

        machine.tracer.bind_host_clock(HOST_CLOCK)


def _obs_export(machine: Machine, result, args: argparse.Namespace) -> None:
    """Write ``--trace``/``--metrics`` exports after the run, if requested."""
    trace_path = getattr(args, "trace", None)
    metrics_path = getattr(args, "metrics", None)
    if trace_path is None and metrics_path is None:
        return
    export_observability(machine, result, trace_path, metrics_path)
    if trace_path is not None:
        print(f"trace: {len(machine.tracer.spans)} spans -> {trace_path}")
    if metrics_path is not None:
        print(f"metrics: {len(result.metrics)} series -> {metrics_path}")


def _load_input(args: argparse.Namespace) -> Graph:
    if args.graph:
        return load_graph(args.graph)
    return build_dataset(args.dataset, seed=args.seed)


def _machine(args: argparse.Namespace) -> Machine:
    return scaled_machine(
        memory=args.memory,
        cores=args.cores,
        num_disks=args.disks,
        disk_kind=args.disk_kind,
    )


def _engine(name: str, args: argparse.Namespace) -> AnyEngine:
    if name == "graphchi":
        return make_engine(name, scaled_graphchi_config(threads=args.threads))
    if name == "fastbfs":
        return make_engine(name, scaled_fastbfs_config(threads=args.threads))
    return make_engine(name, scaled_engine_config(threads=args.threads))


def _root(args: argparse.Namespace, graph: Graph) -> int:
    return args.root if args.root is not None else default_root(graph)


def cmd_generate(args: argparse.Namespace) -> int:
    if args.kind == "rmat":
        g = rmat_graph(scale=args.scale, edge_factor=args.edge_factor,
                       seed=args.seed)
    elif args.kind == "powerlaw":
        g = powerlaw_graph(args.vertices, args.edges, out_exponent=2.0,
                           seed=args.seed)
    elif args.kind == "random":
        g = random_graph(args.vertices, args.edges, seed=args.seed)
    elif args.kind == "grid":
        g = grid_graph(args.width, args.height)
    else:
        g = build_dataset(args.dataset, seed=args.seed)
    save_graph(g, args.output)
    print(f"wrote {g!r} -> {args.output} (+ .json config)")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    graph = _load_input(args)
    machine = _machine(args)
    _obs_attach(machine, args)
    engine = _engine(args.engine, args)

    def run_engine(**kwargs):
        result = engine.run(graph, machine, **kwargs)
        _obs_export(machine, result, args)
        return result

    if args.algorithm in ("wcc", "sssp"):
        if args.engine == "graphchi" and args.algorithm == "sssp":
            print("error: the GraphChi baseline implements bfs and wcc only",
                  file=sys.stderr)
            return 2
        if args.algorithm == "wcc":
            if args.engine == "graphchi":
                result = run_engine(algorithm="wcc")
            else:
                result = run_engine(algorithm=WCCAlgorithm(), root=0)
            labels = result.output["label"]
            print(result.summary())
            print(f"components: {len(np.unique(labels)):,}")
            return 0
        from repro.algorithms.sssp import (
            UNREACHED,
            WeightedSSSPAlgorithm,
            hash_weights,
        )

        root = _root(args, graph)
        result = run_engine(
            algorithm=WeightedSSSPAlgorithm(hash_weights(args.max_weight)),
            root=root,
        )
        dist = result.output["distance"]
        reached = dist != UNREACHED
        print(result.summary())
        print(f"root: {root}  reached: {int(reached.sum()):,}  "
              f"max distance: {int(dist[reached].max()) if reached.any() else 0}")
        return 0
    if args.roots is not None:
        if args.validate:
            print("error: --validate needs a single --root traversal",
                  file=sys.stderr)
            return 2
        result = run_engine(roots=args.roots)
        print(result.summary())
        print(f"roots: {args.roots}  visited: {(result.levels >= 0).sum():,} "
              f"of {graph.num_vertices:,}  depth: {result.levels.max()}")
        print(f"TEPS: {teps(graph, result.levels, result.execution_time):,.0f}")
        if args.verbose:
            print()
            print(result.iteration_table())
        return 0
    root = _root(args, graph)
    result = run_engine(root=root)
    print(result.summary())
    print(f"root: {root}  visited: {(result.levels >= 0).sum():,} "
          f"of {graph.num_vertices:,}  depth: {result.levels.max()}")
    print(f"TEPS: {teps(graph, result.levels, result.execution_time):,.0f}")
    if args.verbose:
        print()
        print(result.iteration_table())
    if args.validate:
        from repro.algorithms.reference import bfs_levels

        report = validate_bfs_result(
            graph, root, result.levels, result.parents, bfs_levels(graph, root)
        )
        if report.ok:
            print("validation: OK (Graph500 rules + reference levels)")
        else:
            print(f"validation: FAILED — {report.errors}", file=sys.stderr)
            return 1
    return 0


def cmd_batch(args: argparse.Namespace) -> int:
    graph = _load_input(args)
    machine = _machine(args)
    _obs_attach(machine, args)
    engine = _engine(args.engine, args)
    mode = "batched" if args.batch else "serial"
    batch = engine.run_many(graph, machine, roots=args.roots, mode=mode)
    _obs_export(machine, batch, args)
    rows: List[List[object]] = [
        [
            "staging",
            "-",
            format_seconds(batch.staging_time),
            format_bytes(batch.staging_report.bytes_total),
            "-",
            "-",
        ]
    ]
    for i, q in enumerate(batch.queries):
        rows.append(
            [
                f"query {i}",
                args.roots[i],
                format_seconds(q.execution_time),
                format_bytes(q.report.bytes_total),
                f"{(q.levels >= 0).sum():,}",
                q.num_iterations,
            ]
        )
    print(format_table(
        ["phase", "root", "time", "I/O", "visited", "iterations"],
        rows,
        title=f"{graph.name}: {batch.num_queries} queries on {args.engine}, "
              f"staged once",
    ))
    print(f"\ntotal: {format_seconds(batch.total_time)}  "
          f"amortized/query: {format_seconds(batch.amortized_time)}  "
          f"(staging amortized to "
          f"{format_seconds(batch.staging_time / batch.num_queries)}/query)")
    if batch.mode == "batched":
        print(f"batched: {len(batch.batch_times)} shared-scan batch(es), "
              f"{batch.edges_scanned:,} edges scanned "
              f"({batch.edge_scans_per_query:,.0f}/query amortized)")
    elif args.batch:
        print("batched mode unavailable for this engine/algorithm; "
              "ran serial fallback")
    if args.verbose:
        for i, q in enumerate(batch.queries):
            print(f"\nquery {i} (root {args.roots[i]}):")
            print(q.iteration_table())
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    graph = _load_input(args)
    root = _root(args, graph)
    rows: List[List[object]] = []
    times = {}
    for name in ("graphchi", "x-stream", "fastbfs"):
        machine = _machine(args)
        engine = _engine(name, args)
        result = engine.run(graph, machine, root=root)
        times[name] = result.execution_time
        rows.append(
            [
                name,
                format_seconds(result.execution_time),
                format_bytes(result.report.bytes_read),
                format_bytes(result.report.bytes_total),
                f"{result.report.iowait_ratio:.1%}",
                result.num_iterations,
            ]
        )
    print(format_table(
        ["engine", "time", "input", "total I/O", "iowait", "iterations"],
        rows,
        title=f"{graph.name}: root {root}, {args.disks}x{args.disk_kind}, "
              f"{args.memory} memory (paper scale)",
    ))
    print(f"\nFastBFS speedup vs X-Stream: "
          f"{times['x-stream'] / times['fastbfs']:.2f}x (paper: 1.6-2.1x HDD)")
    print(f"FastBFS speedup vs GraphChi: "
          f"{times['graphchi'] / times['fastbfs']:.2f}x (paper: 2.4-3.9x HDD)")
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    if args.trace is not None:
        from repro.api import profile_trace

        prof = profile_trace(args.trace)
        print(prof.report_text(width=args.width, host=args.host))
        return 0
    if args.graph is None and args.dataset is None:
        print(
            "error: give a span-trace JSONL path, or --graph/--dataset for "
            "the convergence profile",
            file=sys.stderr,
        )
        return 2
    graph = _load_input(args)
    root = _root(args, graph)
    prof = level_profile(graph, root)
    rows = []
    for level, (frontier, scattered, remaining) in enumerate(
        zip(prof.frontier_sizes, prof.scatter_edges, prof.remaining_edges)
    ):
        rows.append(
            [
                level,
                frontier,
                scattered,
                remaining,
                f"{remaining / max(prof.num_edges, 1):.1%}",
            ]
        )
    print(format_table(
        ["level", "frontier", "edges scattered", "stay list", "useful"],
        rows,
        title=f"{graph.name}: convergence from root {root} (Fig. 1 data)",
    ))
    saved = 1 - prof.total_scanned_with_trimming() / max(
        prof.total_scanned_without_trimming(), 1
    )
    print(f"\nedge scans saved by trimming: {saved:.1%}")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from repro.obs.bench import (
        collect_snapshot,
        compare_latest,
        snapshot_files,
        write_snapshot,
    )

    if args.bench_command == "run":
        snapshot = collect_snapshot(divisor=args.scale_divisor, seed=args.seed)
        path = write_snapshot(snapshot, root=args.bench_dir)
        scenarios = snapshot["scenarios"]
        print(f"wrote {path} ({len(scenarios)} scenarios, "
              f"divisor {snapshot['divisor']})")
        for name in sorted(scenarios):
            doc = scenarios[name]
            if doc.get("kind") == "multi-query":
                print(f"  {name}: {format_seconds(doc['batched_time'])} "
                      f"batched, {doc['queries']} queries, edge-scan "
                      f"amortization {doc['edge_scan_amortization']:.1%}")
            else:
                print(f"  {name}: {format_seconds(doc['execution_time'])}, "
                      f"{format_bytes(doc['total_bytes'])} total I/O, "
                      f"{doc['iterations']} iterations")
        return 0
    files = snapshot_files(args.bench_dir)
    if len(files) < 2:
        print(
            f"bench compare: found {len(files)} snapshot(s) in "
            f"{args.bench_dir!r}; nothing to compare",
            file=sys.stderr,
        )
        return 2
    comparison = compare_latest(args.bench_dir)
    print(comparison.render())
    return 0 if comparison.ok else 1


def cmd_chaos(args: argparse.Namespace) -> int:
    from repro.tooling.chaos import run_chaos

    report = run_chaos(
        profile=args.profile, seed=args.seed, trials=args.trials
    )
    print(report.render())
    if args.verbose:
        for trial in report.trials:
            print("  " + trial.describe())
    if not report.ok:
        print(
            f"chaos: {len(report.violations)} violation(s) — a fault "
            "schedule produced wrong output or an untyped failure",
            file=sys.stderr,
        )
        return 1
    print("chaos: every surviving run matched the reference bit-for-bit")
    return 0


def cmd_datasets(_args: argparse.Namespace) -> int:
    rows = [
        [
            name,
            f"{spec.paper_vertices/1e6:.1f}M",
            f"{spec.paper_edges/1e6:.0f}M",
            format_bytes(spec.paper_size_bytes),
            spec.description,
        ]
        for name, spec in DATASETS.items()
    ]
    print(format_table(
        ["name", "vertices", "edges", "size", "description"],
        rows,
        title="Table II datasets (paper scale; stand-ins are generated "
              "at 1/REPRO_SCALE_DIVISOR)",
    ))
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    from repro.tooling.analyzer import main as analyzer_main

    return analyzer_main(args.analyzer_argv, prog="fastbfs analyze")


def cmd_gantt(args: argparse.Namespace) -> int:
    from repro.sim.trace import render_gantt

    graph = _load_input(args)
    machine = scaled_machine(
        memory=args.memory,
        cores=args.cores,
        num_disks=args.disks,
        disk_kind=args.disk_kind,
        trace=True,
    )
    engine = _engine(args.engine, args)
    if args.engine == "fastbfs" and args.disks > 1:
        engine = make_engine(
            "fastbfs", scaled_fastbfs_config(threads=args.threads,
                                             rotate_streams=True)
        )
    root = _root(args, graph)
    result = engine.run(graph, machine, root=root)
    print(result.summary())
    print()
    print(render_gantt(machine, width=args.width))
    return 0


def cmd_shapes(args: argparse.Namespace) -> int:
    from repro.analysis.harness import ExperimentRunner
    from repro.analysis.shapes import check_all, scoreboard

    results = check_all(
        ExperimentRunner(divisor=args.divisor), datasets=args.datasets
    )
    print(scoreboard(results))
    failed = [r for r in results if not r.passed]
    print(f"\n{len(results) - len(failed)}/{len(results)} claims hold")
    return 1 if failed else 0


def cmd_reproduce(args: argparse.Namespace) -> int:
    from repro.analysis.harness import ExperimentRunner
    from repro.analysis.report import ALL_FIGURES, build_report

    runner = ExperimentRunner(divisor=args.divisor)
    report = build_report(
        runner,
        figures=args.figures if args.figures else ALL_FIGURES,
        datasets=args.datasets,
    )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(report)
        print(f"wrote report to {args.output}")
    else:
        print(report)
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.api import serve

    service = serve(
        host=args.host,
        port=args.port,
        warmup=args.warmup,
        engine=args.engine,
        capacity=args.capacity,
        max_graphs=args.max_graphs,
        block=False,
        fault_profile=args.fault_profile,
        fault_seed=args.fault_seed,
        default_deadline_ms=args.default_deadline_ms,
        flush_retries=args.flush_retries,
    )
    graphs = ", ".join(sorted(service.registry.names())) or "(none)"
    print(f"serving on {service.address}  graphs: {graphs}")
    if args.fault_profile:
        print(f"fault profile: {args.fault_profile} (seed {args.fault_seed})")
    print("endpoints: /healthz /metrics /graphs "
          "/graphs/<name>/{bfs,sssp,pagerank,stats}")
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        print("draining...")
    finally:
        service.shutdown()
    return 0


def cmd_top(args: argparse.Namespace) -> int:
    import json
    import time  # wall clock for the poll cadence only — never simulated
    from urllib.error import URLError
    from urllib.request import urlopen

    base = args.url.rstrip("/")
    url = base + "/debug/timeseries?windows=1"
    while True:
        try:
            with urlopen(url, timeout=10) as resp:
                doc = json.loads(resp.read().decode("utf-8"))
        except (URLError, OSError, ValueError) as exc:
            print(f"top: cannot read {url}: {exc}", file=sys.stderr)
            return 1
        windows = doc.get("windows", [])
        graphs = windows[-1]["graphs"] if windows else {}
        rows: List[List[object]] = []
        for name in sorted(graphs):
            g = graphs[name]
            wait, svc = g["queue_wait"], g["service_time"]
            rows.append([
                name,
                f"{g['rps']:.1f}",
                g["requests"],
                g["errors"],
                f"{g['queue_depth_last']}/{g['queue_depth_max']}",
                f"{wait['p50'] * 1e3:.2f}",
                f"{wait['p95'] * 1e3:.2f}",
                f"{wait['p99'] * 1e3:.2f}",
                format_seconds(svc["p50"]),
                format_seconds(svc["p99"]),
            ])
        title = (f"{base}  window {doc['window_seconds']:g}s  "
                 f"({len(doc.get('windows', []))} of {doc['capacity']} kept)")
        if rows:
            print(format_table(
                ["graph", "rps", "req", "err", "depth",
                 "wait p50 ms", "p95 ms", "p99 ms",
                 "sim p50", "sim p99"],
                rows,
                title=title,
            ))
        else:
            print(f"{title}\n  (no requests in the current window)")
        if args.once:
            return 0
        time.sleep(args.interval)


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args, rest = parser.parse_known_args(argv)
    if args.command == "analyze":
        args.analyzer_argv = rest
    elif rest:
        parser.error(f"unrecognized arguments: {' '.join(rest)}")
    handlers = {
        "generate": cmd_generate,
        "run": cmd_run,
        "batch": cmd_batch,
        "compare": cmd_compare,
        "profile": cmd_profile,
        "bench": cmd_bench,
        "chaos": cmd_chaos,
        "datasets": cmd_datasets,
        "analyze": cmd_analyze,
        "gantt": cmd_gantt,
        "shapes": cmd_shapes,
        "serve": cmd_serve,
        "top": cmd_top,
        "reproduce": cmd_reproduce,
    }
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
