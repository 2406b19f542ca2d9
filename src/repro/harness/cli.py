"""``python -m repro`` — the unified experiment harness CLI.

Examples::

    python -m repro experiments      # (`list` is an alias)
    python -m repro detectors
    python -m repro protocols
    python -m repro run t1 --workers 2 --out results/
    python -m repro run t1 e2 f3 --full --workers 8 --out results/ --markdown
    python -m repro run t1 --detector heartbeat --detector phi
    python -m repro run t1 -p sizes=[8] -p trials=1
    python -m repro run q1 --dry-run
    python -m repro run t1 --dry-run --worker-id 2/4      # preview a shard split
    python -m repro run t1 --workers-dir /shared/run1 --worker-id 2/4
    python -m repro run t1 --workers-dir /shared/run1 --steal
    python -m repro grid status --workers-dir /shared/run1
    python -m repro grid reap --workers-dir /shared/run1
    python -m repro bench --events 200000 --out results/
    python -m repro cache info --dir results/.cache --verify
    python -m repro cache prune --dir results/.cache --max-age-days 30 --max-size-mb 512

``run`` evaluates each named grid (all of them with no names given),
prints its tables, and writes one ``BENCH_<ID>.json`` artifact per
experiment under ``--out``.  ``--detector KEY`` (repeatable) sweeps the
grid over any :mod:`repro.detectors` registry keys instead of the
experiment's default detector set; ``-p field=value`` overrides any
params field (value parsed as JSON, bare strings allowed).  Results are
cached by content hash under ``<out>/.cache`` (override with
``--cache-dir``, disable with ``--no-cache``): re-running an unchanged
grid is served entirely from cache and rewrites byte-identical artifacts.
``--dry-run`` prints each grid's cell list (coordinates + derived seeds)
without executing anything; combined with ``--worker-id k/N`` it prints
the static shard assignment instead (cells per worker, this worker's
cells and seeds) so a split can be sanity-checked before launching hosts.

``--workers-dir SHARED`` joins (or starts) a **distributed** run of one
experiment: grid cells become leases in a shared-directory ledger, every
worker writes results through the shared cache under ``SHARED/cache``,
and whichever worker sees the last cell complete assembles the artifact
— byte-identical to a single-host run.  Pick a scheduling mode per
worker: ``--worker-id k/N`` (static shard) or ``--steal`` (claim any
available cell; survivors drain dead workers' expired leases).  ``repro
grid status``/``reap`` observe and unstick a run; see
``docs/distributed.md`` for the protocol and failure model.

``experiments`` mirrors ``detectors`` for the experiment registry: every
registered experiment with its axes and default/full grid sizes.

``bench`` runs the engine microbenchmarks into the same artifact format
(``BENCH_MICRO.json``); ``cache prune`` applies age/size caps to a result
cache.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from ..errors import ConfigurationError
from .artifacts import write_artifact
from .cache import ResultCache
from .registry import all_specs, get_spec
from .runner import DEFAULT_WINDOW, run_grid
from .spec import cell_seed, with_detectors, with_overrides

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Run the paper's experiment grids in parallel, with caching.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="evaluate experiment grids")
    run.add_argument(
        "experiments",
        nargs="*",
        metavar="EXP",
        help="experiment ids (see `repro experiments`); default: all",
    )
    run.add_argument("--workers", type=int, default=1, help="process-pool size")
    run.add_argument("--out", default="results", help="artifact directory")
    run.add_argument("--full", action="store_true", help="paper-scale parameters")
    run.add_argument(
        "--preset",
        default=None,
        help=(
            "named parameter preset (a no-arg classmethod on the experiment's "
            "params class, e.g. 'full' or 'large_n')"
        ),
    )
    run.add_argument("--seed", type=int, default=None, help="override the base seed")
    run.add_argument(
        "--detector",
        action="append",
        default=None,
        metavar="KEY",
        help="sweep these registry detector(s) instead of the experiment's default "
        "(repeatable; see `repro detectors`)",
    )
    run.add_argument(
        "-p",
        "--param",
        action="append",
        default=None,
        metavar="FIELD=VALUE",
        help="override a params field (VALUE parsed as JSON; repeatable)",
    )
    run.add_argument(
        "--dry-run",
        action="store_true",
        help="print each grid's cell list (coords + seeds) without executing",
    )
    run.add_argument("--no-cache", action="store_true", help="always recompute")
    run.add_argument("--cache-dir", default=None, help="cache directory (default: OUT/.cache)")
    run.add_argument(
        "--stream",
        action="store_true",
        help="bounded-memory evaluation: fold cells into the artifact as they "
        "complete instead of holding the whole grid in memory",
    )
    run.add_argument(
        "--max-resident",
        type=int,
        default=None,
        metavar="N",
        help="with --stream: cap on resident (not-yet-written) cell outcomes "
        "(default: 512)",
    )
    run.add_argument("--markdown", action="store_true", help="markdown tables")
    run.add_argument("--quiet", action="store_true", help="no tables, just a summary line")
    run.add_argument(
        "--workers-dir",
        default=None,
        metavar="SHARED",
        help="distributed mode: shared ledger directory all workers can reach "
        "(one experiment per run directory)",
    )
    run.add_argument(
        "--worker-id",
        default=None,
        metavar="K/N",
        help="static shard: this worker claims cells with index %% N == K-1 "
        "(with --dry-run: just print the assignment)",
    )
    run.add_argument(
        "--steal",
        action="store_true",
        help="work stealing: claim any available cell, including dead "
        "workers' expired leases",
    )
    run.add_argument(
        "--lease-ttl",
        type=float,
        default=60.0,
        metavar="SECONDS",
        help="lease lifetime without a heartbeat (default: 60); cells of a "
        "worker dead this long are reclaimed",
    )
    run.add_argument(
        "--worker-name",
        default=None,
        help="lease owner label (default: <hostname>-<pid>)",
    )

    commands.add_parser(
        "experiments", help="list registered experiments (axes + grid sizes)"
    )
    commands.add_parser("list", help="alias of `experiments`")
    commands.add_parser("detectors", help="list registered detector families")
    commands.add_parser("protocols", help="list registered consensus protocols")

    bench = commands.add_parser(
        "bench", help="run engine microbenchmarks into BENCH_MICRO.json"
    )
    bench.add_argument("--events", type=int, default=200_000, help="events per workload")
    bench.add_argument(
        "--only", default="", help="comma-separated workload names (default: all)"
    )
    bench.add_argument("--out", default="results", help="artifact directory")
    bench.add_argument(
        "--mem",
        action="store_true",
        help="also measure each workload's peak memory (tracemalloc second pass)",
    )
    bench.add_argument("--quiet", action="store_true", help="no table, just a summary line")
    bench.add_argument(
        "--check",
        action="store_true",
        help="regression gate: fail (exit 1) if any workload's kev/s drops "
        "below its committed floor",
    )
    bench.add_argument(
        "--floors",
        default=None,
        metavar="PATH",
        help="floors file for --check (default: benchmarks/bench_floors.json)",
    )

    cache = commands.add_parser("cache", help="inspect / prune the result cache")
    cache_commands = cache.add_subparsers(dest="cache_command", required=True)
    for name, help_text in (
        ("info", "entry count and total size"),
        ("prune", "evict entries by age and/or total size"),
    ):
        sub = cache_commands.add_parser(name, help=help_text)
        sub.add_argument(
            "--dir", default="results/.cache", help="cache directory (default: results/.cache)"
        )
        if name == "info":
            sub.add_argument(
                "--verify",
                action="store_true",
                help="parse every entry and report corrupt ones (shared-cache "
                "health check; slower)",
            )
        if name == "prune":
            sub.add_argument(
                "--max-age-days", type=float, default=None, help="drop entries older than this"
            )
            sub.add_argument(
                "--max-size-mb",
                type=float,
                default=None,
                help="then drop oldest entries until the cache fits",
            )

    grid = commands.add_parser(
        "grid", help="observe / unstick a distributed run (--workers-dir)"
    )
    grid_commands = grid.add_subparsers(dest="grid_command", required=True)
    for name, help_text in (
        ("status", "cells done/leased/pending per worker"),
        ("reap", "reset expired leases to pending immediately"),
    ):
        sub = grid_commands.add_parser(name, help=help_text)
        sub.add_argument(
            "--workers-dir", required=True, metavar="SHARED",
            help="the run's shared ledger directory",
        )
    return parser


def _cmd_experiments() -> int:
    from ..experiments.api import all_experiments

    rows = []
    for exp_id, spec in all_experiments().items():
        axes = "×".join(spec.axis_names())
        extra = ",".join(name for name in spec.presets() if name != "full") or "-"
        rows.append(
            (exp_id, axes, spec.grid_size(), spec.grid_size(full=True), extra, spec.title)
        )
    width = max(len(row[1]) for row in rows)
    pwidth = max(len("presets"), max(len(row[4]) for row in rows))
    print(f"{'id':<4} {'axes':<{width}} {'cells':>5} {'full':>5} {'presets':<{pwidth}}  title")
    for exp_id, axes, default, full, extra, title in rows:
        print(f"{exp_id:<4} {axes:<{width}} {default:>5} {full:>5} {extra:<{pwidth}}  {title}")
    return 0


def _cmd_detectors() -> int:
    from ..detectors import DetectorMode, all_detectors

    for key, spec in all_detectors().items():
        mode = "query" if spec.mode is DetectorMode.QUERY else "timed"
        print(f"{key:<20} {spec.fd_class.value:<3} {mode:<6} {spec.summary}")
    return 0


def _cmd_protocols() -> int:
    from ..consensus import all_protocols

    for key, spec in all_protocols().items():
        params = ",".join(sorted(spec.param_names())) or "-"
        print(f"{key:<10} {spec.oracle:<8} {params:<16} {spec.summary}")
    return 0


def _parse_param_overrides(pairs: list[str]) -> dict:
    overrides = {}
    for pair in pairs:
        field, sep, raw = pair.partition("=")
        if not sep or not field:
            raise ConfigurationError(f"-p expects FIELD=VALUE, got {pair!r}")
        try:
            overrides[field] = json.loads(raw)
        except json.JSONDecodeError:
            overrides[field] = raw  # bare string, e.g. -p detector=phi
    return overrides


def _cmd_run(args: argparse.Namespace) -> int:
    wanted = [exp.lower() for exp in args.experiments]
    try:
        # Named grids import only their own experiment modules; the whole
        # registry loads for no ids at all and to report an unknown one.
        specs = {exp_id: get_spec(exp_id) for exp_id in wanted} or all_specs()
    except ConfigurationError:
        specs = all_specs()
        unknown = sorted(set(wanted) - set(specs))
        print(f"unknown experiment ids: {unknown}; choose from {sorted(specs)}", file=sys.stderr)
        return 2
    wanted = wanted or list(specs)
    distributed = args.workers_dir is not None
    if distributed:
        if args.steal == (args.worker_id is not None):
            print("--workers-dir needs exactly one mode: --worker-id K/N or --steal",
                  file=sys.stderr)
            return 2
        if args.no_cache:
            print("--workers-dir requires the shared cache (it carries results "
                  "between workers); drop --no-cache", file=sys.stderr)
            return 2
        if args.stream:
            print("--stream is implied by --workers-dir (assembly always "
                  "streams); drop the flag", file=sys.stderr)
            return 2
        if len(wanted) != 1:
            print("--workers-dir runs exactly one experiment per run directory; "
                  f"got {wanted}", file=sys.stderr)
            return 2
    elif args.steal or (args.worker_id is not None and not args.dry_run):
        print("--steal/--worker-id need --workers-dir (or --dry-run to preview "
              "a shard)", file=sys.stderr)
        return 2
    cache = None
    if not args.no_cache:
        if args.cache_dir is not None:
            cache_dir = args.cache_dir
        elif distributed:
            # The data plane of a distributed run: must be shared, so it
            # defaults into the shared workers dir, not the local --out.
            cache_dir = f"{args.workers_dir}/cache"
        else:
            cache_dir = f"{args.out}/.cache"
        cache = ResultCache(cache_dir)
    # Resolve every grid's params up front: a bad --detector/-p combination
    # on the last experiment must fail in milliseconds, not after earlier
    # grids already burned compute and wrote artifacts.
    prepared: list[tuple[str, object]] = []
    for exp_id in wanted:
        spec = specs[exp_id]
        overrides = {} if args.seed is None else {"seed": args.seed}
        params = spec.make_params(full=args.full, preset=args.preset, **overrides)
        try:
            if args.param:
                params = with_overrides(params, _parse_param_overrides(args.param))
            if args.detector:
                params = with_detectors(params, args.detector)
        except ConfigurationError as exc:
            print(f"{exp_id}: {exc}", file=sys.stderr)
            return 2
        prepared.append((exp_id, params))
    if args.max_resident is not None and not args.stream:
        print("--max-resident requires --stream", file=sys.stderr)
        return 2
    if args.dry_run:
        shard = None
        if args.worker_id is not None:
            from .grid import parse_worker_id

            shard = parse_worker_id(args.worker_id)
        for exp_id, params in prepared:
            spec = specs[exp_id]
            cells = spec.grid(params)
            if shard is not None:
                from .grid import shard_indices

                k, n = shard
                per_worker = [len(shard_indices(len(cells), i, n)) for i in range(1, n + 1)]
                split = ", ".join(f"{i + 1}/{n}:{c}" for i, c in enumerate(per_worker))
                indices = shard_indices(len(cells), k, n)
                print(
                    f"{exp_id}: {len(cells)} cells; shard {k}/{n} claims "
                    f"{len(indices)} (split {split}) (nothing executed)"
                )
            else:
                indices = range(len(cells))
                print(f"{exp_id}: {len(cells)} cells (nothing executed)")
            for index in indices:
                coords = cells[index]
                seed = cell_seed(spec.exp_id, coords, params.seed)
                print(f"  [{index:>3}] {json.dumps(coords, sort_keys=True)} seed={seed}")
        return 0
    if distributed:
        return _run_distributed(args, specs, prepared, cache)
    for exp_id, params in prepared:
        spec = specs[exp_id]
        started = time.perf_counter()
        corrupt_before = cache.corrupt if cache is not None else 0
        try:
            # Misconfiguration can also surface while the grid wires up its
            # detectors (e.g. a knob the swept family lacks, set by the
            # experiment's cells).
            if args.stream:
                from .streaming import run_grid_streaming

                streamed = run_grid_streaming(
                    spec,
                    params,
                    args.out,
                    workers=args.workers,
                    cache=cache,
                    window=(
                        args.max_resident
                        if args.max_resident is not None
                        else DEFAULT_WINDOW
                    ),
                )
                tables, path = streamed.tables, streamed.path
                cells_run, hits = streamed.stats.cells, streamed.stats.cache_hits
                detail = f", peak resident {streamed.stats.peak_resident}"
            else:
                result = run_grid(spec, params, workers=args.workers, cache=cache)
                # write_artifact tabulates for the file; --quiet prints nothing
                tables = [] if args.quiet else result.tables()
                path = write_artifact(args.out, result)
                cells_run, hits = len(result.outcomes), result.cache_hits
                detail = ""
        except ConfigurationError as exc:
            print(f"{exp_id}: {exc}", file=sys.stderr)
            return 2
        elapsed = time.perf_counter() - started
        corrupt = (cache.corrupt - corrupt_before) if cache is not None else 0
        if corrupt:
            # A corrupt entry was recomputed, not served — but on a shared
            # cache it means torn writes or rot, so say it loudly.
            detail = f", {corrupt} corrupt cache entr{'y' if corrupt == 1 else 'ies'} recomputed{detail}"
        if not args.quiet:
            for table in tables:
                print(table.render_markdown() if args.markdown else table.render())
                print()
        print(
            f"[{exp_id}: {cells_run} cells "
            f"({hits} cached) in {elapsed:.1f}s{detail} -> {path}]"
        )
    return 0


def _run_distributed(args, specs, prepared, cache) -> int:
    """One worker's share of a distributed run (``--workers-dir``)."""
    from .grid import parse_worker_id, run_grid_worker

    [(exp_id, params)] = prepared
    spec = specs[exp_id]
    try:
        shard = parse_worker_id(args.worker_id) if args.worker_id else None
        started = time.perf_counter()
        report = run_grid_worker(
            spec,
            params,
            args.workers_dir,
            args.out,
            cache=cache,
            worker=args.worker_name,
            shard=shard,
            steal=args.steal,
            ttl=args.lease_ttl,
        )
    except ConfigurationError as exc:
        print(f"{exp_id}: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - started
    counts = report.counts
    summary = (
        f"[{exp_id} worker {report.worker}: {report.completed} cells "
        f"({report.ran} ran, {report.cached} cached) in {elapsed:.1f}s; "
        f"grid {counts.done}/{counts.total} done"
    )
    if cache is not None and cache.corrupt:
        summary += f"; {cache.corrupt} corrupt cache entries recomputed"
    if report.artifact is not None:
        if not args.quiet:
            for table in report.tables:
                print(table.render_markdown() if args.markdown else table.render())
                print()
        print(f"{summary} -> {report.artifact}]")
    else:
        print(
            f"{summary}; artifact pending "
            f"(`repro grid status --workers-dir {args.workers_dir}`)]"
        )
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .microbench import (
        DEFAULT_FLOORS_PATH,
        check_floors,
        load_floors,
        microbench_table,
        run_microbench,
        write_microbench_artifact,
    )

    only = [w for w in args.only.split(",") if w]
    started = time.perf_counter()
    floors = None
    if args.check:
        # Resolve floors before burning bench time on a bad path.
        floors = load_floors(args.floors or DEFAULT_FLOORS_PATH)
        if only:
            floors = {name: floors[name] for name in only if name in floors}
    payload = run_microbench(events=args.events, only=only, mem=args.mem)
    elapsed = time.perf_counter() - started
    path = write_microbench_artifact(args.out, payload)
    if not args.quiet:
        print(microbench_table(payload).render())
        print()
    print(f"[micro: {len(payload['cells'])} workloads in {elapsed:.1f}s -> {path}]")
    if floors is not None:
        failures = check_floors(payload, floors)
        if failures:
            for line in failures:
                print(f"bench check FAIL {line}", file=sys.stderr)
            return 1
        print(f"bench check OK: {len(floors)} workload floor(s) held")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    cache = ResultCache(args.dir)
    if args.cache_command == "info":
        stats = cache.stats(verify=args.verify)
        line = f"{args.dir}: {stats.entries} entries, {stats.total_bytes / 1e6:.1f} MB"
        if args.verify:
            line += f", {stats.corrupt} corrupt"
        print(line)
        return 1 if args.verify and stats.corrupt else 0
    report = cache.prune(
        max_age_seconds=(
            None if args.max_age_days is None else args.max_age_days * 86_400.0
        ),
        max_total_bytes=(
            None if args.max_size_mb is None else int(args.max_size_mb * 1_000_000)
        ),
    )
    print(
        f"pruned {report.removed} entries ({report.freed_bytes / 1e6:.1f} MB); "
        f"kept {report.kept} ({report.kept_bytes / 1e6:.1f} MB)"
    )
    return 0


def _cmd_grid(args: argparse.Namespace) -> int:
    from .grid import grid_reap, grid_status

    if args.grid_command == "status":
        print(grid_status(args.workers_dir).render())
    else:
        reclaimed = grid_reap(args.workers_dir)
        print(f"reaped {reclaimed} expired lease(s) back to pending")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command in ("experiments", "list"):
            return _cmd_experiments()
        if args.command == "detectors":
            return _cmd_detectors()
        if args.command == "protocols":
            return _cmd_protocols()
        if args.command == "bench":
            return _cmd_bench(args)
        if args.command == "cache":
            return _cmd_cache(args)
        if args.command == "grid":
            return _cmd_grid(args)
        return _cmd_run(args)
    except ConfigurationError as exc:
        # The one backstop: a misconfiguration (an unimportable plugin, a
        # bad worker id, a missing floors file ...) is one line and exit 2.
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
