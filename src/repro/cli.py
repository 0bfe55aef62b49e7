"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``chains``  — dominator chains of a netlist's primary inputs::

    python -m repro chains design.bench --output out1 --target in3

``stats``   — circuit statistics (Table 1's descriptive columns)::

    python -m repro stats design.blif

``counts``  — single/double dominator counts (Table 1 columns 4 and 5)::

    python -m repro counts design.bench

``table1``  — delegate to the full experiment harness.

``edit-session`` — replay a JSON edit script against one cone with the
incremental engine, re-querying chains after every edit and reporting
cache hit/miss/invalidation statistics (optionally comparing against
full recomputation)::

    python -m repro edit-session design.bench edits.json --compare

``sweep`` — parallel dominator-chain sweep over the built-in circuit
suite through :mod:`repro.service` (worker pool, artifact store,
metrics snapshot)::

    python -m repro sweep --jobs 4 --quick --metrics metrics.json

With ``--sequential {core,unroll:N}`` the sweep runs the built-in
*sequential* suite (shift register, LFSR, pipelined ALU) in the chosen
view::

    python -m repro sweep --sequential core

``chains`` and ``check`` accept the same ``--sequential`` flag for
``.bench`` netlists with ``DFF`` lines; ``check --sequential`` also
cross-checks the combinational core against the frame-0 slice of the
time-frame unrolling (mismatch kind ``sequential``).

``serve-batch`` — answer a JSON file of chain requests (deduplicated,
batched per cone, optionally parallel and artifact-backed)::

    python -m repro serve-batch requests.json --out responses.json

``check`` — differential correctness oracle over a netlist: the paper's
algorithm, the baseline [11] and brute-force enumeration must agree
pair-for-pair, and the chain's O(1) look-up structure must be
self-consistent at its interval boundaries.  Exit 1 on mismatch::

    python -m repro check design.bench --metrics check-metrics.json

``fuzz`` — seeded randomized differential fuzzing; mismatching circuits
are shrunk to minimal ``.bench`` repros.  Exit 1 on any failure::

    python -m repro fuzz --seed 0 --cases 500 --out repros/

Error contract: every command exits 2 with a one-line message on stderr
for malformed netlists, unknown outputs/targets and unreadable files —
a traceback out of the CLI is always a bug.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

from .core.algorithm import ChainComputer
from .core.api import count_double_dominators, count_single_dominators
from .dominators.kernels import KERNELS, validate_kernels
from .dominators.shared import BACKENDS, DEFAULT_BACKEND, validate_backend
from .errors import ReproError
from .graph.circuit import Circuit
from .graph.indexed import IndexedGraph
from .graph.sequential import extract_combinational_core, unrolled
from .graph.stats import circuit_stats
from .parsers import bench, blif, verilog


def load_netlist(path: str) -> Circuit:
    """Load a netlist by extension (.bench, .blif or .v)."""
    suffix = Path(path).suffix.lower()
    if suffix == ".bench":
        return bench.load(path)
    if suffix == ".blif":
        return blif.load(path)
    if suffix in (".v", ".verilog"):
        return verilog.load(path)
    raise SystemExit(
        f"unsupported netlist format {suffix!r} "
        "(expected .bench, .blif or .v)"
    )


def load_analysis_netlist(path: str, sequential):
    """Load a netlist, optionally through the sequential front end.

    ``sequential`` is ``None`` (combinational, any format) or a parsed
    ``--sequential`` view — ``("core", 0)`` or ``("unroll", N)``.  In a
    sequential view the netlist must be a ``.bench`` file with ``DFF``
    lines (:func:`repro.parsers.bench.load_sequential`); it is lowered
    to the flop-cut combinational core or the ``N``-frame unrolling.

    Returns ``(circuit, sequential_circuit_or_None)`` so callers that
    need the original state machine (the ``check`` command's
    core-vs-unrolling differential) still have it.
    """
    if sequential is None:
        return load_netlist(path), None
    suffix = Path(path).suffix.lower()
    if suffix != ".bench":
        raise SystemExit(
            f"--sequential requires a .bench netlist with DFF lines, "
            f"got {suffix!r}"
        )
    machine = bench.load_sequential(path)
    mode, frames = sequential
    if mode == "core":
        return extract_combinational_core(machine), machine
    return unrolled(machine, frames), machine


def _cmd_chains(args: argparse.Namespace) -> int:
    circuit, _ = load_analysis_netlist(args.netlist, args.sequential)
    output = args.output or (
        circuit.outputs[0] if len(circuit.outputs) == 1 else None
    )
    if output is None:
        print(
            f"circuit has {len(circuit.outputs)} outputs; pass --output",
            file=sys.stderr,
        )
        return 2
    graph = IndexedGraph.from_circuit(circuit, output)
    computer = ChainComputer(
        graph, backend=args.backend, kernels=args.kernels
    )
    targets = (
        [graph.index_of(args.target)]
        if args.target
        else graph.sources()
    )
    for u in targets:
        chain = computer.chain(u)
        print(
            f"{graph.name_of(u)}: {chain.num_dominators()} pairs  "
            f"D = {chain.format(graph.name_of)}"
        )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    stats = circuit_stats(load_netlist(args.netlist))
    for key, value in stats.as_dict().items():
        print(f"{key:12s} {value}")
    return 0


def _cmd_counts(args: argparse.Namespace) -> int:
    circuit = load_netlist(args.netlist)
    singles = count_single_dominators(circuit)
    doubles = count_double_dominators(
        circuit, backend=args.backend, kernels=args.kernels
    )
    print(f"single-vertex dominators of >=1 PI (per cone, summed): {singles}")
    print(f"double-vertex dominators of >=1 PI (per cone, summed): {doubles}")
    return 0


def _cmd_edit_session(args: argparse.Namespace) -> int:
    from .errors import CircuitError
    from .incremental import IncrementalEngine, load_script

    circuit = load_netlist(args.netlist)
    output = args.output or (
        circuit.outputs[0] if len(circuit.outputs) == 1 else None
    )
    if output is None:
        print(
            f"circuit has {len(circuit.outputs)} outputs; pass --output",
            file=sys.stderr,
        )
        return 2
    try:
        edits = load_script(args.script)
    except OSError as exc:
        print(f"cannot read edit script {args.script}: {exc}", file=sys.stderr)
        return 2
    except (ValueError, CircuitError) as exc:
        # ValueError covers json.JSONDecodeError (malformed/empty file);
        # CircuitError covers structurally invalid edit records.
        print(f"invalid edit script {args.script}: {exc}", file=sys.stderr)
        return 2
    if not edits:
        print(
            f"edit script {args.script} contains no edits", file=sys.stderr
        )
        return 2
    engine = IncrementalEngine.from_circuit(
        circuit, output, backend=args.backend
    )

    def query():
        chains = engine.chains_for_sources()
        return len(chains), sum(c.num_dominators() for c in chains.values())

    start = time.perf_counter()
    n_chains, n_pairs = query()
    print(
        f"initial: {n_chains} PI chains, {n_pairs} dominator pairs "
        f"({engine.graph.n} vertices)"
    )
    for step, edit in enumerate(edits, 1):
        touched = engine.apply(edit)
        n_chains, n_pairs = query()
        print(
            f"edit {step:3d} [{type(edit).__name__}]: "
            f"{len(touched)} vertices touched, "
            f"{n_chains} chains, {n_pairs} pairs"
        )
    incremental_time = time.perf_counter() - start

    print("\nsession statistics:")
    for key, value in engine.stats_dict().items():
        print(f"  {key:28s} {value}")

    if args.compare:
        # replay as a cold engine per step: the from-scratch strawman
        start = time.perf_counter()
        cold = IncrementalEngine.from_circuit(
            circuit, output, backend=args.backend
        )
        ChainComputer(
            cold.graph, tree=None, backend=args.backend
        ).chains_for_sources()
        for edit in edits:
            cold.apply(edit)
            cold.flush()
            fresh = ChainComputer(cold.graph, backend=args.backend)
            tree = fresh.tree
            for u in cold.graph.sources():
                if tree.is_reachable(u):
                    fresh.chain(u)
        recompute_time = time.perf_counter() - start
        speedup = recompute_time / incremental_time if incremental_time else 0
        print(
            f"\nincremental {incremental_time * 1e3:9.1f} ms   "
            f"full recompute {recompute_time * 1e3:9.1f} ms   "
            f"speedup {speedup:.1f}x"
        )
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from .check import check_circuit, check_sequential
    from .service import MetricsRegistry

    circuit, machine = load_analysis_netlist(args.netlist, args.sequential)
    outputs = None
    if args.output:
        if args.output not in circuit:
            print(
                f"unknown output {args.output!r} in {args.netlist}",
                file=sys.stderr,
            )
            return 2
        outputs = [args.output]
    metrics = MetricsRegistry()
    report = check_circuit(
        circuit,
        outputs=outputs,
        algorithm=args.algorithm,
        brute_limit=args.brute_limit,
        metrics=metrics,
        backend=args.backend,
        kernels=args.kernels,
    )
    print(report.summary())
    for mismatch in report.mismatches:
        print(f"MISMATCH {mismatch}")
    ok = report.ok
    if machine is not None:
        # The sequential differential rides along: the combinational
        # core and the frame-0 slice of the unrolling must serve
        # identical chains for every cone (2 frames unless the user
        # asked for a deeper unrolling).
        frames = max(args.sequential[1], 2)
        seq_report = check_sequential(
            machine,
            frames=frames,
            algorithm=args.algorithm,
            metrics=metrics,
            backend=args.backend,
            kernels=args.kernels,
        )
        print(seq_report.summary())
        for mismatch in seq_report.mismatches:
            print(f"MISMATCH {mismatch}")
        ok = ok and seq_report.ok
    _export_metrics(metrics, args.metrics)
    return 0 if ok else 1


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from .check import run_fuzz
    from .service import MetricsRegistry

    inject = None
    if args.inject_fault == "xor":
        from .graph.node import NodeType

        def inject(circuit):  # noqa: F811 - selected fault predicate
            return any(
                node.type in (NodeType.XOR, NodeType.XNOR)
                for node in circuit.nodes()
            )

    metrics = MetricsRegistry()
    progress = None
    if args.progress:
        progress = lambda i, case: print(  # noqa: E731
            f"case {i:5d}: {case.kind} ({case.circuit.name})",
            file=sys.stderr,
        )
    result = run_fuzz(
        seed=args.seed,
        cases=args.cases,
        max_gates=args.max_gates,
        out_dir=args.out,
        inject_fault=inject,
        metrics=metrics,
        progress=progress,
        backend=args.backend,
        kernels=args.kernels,
    )
    print(result.summary())
    for failure in result.failures:
        where = (
            f" -> {failure.repro_path}" if failure.repro_path else ""
        )
        print(
            f"FAILURE case {failure.case.index} [{failure.case.kind}] "
            f"shrunk to {failure.shrunk_gates} gate(s){where}"
        )
        for mismatch in failure.mismatches[:4]:
            print(f"  {mismatch}")
    _export_metrics(metrics, args.metrics)
    return 0 if result.ok else 1


def _cmd_table1(args: argparse.Namespace) -> int:
    from .experiments import table1

    forwarded = []
    if args.quick:
        forwarded.append("--quick")
    if args.scale != 1.0:
        forwarded.extend(["--scale", str(args.scale)])
    if args.jobs != 1:
        forwarded.extend(["--jobs", str(args.jobs)])
    if args.seed is not None:
        forwarded.extend(["--seed", str(args.seed)])
    forwarded.extend(["--backend", args.backend])
    return table1.main(forwarded)


def _make_executor(args: argparse.Namespace):
    """Executor + metrics + optional artifact store from CLI flags."""
    from .service import (
        ArtifactStore,
        ExecutorConfig,
        MetricsRegistry,
        ParallelExecutor,
    )

    metrics = MetricsRegistry()
    store = (
        ArtifactStore(args.artifacts, metrics=metrics)
        if getattr(args, "artifacts", None)
        else None
    )
    executor = ParallelExecutor(
        ExecutorConfig(
            jobs=args.jobs,
            timeout=args.timeout,
            backend=getattr(args, "backend", DEFAULT_BACKEND),
            kernels=getattr(args, "kernels", "python"),
        ),
        metrics=metrics,
        store=store,
    )
    return executor, metrics


def _export_metrics(metrics, path: Optional[str]) -> None:
    if path:
        metrics.export_json(path)
        print(f"metrics snapshot written to {path}", file=sys.stderr)


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .circuits.suite import QUICK_SUBSET, sequential_suite, table1_suite
    from .service import sweep_sequential_suite, sweep_suite

    if args.sequential:
        suite = sequential_suite()
        names = args.names or None
        unknown = [n for n in (names or []) if n not in suite]
        if unknown:
            print(
                f"unknown sequential benchmark(s): {', '.join(unknown)} "
                f"(choose from {', '.join(sorted(suite))})",
                file=sys.stderr,
            )
            return 2
        executor, metrics = _make_executor(args)
        with executor:
            report = sweep_sequential_suite(
                executor,
                names=names,
                scale=args.scale,
                view=args.sequential,
                verbose=not args.no_progress,
            )
    else:
        suite = table1_suite()
        names = args.names or (QUICK_SUBSET if args.quick else None)
        unknown = [n for n in (names or []) if n not in suite]
        if unknown:
            print(
                f"unknown benchmark(s): {', '.join(unknown)}", file=sys.stderr
            )
            return 2
        executor, metrics = _make_executor(args)
        with executor:
            report = sweep_suite(
                executor,
                names=names,
                scale=args.scale,
                verbose=not args.no_progress,
            )
    header = (
        f"{'name':10s} {'cones':>6s} {'chains':>7s} {'pairs':>8s} "
        f"{'wall [s]':>9s} {'art.hits':>8s}"
    )
    print(header)
    print("-" * len(header))
    for row in report.circuits:
        print(
            f"{row.name:10s} {row.cones:6d} {row.chains:7d} {row.pairs:8d} "
            f"{row.wall:9.3f} {row.artifact_hits:8d}"
        )
    print(
        f"\ntotal: {report.total_pairs} pairs over "
        f"{len(report.circuits)} circuits in {report.total_wall:.3f} s "
        f"(jobs={report.jobs})"
    )
    _export_metrics(metrics, args.metrics)
    return 0


def _cmd_serve_batch(args: argparse.Namespace) -> int:
    import json

    from .service import ChainRequest, JobQueue, circuit_fingerprint

    try:
        with open(args.requests, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        print(f"cannot read {args.requests}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"invalid request file {args.requests}: {exc}", file=sys.stderr)
        return 2
    raw_requests = (
        data.get("requests") if isinstance(data, dict) else data
    )
    if not isinstance(raw_requests, list) or not raw_requests:
        print(
            f"request file {args.requests} holds no requests "
            '(expected {"requests": [...]})',
            file=sys.stderr,
        )
        return 2

    executor, metrics = _make_executor(args)
    queue = JobQueue()
    circuits = {}  # fingerprint -> Circuit
    keys_by_path = {}  # netlist path -> fingerprint
    records = []  # (record, circuit_key, outputs, targets)
    for idx, record in enumerate(raw_requests):
        if not isinstance(record, dict) or "netlist" not in record:
            print(
                f"request #{idx} is malformed (needs a 'netlist' field)",
                file=sys.stderr,
            )
            return 2
        path = record["netlist"]
        if path not in keys_by_path:
            circuit = load_netlist(path)
            key = circuit_fingerprint(circuit)
            keys_by_path[path] = key
            circuits[key] = circuit
        key = keys_by_path[path]
        circuit = circuits[key]
        outputs = (
            [record["output"]] if record.get("output") else circuit.outputs
        )
        bad = [o for o in outputs if o not in circuit]
        if bad:
            print(
                f"request #{idx}: unknown output(s) {', '.join(bad)}",
                file=sys.stderr,
            )
            return 2
        targets = record.get("targets")
        bad = [t for t in targets or () if t not in circuit]
        if bad:
            print(
                f"request #{idx}: unknown target(s) {', '.join(bad)}",
                file=sys.stderr,
            )
            return 2
        request_id = str(record.get("id", idx))
        for output in outputs:
            if targets:
                for target in targets:
                    queue.submit(
                        ChainRequest(key, output, target, request_id)
                    )
            else:
                queue.submit(ChainRequest(key, output, None, request_id))
        records.append((record, key, outputs, targets))

    from .errors import CircuitError

    batches = queue.drain()
    try:
        with executor:
            results = executor.run_batches(circuits, batches)
    except CircuitError as exc:
        # e.g. a target that exists in the netlist but not in the
        # requested output cone.
        print(f"cannot serve batch: {exc}", file=sys.stderr)
        return 2

    responses = []
    for idx, (record, key, outputs, targets) in enumerate(records):
        for output in outputs:
            cone = results[(key, output)]
            chains = cone.chains
            if targets:
                chains = {t: chains[t] for t in targets if t in chains}
            responses.append(
                {
                    "id": str(record.get("id", idx)),
                    "circuit": key,
                    "output": output,
                    "source": cone.source,
                    "chains": chains,
                }
            )
    payload = {
        "responses": responses,
        "queue": queue.stats.as_dict(),
        "metrics": metrics.snapshot(),
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(
            f"{len(responses)} response(s) written to {args.out}",
            file=sys.stderr,
        )
    else:
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        print()
    _export_metrics(metrics, args.metrics)
    return 0


def _cmd_daemon(args: argparse.Namespace) -> int:
    import asyncio

    from .daemon import DaemonService, ServiceConfig
    from .daemon.server import run_daemon

    if not args.stdio and args.http is None:
        print(
            "error: pick at least one transport (--stdio and/or --http PORT)",
            file=sys.stderr,
        )
        return 2
    service = DaemonService(
        ServiceConfig(
            jobs=args.jobs,
            backend=getattr(args, "backend", DEFAULT_BACKEND),
            kernels=getattr(args, "kernels", "python"),
            max_in_flight=args.max_in_flight,
            tenant_rate=args.tenant_rate,
            tenant_burst=args.tenant_burst,
        )
    )
    try:
        asyncio.run(
            run_daemon(service, stdio=args.stdio, http_port=args.http)
        )
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        pass
    finally:
        service.close()
        _export_metrics(service.metrics, args.metrics)
    return 0


def jobs_arg(value: str) -> int:
    """Shared ``argparse`` validator for every ``--jobs`` flag.

    Worker counts must be positive integers (``1`` = in-process); zero,
    negative or non-integer values exit 2 with a one-line message in
    every CLI that takes the flag (``sweep``, ``serve-batch``,
    ``table1``, ``daemon``) instead of misbehaving deep inside the pool
    setup.
    """
    try:
        jobs = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer worker count, got {value!r}"
        ) from None
    if jobs <= 0:
        raise argparse.ArgumentTypeError(
            f"worker count must be positive, got {jobs}"
        )
    return jobs


def timeout_arg(value: str) -> float:
    """Shared ``argparse`` validator for every ``--timeout`` flag."""
    try:
        timeout = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number of seconds, got {value!r}"
        ) from None
    if timeout < 0:
        raise argparse.ArgumentTypeError(
            f"timeout must be non-negative, got {value}"
        )
    return timeout


def positive_float_arg(value: str) -> float:
    """Shared ``argparse`` validator for rate/burst-style flags."""
    try:
        number = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number, got {value!r}"
        ) from None
    if number <= 0:
        raise argparse.ArgumentTypeError(
            f"expected a positive number, got {value}"
        )
    return number


def sequential_arg(value: str):
    """Shared ``argparse`` validator for every ``--sequential`` flag.

    Accepts ``core`` (flop-cut combinational core) or ``unroll:N``
    (``N``-frame time-frame unrolling, ``N`` >= 1); anything else exits
    2 with a one-line message.  Returns the parsed ``(mode, frames)``
    view tuple consumed by :func:`load_analysis_netlist`.
    """
    if value == "core":
        return ("core", 0)
    if value.startswith("unroll:"):
        raw = value.split(":", 1)[1]
        try:
            frames = int(raw)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected an integer frame count after 'unroll:', "
                f"got {raw!r}"
            ) from None
        if frames < 1:
            raise argparse.ArgumentTypeError(
                f"frame count must be positive, got {frames}"
            )
        return ("unroll", frames)
    raise argparse.ArgumentTypeError(
        f"expected 'core' or 'unroll:N', got {value!r}"
    )


def _add_sequential_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--sequential",
        default=None,
        type=sequential_arg,
        metavar="{core,unroll:N}",
        help="sequential view: the flop-cut combinational core or an "
        "N-frame time-frame unrolling (chains/check: the netlist must "
        "be a .bench with DFF lines; sweep: runs the built-in "
        "sequential suite instead of Table 1)",
    )


def backend_arg(value: str) -> str:
    """Shared ``argparse`` validator for every ``--backend`` flag.

    All CLIs (including the benchmark scripts) funnel backend names
    through this so an unknown backend is rejected uniformly — exit 2
    with the canonical one-line message instead of a per-tool variant
    or, worse, a traceback deep inside the run.
    """
    try:
        return validate_backend(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def kernels_arg(value: str) -> str:
    """Shared ``argparse`` validator for every ``--kernels`` flag.

    Mirrors :func:`backend_arg`: an unknown kernels name exits 2 with
    the canonical one-line message listing the registered
    implementations (:data:`repro.dominators.kernels.KERNELS`).
    """
    try:
        return validate_kernels(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_kernels_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--kernels",
        default="python",
        type=kernels_arg,
        metavar="{%s}" % ",".join(KERNELS),
        help="hot-path implementation: pure python (default, always "
        "available) or numpy flat-array kernels for the tree pass and "
        "wide regions (identical chains)",
    )


def _add_backend_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend",
        default=DEFAULT_BACKEND,
        type=backend_arg,
        metavar="{%s}" % ",".join(BACKENDS),
        help="chain-construction backend: the linear-time all-pairs "
        "construction (default), per-pair max-flow over one shared "
        "array index per circuit version, or the legacy per-call "
        "subgraphs",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="double-vertex dominator toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_chains = sub.add_parser("chains", help="dominator chains of a netlist")
    p_chains.add_argument("netlist")
    p_chains.add_argument("--output", help="output cone to analyze")
    p_chains.add_argument("--target", help="single target vertex (default: all PIs)")
    _add_backend_flag(p_chains)
    _add_kernels_flag(p_chains)
    _add_sequential_flag(p_chains)
    p_chains.set_defaults(func=_cmd_chains)

    p_stats = sub.add_parser("stats", help="circuit statistics")
    p_stats.add_argument("netlist")
    p_stats.set_defaults(func=_cmd_stats)

    p_counts = sub.add_parser("counts", help="Table-1 dominator counts")
    p_counts.add_argument("netlist")
    _add_backend_flag(p_counts)
    _add_kernels_flag(p_counts)
    p_counts.set_defaults(func=_cmd_counts)

    p_edit = sub.add_parser(
        "edit-session",
        help="replay a JSON edit script with the incremental engine",
    )
    p_edit.add_argument("netlist")
    p_edit.add_argument("script", help="JSON edit script (see repro.incremental.edits)")
    p_edit.add_argument("--output", help="output cone to analyze")
    p_edit.add_argument(
        "--compare",
        action="store_true",
        help="also time from-scratch recomputation per edit",
    )
    _add_backend_flag(p_edit)
    p_edit.set_defaults(func=_cmd_edit_session)

    p_check = sub.add_parser(
        "check",
        help="differential correctness oracle (chain vs baseline vs brute)",
    )
    p_check.add_argument("netlist")
    p_check.add_argument("--output", help="check a single output cone")
    p_check.add_argument(
        "--algorithm",
        default="lt",
        choices=("lt", "iterative", "naive"),
        help="single-dominator algorithm used internally",
    )
    p_check.add_argument(
        "--brute-limit",
        type=int,
        default=48,
        metavar="N",
        help="skip brute-force confirmation above N cone vertices",
    )
    p_check.add_argument(
        "--metrics", metavar="FILE", help="write metrics snapshot JSON"
    )
    _add_backend_flag(p_check)
    _add_kernels_flag(p_check)
    _add_sequential_flag(p_check)
    p_check.set_defaults(func=_cmd_check)

    p_fuzz = sub.add_parser(
        "fuzz",
        help="seeded randomized differential fuzzing with auto-shrink",
    )
    p_fuzz.add_argument("--seed", type=int, default=0)
    p_fuzz.add_argument("--cases", type=int, default=100)
    p_fuzz.add_argument(
        "--max-gates",
        type=int,
        default=24,
        help="upper bound on drawn circuit size",
    )
    p_fuzz.add_argument(
        "--out", metavar="DIR", help="directory for shrunk .bench repros"
    )
    p_fuzz.add_argument(
        "--inject-fault",
        choices=("xor",),
        help="self-test: treat circuits with XOR/XNOR gates as failing "
        "to exercise the shrink pipeline",
    )
    p_fuzz.add_argument(
        "--metrics", metavar="FILE", help="write metrics snapshot JSON"
    )
    p_fuzz.add_argument(
        "--progress", action="store_true", help="log each case to stderr"
    )
    _add_backend_flag(p_fuzz)
    _add_kernels_flag(p_fuzz)
    p_fuzz.set_defaults(func=_cmd_fuzz)

    p_t1 = sub.add_parser("table1", help="run the Table-1 harness")
    p_t1.add_argument("--quick", action="store_true")
    p_t1.add_argument("--scale", type=float, default=1.0)
    p_t1.add_argument(
        "--jobs", type=jobs_arg, default=1, help="worker processes for t2"
    )
    p_t1.add_argument(
        "--seed", type=int, default=None, help="suite seed offset"
    )
    _add_backend_flag(p_t1)
    p_t1.set_defaults(func=_cmd_table1)

    p_sweep = sub.add_parser(
        "sweep",
        help="parallel dominator sweep over the built-in circuit suite",
    )
    p_sweep.add_argument(
        "--jobs",
        type=jobs_arg,
        default=1,
        help="worker processes (1 = in-process)",
    )
    p_sweep.add_argument("--quick", action="store_true")
    p_sweep.add_argument("--names", nargs="*", help="benchmark names")
    p_sweep.add_argument("--scale", type=float, default=1.0)
    p_sweep.add_argument(
        "--timeout",
        type=timeout_arg,
        default=None,
        help="per-cone seconds budget",
    )
    p_sweep.add_argument(
        "--artifacts", metavar="DIR", help="artifact store directory"
    )
    p_sweep.add_argument(
        "--metrics", metavar="FILE", help="write metrics snapshot JSON"
    )
    p_sweep.add_argument(
        "--no-progress", action="store_true", help="suppress progress lines"
    )
    _add_backend_flag(p_sweep)
    _add_kernels_flag(p_sweep)
    _add_sequential_flag(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_serve = sub.add_parser(
        "serve-batch",
        help="answer a JSON batch of dominator-chain requests",
    )
    p_serve.add_argument("requests", help="JSON request file")
    p_serve.add_argument("--out", help="response file (default: stdout)")
    p_serve.add_argument("--jobs", type=jobs_arg, default=1)
    p_serve.add_argument("--timeout", type=timeout_arg, default=None)
    p_serve.add_argument("--artifacts", metavar="DIR")
    p_serve.add_argument(
        "--metrics", metavar="FILE", help="write metrics snapshot JSON"
    )
    _add_backend_flag(p_serve)
    _add_kernels_flag(p_serve)
    p_serve.set_defaults(func=_cmd_serve_batch)

    p_daemon = sub.add_parser(
        "daemon",
        help="long-lived async query service (JSONL stdio and/or HTTP)",
    )
    p_daemon.add_argument(
        "--stdio",
        action="store_true",
        help="serve JSONL requests on stdin/stdout",
    )
    p_daemon.add_argument(
        "--http",
        type=int,
        metavar="PORT",
        default=None,
        help="serve HTTP on 127.0.0.1:PORT (0 = ephemeral)",
    )
    p_daemon.add_argument("--jobs", type=jobs_arg, default=1)
    p_daemon.add_argument(
        "--max-in-flight",
        type=jobs_arg,
        default=16,
        help="admission control: concurrent request cap",
    )
    p_daemon.add_argument(
        "--tenant-rate",
        type=positive_float_arg,
        default=50.0,
        help="admission control: per-tenant requests/second",
    )
    p_daemon.add_argument(
        "--tenant-burst",
        type=positive_float_arg,
        default=20.0,
        help="admission control: per-tenant burst capacity",
    )
    p_daemon.add_argument(
        "--metrics", metavar="FILE", help="write metrics snapshot JSON on exit"
    )
    _add_backend_flag(p_daemon)
    _add_kernels_flag(p_daemon)
    p_daemon.set_defaults(func=_cmd_daemon)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ReproError, OSError) as exc:
        # One-line diagnostics for user errors — malformed netlist files,
        # unknown node/output names, unreadable paths.  A traceback
        # escaping the CLI is reserved for genuine bugs.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
