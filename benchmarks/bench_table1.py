"""Table 1: the paper's algorithm vs the baseline [11], per benchmark.

Each benchmark times the full Table-1 workload for one circuit — all
double-vertex dominators of every primary input of every output cone.
``new`` is the paper's dominator-chain algorithm (column t2), ``baseline``
the restriction algorithm [11] (column t1); comparing the two groups in
the pytest-benchmark output reproduces the table's improvement column.
``new via pool`` runs the same workload through the
:mod:`repro.service` worker-pool executor (``REPRO_SWEEP_JOBS``
processes, default 2) — its gap to ``new`` is the serving layer's
dispatch overhead or, on multi-core runners, its speedup.

Circuits are built at scale 0.5 to keep a full run in CI territory; run
``python -m repro.experiments.table1`` for the paper-matched sizes.

Run directly as a script to compare the chain-construction backends
(three-way by default: legacy, shared, linear) and emit a
machine-readable report::

    python benchmarks/bench_table1.py --out BENCH_linear_backend.json
    python benchmarks/bench_table1.py --backends shared linear \
        --names C6288 C432 too_large --min-linear-vs-shared 1.0

The report holds best-of-N wall times of every requested backend over
the Table-1 quick subset plus aggregate speedups relative to legacy and
the linear-vs-shared ratio.  Two CI gates: ``--min-speedup X`` fails
(exit 1) when the aggregate shared-vs-legacy speedup drops below X, and
``--min-linear-vs-shared X`` fails when the aggregate linear-vs-shared
ratio does.  Unknown backends or benchmark names exit 2 with a clear
message (backend names are validated by the same
:func:`repro.cli.backend_arg` used by every CLI entry point).
"""

import argparse
import json
import os
import sys
import time

import pytest

from repro.circuits.suite import QUICK_SUBSET, table1_suite
from repro.core.algorithm import ChainComputer
from repro.core.baseline import baseline_double_dominators
from repro.graph import IndexedGraph
from repro.service import ExecutorConfig, ParallelExecutor

SCALE = 0.5
SWEEP_JOBS = int(os.environ.get("REPRO_SWEEP_JOBS", "2"))


def _cones(name):
    circuit = table1_suite()[name].circuit(SCALE)
    return [
        IndexedGraph.from_circuit(circuit, out) for out in circuit.outputs
    ]


def _run_new(cones, backend="shared"):
    total = 0
    for graph in cones:
        computer = ChainComputer(graph, backend=backend)
        for u in graph.sources():
            total += computer.chain(u).num_dominators()
    return total


def _run_baseline(cones):
    total = 0
    for graph in cones:
        for pairs in baseline_double_dominators(graph).values():
            total += len(pairs)
    return total


@pytest.mark.parametrize("name", QUICK_SUBSET)
def test_new_algorithm(benchmark, name):
    cones = _cones(name)
    benchmark.group = f"table1:{name}"
    benchmark.name = "new (t2)"
    benchmark(_run_new, cones)


@pytest.mark.parametrize("name", QUICK_SUBSET)
def test_linear_backend(benchmark, name):
    cones = _cones(name)
    benchmark.group = f"table1:{name}"
    benchmark.name = "new (t2, backend=linear)"
    benchmark(_run_new, cones, "linear")


@pytest.mark.parametrize("name", QUICK_SUBSET)
def test_baseline_algorithm(benchmark, name):
    cones = _cones(name)
    benchmark.group = f"table1:{name}"
    benchmark.name = "baseline [11] (t1)"
    benchmark(_run_baseline, cones)


def _run_parallel(circuit):
    with ParallelExecutor(ExecutorConfig(jobs=SWEEP_JOBS)) as executor:
        return sum(r.num_pairs for r in executor.sweep_circuit(circuit))


@pytest.mark.parametrize("name", QUICK_SUBSET)
def test_parallel_sweep(benchmark, name):
    circuit = table1_suite()[name].circuit(SCALE)
    benchmark.group = f"table1:{name}"
    benchmark.name = f"new via pool (jobs={SWEEP_JOBS})"
    benchmark(_run_parallel, circuit)


# ----------------------------------------------------------------------
# script mode: three-way backend comparison (legacy / shared / linear)
# ----------------------------------------------------------------------
def _measure_backend(cones, backend, repeats):
    """Best-of-``repeats`` wall time of the full workload on ``backend``.

    The cached shared index is dropped before every timed run, so the
    shared/linear times *include* building the per-circuit index — the
    cost a cold caller actually pays.
    """
    best = None
    pairs = 0
    for _ in range(repeats):
        for graph in cones:
            graph._shared_index = None
        start = time.perf_counter()
        pairs = 0
        for graph in cones:
            computer = ChainComputer(graph, backend=backend)
            for u in graph.sources():
                pairs += computer.chain(u).num_dominators()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, pairs


def run_backend_comparison(names, scale=SCALE, repeats=3, backends=None):
    """Per-circuit wall times of every backend plus aggregates.

    ``backends`` defaults to all registered backends (legacy, shared,
    linear).  Every measured backend must agree on the pair count — a
    disagreement raises, so the comparison doubles as a correctness
    cross-check.  Speedups are reported relative to ``legacy`` when it
    is measured, and the ``linear``/``shared`` ratio separately (that is
    the ratio the CI bench gate enforces).
    """
    from repro.dominators.shared import BACKENDS

    backends = list(backends) if backends else list(BACKENDS)
    circuits = []
    total_seconds = {b: 0.0 for b in backends}
    for name in names:
        cones = _cones_at(name, scale)
        seconds = {}
        pair_counts = {}
        for backend in backends:
            seconds[backend], pair_counts[backend] = _measure_backend(
                cones, backend, repeats
            )
        counts = set(pair_counts.values())
        if len(counts) > 1:
            raise AssertionError(
                f"{name}: backends disagree on the pair count "
                f"({pair_counts})"
            )
        row = {
            "name": name,
            "pairs": pair_counts[backends[0]],
            "seconds": {b: round(s, 6) for b, s in seconds.items()},
        }
        if "legacy" in seconds:
            row["speedup_vs_legacy"] = {
                b: round(seconds["legacy"] / seconds[b], 3)
                for b in backends
                if b != "legacy"
            }
        if "linear" in seconds and "shared" in seconds:
            row["linear_vs_shared"] = round(
                seconds["shared"] / seconds["linear"], 3
            )
        circuits.append(row)
        for backend in backends:
            total_seconds[backend] += seconds[backend]
        print(
            "  {:12s} {}".format(
                name,
                "   ".join(
                    f"{b} {seconds[b] * 1e3:9.1f} ms" for b in backends
                ),
            ),
            file=sys.stderr,
        )
    total = {"seconds": {b: round(s, 6) for b, s in total_seconds.items()}}
    if "legacy" in total_seconds:
        total["speedup_vs_legacy"] = {
            b: round(total_seconds["legacy"] / total_seconds[b], 3)
            for b in backends
            if b != "legacy"
        }
    if "linear" in total_seconds and "shared" in total_seconds:
        total["linear_vs_shared"] = round(
            total_seconds["shared"] / total_seconds["linear"], 3
        )
    return {
        "workload": "all-PI dominator chains per output cone (Table 1)",
        "scale": scale,
        "repeats": repeats,
        "timing": (
            "best-of-repeats; shared/linear times include index build"
        ),
        "backends": backends,
        "circuits": circuits,
        "total": total,
    }


def _cones_at(name, scale):
    circuit = table1_suite()[name].circuit(scale)
    return [
        IndexedGraph.from_circuit(circuit, out) for out in circuit.outputs
    ]


def main(argv=None):
    from repro.cli import backend_arg
    from repro.dominators.shared import BACKENDS

    parser = argparse.ArgumentParser(
        description="chain-construction backend comparison (Table 1)"
    )
    parser.add_argument(
        "--out",
        default="BENCH_linear_backend.json",
        help="report file (JSON)",
    )
    parser.add_argument(
        "--names",
        nargs="*",
        help="benchmark names (default: the quick subset)",
    )
    parser.add_argument(
        "--backends",
        nargs="*",
        type=backend_arg,
        metavar="{%s}" % ",".join(BACKENDS),
        help="backends to measure (default: all registered backends)",
    )
    parser.add_argument("--scale", type=float, default=SCALE)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help=(
            "exit 1 when the aggregate shared-vs-legacy speedup falls "
            "below this (requires both backends to be measured)"
        ),
    )
    parser.add_argument(
        "--min-linear-vs-shared",
        type=float,
        default=None,
        help=(
            "exit 1 when the aggregate linear-vs-shared ratio falls "
            "below this (requires both backends to be measured)"
        ),
    )
    args = parser.parse_args(argv)
    names = args.names or QUICK_SUBSET
    unknown = [n for n in names if n not in table1_suite()]
    if unknown:
        print(f"unknown benchmark(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    backends = args.backends or list(BACKENDS)
    for gate, needed in (
        (args.min_speedup, ("legacy", "shared")),
        (args.min_linear_vs_shared, ("shared", "linear")),
    ):
        if gate is not None:
            missing = [b for b in needed if b not in backends]
            if missing:
                print(
                    "gate requires backend(s) not being measured: "
                    + ", ".join(missing),
                    file=sys.stderr,
                )
                return 2
    report = run_backend_comparison(
        names, scale=args.scale, repeats=args.repeats, backends=backends
    )
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    total = report["total"]
    failures = []
    if args.min_speedup is not None:
        speedup = total["speedup_vs_legacy"]["shared"]
        print(
            f"aggregate shared-vs-legacy speedup {speedup}x",
            file=sys.stderr,
        )
        if speedup < args.min_speedup:
            failures.append(
                f"shared-vs-legacy speedup {speedup}x is below the "
                f"--min-speedup gate {args.min_speedup}x"
            )
    if args.min_linear_vs_shared is not None:
        ratio = total["linear_vs_shared"]
        print(
            f"aggregate linear-vs-shared ratio {ratio}x", file=sys.stderr
        )
        if ratio < args.min_linear_vs_shared:
            failures.append(
                f"linear-vs-shared ratio {ratio}x is below the "
                f"--min-linear-vs-shared gate {args.min_linear_vs_shared}x"
            )
    print(f"report -> {args.out}", file=sys.stderr)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
