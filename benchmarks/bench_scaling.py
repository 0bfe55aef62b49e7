"""Scaling of both algorithms with circuit size.

Two families from the paper's extremes:

* ``cascade`` — deep chains of reconvergent blocks (the too_large
  pathology: baseline grows ~quadratically, the chain algorithm stays
  near-linear thanks to small regions),
* ``multiplier`` — the C6288 family (few single dominators, large search
  regions: both algorithms work harder, the gap persists).

Run directly as a script to compare the numpy kernels against the pure
python hot path on the million-gate scaling tier and emit the
checked-in report::

    python benchmarks/bench_scaling.py --out BENCH_scaling.json
    python benchmarks/bench_scaling.py --tier mid --repeats 5 \
        --min-kernel-speedup 1.0 --min-linear-vs-shared 1.0

Per entry the script builds the circuit once, then measures one
dominator-chain query twice per configuration: *cold* (the shared
cone index is dropped first, so the time includes the index build) and
*warm* (best-of-``--repeats`` on the cached index, region cache off —
the steady-state serving cost).  Three configurations run: the
``shared`` backend under both kernels settings (keys ``python`` and
``numpy``) and the default ``linear`` backend on python kernels (key
``linear``).  The numpy and linear chains are cross-checked against
the shared python chain with :func:`repro.check.oracle.diff_chains`;
any divergence aborts with exit 1.  The ``--min-kernel-speedup`` gate
compares aggregate *warm* times over the entries where the kernels
actually engaged (``core.kernel_regions > 0``) — deep-and-narrow
entries like ``cascade_mega`` have sub-threshold regions everywhere,
so they are reported but excluded from the gated ratio.  The
``--min-linear-vs-shared`` gate compares aggregate warm times of
``linear`` and shared ``python`` over every entry.
"""

import argparse
import json
import sys
import time

import pytest

from repro.circuits.generators import array_multiplier, cascade
from repro.core.algorithm import ChainComputer
from repro.core.baseline import baseline_double_dominators
from repro.graph import IndexedGraph


def _single_cone(circuit):
    return IndexedGraph.from_circuit(circuit, circuit.outputs[-1])


def _new(graph):
    computer = ChainComputer(graph)
    return sum(
        computer.chain(u).num_dominators() for u in graph.sources()
    )


def _baseline(graph):
    return sum(
        len(p) for p in baseline_double_dominators(graph).values()
    )


@pytest.mark.parametrize("depth", [25, 50, 100])
def test_cascade_new(benchmark, depth):
    graph = _single_cone(cascade(depth=depth, num_inputs=6))
    benchmark.group = f"cascade depth={depth} (n={graph.n})"
    benchmark.name = "new (t2)"
    benchmark(_new, graph)


@pytest.mark.parametrize("depth", [25, 50, 100])
def test_cascade_baseline(benchmark, depth):
    graph = _single_cone(cascade(depth=depth, num_inputs=6))
    benchmark.group = f"cascade depth={depth} (n={graph.n})"
    benchmark.name = "baseline [11] (t1)"
    benchmark(_baseline, graph)


@pytest.mark.parametrize("width", [4, 6, 8])
def test_multiplier_new(benchmark, width):
    graph = _single_cone(array_multiplier(width))
    benchmark.group = f"multiplier {width}x{width} (n={graph.n})"
    benchmark.name = "new (t2)"
    benchmark(_new, graph)


@pytest.mark.parametrize("width", [4, 6, 8])
def test_multiplier_baseline(benchmark, width):
    graph = _single_cone(array_multiplier(width))
    benchmark.group = f"multiplier {width}x{width} (n={graph.n})"
    benchmark.name = "baseline [11] (t1)"
    benchmark(_baseline, graph)


# ----------------------------------------------------------------------
# script mode: numpy kernels vs python hot path on the scaling tiers
# ----------------------------------------------------------------------
#: Report key -> ``(backend, kernels)`` of each measured configuration.
_CONFIGS = {
    "python": ("shared", "python"),
    "numpy": ("shared", "numpy"),
    "linear": ("linear", "python"),
}


def _pick_target(graph):
    """The benchmark's query vertex: ``x0`` where the generator names
    one (the mixing pipelines), else the cone's first primary input."""
    from repro.errors import UnknownNodeError

    try:
        return graph.index_of("x0")
    except UnknownNodeError:
        return graph.sources()[0]


def measure_entry(entry, repeats=3):
    """Cold and warm chain timings for one scaling entry, every config.

    Returns the report row.  Cold drops the cached shared index first,
    so every configuration pays the full index build; warm reuses the
    index with the region cache off and keeps the best of ``repeats``
    runs.  The numpy and linear chains must be bit-identical to the
    shared python chain.
    """
    from repro.check.oracle import diff_chains
    from repro.service import MetricsRegistry

    graph = _single_cone(entry.circuit())
    target = _pick_target(graph)
    cold = {}
    warm = {}
    chains = {}
    kernel_regions = 0
    for key, (backend, kern) in _CONFIGS.items():
        graph._shared_index = None
        start = time.perf_counter()
        computer = ChainComputer(graph, backend=backend, kernels=kern)
        chains[key] = computer.chain(target)
        cold[key] = time.perf_counter() - start
        best = None
        for _ in range(repeats):
            metrics = MetricsRegistry()
            start = time.perf_counter()
            computer = ChainComputer(
                graph,
                backend=backend,
                cache_regions=False,
                kernels=kern,
                metrics=metrics,
            )
            chains[key] = computer.chain(target)
            elapsed = time.perf_counter() - start
            best = elapsed if best is None else min(best, elapsed)
            if key == "numpy":
                kernel_regions = metrics.counter(
                    "core.kernel_regions"
                ).value
        warm[key] = best
    for key in ("numpy", "linear"):
        divergence = diff_chains(chains["python"], chains[key])
        if divergence is not None:
            raise AssertionError(
                f"{entry.name}: {key} chain diverges from shared python "
                f"({divergence})"
            )
    return {
        "name": entry.name,
        "gates": graph.n,
        "target": graph.name_of(target),
        "pairs": chains["python"].num_dominators(),
        "cold_seconds": {k: round(s, 6) for k, s in cold.items()},
        "warm_seconds": {k: round(s, 6) for k, s in warm.items()},
        "warm_speedup": round(warm["python"] / warm["numpy"], 3),
        "linear_vs_shared": round(warm["python"] / warm["linear"], 3),
        "kernel_regions": kernel_regions,
        "kernel_engaged": kernel_regions > 0,
    }


def run_scaling_comparison(entries, repeats=3):
    """The full report: per-entry rows plus the gated aggregate.

    The aggregate kernel speedup is computed over kernel-engaged
    entries only — an entry whose regions all fall under the kernel
    size threshold measures dispatch overhead, not the kernels.
    """
    rows = []
    for entry in entries:
        row = measure_entry(entry, repeats=repeats)
        rows.append(row)
        print(
            "  {:14s} n={:>9,}  warm py {:8.3f}s  np {:8.3f}s  "
            "-> {:5.2f}x{}  linear {:8.3f}s -> {:5.2f}x".format(
                row["name"],
                row["gates"],
                row["warm_seconds"]["python"],
                row["warm_seconds"]["numpy"],
                row["warm_speedup"],
                "" if row["kernel_engaged"] else "  (kernels idle)",
                row["warm_seconds"]["linear"],
                row["linear_vs_shared"],
            ),
            file=sys.stderr,
        )
    gated = [r for r in rows if r["kernel_engaged"]]
    total = {
        "warm_seconds": {
            k: round(sum(r["warm_seconds"][k] for r in rows), 6)
            for k in _CONFIGS
        },
        "gated_entries": [r["name"] for r in gated],
    }
    total["linear_vs_shared"] = round(
        total["warm_seconds"]["python"] / total["warm_seconds"]["linear"], 3
    )
    if gated:
        total["kernel_speedup"] = round(
            sum(r["warm_seconds"]["python"] for r in gated)
            / sum(r["warm_seconds"]["numpy"] for r in gated),
            3,
        )
    return {
        "workload": (
            "one dominator chain per scaling circuit: shared backend "
            "with kernels python vs numpy, and the default linear "
            "backend on python kernels"
        ),
        "repeats": repeats,
        "timing": (
            "cold includes the shared-index build; warm is "
            "best-of-repeats on the cached index, region cache off; "
            "the gated aggregate covers kernel-engaged entries only"
        ),
        "circuits": rows,
        "total": total,
    }


def main(argv=None):
    from repro.circuits.suite import scaling_suite
    from repro.dominators.kernels import numpy_available

    parser = argparse.ArgumentParser(
        description="numpy kernels vs python on the scaling tiers"
    )
    parser.add_argument(
        "--out", default="BENCH_scaling.json", help="report file (JSON)"
    )
    parser.add_argument(
        "--tier",
        default="mega",
        help="scaling tier to run (default: mega)",
    )
    parser.add_argument(
        "--names",
        nargs="*",
        help="entry names (default: every entry in --tier)",
    )
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--min-kernel-speedup",
        type=float,
        default=None,
        help=(
            "exit 1 when the aggregate warm numpy speedup over "
            "kernel-engaged entries falls below this"
        ),
    )
    parser.add_argument(
        "--min-linear-vs-shared",
        type=float,
        default=None,
        help=(
            "exit 1 when the aggregate warm shared-python over linear "
            "time ratio falls below this"
        ),
    )
    args = parser.parse_args(argv)
    if not numpy_available():
        print("numpy is required for the kernel bench", file=sys.stderr)
        return 2
    suite = scaling_suite()
    if args.names:
        unknown = [n for n in args.names if n not in suite]
        if unknown:
            print(
                f"unknown entry name(s): {', '.join(unknown)}; "
                f"choose from {sorted(suite)}",
                file=sys.stderr,
            )
            return 2
        entries = [suite[n] for n in args.names]
    else:
        entries = [e for e in suite.values() if e.tier == args.tier]
        if not entries:
            tiers = sorted({e.tier for e in suite.values()})
            print(
                f"no entries in tier {args.tier!r}; choose from {tiers}",
                file=sys.stderr,
            )
            return 2
    report = run_scaling_comparison(entries, repeats=args.repeats)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    total = report["total"]
    failures = []
    if args.min_kernel_speedup is not None:
        speedup = total.get("kernel_speedup")
        if speedup is None:
            failures.append(
                "no kernel-engaged entries were measured, so the "
                "--min-kernel-speedup gate cannot pass"
            )
        else:
            print(
                f"aggregate kernel speedup {speedup}x "
                f"(over {', '.join(total['gated_entries'])})",
                file=sys.stderr,
            )
            if speedup < args.min_kernel_speedup:
                failures.append(
                    f"kernel speedup {speedup}x is below the "
                    f"--min-kernel-speedup gate "
                    f"{args.min_kernel_speedup}x"
                )
    if args.min_linear_vs_shared is not None:
        ratio = total["linear_vs_shared"]
        print(f"aggregate linear vs shared {ratio}x", file=sys.stderr)
        if ratio < args.min_linear_vs_shared:
            failures.append(
                f"linear vs shared {ratio}x is below the "
                f"--min-linear-vs-shared gate {args.min_linear_vs_shared}x"
            )
    print(f"report -> {args.out}", file=sys.stderr)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
