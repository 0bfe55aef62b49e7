"""Incremental re-query vs full recompute under a single-gate edit stream.

The paper's closing remark — the algorithm is fast enough "for running in
an incremental manner during logic synthesis" — is the scenario this
benchmark measures.  A session holds dominator chains for every primary
input of a cone; a synthesis loop applies one local rewrite at a time
(buffer insertion on a net, the canonical single-gate edit) and re-asks
for all chains after each edit.

Two ways to serve that loop:

* ``incremental`` — one :class:`~repro.incremental.IncrementalEngine`
  lives across the whole stream.  Its tree is *maintained* by
  :class:`~repro.dominators.dynamic.DynamicDominators`: a pruned
  iterative sweep re-folds only the affected region's idoms in place,
  with no per-flush full-graph pass (no RPO, no tree DFS, no shared cone
  index rebuild).  Each flush evicts only the cached regions the edit
  could touch and reuses every surviving region expansion and assembled
  chain;
* ``full recompute`` — what a stateless caller does: a fresh
  :class:`~repro.core.algorithm.ChainComputer` per edit (new tree, every
  region re-expanded, every chain re-assembled).

Speedups are workload-shaped, and the configs are chosen to show both
sides honestly.  The dual-rail parity headline is the canonical local-
edit workload: every PI fans into two balanced trees that reconverge
only at the output comparator, so a scattered buffer insertion stales a
couple of leaf-adjacent cells while a full recompute re-expands every
PI's whole-circuit entry region.  On a cascade where eight inputs each
tap every level, every PI's entry region spans the whole circuit and any
edit honestly invalidates it — the engine degrades toward parity there.

``python benchmarks/bench_incremental.py`` runs the edit-stream study
directly and writes ``BENCH_incremental.json`` next to the repo's other
``BENCH_*`` artifacts (``--quick`` shrinks the stream for CI smoke
runs).  The run exits 1 unless the median headline speedup reaches
:data:`ACCEPTANCE_SPEEDUP`.  Under pytest, each config becomes a
benchmark group whose entries are the per-edit cost of the engine and of
the full recompute.
"""

import json
import statistics
import time
from pathlib import Path

import pytest

from repro.circuits.generators import (
    cascade,
    dual_rail_parity,
    random_series_parallel,
)
from repro.core.algorithm import ChainComputer
from repro.incremental import AddGate, IncrementalEngine, ReplaceSubgraph, Rewire

#: (label, circuit factory, part of the acceptance headline?)
#: Headline rows keep edits local (one tap per PI / leaf-private tree
#: cells); the trailing rows are adversarial or mid-range shapes kept
#: for honesty.
CONFIGS = [
    (
        "cascade depth=48 width=48",
        lambda: cascade(depth=48, num_inputs=48, num_outputs=1),
        True,
    ),
    (
        "dual-rail parity width=128",
        lambda: dual_rail_parity(128),
        True,
    ),
    (
        "dual-rail parity width=192",
        lambda: dual_rail_parity(192),
        True,
    ),
    (
        "series-parallel depth=10 seed=4",
        lambda: random_series_parallel(depth=10, seed=4),
        False,
    ),
    (
        "cascade depth=120 width=8 (global regions)",
        lambda: cascade(depth=120, num_inputs=8, num_outputs=1),
        False,
    ),
]

EDITS = 20
#: Threshold on the median headline speedup vs full recompute.
ACCEPTANCE_SPEEDUP = 20.0


def _edit_at(graph, step):
    """Buffer insertion on the first fanin net of a deterministic gate.

    Walks the live gates with a prime stride so successive edits land in
    unrelated parts of the circuit, the way scattered local rewrites do.
    """
    gates = [
        v
        for v in range(graph.n)
        if graph.is_alive(v)
        and graph.pred[v]
        and v != graph.root
        and graph.name_of(v) is not None
        and all(graph.name_of(p) is not None for p in graph.pred[v])
    ]
    v = gates[(step * 7919) % len(gates)]
    fanins = [graph.name_of(p) for p in graph.pred[v]]
    buf = f"edit_buf{step}"
    return ReplaceSubgraph(
        add=(AddGate(buf, (fanins[0],), "buf"),),
        rewire=(
            Rewire(
                graph.name_of(v),
                tuple(buf if i == 0 else name for i, name in enumerate(fanins)),
            ),
        ),
    )


def _query_all(computer, sources):
    total = 0
    for u in sources:
        if computer.tree.is_reachable(u):
            total += computer.chain(u).num_dominators()
    return total


def run_stream(make_circuit, edits=EDITS):
    """One config's study: per-edit incremental vs recompute timings."""
    session = IncrementalEngine.from_circuit(make_circuit())
    graph = session.graph
    session.chains_for_sources()  # warm session, as a synthesis loop would be
    inc_times, full_times = [], []
    for step in range(edits):
        session.apply(_edit_at(graph, step))
        t0 = time.perf_counter()
        session.chains_for_sources()
        inc_times.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        _query_all(ChainComputer(graph), graph.sources())
        full_times.append(time.perf_counter() - t0)
    ratios = sorted(f / i for f, i in zip(full_times, inc_times))
    alive = graph.n - len(graph.dead)
    return {
        "vertices": alive,
        "edits": edits,
        "incremental_ms_median": statistics.median(inc_times) * 1e3,
        "full_ms_median": statistics.median(full_times) * 1e3,
        "speedup_median": statistics.median(ratios),
        "speedup_p25": ratios[len(ratios) // 4],
        "speedup_max": ratios[-1],
        "engine_stats": session.stats_dict(),
        "cache_hit_rate": session.cache_stats.hit_rate,
    }


# ----------------------------------------------------------------------
# pytest-benchmark entry points: one group per config, two contenders.
# Each benchmark round applies the next edit of the stream and re-queries
# all PI chains — the unit of work a synthesis loop pays per rewrite.
# ----------------------------------------------------------------------
def _streaming_workload(make_circuit, incremental):
    session = IncrementalEngine.from_circuit(make_circuit())
    graph = session.graph
    session.chains_for_sources()
    state = {"step": 0}

    def one_edit_cycle():
        session.apply(_edit_at(graph, state["step"]))
        state["step"] += 1
        if incremental:
            return len(session.chains_for_sources())
        return _query_all(ChainComputer(graph), graph.sources())

    return one_edit_cycle


@pytest.mark.parametrize("label,factory,_", CONFIGS, ids=[c[0] for c in CONFIGS])
def test_incremental_requery(benchmark, label, factory, _):
    benchmark.group = f"edit-stream:{label}"
    benchmark.name = "incremental engine"
    benchmark(_streaming_workload(factory, incremental=True))


@pytest.mark.parametrize("label,factory,_", CONFIGS, ids=[c[0] for c in CONFIGS])
def test_full_recompute(benchmark, label, factory, _):
    benchmark.group = f"edit-stream:{label}"
    benchmark.name = "full recompute"
    benchmark(_streaming_workload(factory, incremental=False))


# ----------------------------------------------------------------------
# direct mode: the JSON artifact
# ----------------------------------------------------------------------
def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="short edit stream (CI smoke run)",
    )
    parser.add_argument(
        "--edits", type=int, default=None, help="edits per config"
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_incremental.json",
    )
    args = parser.parse_args(argv)
    edits = args.edits if args.edits is not None else (6 if args.quick else EDITS)

    results = []
    for label, factory, headline in CONFIGS:
        row = run_stream(factory, edits=edits)
        row["config"] = label
        row["headline"] = headline
        results.append(row)
        print(
            f"{label:42s} n={row['vertices']:5d} "
            f"inc {row['incremental_ms_median']:6.2f} ms "
            f"full {row['full_ms_median']:7.2f} ms "
            f"median {row['speedup_median']:6.1f}x "
            f"p25 {row['speedup_p25']:5.1f}x "
            f"hit_rate={row['cache_hit_rate']:.1%}"
        )

    headline_median = statistics.median(
        r["speedup_median"] for r in results if r["headline"]
    )
    met = headline_median >= ACCEPTANCE_SPEEDUP
    report = {
        "benchmark": "incremental edit-stream re-query vs full recompute",
        "edit": "single-gate buffer insertion, scattered across the cone",
        "query": "dominator chains of all primary inputs after each edit",
        "edits_per_config": edits,
        "configs": results,
        "headline_median_speedup": headline_median,
        "acceptance": {"threshold": ACCEPTANCE_SPEEDUP, "met": met},
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(
        f"\nheadline median speedup: {headline_median:.1f}x "
        f"(threshold {ACCEPTANCE_SPEEDUP:.0f}x, "
        f"{'met' if met else 'NOT met'})"
    )
    print(f"wrote {args.output}")
    return 0 if met else 1


if __name__ == "__main__":
    raise SystemExit(main())
