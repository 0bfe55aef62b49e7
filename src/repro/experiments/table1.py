"""Regenerate the paper's Table 1.

For every suite benchmark the harness measures, per output cone and summed
over cones exactly as the paper specifies:

* Column 4 — distinct vertices singly dominating ≥ 1 primary input
  (Lengauer–Tarjan, as in the paper),
* Column 5 — distinct double-vertex dominator pairs dominating ≥ 1
  primary input (identical for both algorithms — cross-checked),
* t1 — wall time of the baseline algorithm [11],
* t2 — wall time of the paper's dominator-chain algorithm,
* improvement t1/t2,
* wall — total wall-clock spent on the circuit (build + both
  algorithms + cross-checks), the serving-capacity view.

Absolute times are Python-on-today's-hardware, not 2005-C-on-a-650 MHz
Pentium 3; the claims under reproduction are the *ratios* and the counts'
structure.  Run as a module::

    python -m repro.experiments.table1 --scale 0.5
    python -m repro.experiments.table1 --quick --markdown out.md
    python -m repro.experiments.table1 --jobs 4 --seed 1

``--jobs N`` routes t2 through the :mod:`repro.service` worker pool
(cones fan out across N processes); ``--seed K`` offsets the
random-family suite generators to probe robustness across netlist
samples.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set

from ..core.algorithm import ChainComputer
from ..core.baseline import baseline_double_dominators
from ..dominators.shared import DEFAULT_BACKEND
from ..dominators.single import (
    circuit_dominator_tree,
    pi_dominator_vertices,
)
from ..graph.circuit import Circuit
from ..graph.indexed import IndexedGraph
from ..circuits.suite import QUICK_SUBSET, SuiteEntry, table1_suite
from .reporting import format_markdown_table, format_table


@dataclass
class Table1Row:
    """Measured row plus the paper's published counterpart."""

    name: str
    inputs: int
    outputs: int
    single_doms: int
    double_doms: int
    t1: float
    t2: float
    paper_single: int
    paper_double: int
    paper_improvement: float
    wall: float = 0.0

    @property
    def improvement(self) -> float:
        return self.t1 / self.t2 if self.t2 > 0 else float("inf")


def measure_circuit(
    circuit: Circuit,
    check: bool = False,
    jobs: int = 1,
    backend: str = DEFAULT_BACKEND,
) -> Table1Row:
    """Run both algorithms over every output cone of one circuit.

    With ``check=True`` the per-target pair sets of the two algorithms are
    compared (slow paths already measured; comparison itself is free) and
    a mismatch raises — the harness doubles as an end-to-end test.

    With ``jobs > 1`` the t2 measurement fans cones across a
    :class:`repro.service.ParallelExecutor` worker pool; the reported t2
    is the parallel wall time and the pair sets are reconstructed from
    the workers' serialized chains (bit-identical to the in-process
    path).
    """
    wall_start = time.perf_counter()
    cones = [IndexedGraph.from_circuit(circuit, out) for out in circuit.outputs]

    # Column 4: single-vertex dominators of >= 1 PI (LT), and cone prep.
    singles = 0
    for graph in cones:
        tree = circuit_dominator_tree(graph)
        singles += len(pi_dominator_vertices(tree, graph.sources()))

    # t1: baseline [11].
    t_start = time.perf_counter()
    baseline_pairs: List[Dict[int, Set[FrozenSet[int]]]] = []
    doubles_baseline = 0
    for graph in cones:
        per_target = baseline_double_dominators(graph)
        union: Set[FrozenSet[int]] = set()
        for pairs in per_target.values():
            union |= pairs
        doubles_baseline += len(union)
        baseline_pairs.append(per_target)
    t1 = time.perf_counter() - t_start

    # t2: the paper's algorithm — in-process, or fanned across a pool.
    chain_pair_sets: List[Dict[int, Set[FrozenSet[int]]]] = []
    doubles_new = 0
    if jobs > 1:
        from ..core.chain import DominatorChain
        from ..service import ExecutorConfig, ParallelExecutor

        with ParallelExecutor(
            ExecutorConfig(jobs=jobs, backend=backend)
        ) as executor:
            t_start = time.perf_counter()
            cone_results = executor.sweep_circuit(circuit)
            t2 = time.perf_counter() - t_start
        for graph, result in zip(cones, cone_results):
            union = set()
            per_target = {}
            for name, chain_dict in result.chains.items():
                pairs = DominatorChain.from_dict(chain_dict).pair_set()
                per_target[graph.index_of(name)] = pairs
                union |= pairs
            doubles_new += len(union)
            chain_pair_sets.append(per_target)
    else:
        t_start = time.perf_counter()
        for graph in cones:
            computer = ChainComputer(graph, backend=backend)
            union = set()
            per_target = {}
            for u in graph.sources():
                pairs = computer.chain(u).pair_set()
                per_target[u] = pairs
                union |= pairs
            doubles_new += len(union)
            chain_pair_sets.append(per_target)
        t2 = time.perf_counter() - t_start

    if doubles_new != doubles_baseline:
        raise AssertionError(
            f"{circuit.name}: algorithms disagree on the pair count "
            f"({doubles_new} vs {doubles_baseline})"
        )
    if check:
        for per_new, per_base in zip(chain_pair_sets, baseline_pairs):
            for u, pairs in per_new.items():
                if pairs != per_base.get(u, set()):
                    raise AssertionError(
                        f"{circuit.name}: pair sets differ for target {u}"
                    )

    return Table1Row(
        name=circuit.name,
        inputs=len(circuit.inputs),
        outputs=len(circuit.outputs),
        single_doms=singles,
        double_doms=doubles_new,
        t1=t1,
        t2=t2,
        paper_single=0,
        paper_double=0,
        paper_improvement=0.0,
        wall=time.perf_counter() - wall_start,
    )


def run_entry(
    entry: SuiteEntry,
    scale: float = 1.0,
    check: bool = False,
    jobs: int = 1,
    backend: str = DEFAULT_BACKEND,
) -> Table1Row:
    """Measure one suite benchmark and attach the paper's numbers."""
    row = measure_circuit(
        entry.circuit(scale), check=check, jobs=jobs, backend=backend
    )
    row.paper_single = entry.paper.single_doms
    row.paper_double = entry.paper.double_doms
    row.paper_improvement = entry.paper.improvement
    return row


def run_table1(
    names: Optional[Sequence[str]] = None,
    scale: float = 1.0,
    check: bool = False,
    verbose: bool = True,
    jobs: int = 1,
    seed: Optional[int] = None,
    backend: str = DEFAULT_BACKEND,
) -> List[Table1Row]:
    """Measure a set of suite benchmarks (all 30 by default).

    ``seed`` offsets the random-family suite generators (see
    :func:`repro.circuits.suite.set_seed_offset`); it is restored
    afterwards so the harness has no lasting global effect.
    """
    from ..circuits.suite import seed_offset, set_seed_offset

    suite = table1_suite()
    selected = list(names) if names else list(suite)
    rows: List[Table1Row] = []
    previous_offset = seed_offset()
    if seed is not None:
        set_seed_offset(seed)
    try:
        for name in selected:
            if verbose:
                print(f"  running {name} ...", file=sys.stderr, flush=True)
            rows.append(
                run_entry(
                    suite[name],
                    scale=scale,
                    check=check,
                    jobs=jobs,
                    backend=backend,
                )
            )
    finally:
        set_seed_offset(previous_offset)
    return rows


_HEADERS = [
    "name",
    "in",
    "out",
    "N single",
    "N double",
    "t1 [s]",
    "t2 [s]",
    "impr t1/t2",
    "paper impr",
    "wall [s]",
]


def _table_rows(rows: Sequence[Table1Row]) -> List[List[object]]:
    body: List[List[object]] = [
        [
            r.name,
            r.inputs,
            r.outputs,
            r.single_doms,
            r.double_doms,
            r.t1,
            r.t2,
            r.improvement,
            r.paper_improvement,
            r.wall,
        ]
        for r in rows
    ]
    if rows:
        n = len(rows)
        body.append(
            [
                "average",
                round(sum(r.inputs for r in rows) / n),
                round(sum(r.outputs for r in rows) / n),
                round(sum(r.single_doms for r in rows) / n),
                round(sum(r.double_doms for r in rows) / n),
                sum(r.t1 for r in rows) / n,
                sum(r.t2 for r in rows) / n,
                sum(r.improvement for r in rows) / n,
                sum(r.paper_improvement for r in rows) / n,
                sum(r.wall for r in rows) / n,
            ]
        )
    return body


def format_results(rows: Sequence[Table1Row], markdown: bool = False) -> str:
    """Render measured rows in the paper's Table-1 layout."""
    body = _table_rows(rows)
    if markdown:
        return format_markdown_table(_HEADERS, body)
    return format_table(
        _HEADERS, body, title="Table 1 (reproduced; see EXPERIMENTS.md)"
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Regenerate the paper's Table 1 on the synthetic suite"
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="circuit size multiplier (1.0 = paper-matched I/O counts)",
    )
    parser.add_argument(
        "--quick", action="store_true", help="run the 8-circuit quick subset"
    )
    parser.add_argument(
        "--names", nargs="*", help="explicit benchmark names to run"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="cross-check per-target pair sets of the two algorithms",
    )
    parser.add_argument(
        "--markdown", metavar="FILE", help="also write a markdown table"
    )
    from ..cli import backend_arg, jobs_arg
    from ..dominators.shared import BACKENDS

    parser.add_argument(
        "--jobs",
        type=jobs_arg,
        default=1,
        help="worker processes for the t2 measurement (1 = in-process)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="seed offset for the random-family suite circuits",
    )

    parser.add_argument(
        "--backend",
        default=DEFAULT_BACKEND,
        type=backend_arg,
        metavar="{%s}" % ",".join(BACKENDS),
        help="chain-construction backend for the t2 measurement",
    )
    args = parser.parse_args(argv)

    names = args.names or (QUICK_SUBSET if args.quick else None)
    rows = run_table1(
        names=names,
        scale=args.scale,
        check=args.check,
        jobs=args.jobs,
        seed=args.seed,
        backend=args.backend,
    )
    print(format_results(rows))
    if args.markdown:
        with open(args.markdown, "w") as handle:
            handle.write(format_results(rows, markdown=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
