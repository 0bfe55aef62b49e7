"""Seeded randomized differential fuzzing of the dominator algorithms.

Every case derives its own :class:`random.Random` stream from
``(seed, index)``, so ``run_fuzz(seed=0, cases=500)`` draws the same 500
circuits on every machine — the CI contract.  Case kinds cover:

* seeded random reconvergent DAGs (:func:`~repro.circuits.generators.random_circuit`
  and friends), the main workload;
* structured generator families (adders, parity trees, mux trees, ...)
  at small widths — known-shape reconvergence;
* degenerate shapes the worked examples never exercise: single-gate
  cones, PI-only cones (a primary input that *is* the output),
  multi-fanout roots and fanout-free chains;
* structural mutations: XOR→NAND expansion
  (:func:`repro.graph.rewrite.expand_xors`) multiplies reconvergence
  exactly like the paper's C499→C1355 pair;
* incremental sessions: a random edit script (mixed, deletion-heavy or
  strictly interleaved insert/delete schedule) replayed through
  :class:`~repro.incremental.IncrementalEngine`, cross-checked against
  from-scratch recomputation and the low-high certificate after every
  edit.

A mismatching case is handed to :mod:`repro.check.shrink`; the minimized
circuit is dumped as a ``.bench`` fixture for the bug report.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from ..circuits.generators import (
    mux_tree,
    parity_tree,
    prefix_or_network,
    random_circuit,
    random_series_parallel,
    random_single_output,
    ripple_carry_adder,
)
from ..dominators.shared import DEFAULT_BACKEND
from ..graph.circuit import Circuit
from ..graph.node import NodeType
from ..graph.rewrite import expand_xors
from ..incremental.edits import AddGate, Edit, RemoveGate, Rewire
from .oracle import (
    DEFAULT_BRUTE_LIMIT,
    Mismatch,
    OracleReport,
    check_circuit,
    check_incremental,
)
from .shrink import dump_repro, shrink_circuit

Fault = Callable[[Circuit], bool]


@dataclass(frozen=True)
class FuzzCase:
    """One drawn test case (``edits`` non-empty for incremental cases)."""

    index: int
    kind: str
    circuit: Circuit
    edits: Tuple[Edit, ...] = ()


@dataclass
class FuzzFailure:
    """A mismatching case, after shrinking."""

    case: FuzzCase
    mismatches: List[Mismatch]
    shrunk: Circuit
    repro_path: Optional[str] = None

    @property
    def shrunk_gates(self) -> int:
        return self.shrunk.gate_count()


@dataclass
class FuzzResult:
    """Outcome of one fuzzing run."""

    seed: int
    cases: int = 0
    targets: int = 0
    comparisons: int = 0
    incremental_sessions: int = 0
    failures: List[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.failures)} FAILURE(S)"
        return (
            f"fuzz seed={self.seed}: {self.cases} case(s), "
            f"{self.targets} target(s), {self.comparisons} comparison(s), "
            f"{self.incremental_sessions} incremental session(s) — {status}"
        )


# ----------------------------------------------------------------------
# case generation
# ----------------------------------------------------------------------
def _degenerate_case(rng: random.Random, tag: str) -> Tuple[str, Circuit]:
    """Tiny shapes at the edges of the algorithm's domain."""
    shape = rng.choice(
        ("single_gate", "pi_only", "buffer_chain", "multi_fanout_root")
    )
    c = Circuit(f"degen_{shape}_{tag}")
    if shape == "single_gate":
        # One gate over 2..4 PIs — the whole cone is one search region.
        fanins = [c.add_input(f"i{k}") for k in range(rng.randint(2, 4))]
        c.add_gate("g", rng.choice((NodeType.AND, NodeType.OR)), fanins)
        c.set_outputs(["g"])
    elif shape == "pi_only":
        # The output *is* a primary input: a one-vertex cone.
        c.add_input("i0")
        c.add_input("i1")
        c.set_outputs(["i0"])
    elif shape == "buffer_chain":
        # Fanout-free chain: every vertex single-dominates the input, so
        # every search region is trivial (no interior vertices).
        sig = c.add_input("i0")
        for k in range(rng.randint(1, 5)):
            sig = c.add_gate(f"b{k}", NodeType.BUF, [sig])
        c.set_outputs([sig])
    else:  # multi_fanout_root
        # The root gate's operands reconverge right below the output and
        # a PI feeds several gates (multi-fanout everywhere).
        a, b = c.add_input("a"), c.add_input("b")
        left = c.add_gate("l", NodeType.AND, [a, b])
        right = c.add_gate("r", NodeType.OR, [a, b])
        c.add_gate("root", rng.choice((NodeType.XOR, NodeType.NAND)),
                   [left, right])
        c.set_outputs(["root"])
    c.validate()
    return shape, c


def _structured_case(rng: random.Random) -> Tuple[str, Circuit]:
    pick = rng.randrange(5)
    if pick == 0:
        return "ripple_carry", ripple_carry_adder(rng.randint(2, 3))
    if pick == 1:
        return "parity_tree", parity_tree(rng.randint(3, 6))
    if pick == 2:
        return "mux_tree", mux_tree(rng.randint(1, 2))
    if pick == 3:
        return "prefix_or", prefix_or_network(rng.randint(3, 6))
    return "series_parallel", random_series_parallel(
        depth=rng.randint(2, 4), seed=rng.randrange(1 << 30)
    )


def generate_case(seed: int, index: int, max_gates: int = 24) -> FuzzCase:
    """Deterministically draw case ``index`` of stream ``seed``."""
    rng = random.Random(f"repro-fuzz:{seed}:{index}")
    roll = rng.random()
    edits: Tuple[Edit, ...] = ()
    if roll < 0.45:
        kind = "random"
        circuit = random_circuit(
            num_inputs=rng.randint(2, 6),
            num_gates=rng.randint(3, max_gates),
            num_outputs=rng.randint(1, 2),
            seed=rng.randrange(1 << 30),
            max_fanin=rng.randint(2, 3),
            name=f"fuzz_{seed}_{index}",
        )
    elif roll < 0.60:
        kind = "single_output"
        circuit = random_single_output(
            num_inputs=rng.randint(2, 5),
            num_gates=rng.randint(3, max_gates),
            seed=rng.randrange(1 << 30),
        )
    elif roll < 0.72:
        kind, circuit = _structured_case(rng)
    elif roll < 0.84:
        kind, circuit = _degenerate_case(rng, f"{seed}_{index}")
    else:
        # The edit schedule is drawn per case (deletion-heavy and
        # interleaved schedules stress the dynamic maintainer's region
        # sweep far harder than pure insertion streams do).
        schedule = rng.choice(("mixed", "deletion_heavy", "interleaved"))
        kind = f"incremental[{schedule}]"
        circuit = random_circuit(
            num_inputs=rng.randint(2, 5),
            num_gates=rng.randint(3, max(3, max_gates // 2)),
            num_outputs=1,
            seed=rng.randrange(1 << 30),
            name=f"fuzz_inc_{seed}_{index}",
        )
        edits = tuple(
            _draw_edits(rng, circuit, rng.randint(1, 6), schedule)
        )
    if not edits and rng.random() < 0.2:
        expanded = expand_xors(circuit)
        if expanded.gate_count() <= max_gates * 4:
            kind += "+xor_expanded"
            circuit = expanded
    return FuzzCase(index=index, kind=kind, circuit=circuit, edits=edits)


#: Edit-kind pools per schedule: ``mixed`` is the balanced original,
#: ``deletion_heavy`` biases toward removals (stressing affected-region
#: recomputation) and ``interleaved`` alternates insert/delete strictly
#: so every batch both grows and shrinks the cone.
_SCHEDULES = {
    "mixed": ("rewire", "add", "remove", "add"),
    "deletion_heavy": ("remove", "remove", "remove", "rewire", "add"),
    "interleaved": None,  # add on even steps, remove on odd
}


def _draw_edits(
    rng: random.Random,
    circuit: Circuit,
    count: int,
    schedule: str = "mixed",
) -> List[Edit]:
    """A random, applicable edit script against a *simulated* netlist.

    Tracks name liveness and a conservative reachability map so every
    generated edit is valid for the engine (no cycles, no dead names).
    Schedules stay shrinker-compatible: the output is a plain edit list
    and any prefix of it is still a valid script.
    """
    from ..graph.indexed import IndexedGraph

    graph = IndexedGraph.from_circuit(circuit)
    pool = _SCHEDULES[schedule]
    edits: List[Edit] = []
    for step in range(count):
        alive = [v for v in range(graph.n) if graph.is_alive(v)]
        gates = [v for v in alive if graph.pred[v]]
        removable = [v for v in alive if v != graph.root]
        if pool is None:
            kind = ("add", "remove")[step % 2]
        else:
            kind = rng.choice(pool)
        if kind == "rewire" and gates:
            w = rng.choice(gates)
            reach = graph.reachable_from(w)
            pool = [v for v in alive if v != w and not reach[v]]
            if pool:
                fanins = tuple(
                    graph.name_of(rng.choice(pool))
                    for _ in range(rng.randint(1, min(3, len(pool))))
                )
                graph.set_fanins(w, [graph.index_of(f) for f in fanins])
                edits.append(Rewire(graph.name_of(w), fanins))
                continue
        if kind == "remove" and removable:
            v = rng.choice(removable)
            name = graph.name_of(v)
            graph.kill_vertex(v)
            edits.append(RemoveGate(name))
            continue
        fanins = tuple(
            graph.name_of(rng.choice(alive))
            for _ in range(rng.randint(1, min(3, len(alive))))
        )
        name = f"fz_{step}"
        v = graph.add_vertex(name)
        for f in fanins:
            graph.add_edge(graph.index_of(f), v)
        edits.append(AddGate(name, fanins, "and"))
    return edits


# ----------------------------------------------------------------------
# the driver
# ----------------------------------------------------------------------
def run_fuzz(
    seed: int = 0,
    cases: int = 100,
    max_gates: int = 24,
    brute_limit: int = DEFAULT_BRUTE_LIMIT,
    out_dir: Optional[str] = None,
    inject_fault: Optional[Fault] = None,
    metrics=None,
    progress: Optional[Callable[[int, FuzzCase], None]] = None,
    backend: str = DEFAULT_BACKEND,
    kernels: str = "python",
) -> FuzzResult:
    """Run ``cases`` differential checks; shrink and dump any failure.

    Parameters
    ----------
    inject_fault:
        Self-test hook: a predicate over circuits that marks a case as
        failing *regardless of the oracle* — used to exercise the
        shrink-and-dump pipeline against a known, artificial fault.
    out_dir:
        Where shrunk ``.bench`` repros are written (omit to skip
        dumping; the shrunk circuits are still returned).
    backend:
        Primary chain backend under test; the oracle additionally runs
        the counterpart backend on every target, so one fuzzing pass
        exercises both regardless of this choice.
    kernels:
        Primary hot-path implementation; whenever numpy is importable
        the oracle also runs the opposite kernels per target (with the
        kernel region threshold forced to 0), so fuzzing covers the
        vectorized path by default.
    """
    result = FuzzResult(seed=seed)
    for index in range(cases):
        case = generate_case(seed, index, max_gates=max_gates)
        if progress is not None:
            progress(index, case)
        result.cases += 1
        if metrics is not None:
            metrics.inc("fuzz.cases")

        mismatches = _case_mismatches(
            case, brute_limit, metrics, result, backend, kernels
        )
        if inject_fault is not None and inject_fault(case.circuit):
            mismatches = mismatches + [
                Mismatch(
                    "injected",
                    case.circuit.name,
                    ",".join(case.circuit.outputs),
                    "",
                    "artificial fault injected for pipeline self-test",
                )
            ]
        if not mismatches:
            continue

        if metrics is not None:
            metrics.inc("fuzz.failures")
        predicate = _shrink_predicate(
            case, brute_limit, inject_fault, backend
        )
        shrunk = shrink_circuit(case.circuit, predicate)
        failure = FuzzFailure(case=case, mismatches=mismatches, shrunk=shrunk)
        if out_dir is not None:
            comment = "\n".join(
                [f"fuzz repro: seed={seed} case={index} kind={case.kind}"]
                + [str(m) for m in mismatches[:8]]
            )
            failure.repro_path = str(
                dump_repro(
                    shrunk, out_dir, f"repro_s{seed}_c{index}", comment
                )
            )
            if metrics is not None:
                metrics.inc("fuzz.repros_dumped")
        result.failures.append(failure)
    return result


def _case_mismatches(
    case: FuzzCase,
    brute_limit: int,
    metrics,
    result: FuzzResult,
    backend: str = DEFAULT_BACKEND,
    kernels: str = "python",
) -> List[Mismatch]:
    if case.edits:
        result.incremental_sessions += 1
        return check_incremental(
            case.circuit,
            case.edits,
            metrics=metrics,
            backend=backend,
        )
    report: OracleReport = check_circuit(
        case.circuit, brute_limit=brute_limit, metrics=metrics,
        backend=backend, kernels=kernels,
    )
    result.targets += report.targets
    result.comparisons += report.comparisons
    return report.mismatches


def _shrink_predicate(
    case: FuzzCase,
    brute_limit: int,
    inject_fault: Optional[Fault],
    backend: str = DEFAULT_BACKEND,
) -> Callable[[Circuit], bool]:
    """Failure predicate the shrinker minimizes against.

    For an injected fault the artificial predicate *is* the failure; for
    oracle failures a candidate fails when any oracle mismatch persists
    (incremental cases replay the prefix of the edit script that is
    still applicable to the reduced circuit).
    """
    if inject_fault is not None:
        return inject_fault
    if case.edits:

        def failing_incremental(candidate: Circuit) -> bool:
            applicable = _applicable_edits(candidate, case.edits)
            if not applicable:
                return False
            return bool(
                check_incremental(candidate, applicable, backend=backend)
            )

        return failing_incremental

    def failing(candidate: Circuit) -> bool:
        return not check_circuit(
            candidate, brute_limit=brute_limit, backend=backend
        ).ok

    return failing


def _applicable_edits(
    circuit: Circuit, edits: Sequence[Edit]
) -> List[Edit]:
    """Longest prefix of ``edits`` whose name references still resolve."""
    known = set(circuit)
    out: List[Edit] = []
    for edit in edits:
        if isinstance(edit, AddGate):
            if edit.name in known or any(f not in known for f in edit.fanins):
                break
            known.add(edit.name)
        elif isinstance(edit, RemoveGate):
            if edit.name not in known:
                break
            known.discard(edit.name)
        elif isinstance(edit, Rewire):
            if edit.name not in known or any(
                f not in known for f in edit.fanins
            ):
                break
        else:
            break
        out.append(edit)
    return out
