"""The differential oracle: chain vs. baseline [11] vs. brute force.

Every check compares complete *sets of dominator pairs* (pair-for-pair)
and, for the chain, the per-vertex look-up structure (vector-for-vector):
each stored matching vector must reproduce the reference partner set, and
the O(1) ``(flag, index, min, max)`` membership test must flip exactly at
the interval boundaries — the first and last matching vector positions —
in both query directions.

The chain itself is computed by **two construction backends** (the
primary, by default the production ``linear`` backend, and its
counterpart — ``shared``, or ``legacy`` when the primary is ``shared``;
see :mod:`repro.dominators.shared`): every target's chain must be
identical between them — not just the same pair set but the same pair
vectors and intervals — so every fuzz case doubles as a
backend-equivalence proof.

A disagreement is reported as a :class:`Mismatch` record instead of an
exception so a fuzzing run can keep going, collect everything, and hand
the failing circuit to the shrinker.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set

from ..core.algorithm import ChainComputer
from ..core.baseline import baseline_double_dominators
from ..core.bruteforce import all_double_dominators
from ..core.chain import DominatorChain
from ..dominators import kernels as kernels_mod
from ..dominators.dynamic import certify_tree
from ..dominators.shared import DEFAULT_BACKEND, validate_backend
from ..errors import ReproError
from ..graph.circuit import Circuit
from ..graph.indexed import IndexedGraph
from ..graph.sequential import (
    PSEUDO_INPUT_PREFIX,
    PSEUDO_OUTPUT_PREFIX,
    SequentialCircuit,
    extract_combinational_core,
    unrolled,
)

#: Largest cone (vertex count) the O(n³)-ish brute-force enumeration is
#: asked to confirm; beyond it the oracle still cross-checks the chain
#: against the independent baseline algorithm [11].
DEFAULT_BRUTE_LIMIT = 48

PairSet = Set[FrozenSet[int]]
ChainFn = Callable[[IndexedGraph, int], DominatorChain]


def other_backend(backend: str) -> str:
    """The counterpart construction backend cross-run by the oracle.

    ``shared`` is checked against ``legacy`` (array views vs. per-call
    subgraph copies); ``legacy`` and ``linear`` are each checked
    against ``shared``, so every fuzz case on the linear backend proves
    it equivalent to the max-flow construction pair that brute force
    already guards.
    """
    return "legacy" if validate_backend(backend) == "shared" else "shared"


def diff_chains(
    a: DominatorChain, b: DominatorChain
) -> Optional[str]:
    """First structural divergence between two chains, or ``None``.

    "Structural" means the full serving contract: the ordered pair
    vectors *and* every vertex's matching interval, not just the
    unordered pair set.
    """
    if a.pairs != b.pairs:
        return f"pair vectors differ: {a.pairs} vs {b.pairs}"
    for v in a.vertices():
        if a.interval(v) != b.interval(v):
            return (
                f"interval of vertex {v} differs: "
                f"{a.interval(v)} vs {b.interval(v)}"
            )
    return None


@dataclass(frozen=True)
class Mismatch:
    """One observed disagreement between implementations.

    Attributes
    ----------
    kind:
        Discriminator: ``chain-vs-brute``, ``baseline-vs-brute``,
        ``chain-vs-baseline``, ``lookup`` (the O(1) membership structure
        disagrees with the chain's own pair set), ``backend`` (the
        primary and counterpart chain backends disagree), ``kernels``
        (the numpy and python hot-path implementations disagree),
        ``incremental``, ``certificate`` (the dominator tree fails its
        low-high certificate), ``sequential``
        (a combinational-core chain disagrees with the frame-0 chain of
        the time-frame unrolling) or ``crash`` (an implementation raised
        instead of answering).
    circuit / output / target:
        Where it happened, by name where names exist.
    detail:
        Human-readable one-liner pinpointing the first divergence.
    """

    kind: str
    circuit: str
    output: str
    target: str
    detail: str

    def __str__(self) -> str:
        where = f"{self.circuit}/{self.output}"
        if self.target:
            where += f" target {self.target}"
        return f"[{self.kind}] {where}: {self.detail}"


@dataclass
class OracleReport:
    """Outcome of one differential run over a whole circuit."""

    circuit: str
    cones: int = 0
    targets: int = 0
    comparisons: int = 0
    brute_confirmed: int = 0  # targets additionally checked by brute force
    mismatches: List[Mismatch] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.mismatches)} MISMATCH(ES)"
        return (
            f"{self.circuit}: {self.cones} cone(s), {self.targets} "
            f"target(s), {self.comparisons} comparison(s), "
            f"{self.brute_confirmed} brute-confirmed — {status}"
        )


def _name(graph: IndexedGraph, v: int) -> str:
    name = graph.names[v] if 0 <= v < len(graph.names) else None
    return name if name is not None else f"#{v}"


def _format_pairs(graph: IndexedGraph, pairs: PairSet, limit: int = 4) -> str:
    rendered = sorted(
        "{%s}" % ",".join(sorted(_name(graph, v) for v in pair))
        for pair in pairs
    )
    shown = ", ".join(rendered[:limit])
    if len(rendered) > limit:
        shown += f", ... (+{len(rendered) - limit})"
    return shown or "(none)"


def _diff_pairs(
    graph: IndexedGraph,
    kind: str,
    circuit: str,
    output: str,
    target: int,
    got: PairSet,
    want: PairSet,
    got_label: str,
    want_label: str,
) -> List[Mismatch]:
    if got == want:
        return []
    extra = got - want
    missing = want - got
    parts = []
    if extra:
        parts.append(
            f"{got_label} reports {_format_pairs(graph, extra)} "
            f"not found by {want_label}"
        )
    if missing:
        parts.append(
            f"{got_label} misses {_format_pairs(graph, missing)} "
            f"found by {want_label}"
        )
    return [
        Mismatch(kind, circuit, output, _name(graph, target), "; ".join(parts))
    ]


def check_chain_lookup(
    graph: IndexedGraph,
    chain: DominatorChain,
    circuit: str = "",
    output: str = "",
) -> List[Mismatch]:
    """Vector-for-vector audit of one chain's O(1) look-up structure.

    Validates, for every stored vertex *v* with interval ``(min, max)``:

    * ``matching_vector(v)`` equals the partner set implied by the
      chain's own enumerated pair set (order included: partners appear
      in opposite-side index order);
    * ``dominates`` answers True at both interval boundaries (the first
      and the last matching vector element) and False one position
      outside on either end — the off-by-one sentinels;
    * the membership test is symmetric (``dominates(v, w)`` iff
      ``dominates(w, v)``) and rejects same-side queries.
    """
    mismatches: List[Mismatch] = []
    target_name = _name(graph, chain.target)

    def report(detail: str) -> None:
        mismatches.append(
            Mismatch("lookup", circuit, output, target_name, detail)
        )

    partners: Dict[int, List[int]] = {v: [] for v in chain.vertices()}
    for v, w in chain.iter_dominator_pairs():
        partners[v].append(w)
        partners[w].append(v)

    enumerated = chain.pair_set()
    if len(enumerated) != chain.num_dominators():
        report(
            f"num_dominators()={chain.num_dominators()} but "
            f"{len(enumerated)} distinct pairs were enumerated"
        )

    for v in chain.vertices():
        vec = chain.matching_vector(v)
        if vec != partners[v]:
            report(
                f"matching_vector({_name(graph, v)}) = "
                f"{[_name(graph, w) for w in vec]} but enumeration gives "
                f"{[_name(graph, w) for w in partners[v]]}"
            )
            continue
        if not vec:
            report(f"vertex {_name(graph, v)} stored with empty interval")
            continue
        lo, hi = chain.interval(v)
        opposite = chain.side(2 if chain.flag(v) == 1 else 1)
        first, last = vec[0], vec[-1]
        if opposite[lo - 1] != first or opposite[hi - 1] != last:
            report(
                f"interval ({lo}, {hi}) of {_name(graph, v)} does not "
                f"select its first/last partners"
            )
        for w, label in ((first, "first"), (last, "last")):
            if not chain.dominates(v, w) or not chain.dominates(w, v):
                report(
                    f"{{{_name(graph, v)}, {_name(graph, w)}}} is the "
                    f"{label} matching pair but dominates() rejects it"
                )
        # Off-by-one sentinels just outside the interval.
        if lo >= 2 and chain.dominates(v, opposite[lo - 2]):
            report(
                f"dominates({_name(graph, v)}, "
                f"{_name(graph, opposite[lo - 2])}) accepted one position "
                f"before min={lo}"
            )
        if hi < len(opposite) and chain.dominates(v, opposite[hi]):
            report(
                f"dominates({_name(graph, v)}, {_name(graph, opposite[hi])})"
                f" accepted one position after max={hi}"
            )
        same_side = chain.side(chain.flag(v))
        if any(chain.dominates(v, w) for w in same_side):
            report(f"same-side pair accepted for {_name(graph, v)}")
    return mismatches


def check_low_high(
    graph: IndexedGraph,
    idom: Sequence[int],
    circuit: str = "",
    output: str = "",
) -> List[Mismatch]:
    """The fourth oracle: certify a dominator tree by low-high order.

    Builds a low-high order of ``idom`` over ``graph`` and verifies it
    together with the ancestor property and the exact reachable span
    (:mod:`repro.dominators.dynamic.lowhigh`) — one O(n + m) pass that
    *proves* the tree correct without re-running any dominator
    algorithm.  Unlike the differential comparisons this needs no second
    implementation to disagree with: the certificate is unconditional,
    so it also guards the single-dominator layer that all three chain
    producers share (a bug common to every backend would slip past the
    backend and baseline cross-checks but not past this).
    """
    return [
        Mismatch("certificate", circuit, output, "", detail)
        for detail in certify_tree(graph, idom)
    ]


def check_cone(
    graph: IndexedGraph,
    targets: Optional[Sequence[int]] = None,
    algorithm: str = "lt",
    brute_limit: int = DEFAULT_BRUTE_LIMIT,
    circuit: str = "",
    output: str = "",
    chain_fn: Optional[ChainFn] = None,
    report: Optional[OracleReport] = None,
    metrics=None,
    backend: str = DEFAULT_BACKEND,
    kernels: str = "python",
) -> List[Mismatch]:
    """Differential check of one single-output cone.

    Parameters
    ----------
    graph:
        The cone, in signal orientation.
    targets:
        Vertices to check (default: every primary input — the paper's
        Table 1 workload).
    brute_limit:
        Cones with more vertices skip the brute-force confirmation and
        rely on chain-vs-baseline cross-checking only.
    chain_fn:
        Override for the chain producer — the fault-injection hook the
        harness's own tests use.  Defaults to a
        :class:`ChainComputer` on ``backend``.  Providing it disables the
        backend-equivalence comparison (the oracle cannot know which
        backend the override represents).
    backend:
        Primary chain backend under test.  Every target is *also*
        computed with the counterpart backend and the two chains must be
        structurally identical (kind ``backend`` on divergence).
    kernels:
        Hot-path implementation of the primary computer.  Whenever
        numpy is importable (and ``chain_fn`` is not overridden), every
        target is additionally computed with the *opposite* kernels —
        with the kernel region threshold forced to 0, so even
        single-gate cones exercise the vectorized path — and compared
        structurally (kind ``kernels`` on divergence).
    """
    if report is None:
        report = OracleReport(circuit or "cone")
    mismatches: List[Mismatch] = []
    if targets is None:
        targets = graph.sources()
    target_list = list(targets)
    started = time.perf_counter()

    cross_computer: Optional[ChainComputer] = None
    kernel_computer: Optional[ChainComputer] = None
    kernel_label = ""
    if chain_fn is None:
        computer = ChainComputer(
            graph, algorithm, backend=backend, kernels=kernels
        )
        chain_fn = lambda g, u: computer.chain(u)  # noqa: E731
        cross_computer = ChainComputer(
            graph, algorithm, backend=other_backend(backend)
        )
        if kernels_mod.numpy_available():
            # Kernels differential: identical chains from the opposite
            # hot-path implementation, threshold forced to 0 so the
            # kernels run even on tiny fuzz regions.
            other_kernels = "python" if kernels == "numpy" else "numpy"
            kernel_backend = (
                backend if backend in ("shared", "linear") else "shared"
            )
            kernel_computer = ChainComputer(
                graph,
                algorithm,
                backend=kernel_backend,
                kernels=other_kernels,
            )
            kernel_label = f"{kernels} vs {other_kernels} kernels"

        # Fourth oracle: certify the cone's single-dominator tree once
        # per cone (the chain producers all consume this tree).
        report.comparisons += 1
        mismatches += check_low_high(graph, computer.tree.idom, circuit, output)

    try:
        per_target = baseline_double_dominators(
            graph, target_list, algorithm=algorithm
        )
    except ReproError as exc:
        mismatches.append(
            Mismatch(
                "crash", circuit, output, "", f"baseline raised: {exc!r}"
            )
        )
        per_target = {u: None for u in target_list}

    use_brute = graph.n <= brute_limit
    for u in target_list:
        report.targets += 1
        try:
            chain = chain_fn(graph, u)
            chain_pairs: Optional[PairSet] = chain.pair_set()
        except ReproError as exc:
            mismatches.append(
                Mismatch(
                    "crash",
                    circuit,
                    output,
                    _name(graph, u),
                    f"dominator chain raised: {exc!r}",
                )
            )
            chain = None
            chain_pairs = None
        baseline_pairs = per_target.get(u)
        brute_pairs: Optional[PairSet] = None
        if use_brute:
            brute_pairs = all_double_dominators(graph, u)
            report.brute_confirmed += 1

        if chain_pairs is not None and brute_pairs is not None:
            report.comparisons += 1
            mismatches += _diff_pairs(
                graph, "chain-vs-brute", circuit, output, u,
                chain_pairs, brute_pairs, "chain", "brute force",
            )
        if baseline_pairs is not None and brute_pairs is not None:
            report.comparisons += 1
            mismatches += _diff_pairs(
                graph, "baseline-vs-brute", circuit, output, u,
                baseline_pairs, brute_pairs, "baseline", "brute force",
            )
        if chain_pairs is not None and baseline_pairs is not None:
            report.comparisons += 1
            mismatches += _diff_pairs(
                graph, "chain-vs-baseline", circuit, output, u,
                chain_pairs, baseline_pairs, "chain", "baseline",
            )
        if chain is not None:
            report.comparisons += 1
            mismatches += check_chain_lookup(graph, chain, circuit, output)
        if chain is not None and cross_computer is not None:
            report.comparisons += 1
            try:
                cross = cross_computer.chain(u)
            except ReproError as exc:
                mismatches.append(
                    Mismatch(
                        "crash",
                        circuit,
                        output,
                        _name(graph, u),
                        f"{cross_computer.backend} backend raised: {exc!r}",
                    )
                )
            else:
                divergence = diff_chains(chain, cross)
                if divergence is not None:
                    mismatches.append(
                        Mismatch(
                            "backend",
                            circuit,
                            output,
                            _name(graph, u),
                            f"{backend} vs {cross_computer.backend}: "
                            + divergence,
                        )
                    )
        if chain is not None and kernel_computer is not None:
            report.comparisons += 1
            try:
                with kernels_mod.forced_region_threshold(0):
                    kernel_chain = kernel_computer.chain(u)
            except ReproError as exc:
                mismatches.append(
                    Mismatch(
                        "crash",
                        circuit,
                        output,
                        _name(graph, u),
                        f"{kernel_computer.kernels} kernels raised: "
                        f"{exc!r}",
                    )
                )
            else:
                divergence = diff_chains(chain, kernel_chain)
                if divergence is not None:
                    mismatches.append(
                        Mismatch(
                            "kernels",
                            circuit,
                            output,
                            _name(graph, u),
                            f"{kernel_label}: " + divergence,
                        )
                    )

    if metrics is not None:
        metrics.inc("check.cones")
        metrics.inc("check.targets", len(target_list))
        if mismatches:
            metrics.inc("check.mismatches", len(mismatches))
        metrics.observe("check.cone_seconds", time.perf_counter() - started)
    report.cones += 1
    report.mismatches.extend(mismatches)
    return mismatches


def check_circuit(
    circuit: Circuit,
    outputs: Optional[Sequence[str]] = None,
    algorithm: str = "lt",
    brute_limit: int = DEFAULT_BRUTE_LIMIT,
    metrics=None,
    backend: str = DEFAULT_BACKEND,
    kernels: str = "python",
) -> OracleReport:
    """Differential check of every requested output cone of a netlist."""
    report = OracleReport(circuit.name)
    for out in outputs if outputs is not None else circuit.outputs:
        graph = IndexedGraph.from_circuit(circuit, out)
        check_cone(
            graph,
            algorithm=algorithm,
            brute_limit=brute_limit,
            circuit=circuit.name,
            output=out,
            report=report,
            metrics=metrics,
            backend=backend,
            kernels=kernels,
        )
    return report


def check_incremental(
    circuit: Circuit,
    edits: Sequence,
    output: Optional[str] = None,
    algorithm: str = "lt",
    metrics=None,
    backend: str = DEFAULT_BACKEND,
) -> List[Mismatch]:
    """Cross-check the incremental engine against from-scratch results.

    Applies ``edits`` one record at a time to an
    :class:`~repro.incremental.IncrementalEngine` session and, after
    every edit, compares the engine's chains for all live primary inputs
    against a fresh :class:`ChainComputer` on the same (edited) graph —
    pair sets, pair vectors and intervals must be identical — and runs
    the low-high certificate on the engine's maintained tree (kind
    ``certificate`` on failure).

    The engine runs on ``backend``; the from-scratch reference runs on
    the *counterpart* backend, so each step also cross-checks the two
    construction backends on the edited (not freshly extracted) graph —
    the one shape the pure-fuzz oracle path never sees.  ``algorithm``
    selects the single-dominator algorithm of that reference.
    """
    from ..incremental import IncrementalEngine

    engine = IncrementalEngine.from_circuit(circuit, output, backend=backend)
    out_name = output or (circuit.outputs[0] if circuit.outputs else "")
    mismatches: List[Mismatch] = []
    engine.chains_for_sources()  # warm the cache pre-edit
    for step, edit in enumerate(edits, 1):
        engine.apply(edit)
        fresh = ChainComputer(
            engine.graph, algorithm, backend=other_backend(backend)
        )
        for detail in engine.check_certificate():
            mismatches.append(
                Mismatch(
                    "certificate",
                    circuit.name,
                    out_name,
                    "",
                    f"after edit {step}: " + detail,
                )
            )
        tree = engine.tree
        for u in engine.graph.sources():
            if not tree.is_reachable(u):
                continue
            incremental = engine.chain(u)
            scratch = fresh.chain(u)
            if incremental.pair_set() != scratch.pair_set():
                mismatches += _diff_pairs(
                    engine.graph,
                    "incremental",
                    circuit.name,
                    out_name,
                    u,
                    incremental.pair_set(),
                    scratch.pair_set(),
                    f"incremental (after edit {step})",
                    "from-scratch",
                )
                continue
            if incremental.pairs != scratch.pairs or any(
                incremental.interval(v) != scratch.interval(v)
                for v in incremental.vertices()
            ):
                mismatches.append(
                    Mismatch(
                        "incremental",
                        circuit.name,
                        out_name,
                        _name(engine.graph, u),
                        f"after edit {step}: same pair set but different "
                        "chain layout (pair vectors or intervals differ)",
                    )
                )
    if metrics is not None:
        metrics.inc("check.incremental_sessions")
        if mismatches:
            metrics.inc("check.mismatches", len(mismatches))
    return mismatches


def _frame0_name(sequential: SequentialCircuit, core_net: str) -> str:
    """Frame-0 time-frame name of a combinational-core net.

    Flop outputs become frame-0 pseudo-inputs (``q`` → ``ppi_q@0``);
    every other net — primary inputs and gates alike — is simply stamped
    with the frame suffix (``n`` → ``n@0``).
    """
    if core_net in sequential.flops:
        return f"{PSEUDO_INPUT_PREFIX}{core_net}@0"
    return f"{core_net}@0"


def _core_net_name(unrolled_net: str) -> str:
    """Inverse of :func:`_frame0_name` for frame-0 nets."""
    base = unrolled_net[:-2] if unrolled_net.endswith("@0") else unrolled_net
    if base.startswith(PSEUDO_INPUT_PREFIX):
        return base[len(PSEUDO_INPUT_PREFIX):]
    return base


def check_sequential(
    sequential: SequentialCircuit,
    frames: int = 2,
    algorithm: str = "lt",
    metrics=None,
    backend: str = DEFAULT_BACKEND,
    kernels: str = "python",
) -> OracleReport:
    """Kind ``sequential``: core vs. unrolled-frame-0 chain agreement.

    The flop-cut combinational core and the ``frames``-deep time-frame
    unrolling describe the same frame-0 logic under two name spaces:
    core net ``n`` is unrolled net ``n@0``, except flop outputs ``q``
    which become the frame-0 pseudo-inputs ``ppi_q@0``.  Because frame 0
    reads only frame-0 nets, the frame-0 cone of every core output is
    isomorphic to the core's own cone — so for every cone source the
    two dominator chains must carry the *same pair set* once both sides
    are mapped back to core net names.  Any divergence means the
    unroller rewired a frame (the historical flop-to-flop bug) or the
    chain construction is sensitive to graph relabelling; either is
    reported as kind ``sequential``.

    One cone pair is checked per core output: original primary outputs
    are compared root-to-root, and each next-state output ``ppo_q``
    (a buffer the core adds over the flop's data input) is compared
    against the frame-0 cone of that data input — the buffer only
    prepends a single-dominator, never a pair, so pair sets still agree.

    Returns an :class:`OracleReport`; ``report.ok`` is the pass signal.
    """
    core = extract_combinational_core(sequential)
    expanded = unrolled(sequential, frames)
    report = OracleReport(f"{sequential.name}[core-vs-unroll:{frames}]")
    started = time.perf_counter()
    for out in core.outputs:
        if out.startswith(PSEUDO_OUTPUT_PREFIX):
            seed = sequential.flops[out[len(PSEUDO_OUTPUT_PREFIX):]]
        else:
            seed = out
        core_graph = IndexedGraph.from_circuit(core, out)
        frame_graph = IndexedGraph.from_circuit(
            expanded, _frame0_name(sequential, seed)
        )
        core_chains = ChainComputer(
            core_graph, algorithm, backend=backend, kernels=kernels
        )
        frame_chains = ChainComputer(
            frame_graph, algorithm, backend=backend, kernels=kernels
        )
        report.cones += 1

        # Root-as-source entries stay in (a cone whose root is itself an
        # input — e.g. the frame-0 cone of a flop that latches a bare
        # input): their chains are trivially empty on both sides, but
        # excluding them would make the source sets diverge because the
        # core wraps every next-state net in a ppo_* buffer while the
        # unrolling exposes the net directly.
        core_sources = {
            core_graph.name_of(u): u for u in core_graph.sources()
        }
        frame_sources = {
            _core_net_name(frame_graph.name_of(u)): u
            for u in frame_graph.sources()
        }
        report.comparisons += 1
        if set(core_sources) != set(frame_sources):
            report.mismatches.append(
                Mismatch(
                    "sequential",
                    sequential.name,
                    out,
                    "",
                    f"cone sources differ: core has "
                    f"{sorted(set(core_sources) - set(frame_sources))} "
                    f"missing from frame 0, frame 0 has "
                    f"{sorted(set(frame_sources) - set(core_sources))} "
                    f"missing from the core",
                )
            )

        for name in sorted(set(core_sources) & set(frame_sources)):
            report.targets += 1
            report.comparisons += 1
            try:
                core_pairs = {
                    frozenset(core_graph.name_of(v) for v in pair)
                    for pair in core_chains.chain(core_sources[name]).pair_set()
                }
                frame_pairs = {
                    frozenset(
                        _core_net_name(frame_graph.name_of(v)) for v in pair
                    )
                    for pair in frame_chains.chain(
                        frame_sources[name]
                    ).pair_set()
                }
            except ReproError as exc:
                report.mismatches.append(
                    Mismatch(
                        "crash",
                        sequential.name,
                        out,
                        name,
                        f"sequential chain raised: {exc!r}",
                    )
                )
                continue
            if core_pairs != frame_pairs:
                extra = core_pairs - frame_pairs
                missing = frame_pairs - core_pairs
                parts = []
                if extra:
                    parts.append(
                        f"core-only pairs: "
                        + ", ".join(
                            sorted("{%s}" % ",".join(sorted(p)) for p in extra)
                        )
                    )
                if missing:
                    parts.append(
                        f"frame-0-only pairs: "
                        + ", ".join(
                            sorted(
                                "{%s}" % ",".join(sorted(p)) for p in missing
                            )
                        )
                    )
                report.mismatches.append(
                    Mismatch(
                        "sequential",
                        sequential.name,
                        out,
                        name,
                        "; ".join(parts),
                    )
                )
    if metrics is not None:
        metrics.inc("check.sequential_circuits")
        metrics.inc("check.targets", report.targets)
        if report.mismatches:
            metrics.inc("check.mismatches", len(report.mismatches))
        metrics.observe(
            "check.sequential_seconds", time.perf_counter() - started
        )
    return report
