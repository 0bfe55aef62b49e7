"""Tests for the differential oracle (repro.check.oracle)."""

import pytest

from repro.check import (
    check_circuit,
    check_cone,
    check_incremental,
    check_sweep,
)
from repro.check.oracle import Mismatch, check_chain_lookup
from repro.circuits.figures import FIGURE2_PAIRS, figure1_circuit, figure2_circuit
from repro.core.algorithm import ChainComputer, dominator_chain
from repro.core.chain import ChainPair, DominatorChain
from repro.dominators.shared import CircuitScratch
from repro.errors import ChainConstructionError
from repro.graph import IndexedGraph
from repro.graph.circuit import Circuit
from repro.graph.node import NodeType
from repro.incremental.edits import AddGate, Rewire
from repro.service.metrics import MetricsRegistry


class TestCheckCircuit:
    def test_figure2_agrees(self):
        report = check_circuit(figure2_circuit())
        assert report.ok
        assert report.cones == 1
        assert report.targets >= 1
        assert report.comparisons > 0
        assert report.brute_confirmed >= 1
        assert "OK" in report.summary()

    def test_figure1_agrees(self):
        assert check_circuit(figure1_circuit()).ok

    def test_brute_limit_skips_confirmation(self):
        report = check_circuit(figure2_circuit(), brute_limit=1)
        assert report.ok  # chain-vs-baseline still cross-checks
        assert report.brute_confirmed == 0

    def test_metrics_threaded(self):
        metrics = MetricsRegistry()
        check_circuit(figure2_circuit(), metrics=metrics)
        snap = metrics.snapshot()
        assert snap["counters"]["check.cones"] == 1
        assert snap["counters"]["check.targets"] >= 1
        assert "check.cone_seconds" in snap["histograms"]


def _split_idom():
    """``idom(a)`` is o1 in cone o1 and o2 in cone o2; the two regions
    of ``a`` hold different vertices under the same cone-local ids."""
    circuit = Circuit("split")
    for name in "abc":
        circuit.add_input(name)
    for name, kind, fanins in (
        ("g1", NodeType.AND, ("a", "b")),
        ("g2", NodeType.OR, ("a", "b")),
        ("g3", NodeType.XOR, ("a", "c")),
        ("o1", NodeType.AND, ("g1", "g2")),
        ("o2", NodeType.AND, ("g1", "g3")),
    ):
        circuit.add_gate(name, kind, fanins)
    circuit.set_outputs(["o1", "o2"])
    return circuit


class _EntryKeyed(dict):
    """A faulty region table keyed on the entry alone."""

    def get(self, key, default=None):
        return dict.get(self, key[0], default)

    def __setitem__(self, key, value):
        dict.__setitem__(self, key[0], value)


class TestSweepKind:
    def test_sweep_agrees_with_the_per_cone_reference(self):
        assert check_sweep(_split_idom()) == []
        report = check_circuit(_split_idom())
        assert report.ok, report.summary()

    def test_record_reused_under_another_sink_is_reported(self, monkeypatch):
        # Seeded fault: cone o2 is served cone o1's record of entry a.
        init = CircuitScratch.__init__

        def faulty(self, index):
            init(self, index)
            self.regions = _EntryKeyed()

        monkeypatch.setattr(CircuitScratch, "__init__", faulty)
        report = check_circuit(_split_idom())
        kinds = {m.kind for m in report.mismatches}
        assert kinds == {"sweep"}
        assert all(m.output == "o2" for m in report.mismatches)


class TestFaultDetection:
    """An intentionally wrong chain producer must be caught."""

    def test_empty_chain_fault(self):
        graph = IndexedGraph.from_circuit(figure2_circuit())

        def empty_chain(g, u):
            return DominatorChain(u, [], {})

        mismatches = check_cone(graph, chain_fn=empty_chain)
        assert mismatches
        assert any(m.kind == "chain-vs-brute" for m in mismatches)

    def test_wrong_target_chain_fault(self):
        graph = IndexedGraph.from_circuit(figure2_circuit())
        computer = ChainComputer(graph)
        u = graph.index_of("u")

        def shifted(g, target):
            # Return u's chain truncated to its first pair only.
            real = computer.chain(target)
            if target != u or not real.pairs:
                return real
            pair = real.pairs[0]
            intervals = {v: real.interval(v) for v in pair.vertices()}
            return DominatorChain(target, [pair], intervals)

        mismatches = check_cone(graph, targets=[u], chain_fn=shifted)
        assert any(m.kind == "chain-vs-brute" for m in mismatches)
        assert any("misses" in m.detail for m in mismatches)

    def test_crash_reported_not_raised(self):
        graph = IndexedGraph.from_circuit(figure2_circuit())

        def boom(g, u):
            raise ChainConstructionError("synthetic crash")

        mismatches = check_cone(graph, chain_fn=boom)
        assert mismatches
        assert all(m.kind == "crash" for m in mismatches)
        assert "synthetic crash" in mismatches[0].detail

    def test_mismatch_str_mentions_location(self):
        m = Mismatch("lookup", "c17", "out", "n3", "boom")
        assert "c17/out" in str(m)
        assert "n3" in str(m)


class TestChainLookup:
    def test_figure2_lookup_clean(self):
        graph = IndexedGraph.from_circuit(figure2_circuit())
        chain = dominator_chain(graph, graph.index_of("u"))
        assert check_chain_lookup(graph, chain) == []
        # And the chain's pair set is exactly the paper's list.
        want = {
            frozenset((graph.index_of(a), graph.index_of(b)))
            for a, b in FIGURE2_PAIRS
        }
        assert chain.pair_set() == want

    def test_lookup_catches_count_inconsistency(self):
        graph = IndexedGraph.from_circuit(figure2_circuit())
        chain = dominator_chain(graph, graph.index_of("u"))

        class Broken:
            """Proxy reporting one dominator too many."""

            def __getattr__(self, name):
                return getattr(chain, name)

            def num_dominators(self):
                return chain.num_dominators() + 1

        mismatches = check_chain_lookup(graph, Broken())
        assert any("num_dominators" in m.detail for m in mismatches)

    def test_lookup_catches_interval_off_by_one(self):
        graph = IndexedGraph.from_circuit(figure2_circuit())
        chain = dominator_chain(graph, graph.index_of("u"))

        class Widened:
            """Proxy stretching every max(v) one position too far."""

            def __getattr__(self, name):
                return getattr(chain, name)

            def dominates(self, v1, v2):
                if chain.dominates(v1, v2):
                    return True
                # Accept one extra position past max(v1).
                lo, hi = chain.interval(v1)
                return (
                    v2 in chain
                    and chain.flag(v1) != chain.flag(v2)
                    and chain.index(v2) == hi + 1
                )

        mismatches = check_chain_lookup(graph, Widened())
        assert any("accepted one position after" in m.detail for m in mismatches)


class TestCheckIncremental:
    def test_valid_edits_agree(self):
        circuit = figure2_circuit()
        edits = [
            AddGate("x1", ("m", "n"), "and"),
            Rewire("f", ("m", "n", "x1")),
        ]
        assert check_incremental(circuit, edits) == []

    def test_metrics_counted(self):
        metrics = MetricsRegistry()
        check_incremental(
            figure2_circuit(), [AddGate("x1", ("m",), "buf")], metrics=metrics
        )
        snap = metrics.snapshot()
        assert snap["counters"]["check.incremental_sessions"] == 1


class TestBackendCrossCheck:
    """Every oracle pass runs both construction backends per target."""

    def test_other_backend_roundtrip(self):
        from repro.check.oracle import other_backend

        assert other_backend("shared") == "legacy"
        assert other_backend("legacy") == "shared"
        with pytest.raises(ValueError):
            other_backend("turbo")

    def test_default_primary_is_linear_crossed_with_shared(self, monkeypatch):
        import repro.check.oracle as oracle_mod
        from repro.check.fuzzer import run_fuzz

        assert oracle_mod.other_backend("linear") == "shared"
        built = []

        class Recording(ChainComputer):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append((self.backend, self.kernels))

        monkeypatch.setattr(oracle_mod, "ChainComputer", Recording)
        assert check_circuit(figure2_circuit()).ok
        assert built[:2] == [("linear", "python"), ("shared", "python")]
        built.clear()
        assert run_fuzz(seed=0, cases=3).ok
        assert built[:2] == [("linear", "python"), ("shared", "python")]

    def test_both_primary_backends_pass(self):
        for backend in ("shared", "legacy"):
            report = check_circuit(figure2_circuit(), backend=backend)
            assert report.ok, [str(m) for m in report.mismatches]

    def test_diff_chains_reports_divergence(self):
        from repro.check.oracle import diff_chains

        a = DominatorChain(0, [ChainPair((1,), (2,))], {1: (1, 1), 2: (1, 1)})
        b = DominatorChain(0, [ChainPair((1,), (3,))], {1: (1, 1), 3: (1, 1)})
        assert diff_chains(a, a) is None
        assert "pair vectors differ" in diff_chains(a, b)
        wide = {1: (1, 2), 2: (1, 1), 3: (1, 1)}
        narrow = {1: (1, 1), 2: (1, 1), 3: (1, 1)}
        c = DominatorChain(0, [ChainPair((1,), (2, 3))], wide)
        d = DominatorChain(0, [ChainPair((1,), (2, 3))], narrow)
        assert "interval" in diff_chains(c, d)

    def test_injected_backend_divergence_is_caught(self, monkeypatch):
        # Force the comparison to report a divergence: the oracle must
        # surface it as a ``backend`` mismatch tied to the target.
        import repro.check.oracle as oracle_mod

        monkeypatch.setattr(
            oracle_mod, "diff_chains", lambda a, b: "forced divergence"
        )
        report = check_circuit(figure2_circuit())
        assert not report.ok
        assert any(m.kind == "backend" for m in report.mismatches)
        assert any("forced divergence" in m.detail for m in report.mismatches)

    def test_chain_fn_override_disables_cross_check(self):
        graph = IndexedGraph.from_circuit(figure2_circuit())
        computer = ChainComputer(graph)
        mismatches = check_cone(graph, chain_fn=lambda g, u: computer.chain(u))
        assert mismatches == []

    def test_incremental_backend_param(self):
        circuit = figure2_circuit()
        edits = [AddGate("x1", ("m", "n"), "and")]
        for backend in ("shared", "legacy"):
            assert check_incremental(circuit, edits, backend=backend) == []


class TestSequentialOracle:
    """Kind ``sequential``: core vs. unrolled-frame-0 chain agreement."""

    def test_suite_and_sequential_cores_confirmed(self):
        from repro.circuits import get_benchmark, sequential_suite
        from repro.graph.sequential import extract_combinational_core

        circuits = [
            get_benchmark(name, scale=0.25) for name in ("alu2", "comp", "cmb")
        ]
        circuits += [
            extract_combinational_core(entry.sequential(0.25))
            for entry in sequential_suite().values()
        ]
        for circuit in circuits:
            report = check_circuit(circuit)
            assert report.ok, report.mismatches[:3]

    def test_generators_agree(self):
        from repro.check import check_sequential
        from repro.circuits.generators import (
            lfsr,
            pipelined_alu,
            shift_register,
        )
        from repro.graph.sequential import extract_combinational_core

        for seq in (shift_register(4), lfsr(5), pipelined_alu(3, 2)):
            for frames in (1, 2, 4):
                report = check_sequential(seq, frames=frames)
                assert report.ok, report.mismatches[:3]
                assert report.cones == len(
                    extract_combinational_core(seq).outputs
                )
                assert report.targets > 0

    def test_suite_entries_agree(self):
        from repro.check import check_sequential
        from repro.circuits import sequential_suite

        for entry in sequential_suite().values():
            report = check_sequential(entry.sequential(0.25), frames=2)
            assert report.ok, report.mismatches[:3]

    def test_miswired_unrolling_detected(self, monkeypatch):
        # Simulate a broken unroller by feeding the oracle an unrolling
        # whose frame-0 logic reads the wrong tap (the shape the
        # historical rename bug produced): the primary-output cone's
        # source set diverges from the core.
        import repro.check.oracle as oracle_mod
        from repro.check import check_sequential
        from repro.circuits.generators import shift_register
        from repro.graph.circuit import Circuit
        from repro.graph.node import NodeType
        from repro.graph.sequential import SequentialCircuit
        from repro.graph.sequential import unrolled as real_unrolled

        def skewed(seq, frames):
            comb = Circuit(seq.combinational.name)
            comb.add_input("d")
            for i in range(4):
                comb.add_input(f"q{i}")
            comb.add_gate("so", NodeType.NOT, ["d"])  # wrong tap
            comb.set_outputs(["so"])
            broken = SequentialCircuit(
                name=seq.name,
                combinational=comb,
                flops=dict(seq.flops),
                primary_inputs=list(seq.primary_inputs),
                primary_outputs=list(seq.primary_outputs),
            )
            return real_unrolled(broken, frames)

        monkeypatch.setattr(oracle_mod, "unrolled", skewed)
        report = check_sequential(shift_register(4), frames=2)
        assert not report.ok
        assert any(m.kind == "sequential" for m in report.mismatches)

    def test_metrics_threaded(self):
        from repro.check import check_sequential
        from repro.circuits.generators import shift_register

        metrics = MetricsRegistry()
        check_sequential(shift_register(3), frames=2, metrics=metrics)
        snap = metrics.snapshot()
        assert snap["counters"]["check.sequential_circuits"] == 1
        assert "check.sequential_seconds" in snap["histograms"]
