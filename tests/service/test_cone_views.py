"""Sweeps over cone views: one set of circuit arrays, one region table.

Every cone of a sweep is a :class:`~repro.dominators.shared.ConeView` of
one :class:`~repro.dominators.shared.CircuitScratch`; these tests pin
that its chains are the per-cone reference's, byte for byte, that a
region ``(entry, sink)`` is expanded once per sweep, and the fallback
and staleness rules.
"""

import json

import pytest

import repro.service.executor as executor_mod
from repro.circuits.suite import set_seed_offset, table1_suite
from repro.core.algorithm import ChainComputer
from repro.dominators.shared import (
    CircuitScratch,
    cone_graph,
)
from repro.errors import CircuitError, UnknownNodeError
from repro.graph.circuit import Circuit
from repro.graph.indexed import IndexedGraph
from repro.graph.node import NodeType
from repro.service import (
    ArtifactStore,
    ExecutorConfig,
    MetricsRegistry,
    ParallelExecutor,
)
from repro.service.hashing import circuit_fingerprint


def _circuit(name, inputs, gates, outputs):
    circuit = Circuit(name)
    for pi in inputs:
        circuit.add_input(pi)
    for gate, kind, fanins in gates:
        circuit.add_gate(gate, kind, fanins)
    circuit.set_outputs(outputs)
    return circuit


def reference(circuit, outputs=None):
    """Per-cone chains from a ChainComputer over a materialized cone."""
    out = {}
    for output in outputs or circuit.outputs:
        graph = IndexedGraph.from_circuit(circuit, output)
        computer = ChainComputer(graph)
        out[output] = {
            graph.name_of(u): computer.chain(u).to_dict()
            for u in graph.sources()
        }
    return out


def sweep(circuit, metrics=None):
    executor = ParallelExecutor(ExecutorConfig(jobs=1), metrics=metrics)
    return {r.output: r.chains for r in executor.sweep_circuit(circuit)}


def nested():
    """``o2 = NOT(o1)``: cone o2 holds cone o1 and both regions of it."""
    return _circuit(
        "nested",
        ["a", "b"],
        [
            ("g1", NodeType.AND, ("a", "b")),
            ("g2", NodeType.OR, ("a", "b")),
            ("o1", NodeType.AND, ("g1", "g2")),
            ("o2", NodeType.NOT, ("o1",)),
        ],
        ["o1", "o2"],
    )


def split_idom():
    """``idom(a)`` is o1 in cone o1 and o2 in cone o2."""
    return _circuit(
        "split",
        ["a", "b"],
        [
            ("g1", NodeType.AND, ("a", "b")),
            ("g2", NodeType.OR, ("a", "b")),
            ("g3", NodeType.XOR, ("a", "b")),
            ("o1", NodeType.AND, ("g1", "g2")),
            ("o2", NodeType.AND, ("g1", "g3")),
        ],
        ["o1", "o2"],
    )


def cascade(stages):
    """A chain ``c_i = AND(c_{i-1}, p_i)`` whose inputs all also feed the
    output: each input's NCA walk climbs the rest of the chain, so the
    tree sweep's steps grow with the square of the stage count."""
    inputs = [f"p{i}" for i in range(stages)]
    gates = [("c0", NodeType.BUF, ("p0",))]
    for i in range(1, stages):
        gates.append((f"c{i}", NodeType.AND, (f"c{i - 1}", f"p{i}")))
    gates.append(("out", NodeType.OR, tuple([f"c{stages - 1}"] + inputs)))
    return _circuit("cascade", inputs, gates, ["out"])


class TestChains:
    def test_suite_sweep_is_byte_identical_to_reference(self):
        for name, entry in table1_suite().items():
            circuit = entry.circuit(0.05)
            assert json.dumps(sweep(circuit)) == json.dumps(
                reference(circuit)
            ), name

    def test_second_seed_and_scale(self):
        set_seed_offset(1)
        try:
            suite = table1_suite()
            for name in ("C432", "alu4", "x1", "too_large"):
                circuit = suite[name].circuit(0.2)
                assert json.dumps(sweep(circuit)) == json.dumps(
                    reference(circuit)
                ), name
        finally:
            set_seed_offset(0)

    def test_explicit_targets(self):
        circuit = table1_suite()["alu2"].circuit(0.2)
        views = CircuitScratch(circuit.arrays())
        output = circuit.outputs[0]
        full = reference(circuit, [output])[output]
        targets = sorted(full)[::2]
        chains = executor_mod.view_cone_chains(views, output, targets)
        assert chains == {t: full[t] for t in targets}
        with pytest.raises(UnknownNodeError):
            executor_mod.view_cone_chains(views, output, ["no_such_net"])
        with pytest.raises(UnknownNodeError):
            views.view("no_such_output")

    def test_chain_metrics_count_every_chain(self):
        circuit = table1_suite()["cordic"].circuit(0.2)
        metrics = MetricsRegistry()
        chains = sum(len(c) for c in sweep(circuit, metrics).values())
        snapshot = metrics.snapshot()
        assert chains > 0
        assert snapshot["counters"]["core.chains_computed"] == chains
        assert snapshot["histograms"]["core.chain_seconds"]["count"] == chains


class TestRegionTable:
    def test_shared_entry_and_sink_expand_once(self):
        circuit = nested()
        metrics = MetricsRegistry()
        assert sweep(circuit, metrics) == reference(circuit)
        # (a, o1) and (b, o1), once for both cones; a per-cone sweep
        # expands each twice.
        assert metrics.snapshot()["counters"]["core.region_expansions"] == 2

    def test_an_idom_that_differs_between_cones_gets_two_records(self):
        circuit = split_idom()
        metrics = MetricsRegistry()
        assert sweep(circuit, metrics) == reference(circuit)
        assert metrics.snapshot()["counters"]["core.region_expansions"] == 4
        views = CircuitScratch(circuit.arrays())
        index = views.index.index
        for output in circuit.outputs:
            view = views.view(output)
            computer = ChainComputer(view)
            for u in view.sources():
                computer.chain(u)
        a = index["a"]
        assert (a, index["o1"]) in views.regions
        assert (a, index["o2"]) in views.regions


class TestViews:
    def test_cascade_past_the_tree_budget_falls_back(self):
        circuit = cascade(100)
        views = CircuitScratch(circuit.arrays())
        assert views.view("out") is None
        metrics = MetricsRegistry()
        assert sweep(circuit, metrics) == reference(circuit)
        counters = metrics.snapshot()["counters"]
        assert counters["executor.view_fallbacks"] == 1

    def test_a_view_does_not_outlive_its_cone(self):
        circuit = nested()
        views = CircuitScratch(circuit.arrays())
        first = views.view("o1")
        computer = ChainComputer(first)
        computer.chain(first.sources()[0])
        views.view("o2")
        with pytest.raises(CircuitError):
            computer.chain(first.sources()[0])
        with pytest.raises(CircuitError):
            first.index_of("a")

    def test_a_view_takes_no_other_options(self):
        circuit = nested()
        view = CircuitScratch(circuit.arrays()).view(
            "o1"
        )
        for options in (
            {"backend": "shared"},
            {"cache_regions": False},
            {"shared_index": False},
        ):
            with pytest.raises(ValueError):
                ChainComputer(view, **options)

    def test_view_tree_matches_the_materialized_tree(self):
        circuit = table1_suite()["C432"].circuit(0.2)
        views = CircuitScratch(circuit.arrays())
        for output in circuit.outputs:
            view = views.view(output)
            tree = ChainComputer(view).tree
            want = ChainComputer(cone_graph(circuit, output)).tree
            assert tree.idom == want.idom
            assert tree.root == want.root

    def test_every_suite_cone_graph_is_unchanged(self):
        for name, entry in table1_suite().items():
            circuit = entry.circuit(0.05)
            for output in circuit.outputs:
                got = cone_graph(circuit, output)
                want = IndexedGraph.from_circuit(circuit, output)
                assert got.names == want.names, (name, output)
                assert got.succ == want.succ, (name, output)
                assert got.root == want.root, (name, output)


class TestFingerprint:
    def test_store_less_sweep_never_hashes(self, monkeypatch):
        calls = []

        def counted(circuit):
            calls.append(circuit.name)
            return circuit_fingerprint(circuit)

        monkeypatch.setattr(executor_mod, "circuit_fingerprint", counted)
        circuit = nested()
        sweep(circuit)
        assert calls == []

    def test_stored_artifacts_keep_their_keys(self, tmp_path, monkeypatch):
        calls = []

        def counted(circuit):
            calls.append(circuit.name)
            return circuit_fingerprint(circuit)

        monkeypatch.setattr(executor_mod, "circuit_fingerprint", counted)
        circuit = nested()
        store = ArtifactStore(str(tmp_path))
        executor = ParallelExecutor(ExecutorConfig(jobs=1), store=store)
        executor.sweep_circuit(circuit)
        assert calls == ["nested"]
        want = reference(circuit)
        key = circuit_fingerprint(circuit)
        for output in circuit.outputs:
            assert store.get(key, output) == want[output]
        # A caller-supplied key is used as is, with no hashing.
        executor.sweep_circuit(circuit, circuit_key="caller-key")
        assert calls == ["nested"]
        assert store.get("caller-key", "o1") == want["o1"]
