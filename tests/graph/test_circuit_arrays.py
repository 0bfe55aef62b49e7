"""`Circuit` as a façade over its `CircuitArrays`.

Parsed and decoded circuits hold only arrays and materialize `Node`
records on demand; circuits built with `add_gate` compile their arrays
once, on the first derived query; a mutation drops them; pickles and
copies carry them.
"""

import pickle

import pytest

from repro.daemon.shm import decode_circuit, encode_circuit
from repro.errors import NotADagError, UnknownNodeError
from repro.graph.circuit import Circuit
from repro.graph.indexed import IndexedGraph
from repro.graph.node import NodeType
from repro.incremental import IncrementalEngine
from repro.parsers import bench
from repro.service.executor import ExecutorConfig, ParallelExecutor
from repro.service.hashing import circuit_fingerprint

TEXT = (
    "INPUT(a)\nINPUT(b)\nOUTPUT(o1)\nOUTPUT(o2)\n"
    "g = AND(a, b)\nh = OR(a, g)\no1 = NOT(h)\no2 = XOR(g, h)\n"
)


def _built():
    circuit = Circuit("built")
    circuit.add_input("a")
    circuit.add_input("b")
    circuit.add_gate("g", NodeType.AND, ["a", "b"])
    circuit.add_gate("h", NodeType.OR, ["a", "g"])
    circuit.add_gate("o1", NodeType.NOT, ["h"])
    circuit.add_gate("o2", NodeType.XOR, ["g", "h"])
    circuit.set_outputs(["o1", "o2"])
    return circuit


class TestLazyNodes:
    def test_parsed_circuit_holds_only_arrays(self):
        circuit = bench.loads(TEXT)
        assert circuit._records is None
        assert len(circuit) == 6
        assert "g" in circuit and "zz" not in circuit
        assert list(circuit) == ["a", "b", "g", "h", "o1", "o2"]
        assert circuit.gate_count() == 4
        assert circuit.fanouts("g") == ["h", "o2"]
        assert circuit.fanout_degree("a") == 2
        circuit.validate()
        assert circuit._records is None

    def test_derived_consumers_read_arrays(self):
        circuit = bench.loads(TEXT)
        circuit_fingerprint(circuit)
        IndexedGraph.from_circuit(circuit, "o2")
        IncrementalEngine.from_circuit(circuit, "o2")
        ParallelExecutor(ExecutorConfig(jobs=1)).sweep_circuit(circuit)
        decode_circuit(encode_circuit(circuit))
        assert circuit._records is None

    def test_nodes_materialize_once_and_agree(self):
        circuit = bench.loads(TEXT)
        assert circuit.node("o2").fanins == ("g", "h")
        records = circuit._records
        assert list(records) == list(circuit)
        assert circuit.node("a").type is NodeType.INPUT
        assert circuit._records is records
        assert circuit._arrays is not None  # reading keeps the arrays
        with pytest.raises(UnknownNodeError):
            circuit.node("zz")


class TestCompile:
    def test_compiles_once_on_first_derived_query(self):
        circuit = _built()
        assert circuit._arrays is None
        arrays = circuit.arrays()
        assert circuit.topological_order() == arrays.order
        assert circuit.arrays() is arrays

    def test_built_and_parsed_arrays_agree(self):
        built, parsed = _built().arrays(), bench.loads(TEXT).arrays()
        for field in ("order", "types", "pred", "succ", "index", "insertion"):
            assert getattr(built, field) == getattr(parsed, field)

    def test_mutation_drops_the_arrays(self):
        circuit = bench.loads(TEXT)
        circuit.add_gate("k", NodeType.NOT, ["o1"])
        assert circuit._arrays is None
        assert circuit.fanouts("o1") == ["k"]
        assert circuit.topological_order()[-1] == "k"

    def test_record_table_edits_drop_the_arrays(self):
        circuit = bench.loads(TEXT)
        del circuit._nodes["a"]
        with pytest.raises(UnknownNodeError):
            circuit.arrays()

    def test_cycle_raises_on_compile(self):
        circuit = Circuit("loop")
        circuit.add_input("a")
        circuit.add_gate("x", NodeType.AND, ["a", "y"])
        circuit.add_gate("y", NodeType.NOT, ["x"])
        with pytest.raises(NotADagError):
            circuit.arrays()


class TestSharing:
    def test_copy_shares_arrays_until_an_edit(self):
        circuit = bench.loads(TEXT)
        dup = circuit.copy()
        assert dup.arrays() is circuit.arrays()
        dup.add_input("c")
        assert "c" not in circuit
        assert circuit.arrays().order == bench.loads(TEXT).arrays().order

    @pytest.mark.parametrize("make", [lambda: bench.loads(TEXT), _built])
    def test_pickle_carries_the_arrays(self, make):
        circuit = make()
        circuit.arrays()
        circuit.nodes()
        clone = pickle.loads(pickle.dumps(circuit))
        assert clone._records is None
        assert clone.arrays().succ == circuit.arrays().succ
        assert clone.inputs == circuit.inputs
        assert clone.outputs == circuit.outputs
        assert list(clone) == list(circuit)
        assert circuit_fingerprint(clone) == circuit_fingerprint(circuit)

    def test_uncompiled_circuit_pickles_its_records(self):
        circuit = _built()
        clone = pickle.loads(pickle.dumps(circuit))
        assert clone.topological_order() == circuit.topological_order()
