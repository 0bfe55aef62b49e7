"""Shared-memory circuit publication: codec, pool, attach cache."""

import pytest

from repro.circuits.generators import random_circuit
from repro.core.algorithm import ChainComputer
from repro.daemon.shm import (
    CircuitRef,
    SharedCircuitPool,
    attach_circuit,
    attached_segments,
    decode_circuit,
    detach_all,
    detach_circuit,
    encode_circuit,
    shared_memory_available,
)
from repro.dominators.shared import cone_graph
from repro.graph.circuit import Circuit
from repro.graph.indexed import IndexedGraph
from repro.graph.node import NodeType
from repro.incremental import IncrementalEngine
from repro.incremental.edits import AddGate
from repro.service.hashing import circuit_fingerprint
from repro.service.metrics import MetricsRegistry

needs_shm = pytest.mark.skipif(
    not shared_memory_available(), reason="no shared memory on this platform"
)


def _circuit(seed=11, outputs=3):
    return random_circuit(
        num_inputs=4,
        num_gates=25,
        num_outputs=outputs,
        seed=seed,
        name=f"shm_{seed}",
    )


class TestCodec:
    def test_round_trip_is_structurally_identical(self):
        circuit = _circuit()
        decoded = decode_circuit(encode_circuit(circuit))
        assert circuit_fingerprint(decoded) == circuit_fingerprint(circuit)
        assert decoded.inputs == circuit.inputs
        assert decoded.outputs == circuit.outputs
        assert decoded.name == circuit.name
        # The decoder installs the publisher's topological order, which
        # is what keeps every downstream vertex numbering identical.
        assert decoded.topological_order() == circuit.topological_order()

    def test_round_trip_preserves_chains_bit_identically(self):
        circuit = _circuit(seed=5)
        decoded = decode_circuit(encode_circuit(circuit))
        for out in circuit.outputs:
            ref_graph = IndexedGraph.from_circuit(circuit, out)
            dec_graph = IndexedGraph.from_circuit(decoded, out)
            ref = ChainComputer(ref_graph)
            dec = ChainComputer(dec_graph)
            for u in ref_graph.sources():
                assert ref.chain(u).to_dict() == dec.chain(u).to_dict()

    def test_decode_preseeds_circuit_index(self):
        circuit = _circuit(seed=9)
        decoded = decode_circuit(encode_circuit(circuit))
        # The decoded arrays are adopted as the circuit's index: asking
        # again serves them, nothing is rebuilt or re-sorted.
        index = decoded.arrays()
        again = decoded.arrays()
        assert index is again
        assert index.order == circuit.arrays().order
        assert index.pred == circuit.arrays().pred
        for out in circuit.outputs:
            assert (
                cone_graph(decoded, out).names
                == cone_graph(circuit, out).names
            )

    def test_constants_survive(self):
        circuit = Circuit("consts")
        a = circuit.add_input("a")
        circuit.add_constant("zero", 0)
        circuit.add_constant("one", 1)
        circuit.add_gate("g", NodeType.AND, [a, "one"])
        circuit.set_outputs(["g"])
        decoded = decode_circuit(encode_circuit(circuit))
        assert decoded.node("zero").type is NodeType.CONST0
        assert decoded.node("one").type is NodeType.CONST1
        assert circuit_fingerprint(decoded) == circuit_fingerprint(circuit)

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError):
            decode_circuit(b"nope" + b"\x00" * 64)


@needs_shm
class TestSharedCircuitPool:
    def test_publish_is_once_per_version(self):
        metrics = MetricsRegistry()
        with SharedCircuitPool(metrics) as pool:
            circuit = _circuit()
            key = circuit_fingerprint(circuit)
            ref1 = pool.publish(circuit, key)
            ref2 = pool.publish(circuit, key)
            assert ref1 is ref2
            assert metrics.counter("shm.publishes").value == 1
            assert metrics.counter("shm.publish_hits").value == 1
            assert pool.version(key) == 1

    def test_invalidate_retires_and_rebumps(self):
        with SharedCircuitPool() as pool:
            circuit = _circuit()
            key = circuit_fingerprint(circuit)
            ref1 = pool.publish(circuit, key)
            pool.invalidate(key)
            assert pool.ref(key) is None
            ref2 = pool.publish(circuit, key)
            assert ref2.version == 2
            assert ref2.segment != ref1.segment

    def test_listener_fires_on_engine_edit(self):
        with SharedCircuitPool() as pool:
            circuit = _circuit(seed=21, outputs=1)
            key = circuit_fingerprint(circuit)
            pool.publish(circuit, key)
            engine = IncrementalEngine.from_circuit(circuit.copy())
            engine.add_edit_listener(pool.listener_for(key))
            assert pool.ref(key) is not None
            engine.apply(
                AddGate("shm_new", (circuit.inputs[0],), gate_type="buf")
            )
            assert pool.ref(key) is None  # segment retired by the edit

    def test_attach_detach_refcount(self):
        with SharedCircuitPool() as pool:
            circuit = _circuit(seed=31)
            key = circuit_fingerprint(circuit)
            ref = pool.publish(circuit, key)
            first = attach_circuit(ref)
            second = attach_circuit(ref)
            assert first is second  # cache hit, not a second decode
            assert ref.segment in attached_segments()
            detach_circuit(ref)
            assert ref.segment in attached_segments()  # still held once
            detach_circuit(ref)
            assert ref.segment not in attached_segments()

    def test_close_unlinks_everything(self):
        pool = SharedCircuitPool()
        circuit = _circuit(seed=41)
        key = circuit_fingerprint(circuit)
        ref = pool.publish(circuit, key)
        pool.close()
        from multiprocessing import shared_memory

        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=ref.segment)

    def test_attached_circuit_matches_original(self):
        with SharedCircuitPool() as pool:
            circuit = _circuit(seed=51)
            key = circuit_fingerprint(circuit)
            ref = pool.publish(circuit, key)
            try:
                attached = attach_circuit(ref)
                assert circuit_fingerprint(attached) == key
                assert isinstance(ref, CircuitRef)
            finally:
                detach_all()
