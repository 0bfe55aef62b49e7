"""The ``.bench`` loader writes the netlist's int arrays directly.

Pins what must not move when the array form changes: the ids (the LIFO
Kahn order over insertion order), the chain JSON of the Table-1 suite,
the fingerprint digests artifact keys depend on, the byte-for-byte text
round trip, and the loader's line grammar.
"""

import hashlib
import json
import random

import pytest
from hypothesis import given, strategies as st

from repro.check.fuzzer import generate_case
from repro.circuits.suite import table1_suite
from repro.daemon.shm import decode_circuit, encode_circuit
from repro.errors import ParseError
from repro.parsers import bench
from repro.service.executor import ExecutorConfig, ParallelExecutor
from repro.service.hashing import circuit_fingerprint, cone_fingerprint

#: SHA-256 of ``[name, output, chains]`` JSON per cone, suite order, seed
#: 0, scale 0.05 — computed before the loader wrote arrays directly.
SUITE_CHAINS_SHA256 = (
    "805932bc57d6b1cace7f6b7c901513c6f0475d29449b6d1c17d1e5ec3f607a8f"
)

#: ``(circuit_fingerprint, first output, cone_fingerprint)`` at scale
#: 0.05, computed from ``Node`` records before fingerprints read arrays.
FINGERPRINTS = {
    "alu2": (
        "f85bf7d3e17cc4ea726af071f7ec2584c56cfef31adaf6a70f805171b73fc4d3",
        "r0",
        "d9164990d5bcaa27a209063428242fe004d40bb76f426aaf5d310848081c33aa",
    ),
    "C432": (
        "f0dccb08abddf4f59dbafc1028a7beea097b64848fecb8279c5766e4e180b307",
        "vec0",
        "0fdb83b207e1f9aa9ac5b0a2f6b7943247b1b3ceb0721b1036cdac68605a9d80",
    ),
}


def _suite_chain_digest(parsed: bool) -> str:
    executor = ParallelExecutor(ExecutorConfig(jobs=1))
    hasher = hashlib.sha256()
    for name, entry in table1_suite().items():
        circuit = entry.circuit(0.05)
        if parsed:
            circuit = bench.loads(bench.dumps(circuit), circuit.name)
        for result in executor.sweep_circuit(circuit):
            record = [name, result.output, result.chains]
            hasher.update(json.dumps(record).encode("utf-8"))
    return hasher.hexdigest()


class TestPinned:
    @pytest.mark.parametrize("parsed", [False, True], ids=["built", "parsed"])
    def test_suite_chain_json(self, parsed):
        assert _suite_chain_digest(parsed) == SUITE_CHAINS_SHA256

    @pytest.mark.parametrize("name", sorted(FINGERPRINTS))
    def test_fingerprints(self, name):
        whole, output, cone = FINGERPRINTS[name]
        built = table1_suite()[name].circuit(0.05)
        parsed = bench.loads(bench.dumps(built), name)
        for circuit in (built, parsed):
            assert circuit_fingerprint(circuit) == whole
            assert cone_fingerprint(circuit, output) == cone
        assert parsed._records is None  # hashed without Node records

    def test_suite_text_round_trips(self):
        for entry in table1_suite().values():
            circuit = entry.circuit(0.05)
            text = bench.dumps(circuit)
            assert bench.dumps(bench.loads(text, circuit.name)) == text


class TestNumbering:
    def test_ids_are_the_lifo_kahn_order(self):
        # Sources a, b, c are ready in insertion order and popped last
        # first; each pop releases its fanouts in insertion order.
        circuit = bench.loads(
            "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(z)\n"
            "x = AND(a, b)\ny = OR(b, c)\nz = XOR(x, y)\n"
        )
        assert circuit.topological_order() == ["c", "b", "y", "a", "x", "z"]
        arrays = circuit.arrays()
        assert arrays.pred[arrays.index["z"]] == [4, 2]
        assert arrays.succ[arrays.index["b"]] == [2, 4]
        assert list(circuit) == ["a", "b", "c", "x", "y", "z"]

    def test_forward_references(self):
        text = (
            "INPUT(a)\nINPUT(b)\nOUTPUT(z)\n"
            "z = NAND(y, x)\ny = NOT(x)\nx = AND(a, b)\n"
        )
        circuit = bench.loads(text)
        assert circuit.topological_order() == ["b", "a", "x", "y", "z"]
        assert circuit.fanins("z") == ("y", "x")
        assert bench.dumps(circuit) == "# bench\n" + text


class TestGrammar:
    def test_cycle(self):
        with pytest.raises(ParseError) as err:
            bench.loads(
                "INPUT(a)\nOUTPUT(x)\nx = AND(a, y)\ny = NOT(x)\n", "loop"
            )
        assert str(err.value) == (
            "circuit 'loop' has a combinational cycle involving "
            "['x', 'y']..."
        )
        assert err.value.line == 0

    def test_empty_fanin_slots(self):
        circuit = bench.loads("INPUT(a)\nINPUT(b)\nOUTPUT(g)\ng = AND(a,,b, )\n")
        assert circuit.fanins("g") == ("a", "b")

    def test_declaration_name_with_a_space(self):
        circuit = bench.loads("INPUT( a b )\nOUTPUT(g)\ng = NOT(a b)\n")
        assert circuit.inputs == ["a b"]
        assert circuit.fanins("g") == ("a b",)

    def test_comments_and_whitespace(self):
        circuit = bench.loads(
            "  INPUT(a)  # the input\n\t\n#\nOUTPUT(g)#x\n g = buff( a ) \n"
        )
        assert circuit.fanins("g") == ("a",)
        assert circuit.outputs == ["g"]

    @pytest.mark.parametrize("newline", ["\r\n", "\r", "\x0c", "\u2028"])
    def test_line_numbers_follow_splitlines(self, newline):
        text = newline.join(["INPUT(a)", "", "OUTPUT(g)", "g = FROB(a)"])
        with pytest.raises(ParseError) as err:
            bench.loads(text)
        assert err.value.line == 4

    def test_statement_with_trailing_text_is_unrecognized(self):
        with pytest.raises(ParseError) as err:
            bench.loads("INPUT(a)\ng = NOT(a) x # c\n")
        assert str(err.value) == "line 2: unrecognized statement: 'g = NOT(a) x'"


def _shuffled_gates(text: str, seed: int) -> str:
    lines = text.splitlines()
    head = [ln for ln in lines if not ln or "=" not in ln]
    gates = [ln for ln in lines if ln and "=" in ln]
    random.Random(seed).shuffle(gates)
    return "\n".join(head + gates) + "\n"


def _same_netlist(a, b) -> None:
    assert a.topological_order() == b.topological_order()
    assert a.inputs == b.inputs
    assert a.outputs == b.outputs
    assert all(a.fanins(n) == b.fanins(n) for n in b)
    assert circuit_fingerprint(a) == circuit_fingerprint(b)


@given(seed=st.integers(0, 1 << 16), index=st.integers(0, 40))
def test_round_trips_over_fuzzer_dags(seed, index):
    circuit = generate_case(seed, index).circuit
    text = bench.dumps(circuit)
    parsed = bench.loads(text, circuit.name)
    _same_netlist(parsed, circuit)
    assert bench.dumps(parsed) == text

    decoded = decode_circuit(encode_circuit(parsed))
    _same_netlist(decoded, circuit)
    assert list(decoded) == list(circuit)
    assert bench.dumps(decoded) == text

    sequential = bench.loads_sequential(text, circuit.name)
    _same_netlist(sequential.combinational, circuit)
    assert bench.dumps_sequential(sequential) == text

    # Gate lines in any order: forward references renumber the ids, but
    # the text and the netlist's identity survive.
    shuffled = _shuffled_gates(text, seed)
    reparsed = bench.loads(shuffled, circuit.name)
    assert bench.dumps(reparsed) == shuffled
    assert circuit_fingerprint(reparsed) == circuit_fingerprint(circuit)
