"""Property: a parallel sweep equals sequential ChainComputer results.

The acceptance bar for the service layer is *bit-identical* output:
for every cone and every target, the worker-pool sweep must return the
same chain — pair for pair, vector for vector, interval for interval —
as a sequential :class:`~repro.core.algorithm.ChainComputer` run in the
parent process.  Serialized chain dictionaries encode exactly that
structure, so dict equality is the strongest possible comparison.

Worker pools fork per example, so the example budget is kept small;
the suite-level equivalence tests in ``tests/service/test_executor.py``
cover the large fixed circuits.
"""

from hypothesis import HealthCheck, given, settings

from repro.core.algorithm import ChainComputer
from repro.graph import IndexedGraph
from repro.service import ExecutorConfig, ParallelExecutor

from .strategies import small_circuits

_SETTINGS = dict(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _widen(circuit):
    """Expose internal gates as extra outputs so sweeps have >1 cone.

    A single-cone sweep legitimately short-circuits to in-process
    execution, so multi-output circuits are needed to drive jobs
    through the actual pool.
    """
    gates = [n.name for n in circuit.nodes() if n.type.is_gate]
    for name in {gates[0], gates[len(gates) // 2]}:
        circuit.add_output(name)
    return circuit


def _sequential(circuit):
    per_cone = {}
    for output in circuit.outputs:
        graph = IndexedGraph.from_circuit(circuit, output)
        computer = ChainComputer(graph)
        per_cone[output] = {
            graph.name_of(u): computer.chain(u).to_dict()
            for u in graph.sources()
        }
    return per_cone


@given(circuit=small_circuits(max_gates=16))
@settings(**_SETTINGS)
def test_parallel_sweep_identical_to_sequential(circuit):
    circuit = _widen(circuit)
    with ParallelExecutor(ExecutorConfig(jobs=2, chunk_size=1)) as executor:
        parallel = {
            r.output: r.chains for r in executor.sweep_circuit(circuit)
        }
    assert parallel == _sequential(circuit)


@given(circuit=small_circuits(max_gates=16))
@settings(**_SETTINGS)
def test_inprocess_fallback_identical_to_sequential(circuit):
    executor = ParallelExecutor(ExecutorConfig(jobs=1))
    fallback = {
        r.output: r.chains for r in executor.sweep_circuit(circuit)
    }
    assert fallback == _sequential(circuit)


@given(circuit=small_circuits(max_gates=16))
@settings(**_SETTINGS)
def test_pair_sets_match_vector_for_vector(circuit):
    """Reconstructed chains agree with the sequential ones structurally."""
    from repro.core.chain import DominatorChain

    circuit = _widen(circuit)
    with ParallelExecutor(ExecutorConfig(jobs=2)) as executor:
        results = executor.sweep_circuit(circuit)
    for result in results:
        graph = IndexedGraph.from_circuit(circuit, result.output)
        computer = ChainComputer(graph)
        for name, chain_dict in result.chains.items():
            rebuilt = DominatorChain.from_dict(chain_dict)
            reference = computer.chain(graph.index_of(name))
            assert rebuilt.pairs == reference.pairs
            assert rebuilt.pair_set() == reference.pair_set()
            for v in reference.vertices():
                assert rebuilt.interval(v) == reference.interval(v)
                assert rebuilt.matching_vector(
                    v
                ) == reference.matching_vector(v)
