"""Property tests: a composed chain answers like its validated rebuild.

:meth:`DominatorChain.from_regions` composes a chain from checked region
records and builds the per-vertex lookup table only on the first query;
:meth:`DominatorChain.from_dict` rebuilds the same chain through the
public constructor, which validates the whole structure and builds the
table eagerly.  On random cones, under every construction backend and
both kernel settings, the two must agree on every query, serialization
must not depend on whether a query ran first, and threads racing on the
first query must all read the same table.
"""

import json
import sys
import threading
from contextlib import nullcontext

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.algorithm import ChainComputer
from repro.core.chain import DominatorChain
from repro.dominators.kernels import forced_region_threshold, numpy_available

from .strategies import small_cones

_CONFIGS = [("legacy", "python"), ("shared", "python"), ("linear", "python")]
if numpy_available():
    _CONFIGS += [("shared", "numpy"), ("linear", "numpy")]


def _computer(graph, config):
    backend, kernels = config
    return ChainComputer(graph, backend=backend, kernels=kernels)


def _forced(config):
    # Push even the tiny regions of these cones through the kernels.
    return forced_region_threshold(0) if config[1] == "numpy" else nullcontext()


def _or_missing(fn, *args):
    try:
        return fn(*args)
    except KeyError:
        return KeyError


def _answers(chain, probe):
    """Every query's answer over ``probe`` vertices, as one value."""
    return (
        [_or_missing(chain.flag, v) for v in probe],
        [_or_missing(chain.index, v) for v in probe],
        [_or_missing(chain.interval, v) for v in probe],
        [_or_missing(chain.matching_vector, v) for v in probe],
        [v in chain for v in probe],
        [[chain.dominates(v, w) for w in probe] for v in probe],
        chain.side(1),
        chain.side(2),
        list(chain.iter_dominator_pairs()),
        chain.num_dominators(),
        chain.vertices(),
        chain.size,
        chain.immediate(),
        len(chain),
    )


@settings(max_examples=60, deadline=None)
@given(small_cones(max_gates=40, max_inputs=8), st.sampled_from(_CONFIGS))
def test_composed_chain_answers_like_its_rebuild(graph, config):
    computer = _computer(graph, config)
    probe = list(range(graph.n)) + [graph.n]  # one vertex on no chain
    with _forced(config):
        for u in range(graph.n):
            chain = computer.chain(u)
            before = json.dumps(chain.to_dict())  # keeps key order
            rebuilt = DominatorChain.from_dict(json.loads(before))
            assert _answers(chain, probe) == _answers(rebuilt, probe)
            assert json.dumps(chain.to_dict()) == before
            assert json.dumps(rebuilt.to_dict()) == before


@settings(max_examples=20, deadline=None)
@given(small_cones(max_gates=40, max_inputs=8), st.sampled_from(_CONFIGS))
def test_racing_first_queries_see_one_table(graph, config):
    with _forced(config):
        chains = [_computer(graph, config).chain(u) for u in graph.sources()]
    probe = list(range(graph.n + 1))
    expected = [
        _answers(DominatorChain.from_dict(c.to_dict()), probe) for c in chains
    ]
    threads = 4
    barrier = threading.Barrier(threads)
    seen = [None] * threads

    def query(slot):
        barrier.wait()
        seen[slot] = [_answers(c, probe) for c in chains]

    workers = [
        threading.Thread(target=query, args=(i,)) for i in range(threads)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert all(answers == expected for answers in seen)


def test_suite_chains_answer_like_their_rebuilds():
    """Suite cones hold the chains that span several regions.

    Random cones this small rarely compose two non-empty regions with
    sides of unequal length, the case where a wrong shift would move an
    interval into another pair; the suite's cones do, often.
    """
    from repro.circuits import get_benchmark
    from repro.graph import IndexedGraph

    multi_pair = 0
    for name in ("C1355", "cordic"):
        circuit = get_benchmark(name, scale=0.05)
        for output in circuit.outputs:
            graph = IndexedGraph.from_circuit(circuit, output)
            probe = list(range(graph.n))
            for config in _CONFIGS:
                computer = _computer(graph, config)
                with _forced(config):
                    for u in graph.sources():
                        chain = computer.chain(u)
                        rebuilt = DominatorChain.from_dict(chain.to_dict())
                        assert _answers(chain, probe) == _answers(
                            rebuilt, probe
                        )
                        multi_pair += len(chain) > 1
    assert multi_pair > 0
