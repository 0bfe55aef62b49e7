"""Tests for the parallel executor: equivalence, fallbacks, metrics.

The timeout/failure tests monkeypatch the module-level
``_process_chunk`` body; the executor's pool is created *after* the
patch and uses the fork start method on Linux, so worker processes
inherit the patched function through ``_chunk_entry``.
"""

import os
import time

import pytest

import repro.service.executor as executor_mod
from repro.circuits.suite import table1_suite
from repro.core.algorithm import ChainComputer
from repro.graph import IndexedGraph
from repro.service import (
    ArtifactStore,
    ExecutorConfig,
    MetricsRegistry,
    ParallelExecutor,
    pairs_in_chain_dict,
    sequential_cone_chains,
    sweep_suite,
)

NAMES = ["alu2", "comp", "cordic"]
SCALE = 0.5


def sequential_reference(circuit):
    """Per-cone chains straight from a sequential ChainComputer."""
    reference = {}
    for output in circuit.outputs:
        graph = IndexedGraph.from_circuit(circuit, output)
        computer = ChainComputer(graph)
        reference[output] = {
            graph.name_of(u): computer.chain(u).to_dict()
            for u in graph.sources()
        }
    return reference


class TestEquivalence:
    @pytest.mark.parametrize("name", NAMES)
    def test_parallel_matches_sequential_chaincomputer(self, name):
        circuit = table1_suite()[name].circuit(SCALE)
        reference = sequential_reference(circuit)
        ex = ParallelExecutor(ExecutorConfig(jobs=2))
        results = {
            r.output: r.chains for r in ex.sweep_circuit(circuit)
        }
        assert results == reference

    def test_single_job_runs_in_process(self):
        circuit = table1_suite()["alu2"].circuit(SCALE)
        metrics = MetricsRegistry()
        ex = ParallelExecutor(ExecutorConfig(jobs=1), metrics=metrics)
        results = ex.sweep_circuit(circuit)
        assert all(r.source == "inprocess" for r in results)
        assert {r.output: r.chains for r in results} == sequential_reference(
            circuit
        )

    def test_explicit_targets_subset(self):
        circuit = table1_suite()["alu2"].circuit(SCALE)
        output = circuit.outputs[0]
        graph = IndexedGraph.from_circuit(circuit, output)
        targets = [graph.name_of(u) for u in graph.sources()][:2]
        ex = ParallelExecutor(ExecutorConfig(jobs=1))
        (result,) = ex.sweep_circuit(
            circuit,
            outputs=[output],
            targets_by_output={output: tuple(targets)},
        )
        assert sorted(result.chains) == sorted(targets)


class TestFallbacks:
    def test_pool_creation_failure_falls_back_in_process(self, monkeypatch):
        circuit = table1_suite()["alu2"].circuit(SCALE)
        reference = sequential_reference(circuit)
        metrics = MetricsRegistry()
        ex = ParallelExecutor(ExecutorConfig(jobs=2), metrics=metrics)

        def broken_context():
            raise OSError("no semaphores on this platform")

        monkeypatch.setattr(ex, "_context", broken_context)
        results = {r.output: r.chains for r in ex.sweep_circuit(circuit)}
        assert results == reference
        snap = metrics.snapshot()["counters"]
        assert snap["executor.pool_fallbacks"] == 1
        assert snap["executor.jobs_inprocess"] == len(circuit.outputs)

    def test_worker_exception_falls_back_in_process(self, monkeypatch):
        circuit = table1_suite()["alu2"].circuit(SCALE)
        reference = sequential_reference(circuit)

        def exploding_chunk(payload):
            raise ValueError("boom")

        monkeypatch.setattr(executor_mod, "_process_chunk", exploding_chunk)
        metrics = MetricsRegistry()
        ex = ParallelExecutor(ExecutorConfig(jobs=2), metrics=metrics)
        results = {r.output: r.chains for r in ex.sweep_circuit(circuit)}
        assert results == reference
        snap = metrics.snapshot()["counters"]
        assert snap["executor.failures"] >= 1
        assert snap["executor.jobs_inprocess"] == len(circuit.outputs)
        assert all(
            r.source == "inprocess" for r in ex.sweep_circuit(circuit)
        )

    def test_timeout_falls_back_in_process(self, monkeypatch):
        circuit = table1_suite()["alu2"].circuit(SCALE)
        reference = sequential_reference(circuit)
        original = executor_mod._process_chunk

        def slow_chunk(payload):
            time.sleep(5.0)
            return original(payload)

        monkeypatch.setattr(executor_mod, "_process_chunk", slow_chunk)
        metrics = MetricsRegistry()
        ex = ParallelExecutor(
            ExecutorConfig(jobs=2, timeout=0.05), metrics=metrics
        )
        start = time.perf_counter()
        results = {r.output: r.chains for r in ex.sweep_circuit(circuit)}
        elapsed = time.perf_counter() - start
        assert results == reference
        assert metrics.snapshot()["counters"]["executor.timeouts"] >= 1
        assert elapsed < 5.0  # did not wait for the slow workers


class TestArtifactsIntegration:
    def test_second_sweep_served_from_store(self, tmp_path):
        circuit = table1_suite()["alu2"].circuit(SCALE)
        metrics = MetricsRegistry()
        store = ArtifactStore(str(tmp_path), metrics=metrics)
        ex = ParallelExecutor(
            ExecutorConfig(jobs=1), metrics=metrics, store=store
        )
        first = ex.sweep_circuit(circuit)
        second = ex.sweep_circuit(circuit)
        assert all(r.source != "artifact" for r in first)
        assert all(r.source == "artifact" for r in second)
        assert [r.chains for r in first] == [r.chains for r in second]
        assert store.hit_ratio() == 0.5

    def test_partial_target_results_not_stored(self, tmp_path):
        circuit = table1_suite()["alu2"].circuit(SCALE)
        output = circuit.outputs[0]
        graph = IndexedGraph.from_circuit(circuit, output)
        target = graph.name_of(graph.sources()[0])
        store = ArtifactStore(str(tmp_path))
        ex = ParallelExecutor(ExecutorConfig(jobs=1), store=store)
        ex.sweep_circuit(
            circuit,
            outputs=[output],
            targets_by_output={output: (target,)},
        )
        # A later all-targets sweep must not see the partial artifact.
        (result,) = ex.sweep_circuit(circuit, outputs=[output])
        assert result.source != "artifact"
        assert len(result.chains) == len(graph.sources())


class TestMetricsSnapshot:
    def test_sweep_metrics_are_consistent(self, tmp_path):
        """Acceptance: job counts, latency histogram and artifact hit
        ratio of a sweep validate against ground truth."""
        metrics = MetricsRegistry()
        store = ArtifactStore(str(tmp_path), metrics=metrics)
        ex = ParallelExecutor(
            ExecutorConfig(jobs=2), metrics=metrics, store=store
        )
        report = sweep_suite(ex, names=NAMES, scale=SCALE)
        cones = sum(c.cones for c in report.circuits)
        chains = sum(c.chains for c in report.circuits)
        snap = metrics.snapshot()
        counters = snap["counters"]
        assert counters["executor.jobs_submitted"] == cones
        assert counters["executor.jobs_completed"] == cones
        parallel = counters.get("executor.jobs_parallel", 0)
        inprocess = counters.get("executor.jobs_inprocess", 0)
        assert parallel + inprocess == cones
        # one latency observation per cone job
        assert snap["histograms"]["executor.job_seconds"]["count"] == cones
        # worker-side ChainComputer observations made it back
        assert counters["core.chains_computed"] == chains
        assert snap["histograms"]["core.chain_seconds"]["count"] == chains
        # cold sweep: every artifact get missed, every cone written
        assert counters["artifacts.misses"] == cones
        assert counters["artifacts.writes"] == cones
        assert store.hit_ratio() == 0.0
        # warm sweep flips the ratio
        report2 = sweep_suite(ex, names=NAMES, scale=SCALE)
        assert metrics.counter("artifacts.hits").value == cones
        assert store.hit_ratio() == 0.5
        assert all(c.artifact_hits == c.cones for c in report2.circuits)
        assert report2.total_pairs == report.total_pairs

    def test_pairs_in_chain_dict_matches_chain(self):
        circuit = table1_suite()["alu2"].circuit(SCALE)
        output = circuit.outputs[0]
        graph = IndexedGraph.from_circuit(circuit, output)
        computer = ChainComputer(graph)
        for u in graph.sources():
            chain = computer.chain(u)
            assert (
                pairs_in_chain_dict(chain.to_dict()) == chain.num_dominators()
            )


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4, reason="speedup check needs >= 4 cores"
)
def test_four_job_sweep_is_at_least_twice_as_fast():
    """Acceptance: ``sweep --jobs 4`` >= 2x sequential on a 4-core box.

    Uses the built-in suite's quick circuits at a size where per-cone
    work dominates dispatch overhead; median of 3 runs each.
    """
    import statistics

    names = ["C6288", "comp", "cordic", "alu4"]

    def run(jobs):
        samples = []
        for _ in range(3):
            ex = ParallelExecutor(ExecutorConfig(jobs=jobs))
            start = time.perf_counter()
            sweep_suite(ex, names=names, scale=0.8)
            samples.append(time.perf_counter() - start)
        return statistics.median(samples)

    sequential = run(1)
    parallel = run(4)
    assert parallel * 2 <= sequential, (
        f"expected >=2x speedup, got {sequential / parallel:.2f}x "
        f"(seq {sequential:.2f}s, par {parallel:.2f}s)"
    )


class TestConfigValidation:
    def test_zero_or_negative_jobs_rejected(self):
        for jobs in (0, -1, -8):
            with pytest.raises(ValueError):
                ExecutorConfig(jobs=jobs)

    def test_negative_timeout_rejected(self):
        with pytest.raises(ValueError):
            ExecutorConfig(timeout=-1.0)

    def test_zero_timeout_and_one_job_accepted(self):
        config = ExecutorConfig(jobs=1, timeout=0.0)
        assert config.jobs == 1
        assert config.timeout == 0.0

    def test_nonpositive_chunk_size_rejected(self):
        with pytest.raises(ValueError):
            ExecutorConfig(chunk_size=0)

    def test_unknown_kernels_rejected(self):
        with pytest.raises(ValueError):
            ExecutorConfig(kernels="turbo")

    def test_python_kernels_default(self):
        assert ExecutorConfig().kernels == "python"
        assert ExecutorConfig(kernels="python").kernels == "python"


class TestSharedCircuits:
    """``shared_circuits=True`` ships a shm ref instead of a pickled netlist."""

    @pytest.mark.parametrize("name", ["alu2", "comp"])
    def test_shm_sweep_bit_identical_to_pickle(self, name):
        from repro.daemon.shm import shared_memory_available

        if not shared_memory_available():
            pytest.skip("no shared memory on this platform")
        circuit = table1_suite()[name].circuit(SCALE)
        with ParallelExecutor(
            ExecutorConfig(jobs=2, shared_circuits=True)
        ) as shm_ex:
            shm_results = {
                r.output: r.chains for r in shm_ex.sweep_circuit(circuit)
            }
        pickle_ex = ParallelExecutor(ExecutorConfig(jobs=2))
        pickle_results = {
            r.output: r.chains for r in pickle_ex.sweep_circuit(circuit)
        }
        assert shm_results == pickle_results

    def test_shm_publish_happens_once_per_circuit(self):
        from repro.daemon.shm import shared_memory_available

        if not shared_memory_available():
            pytest.skip("no shared memory on this platform")
        circuit = table1_suite()["alu2"].circuit(SCALE)
        metrics = MetricsRegistry()
        with ParallelExecutor(
            ExecutorConfig(jobs=2, shared_circuits=True), metrics=metrics
        ) as ex:
            ex.sweep_circuit(circuit)
            ex.sweep_circuit(circuit)
        snapshot = metrics.snapshot()
        assert snapshot["counters"]["shm.publishes"] == 1
        assert snapshot["counters"].get("executor.shm_attaches", 0) >= 1

    def test_close_unlinks_segments(self):
        from repro.daemon.shm import shared_memory_available

        if not shared_memory_available():
            pytest.skip("no shared memory on this platform")
        circuit = table1_suite()["comp"].circuit(SCALE)
        ex = ParallelExecutor(ExecutorConfig(jobs=2, shared_circuits=True))
        ex.sweep_circuit(circuit)
        ex.close()
        if os.path.isdir("/dev/shm"):
            assert [
                f for f in os.listdir("/dev/shm") if f.startswith("rpro_")
            ] == []


class TestPrefilterConfig:
    def test_unknown_prefilter_rejected(self):
        # Every sweep computes every chain; a caller still passing a
        # pre-filter must fail loudly rather than be silently ignored.
        with pytest.raises(TypeError):
            ExecutorConfig(prefilter="biconn")


class TestSequentialSweep:
    def test_core_view(self):
        from repro.service import sweep_sequential_suite

        report = sweep_sequential_suite(
            ParallelExecutor(ExecutorConfig(jobs=1)), scale=0.25
        )
        assert [c.name for c in report.circuits] == [
            "s_shift", "s_lfsr", "s_alu",
        ]
        assert all(c.cones > 0 for c in report.circuits)

    def test_unroll_view_labels_and_names(self):
        from repro.service import sweep_sequential_suite

        report = sweep_sequential_suite(
            ParallelExecutor(ExecutorConfig(jobs=1)),
            names=["s_shift"],
            scale=0.25,
            view=("unroll", 3),
        )
        assert [c.name for c in report.circuits] == ["s_shift:u3"]

    def test_unknown_view_rejected(self):
        from repro.service import sweep_sequential_suite

        with pytest.raises(ValueError):
            sweep_sequential_suite(
                ParallelExecutor(ExecutorConfig(jobs=1)), view=("frames", 2)
            )
