"""Tests for the parallel executor: equivalence, recovery, metrics.

The timeout/failure tests monkeypatch the module-level
``_process_chunk`` body; the executor's pool is forked on its first
parallel sweep, *after* the patch, so worker processes inherit the
patched function through ``_chunk_entry``.
"""

import multiprocessing
import os
import signal
import threading
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
        with ParallelExecutor(ExecutorConfig(jobs=2)) as ex:
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

        def broken_context():
            raise OSError("no semaphores on this platform")

        monkeypatch.setattr(executor_mod, "_fork_context", broken_context)
        with ParallelExecutor(ExecutorConfig(jobs=2), metrics=metrics) as ex:
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
        with ParallelExecutor(ExecutorConfig(jobs=2), metrics=metrics) as ex:
            results = {
                r.output: r.chains for r in ex.sweep_circuit(circuit)
            }
            assert all(
                r.source == "inprocess" for r in ex.sweep_circuit(circuit)
            )
        assert results == reference
        snap = metrics.snapshot()["counters"]
        assert snap["executor.failures"] >= 1
        assert snap["executor.jobs_inprocess"] == 2 * len(circuit.outputs)
        # A chunk that raises leaves its worker alive: the pool is kept.
        assert "executor.pools_retired" not in snap

    def test_timeout_falls_back_in_process(self, monkeypatch):
        circuit = table1_suite()["alu2"].circuit(SCALE)
        reference = sequential_reference(circuit)
        original = executor_mod._process_chunk

        def slow_chunk(payload):
            time.sleep(5.0)
            return original(payload)

        monkeypatch.setattr(executor_mod, "_process_chunk", slow_chunk)
        metrics = MetricsRegistry()
        with ParallelExecutor(
            ExecutorConfig(jobs=2, timeout=0.05), metrics=metrics
        ) as ex:
            start = time.perf_counter()
            results = {
                r.output: r.chains for r in ex.sweep_circuit(circuit)
            }
            elapsed = time.perf_counter() - start
        assert results == reference
        assert metrics.snapshot()["counters"]["executor.timeouts"] >= 1
        assert elapsed < 5.0  # did not wait for the slow workers


def _own_segments():
    """This process's published segments (``rpro_<key>_<v>_<pid>_<n>``)."""
    if not os.path.isdir("/dev/shm"):
        return []
    pid = str(os.getpid())
    return [
        f
        for f in os.listdir("/dev/shm")
        if f.startswith("rpro_") and f.split("_")[-2] == pid
    ]


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def _needs_shm():
    from repro.daemon.shm import shared_memory_available

    if not shared_memory_available():
        pytest.skip("no shared memory on this platform")


class TestRecovery:
    """One policy: a chunk that raises, times out or loses its worker is
    recomputed in-process; a timeout or a dead worker retires the pool."""

    def test_worker_death_without_timeout_recomputes_in_process(
        self, monkeypatch
    ):
        _needs_shm()
        circuit = table1_suite()["alu2"].circuit(SCALE)
        with ParallelExecutor(ExecutorConfig(jobs=1)) as ex:
            reference = [(r.output, r.chains) for r in ex.sweep_circuit(circuit)]
        parent = os.getpid()

        def killing_chunk(payload):
            if os.getpid() != parent:  # never the test process itself
                os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(executor_mod, "_process_chunk", killing_chunk)
        metrics = MetricsRegistry()
        outcome = {}

        def sweep():
            with ParallelExecutor(
                ExecutorConfig(jobs=2), metrics=metrics
            ) as ex:
                outcome["results"] = ex.sweep_circuit(circuit)

        # No pytest-timeout here: a lost chunk would hang the sweep, so
        # it runs in a thread the test waits on with a deadline.
        thread = threading.Thread(target=sweep, daemon=True)
        thread.start()
        thread.join(120)
        assert not thread.is_alive(), "sweep hung after a worker died"
        results = outcome["results"]
        assert [(r.output, r.chains) for r in results] == reference
        assert all(r.source == "inprocess" for r in results)
        counters = metrics.snapshot()["counters"]
        assert counters["executor.failures"] >= 1
        assert counters["executor.pools_retired"] == 1

    def test_timeout_retires_the_pool_and_its_workers(
        self, monkeypatch, tmp_path
    ):
        _needs_shm()
        circuit = table1_suite()["alu2"].circuit(SCALE)
        reference = sequential_reference(circuit)
        original = executor_mod._process_chunk

        def stuck_chunk(payload):
            (tmp_path / str(os.getpid())).touch()
            time.sleep(60.0)
            return original(payload)

        monkeypatch.setattr(executor_mod, "_process_chunk", stuck_chunk)
        metrics = MetricsRegistry()
        children = set(multiprocessing.active_children())
        # A deadline long enough for the fresh pool to start the chunk.
        with ParallelExecutor(
            ExecutorConfig(jobs=2, timeout=0.5), metrics=metrics
        ) as ex:
            results = {r.output: r.chains for r in ex.sweep_circuit(circuit)}
            assert results == reference
            counters = metrics.snapshot()["counters"]
            assert counters["executor.timeouts"] >= 1
            assert counters["executor.pools_retired"] == 1
            # No worker of the retired pool is still alive.
            stuck = [int(p.name) for p in tmp_path.iterdir()]
            assert stuck
            assert not any(_alive(pid) for pid in stuck)
            assert set(multiprocessing.active_children()) == children
            # The next parallel sweep forks a fresh pool and uses it.
            monkeypatch.setattr(executor_mod, "_process_chunk", original)
            again = ex.sweep_circuit(circuit)
        assert {r.output: r.chains for r in again} == reference
        assert all(r.source == "parallel" for r in again)


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
        with ex:
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
        with ex:
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
            with ParallelExecutor(ExecutorConfig(jobs=jobs)) as ex:
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
    """Parallel sweeps ship a shm ref, never the netlist."""

    @pytest.mark.parametrize("name", ["alu2", "comp"])
    def test_shm_sweep_bit_identical_to_inline(self, name):
        _needs_shm()
        circuit = table1_suite()[name].circuit(SCALE)
        with ParallelExecutor(ExecutorConfig(jobs=2)) as shm_ex:
            shm_results = shm_ex.sweep_circuit(circuit)
        inline_results = ParallelExecutor(ExecutorConfig(jobs=1)).sweep_circuit(
            circuit
        )
        assert all(r.source == "parallel" for r in shm_results)
        assert [(r.output, r.chains) for r in shm_results] == [
            (r.output, r.chains) for r in inline_results
        ]

    def test_shm_publish_happens_once_per_circuit(self):
        _needs_shm()
        circuit = table1_suite()["alu2"].circuit(SCALE)
        metrics = MetricsRegistry()
        with ParallelExecutor(ExecutorConfig(jobs=2), metrics=metrics) as ex:
            ex.sweep_circuit(circuit)
            ex.sweep_circuit(circuit)
        snapshot = metrics.snapshot()
        assert snapshot["counters"]["shm.publishes"] == 1
        assert snapshot["counters"].get("executor.shm_attaches", 0) >= 1

    def test_close_unlinks_segments(self):
        _needs_shm()
        circuit = table1_suite()["comp"].circuit(SCALE)
        before = set(_own_segments())
        ex = ParallelExecutor(ExecutorConfig(jobs=2))
        ex.sweep_circuit(circuit)
        if os.path.isdir("/dev/shm"):
            assert set(_own_segments()) > before
        ex.close()
        assert set(_own_segments()) <= before

    def test_unavailable_shared_memory_runs_in_process(self, monkeypatch):
        from repro.daemon.shm import SharedCircuitPool, SharedMemoryUnavailable

        def unavailable(self, circuit, key):
            raise SharedMemoryUnavailable("no /dev/shm")

        monkeypatch.setattr(SharedCircuitPool, "publish", unavailable)
        circuit = table1_suite()["alu2"].circuit(SCALE)
        metrics = MetricsRegistry()
        children = set(multiprocessing.active_children())
        with ParallelExecutor(ExecutorConfig(jobs=2), metrics=metrics) as ex:
            results = ex.sweep_circuit(circuit)
            # No segment means no dispatch: no pool is forked either.
            assert set(multiprocessing.active_children()) == children
        assert all(r.source == "inprocess" for r in results)
        assert {r.output: r.chains for r in results} == sequential_reference(
            circuit
        )
        assert metrics.snapshot()["counters"]["executor.shm_fallbacks"] == 1


class TestPrefilterConfig:
    def test_unknown_prefilter_rejected(self):
        # Every sweep computes every chain; a caller still passing a
        # pre-filter must fail loudly rather than be silently ignored.
        with pytest.raises(TypeError):
            ExecutorConfig(prefilter="biconn")

    @pytest.mark.parametrize(
        "option", [{"shared_circuits": True}, {"start_method": "spawn"}]
    )
    def test_removed_dispatch_options_rejected(self, option):
        with pytest.raises(TypeError):
            ExecutorConfig(**option)


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
