"""Sweep dispatch throughput and daemon request latency.

Two studies:

* **dispatch** — repeated sweeps over a large multi-output netlist with
  one cone per worker task (the worst case for payload overhead).  The
  production side is ``ParallelExecutor(ExecutorConfig(jobs,
  chunk_size=1))``: it publishes the circuit to shared memory once and
  each task carries a :class:`~repro.daemon.shm.CircuitRef` that the
  workers attach and decode once.  The baseline, which lives only in
  this script, pickles the whole netlist into every task, as the
  executor's removed pickled dispatch did, and runs the same per-cone
  chain code in a pool of the same size.  The headline number is
  ``shm_speedup`` — sweep throughput with shared memory over throughput
  with pickling — which the CI gate requires to be >= 2x.
* **latency** — a multi-tenant closed-loop burst against a live
  :class:`~repro.daemon.service.DaemonService`: worker threads
  playing distinct tenants hammer ``chain`` requests through admission
  control.  p50/p99 come from the service's own
  ``daemon.chain_seconds`` :class:`~repro.service.metrics.Histogram`
  via interpolated :meth:`~repro.service.metrics.Histogram.quantile`,
  alongside admitted/shed counts showing the token buckets working.

``python benchmarks/bench_service.py`` writes ``BENCH_service.json``
next to the repo's other ``BENCH_*`` artifacts; ``--quick`` shrinks
both studies for CI smoke runs.
"""

import concurrent.futures
import json
import multiprocessing
import statistics
import threading
import time
from pathlib import Path

from repro.circuits.generators import random_circuit
from repro.daemon.protocol import Request
from repro.daemon.service import DaemonService, ServiceConfig
from repro.daemon.shm import shared_memory_available
from repro.dominators.shared import CircuitScratch
from repro.service import (
    ExecutorConfig,
    MetricsRegistry,
    ParallelExecutor,
    pairs_in_chain_dict,
    sequential_cone_chains,
)
from repro.service.executor import view_cone_chains


def _dispatch_circuit(quick: bool):
    """A netlist where payload cost dominates per-cone compute.

    Many small, mostly-independent per-output cones on one big
    netlist (``shared_fraction=0.05`` keeps the common pool thin, the
    flat-mapped-design regime): pickling re-ships every node with
    every one-cone chunk while the shm path ships a ~100-byte ref to a
    segment each worker decodes once.
    """
    gates = 3_000 if quick else 8_000
    outputs = 48 if quick else 128
    return random_circuit(
        num_inputs=16,
        num_gates=gates,
        num_outputs=outputs,
        seed=42,
        shared_fraction=0.05,
        name="bench_service_dispatch",
    )


def _pickled_cone(payload):
    """Baseline worker task: the whole netlist arrives with one cone.

    Returns what an executor chunk returns: the chains and the worker's
    metrics snapshot.
    """
    circuit, output = payload
    registry = MetricsRegistry()
    views = CircuitScratch(circuit.arrays())
    chains = view_cone_chains(views, output, metrics=registry)
    if chains is None:
        chains = sequential_cone_chains(circuit, output, metrics=registry)
    return chains, registry.snapshot()


def _timed(sweep, rounds: int):
    """Warm-up once (fork, attach, caches), then time ``rounds`` sweeps."""
    pairs = sweep()
    walls = []
    start = time.perf_counter()
    for _ in range(rounds):
        t0 = time.perf_counter()
        assert sweep() == pairs
        walls.append(time.perf_counter() - t0)
    elapsed = time.perf_counter() - start
    return {
        "rounds": rounds,
        "sweeps_per_second": rounds / elapsed,
        "sweep_wall_median_ms": statistics.median(walls) * 1e3,
        "pairs_per_sweep": pairs,
    }


def _shm_sweeps(circuit, jobs: int, rounds: int):
    metrics = MetricsRegistry()
    config = ExecutorConfig(jobs=jobs, chunk_size=1)
    with ParallelExecutor(config, metrics=metrics) as executor:

        def sweep():
            results = executor.sweep_circuit(circuit)
            assert all(r.source == "parallel" for r in results)
            return sum(r.num_pairs for r in results)

        row = _timed(sweep, rounds)
    counters = metrics.snapshot()["counters"]
    row["shm"] = {
        "publishes": counters["shm.publishes"],
        "bytes_published": counters["shm.bytes_published"],
    }
    return row


def _pickled_sweeps(circuit, jobs: int, rounds: int):
    context = multiprocessing.get_context("fork")
    with concurrent.futures.ProcessPoolExecutor(jobs, context) as pool:

        def sweep():
            metrics = MetricsRegistry()
            tasks = [(circuit, output) for output in circuit.outputs]
            pairs = 0
            for chains, snapshot in pool.map(_pickled_cone, tasks):
                metrics.merge_snapshot(snapshot)
                pairs += sum(pairs_in_chain_dict(c) for c in chains.values())
            return pairs

        return _timed(sweep, rounds)


def _definition(circuit):
    return {
        "name": circuit.name,
        "nodes": [
            {
                "name": name,
                "type": circuit.node(name).type.value,
                "fanins": list(circuit.node(name).fanins),
            }
            for name in circuit
        ],
        "outputs": list(circuit.outputs),
    }


def dispatch_study(quick: bool, jobs: int):
    circuit = _dispatch_circuit(quick)
    rounds = 3 if quick else 8
    pickle_row = _pickled_sweeps(circuit, jobs, rounds)
    shm_row = _shm_sweeps(circuit, jobs, rounds)
    assert shm_row["pairs_per_sweep"] == pickle_row["pairs_per_sweep"]
    return {
        "circuit_nodes": len(circuit),
        "outputs": len(circuit.outputs),
        "jobs": jobs,
        "chunk_size": 1,
        "pickle": pickle_row,
        "shm": shm_row,
        "shm_speedup": (
            shm_row["sweeps_per_second"] / pickle_row["sweeps_per_second"]
        ),
    }


def latency_study(quick: bool):
    """Multi-tenant closed-loop chain bursts through admission control."""
    tenants = 4
    requests_per_tenant = 40 if quick else 150
    circuit = random_circuit(
        num_inputs=8,
        num_gates=400,
        num_outputs=4,
        seed=7,
        name="bench_service_latency",
    )
    # Buckets sized so a closed-loop burst oversubscribes them: each
    # tenant's burst is smaller than its request count, so the tail of
    # every burst is shed with 429s — the artifact shows both served
    # latency and admission control doing its job.
    config = ServiceConfig(
        jobs=1,
        max_in_flight=8,
        tenant_rate=100.0,
        tenant_burst=25.0,
    )
    with DaemonService(config) as service:
        load = service.handle(
            Request(op="load", params={"definition": _definition(circuit)})
        )
        key = load["result"]["circuit"]
        shed = [0] * tenants
        ok = [0] * tenants
        barrier = threading.Barrier(tenants)

        def tenant_loop(i):
            barrier.wait()
            for n in range(requests_per_tenant):
                resp = service.handle(
                    Request(
                        op="chain",
                        tenant=f"tenant{i}",
                        params={
                            "circuit": key,
                            "output": circuit.outputs[n % len(circuit.outputs)],
                        },
                    )
                )
                if resp["ok"]:
                    ok[i] += 1
                else:
                    assert resp["error"]["code"] == 429, resp
                    shed[i] += 1

        threads = [
            threading.Thread(target=tenant_loop, args=(i,))
            for i in range(tenants)
        ]
        start = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        elapsed = time.perf_counter() - start
        histogram = service.metrics.histograms()["daemon.chain_seconds"]
        admission = service.admission.as_dict()
    total = tenants * requests_per_tenant
    return {
        "tenants": tenants,
        "requests": total,
        "completed": sum(ok),
        "shed": sum(shed),
        "requests_per_second": total / elapsed,
        "chain_p50_ms": histogram.quantile(0.5) * 1e3,
        "chain_p99_ms": histogram.quantile(0.99) * 1e3,
        "admission": admission,
    }


def main(argv=None):
    import argparse
    import os

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small circuit and short bursts (CI smoke run)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=max(2, min(4, os.cpu_count() or 2)),
        help="worker processes for the dispatch study (min 2: the "
        "comparison needs cross-process dispatch either way)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_service.json",
    )
    args = parser.parse_args(argv)

    if not shared_memory_available():
        raise SystemExit("shared memory unavailable; nothing to compare")

    dispatch = dispatch_study(args.quick, args.jobs)
    print(
        f"dispatch: shm {dispatch['shm']['sweeps_per_second']:.2f} sweeps/s, "
        f"pickle {dispatch['pickle']['sweeps_per_second']:.2f} sweeps/s "
        f"-> {dispatch['shm_speedup']:.2f}x"
    )
    latency = latency_study(args.quick)
    print(
        f"latency: {latency['completed']}/{latency['requests']} ok, "
        f"{latency['shed']} shed, p50 {latency['chain_p50_ms']:.2f} ms, "
        f"p99 {latency['chain_p99_ms']:.2f} ms"
    )

    report = {
        "benchmark": "sweep shm dispatch throughput and daemon request latency",
        "quick": args.quick,
        "dispatch": dispatch,
        "latency": latency,
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")
    if dispatch["shm_speedup"] < 2.0:
        raise SystemExit(
            f"shm dispatch speedup {dispatch['shm_speedup']:.2f}x < 2x gate"
        )


if __name__ == "__main__":
    main()
