#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload table1_sweep --seed 1 --seconds 10 --trace 0

``--trace 0`` sets the workload up several times (``setup_s`` is their
median), measures a closed loop for ``--seconds``, runs the correctness
gate and reports the end-to-end metrics.  ``--trace 1`` measures half the
time untraced and half traced, on fresh set-ups with the same seed,
checks that both return identical result digests, and reports the
per-layer metrics of the traced half plus the tracing overhead.

Every metric is printed by name with its unit and sample count; the last
line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``.  Metric names and units come from ``BENCHMARK.json``.  The
exit code is 0 only when every output was correct.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Set-ups per run, half before the timed phase and half after it.
#: ``setup_s`` is their median; on a shared machine speed drifts over
#: seconds, and set-ups spread over the run keep the median out of one
#: slow stretch.
SETUPS = 12
#: A p90 needs ten samples beyond it.
MIN_SAMPLES = 100

#: Which end-to-end metric, on which workload, each layer should move.
LAYER_TARGETS = {
    "parsers": "table1_sweep ops_per_s",
    "graph": "table1_sweep ops_per_s, daemon_mix read_p90_ms",
    "dominators.tree": "daemon_mix write_p50_ms, table1_sweep ops_per_s",
    "dominators.index": "daemon_mix write_p50_ms, table1_sweep ops_per_s",
    "dominators.region": "table1_sweep op_p90_ms",
    "dominators.kernel": "table1_sweep op_p90_ms",
    "flow": "table1_sweep op_p90_ms",
    "core.match": "table1_sweep ops_per_s",
    "core.linear": "table1_sweep op_p90_ms",
    "core.chain": "table1_sweep ops_per_s, daemon_mix read_p50_ms",
    "core.region_cache": "table1_sweep ops_per_s, daemon_mix read_p50_ms",
    "core.serialize": "table1_sweep ops_per_s, daemon_mix read_p50_ms",
    "incremental": "daemon_mix write_p50_ms/read_p50_ms",
    "service": "table1_sweep ops_per_s",
    "daemon.transport": "daemon_mix op_p50_ms",
    "daemon.admission": "daemon_mix failed ops",
    "daemon.sweep": "daemon_mix op_p90_ms",
    "daemon.engines": "daemon_mix read_p90_ms",
    "daemon": "daemon_mix op_p50_ms",
    "trace": "(reconciliation: layer self time / op wall; tracing cost)",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="small inputs and no sample minimum (harness self-tests)",
    )
    return parser.parse_args(argv)


def percentile(samples, q: float) -> float:
    """Linear interpolation between closest ranks (0 for no samples)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def end_to_end(rec, setup_times):
    """``{name: (value, samples)}`` for every end-to-end metric."""
    metrics = {
        "setup_s": (statistics.median(setup_times), len(setup_times)),
        "ops_per_s": (rec.ops_per_s, len(rec.op)),
        "op_p10_ms": (percentile(rec.op, 0.1) * 1e3, len(rec.op)),
    }
    for label, samples in (("op", rec.op), ("read", rec.read), ("write", rec.write)):
        if label != "op" and not samples:
            continue  # the workload has no such class
        metrics[f"{label}_p50_ms"] = (percentile(samples, 0.5) * 1e3, len(samples))
        metrics[f"{label}_p90_ms"] = (percentile(samples, 0.9) * 1e3, len(samples))
    metrics["peak_rss_mb"] = (peak_rss_mb(), 1)
    return metrics


def per_layer(tracer, extras, untraced, traced):
    """``{name: (value, samples)}`` for every per-layer metric."""
    totals = tracer.totals()
    counts = tracer.counts

    def self_s(*names):
        return sum(totals[n].self for n in names if n in totals)

    def calls(*names):
        return sum(totals[n].calls for n in names if n in totals)

    def value(*names):
        return sum(totals[n].value for n in names if n in totals)

    def ratio(part, whole):
        return part / whole if whole else 0.0

    hits = counts.get("core.region_cache_hits", 0)
    misses = counts.get("core.region_cache_misses", 0)
    engine = tracer.engine_deltas()
    op_wall = totals["op"].busy if "op" in totals else 0.0
    layered = sum(t.self for name, t in totals.items() if name != "op")
    metrics = {
        "parsers.busy_s": self_s("parsers.loads"),
        "parsers.calls": calls("parsers.loads"),
        "graph.busy_s": self_s("graph.cone_graph", "graph.from_circuit"),
        "graph.cones": calls("graph.cone_graph", "graph.from_circuit"),
        "graph.vertices": value("graph.cone_graph", "graph.from_circuit"),
        "dominators.tree_busy_s": self_s("dominators.tree"),
        "dominators.tree_calls": calls("dominators.tree"),
        "dominators.index_busy_s": self_s("dominators.index"),
        "dominators.index_builds": calls("dominators.index"),
        "dominators.region_busy_s": self_s("dominators.region"),
        "dominators.regions": calls("dominators.region"),
        "dominators.region_vertices": value("dominators.region"),
        "dominators.kernel_busy_s": self_s("dominators.kernel"),
        "dominators.kernel_regions": calls("dominators.kernel"),
        "flow.cut_setup_busy_s": self_s("flow.cut_setup"),
        "flow.cut_busy_s": self_s("flow.cut"),
        "flow.cut_calls": calls("flow.cut"),
        "flow.cut_pair_ratio": ratio(value("flow.cut"), calls("flow.cut")),
        "core.match_busy_s": self_s("core.match", "core.match_setup"),
        "core.match_calls": calls("core.match"),
        "core.linear_busy_s": self_s("core.linear"),
        "core.linear_calls": calls("core.linear"),
        "core.chain_self_s": self_s("core.chain"),
        "core.chains": calls("core.chain"),
        "core.region_cache_hits": hits,
        "core.region_cache_misses": misses,
        "core.region_cache_hit_ratio": ratio(hits, hits + misses),
        "core.serialize_busy_s": self_s("core.serialize"),
        "incremental.apply_busy_s": self_s("incremental.apply"),
        "incremental.flush_self_s": self_s("incremental.flush"),
        "incremental.idom_update_busy_s": self_s("incremental.idom_update"),
        "incremental.invalidate_busy_s": self_s("incremental.invalidate"),
        "incremental.tree_patches": engine.get("tree_patches", 0),
        "incremental.tree_rebuilds": engine.get("tree_rebuilds", 0),
        "incremental.evictions": engine.get("evictions", 0),
        "incremental.chain_hits": engine.get("chain_hits", 0),
        "incremental.chain_hit_ratio": ratio(
            engine.get("chain_hits", 0), counts.get("incremental.chain_calls", 0)
        ),
        "service.sweep_self_s": self_s("service.sweep"),
        "service.fingerprint_busy_s": self_s("service.fingerprint"),
        "daemon.chain_handle_s": 0.0,
        "daemon.edit_handle_s": 0.0,
        "daemon.sweep_handle_s": 0.0,
        "daemon.transport_s": 0.0,
        "daemon.admission_shed": 0,
        "daemon.shm_publish_busy_s": self_s("daemon.shm_publish"),
        "daemon.shm_publishes": calls("daemon.shm_publish"),
        "daemon.sweep_worker_s": 0.0,
        "daemon.sweep_dispatch_s": 0.0,
        "daemon.engines_opened": 0,
        "trace.layer_share": ratio(layered, op_wall),
        "trace.overhead_ratio": ratio(untraced.ops_per_s, traced.ops_per_s) - 1.0,
    }
    metrics.update(extras)
    return {name: (v, len(traced.op)) for name, v in metrics.items()}


def layer_target(name: str) -> str:
    for prefix in sorted(LAYER_TARGETS, key=len, reverse=True):
        if name.startswith(prefix):
            return LAYER_TARGETS[prefix]
    return ""


def set_up(cls, seed, tiny):
    """A fresh, set-up workload and its set-up seconds."""
    gc.collect()
    workload = cls(seed, tiny)
    start = time.perf_counter()
    try:
        workload.setup()
    except BaseException:
        workload.close()
        raise
    return workload, time.perf_counter() - start


@contextmanager
def frozen_heap():
    """Collect, then keep the set-up heap out of the collector's scans.

    Each op then pays for collecting the garbage it makes, not for
    re-scanning the inputs, caches and warm state built in set-up, whose
    size would otherwise decide which ops a full collection lands in.
    """
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def measure_untraced(cls, args, min_samples):
    from workloads import Recorder

    setup_times = []
    workload = None
    for _ in range(SETUPS // 2):
        if workload is not None:
            workload.close()
        workload, seconds = set_up(cls, args.seed, args.tiny)
        setup_times.append(seconds)
    rec = Recorder()
    try:
        with frozen_heap():
            workload.run(args.seconds, rec, min_samples)
        workload.check(rec)
        config = workload.config()
    finally:
        workload.close()
    for _ in range(SETUPS - SETUPS // 2):
        spare, seconds = set_up(cls, args.seed, args.tiny)
        spare.close()
        setup_times.append(seconds)
    return rec, config, end_to_end(rec, setup_times)


def measure_traced(cls, args):
    from spans import Tracer
    from workloads import Recorder

    half = args.seconds / 2
    workload, _ = set_up(cls, args.seed, args.tiny)
    untraced = Recorder()
    try:
        with frozen_heap():
            workload.run(half, untraced, 0)
        reference = workload.digest()
    finally:
        workload.close()

    workload, _ = set_up(cls, args.seed, args.tiny)
    tracer = Tracer()
    traced = Recorder(tracer)
    try:
        tracer.install()
        try:
            with frozen_heap():
                workload.run(half, traced, 0)
        finally:
            tracer.uninstall()
        digest = workload.digest()
        workload.check(traced)
        extras = workload.layer_extras(tracer)
        config = workload.config()
    finally:
        workload.close()
    common = min(len(reference), len(digest))
    if common == 0 or reference[:common] != digest[:common]:
        traced.fail(
            f"traced and untraced results differ over the first {common} ops"
        )
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    tracer.write(out / f"spans-{args.workload}.jsonl")
    rec = untraced
    rec.attempted += traced.attempted
    rec.failed += traced.failed
    rec.messages += traced.messages
    return rec, config, per_layer(tracer, extras, untraced, traced)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"choose from {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    cls = WORKLOADS[args.workload]
    print(
        f"workload {cls.name}: closed loop, {cls.clients} client(s), "
        f"seed {args.seed}, {args.seconds:g} s, trace {args.trace}"
    )
    if args.trace:
        rec, config, computed = measure_traced(cls, args)
        wanted = spec["per_layer"]
    else:
        min_samples = 0 if args.tiny else MIN_SAMPLES
        rec, config, computed = measure_untraced(cls, args, min_samples)
        wanted = spec["end_to_end"]
    print("config " + json.dumps(config, sort_keys=True))
    metrics = {}
    for entry in wanted:
        value, samples = computed[entry["name"]]
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    for name, (value, samples) in computed.items():
        listed = name in metrics
        if listed:
            unit = metrics[name]["unit"]
        else:  # ops_per_s, the *_ms percentiles and *_busy_s
            unit = {"ops_per_s": "1/s"}.get(name, "ms" if name.endswith("_ms") else "s")
        note = f"  -> {layer_target(name)}" if args.trace else ""
        print(
            f"  {name:<34} {value:>14.6g} {unit:<6} (n={samples})"
            f"{'' if listed else '  [printed only]'}{note}"
        )
    attempted = max(rec.attempted, 1)
    failed = min(rec.failed, attempted)
    print(f"  {'failed_ratio':<34} {failed / attempted:>14.6g} ({failed}/{attempted})")
    for message in rec.messages:
        print(f"FAILED {message}")
    correct = failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
