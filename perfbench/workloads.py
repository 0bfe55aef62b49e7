"""The benchmark's two workloads, each a closed loop driven by one seed.

Every workload follows one contract:

* ``setup()`` builds the inputs from the seed, loads them and warms the
  program up (the benchmark times it as ``setup_s``);
* ``run()`` drives a closed loop -- each client waits for a reply before
  it sends the next request -- and records every op in a
  :class:`Recorder`;
* ``check()`` is the correctness gate; it runs after the timed phase, or
  inside it with the clock paused;
* ``digest()`` hashes the results of the first :data:`DIGEST_OPS` ops, so
  a traced and an untraced run over the same inputs can be compared;
* ``close()`` stops everything the workload started.

The program is driven as shipped: no ``backend``, ``kernels``, ``engine``
or ``prefilter`` option is ever passed, so a changed default shows up
here the way users would see it.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import random
import socket
import threading
import time
from contextlib import contextmanager, nullcontext
from multiprocessing import resource_tracker
from typing import Dict, List, Tuple

from repro.check.oracle import check_cone
from repro.circuits.figures import figure2_circuit
from repro.circuits.suite import set_seed_offset, table1_suite
from repro.core import algorithm
from repro.core.chain import DominatorChain
from repro.daemon.protocol import Request
from repro.daemon.server import serve_jsonl
from repro.daemon.service import DaemonService, ServiceConfig
from repro.dominators import shared
from repro.graph.indexed import IndexedGraph
from repro.incremental import IncrementalEngine
from repro.parsers import bench
from repro.service.executor import (
    ExecutorConfig,
    ParallelExecutor,
    pairs_in_chain_dict,
)
from repro.service.hashing import circuit_fingerprint

#: Ops per run whose results enter the traced-vs-untraced digest.
DIGEST_OPS = 30


def _hash(obj) -> str:
    text = json.dumps(obj, sort_keys=True).encode("utf-8")
    return hashlib.blake2b(text, digest_size=12).hexdigest()


class Recorder:
    """Latencies (seconds) and failures of one measured phase."""

    MAX_MESSAGES = 20

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.op: List[float] = []
        self.read: List[float] = []
        self.write: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []
        self.wall = 0.0
        self.paused = 0.0
        self._lock = threading.Lock()

    def record(self, op: float, read=None, write=None) -> None:
        with self._lock:
            self.attempted += 1
            self.op.append(op)
            if read is not None:
                self.read.append(read)
            if write is not None:
                self.write.append(write)

    def fail(self, message: str, attempted: bool = False) -> None:
        """Count a failure; ``attempted`` when it replaces a recorded op."""
        with self._lock:
            self.attempted += attempted
            self.failed += 1
            if len(self.messages) < self.MAX_MESSAGES:
                self.messages.append(message)

    def traced(self, op_id, fn, *args):
        """Call ``fn``; under tracing, inside a root ``op`` span."""
        if self.tracer is None:
            return fn(*args)
        self.tracer.set_op(op_id)
        return self.tracer.call("op", fn, *args)

    @contextmanager
    def pause(self):
        """Keep a mid-run check out of the measured wall time and trace."""
        start = time.perf_counter()
        try:
            with self.tracer.suspended() if self.tracer else nullcontext():
                yield
        finally:
            self.paused += time.perf_counter() - start

    @property
    def ops_per_s(self) -> float:
        return len(self.op) / self.wall if self.wall > 0 else 0.0


class Budget:
    """When a closed loop stops.

    After ``seconds`` of measured time, once the op class and each read
    or write class in use hold ``min_samples`` (so a p90 has ten samples
    beyond it), and in any case after ``MAX_FACTOR * seconds``.
    """

    MAX_FACTOR = 3

    def __init__(self, seconds: float, min_samples: int, rec: Recorder):
        self.seconds = seconds
        self.min_samples = min_samples
        self.rec = rec
        self.start = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.start - self.rec.paused

    def done(self) -> bool:
        elapsed = self.elapsed()
        if elapsed < self.seconds:
            return False
        if elapsed >= self.MAX_FACTOR * self.seconds:
            return True
        rec = self.rec
        in_use = [c for c in (rec.op, rec.read, rec.write) if c]
        return min(map(len, in_use), default=0) >= self.min_samples

    def finish(self) -> None:
        self.rec.wall = self.elapsed()


class BufferScript:
    """Seeded buffer insertions on gate fanins, and removals of old ones.

    ``fanins`` is a live model ``gate -> fanin names`` that the script
    edits in step with the program.  A removal restores the gate's
    original fanin, which keeps the netlist bounded and exercises
    deletions.  Callers remove the oldest buffer once ``full``, so every
    write past the first few has the same shape.
    """

    def __init__(self, fanins, editable, rng, prefix, max_live=4):
        self.fanins: Dict[str, List[str]] = fanins
        self.editable = list(editable)
        self.rng = rng
        self.prefix = prefix
        self.max_live = max_live
        self.live: List[Tuple[str, str, int, str]] = []
        self._buffered = set()
        self._count = 0

    @property
    def full(self) -> bool:
        return len(self.live) >= self.max_live

    def remove_oldest(self) -> Tuple[str, str]:
        """Drop the oldest buffer from the model: ``(buffer, gate)``."""
        buf, gate, slot, driver = self.live.pop(0)
        self._buffered.discard(gate)
        self.fanins[gate][slot] = driver
        del self.fanins[buf]
        return buf, gate

    def insert(self) -> Tuple[str, str, str]:
        """Buffer a seeded fanin in the model: ``(buffer, gate, driver)``."""
        rng = self.rng
        gate = rng.choice(self.editable)
        while gate in self._buffered:
            gate = rng.choice(self.editable)
        slot = rng.randrange(len(self.fanins[gate]))
        driver = self.fanins[gate][slot]
        buf = f"{self.prefix}{self._count}"
        self._count += 1
        self.fanins[buf] = [driver]
        self.fanins[gate][slot] = buf
        self.live.append((buf, gate, slot, driver))
        self._buffered.add(gate)
        return buf, gate, driver


def effective_config() -> Dict[str, object]:
    """The options the public objects report when given none."""
    graph = IndexedGraph.from_circuit(figure2_circuit())
    computer = algorithm.ChainComputer(graph)
    return {
        "ChainComputer.backend": computer.backend,
        "ChainComputer.kernels": computer.kernels,
        "ChainComputer.prefilter": computer.prefilter,
        "IncrementalEngine.engine": IncrementalEngine(graph).engine,
    }


class Workload:
    """Base: a seeded closed-loop workload (see the module docstring)."""

    name = ""
    clients = 1

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.seed = seed
        self.tiny = tiny

    def config(self) -> Dict[str, object]:
        return effective_config()

    def layer_extras(self, tracer) -> Dict[str, float]:
        """Per-layer metrics only this workload can observe."""
        return {}

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# table1_sweep
# ----------------------------------------------------------------------
class Table1Sweep(Workload):
    """The paper's Table 1: every suite netlist, ``.bench`` text in,
    serialized chains of every primary input of every cone out.

    An op is one pass over the suite: each netlist is parsed (the write
    share) and swept with ``ParallelExecutor(ExecutorConfig(jobs=1))``
    (the read share).  Single netlists take from under 1 ms to tens of
    ms, so a percentile over them lands in a gap between two circuits;
    a pass is one Table-1 run and its time is the paper's figure.  Passes cycle through ``VARIANTS`` seeded draws of the random
    families, so a run does not hinge on one draw of each random circuit.
    """

    name = "table1_sweep"
    SCALE = 0.05
    VARIANTS = 3
    TINY = ("alu2", "cmb", "comp", "cordic")
    #: Sampled cones checked against the baseline and brute force; the
    #: brute force confirms only cones this small (the oracle's default).
    GATE_CONES = 6
    GATE_MAX_VERTICES = 48

    def setup(self) -> None:
        suite = table1_suite()
        names = self.TINY if self.tiny else list(suite)
        self.variants: List[List[Tuple[str, str]]] = []
        for k in range(self.VARIANTS):
            offset = self.seed * self.VARIANTS + k
            set_seed_offset(offset)
            try:
                texts = [
                    (n, bench.dumps(suite[n].circuit(self.SCALE))) for n in names
                ]
            finally:
                set_seed_offset(0)
            random.Random(offset).shuffle(texts)
            self.variants.append(texts)
        self.executor = ParallelExecutor(ExecutorConfig(jobs=1))
        self.hashes: List[str] = []
        self.small: List[tuple] = []
        self._pass(0)

    def _pass(self, variant: int):
        """Parse and sweep every netlist of one draw.

        Returns ``[(name, circuit, results)]``, parse seconds and sweep
        seconds.
        """
        swept = []
        parse = sweep = 0.0
        for name, text in self.variants[variant]:
            start = time.perf_counter()
            circuit = bench.loads(text, name)
            parsed = time.perf_counter()
            results = self.executor.sweep_circuit(circuit)
            parse += parsed - start
            sweep += time.perf_counter() - parsed
            swept.append((name, circuit, results))
        return swept, parse, sweep

    def run(self, seconds: float, rec: Recorder, min_samples: int) -> None:
        self.hashes, self.small = [], []
        totals: Dict[tuple, int] = {}
        budget = Budget(seconds, min_samples, rec)
        passes = 0
        while True:
            variant = passes % self.VARIANTS
            try:
                swept, write, read = rec.traced(passes, self._pass, variant)
            except Exception as exc:  # noqa: BLE001 - counted, loop goes on
                rec.fail(f"pass {passes}: {type(exc).__name__}: {exc}", True)
                swept = []
            else:
                rec.record(write + read, read=read, write=write)
            for name, circuit, results in swept:
                total = sum(r.num_pairs for r in results)
                first = totals.setdefault((variant, name), total)
                if total != first:
                    rec.fail(
                        f"{name}: pass {passes} found {total} pairs, "
                        f"an earlier pass found {first}"
                    )
            if passes == 0:
                with rec.pause():
                    for name, circuit, results in swept:
                        self._keep(name, circuit, results)
            passes += 1
            if budget.done():
                break
        budget.finish()

    def _keep(self, name, circuit, results) -> None:
        """Digest a first-pass op; keep only cones brute force can confirm.

        Holding every served chain would grow the heap the collector
        scans for the rest of the run.
        """
        self.hashes.append(_hash([[r.output, r.chains] for r in results]))
        for result in results:
            graph = shared.cone_graph(circuit, result.output)
            if graph.n <= self.GATE_MAX_VERTICES:
                self.small.append((name, result.output, graph, result.chains))

    def check(self, rec: Recorder) -> None:
        sample = random.Random(self.seed + 1).sample(
            self.small, min(self.GATE_CONES, len(self.small))
        )
        if not sample:
            rec.fail("gate: no cone small enough for brute force")
        for name, output, graph, chains in sample:

            def served(g, u, chains=chains):
                return DominatorChain.from_dict(chains[g.name_of(u)])

            for mismatch in check_cone(
                graph,
                chain_fn=served,
                brute_limit=self.GATE_MAX_VERTICES,
                circuit=name,
                output=output,
            ):
                rec.fail(str(mismatch))

    def digest(self) -> List[str]:
        return self.hashes


# ----------------------------------------------------------------------
# daemon_mix
# ----------------------------------------------------------------------
class Connection:
    """One closed-loop JSONL client over a loopback socket."""

    def __init__(self, port: int, tenant: str) -> None:
        self.tenant = tenant
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=120)
        self.file = self.sock.makefile("rwb")

    def call(self, op: str, params: dict, request_id: str) -> dict:
        request = {
            "v": 1,
            "op": op,
            "id": request_id,
            "tenant": self.tenant,
            "params": params,
        }
        self.file.write((json.dumps(request) + "\n").encode("utf-8"))
        self.file.flush()
        line = self.file.readline()
        if not line:
            raise ConnectionError("the daemon closed the connection")
        return json.loads(line)

    def close(self) -> None:
        # shutdown, not just close: forked pool workers hold copies of
        # this descriptor, and only shutdown sends the daemon its EOF.
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.file.close()
        self.sock.close()


class _OwnCircuit:
    """A circuit only one client edits, with its client-side model."""

    def __init__(self, key, circuit, rng, prefix) -> None:
        self.key = key
        cones = {o: set(shared.cone_graph(circuit, o).names) for o in circuit.outputs}
        fanins = {g: list(circuit.fanins(g)) for g in circuit if circuit.fanins(g)}
        self.outputs_of = {
            g: [o for o in circuit.outputs if g in cones[o]] for g in fanins
        }
        editable = sorted(g for g in fanins if self.outputs_of[g])
        self.script = BufferScript(fanins, editable, rng, prefix)
        self.edit_output: Dict[str, str] = {}


class DaemonMix(Workload):
    """The daemon over its JSONL transport, one closed-loop connection.

    The seeded mix is ~72% ``chain`` on a random output, ~22% ``edit``
    (buffer insertion/removal, ``output`` set) on the client's own
    circuit, and ~6% ``sweep`` of a never-edited circuit.  Sweeps stay
    under 10% so that p90 falls inside the chain/edit distribution and
    not on the boundary between the two.  Admission is sized never to
    shed at this load.

    One connection, because a sweep keeps both pool workers busy for the
    time of many chain requests: a second connection's requests would then
    compete with the workers for two vCPUs, and its latency would measure
    the scheduler.
    """

    name = "daemon_mix"
    clients = 1
    SCALE = 0.5
    READ_ONLY = ("C432", "C880", "alu4", "x1")
    EDITED = ("C1908",)  # one per client
    CHAIN, EDIT = 0.72, 0.94  # cumulative shares; the rest are sweeps
    JOBS = 2

    def setup(self) -> None:
        self.service = DaemonService(
            ServiceConfig(
                jobs=self.JOBS,
                max_in_flight=64,
                tenant_rate=1e9,
                tenant_burst=1e9,
            )
        )
        self.sessions = set()
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(
            target=self.loop.run_forever, name="daemon-loop", daemon=True
        )
        self.thread.start()
        self.server = self._await(
            asyncio.start_server(self._session, "127.0.0.1", 0)
        )
        port = self.server.sockets[0].getsockname()[1]
        self.conns = [Connection(port, f"client{i}") for i in range(self.clients)]
        scale = 0.2 if self.tiny else self.SCALE
        self.read_only: List[str] = []
        self.outputs: Dict[str, List[str]] = {}
        self.own: List[_OwnCircuit] = []
        set_seed_offset(self.seed)
        try:
            for name in self.READ_ONLY + self.EDITED:
                result = self._setup_call("load", {"suite": name, "scale": scale})
                self.outputs[result["circuit"]] = result["outputs"]
                if name in self.READ_ONLY:
                    self.read_only.append(result["circuit"])
                else:
                    circuit = table1_suite()[name].circuit(scale)
                    if circuit_fingerprint(circuit) != result["circuit"]:
                        raise RuntimeError(f"{name}: loaded circuit differs")
                    i = len(self.own)
                    self.own.append(
                        _OwnCircuit(
                            result["circuit"],
                            circuit,
                            random.Random(self.seed * 31 + i),
                            f"db{i}_",
                        )
                    )
        finally:
            set_seed_offset(0)
        self.scale = scale
        # warm-up: the first sweep forks the worker pool
        self._setup_call("sweep", {"circuit": self.read_only[0]})

    def _await(self, coro):
        return asyncio.run_coroutine_threadsafe(coro, self.loop).result(60)

    async def _session(self, reader, writer) -> None:
        self.sessions.add(asyncio.current_task())
        try:
            await serve_jsonl(self.service, reader, writer)
        finally:
            writer.close()
            await writer.wait_closed()

    async def _stop_server(self) -> None:
        """Wait for every session to see its client's EOF, then close."""
        await asyncio.gather(*self.sessions, return_exceptions=True)
        self.server.close()
        await self.server.wait_closed()
        await self.loop.shutdown_default_executor()

    def _setup_call(self, op: str, params: dict) -> dict:
        response = self.conns[0].call(op, params, f"setup-{op}")
        if not response.get("ok"):
            raise RuntimeError(f"setup {op} failed: {response.get('error')}")
        return response["result"]

    def _stats(self) -> dict:
        return self.service.handle(Request(op="stats"))["result"]

    def _next_request(self, rng, own: _OwnCircuit):
        r = rng.random()
        if r < self.CHAIN:
            key = rng.choice(self.read_only + [own.key])
            return "chain", {"circuit": key, "output": rng.choice(self.outputs[key])}
        if r < self.EDIT:
            # one request edits through one output's engine, so a removal
            # and an insertion are separate requests
            script = own.script
            if script.full:
                buf, gate = script.remove_oldest()
                output = own.edit_output.pop(buf)
                edits = [
                    {"op": "rewire", "name": gate, "fanins": list(script.fanins[gate])},
                    {"op": "remove-gate", "name": buf},
                ]
            else:
                buf, gate, driver = script.insert()
                output = own.edit_output[buf] = rng.choice(own.outputs_of[gate])
                edits = [
                    {"op": "add-gate", "name": buf, "fanins": [driver], "type": "buf"},
                    {"op": "rewire", "name": gate, "fanins": list(script.fanins[gate])},
                ]
            return "edit", {"circuit": own.key, "output": output, "edits": edits}
        return "sweep", {"circuit": rng.choice(self.read_only)}

    def run(self, seconds: float, rec: Recorder, min_samples: int) -> None:
        self.requests: List[tuple] = []  # (id, op, latency, sweep worker walls)
        self.kept: List[List[str]] = [[] for _ in self.conns]
        self.seen_chain: Dict[tuple, set] = {}
        self.seen_sweep: Dict[str, set] = {}
        self.stats_before = self._stats()
        budget = Budget(seconds, min_samples, rec)
        threads = [
            threading.Thread(target=self._client, args=(i, rec, budget))
            for i in range(self.clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(Budget.MAX_FACTOR * seconds + 120)
            if thread.is_alive():
                rec.fail("a client did not finish")
        budget.finish()

    def _client(self, i: int, rec: Recorder, budget: Budget) -> None:
        try:
            self._client_loop(i, rec, budget)
        except Exception as exc:  # noqa: BLE001 - a dead client must count
            rec.fail(f"client {i}: {type(exc).__name__}: {exc}", True)

    def _client_loop(self, i: int, rec: Recorder, budget: Budget) -> None:
        rng = random.Random(self.seed * 7919 + i)
        conn, own = self.conns[i], self.own[i]
        n = 0
        while not budget.done():
            op, params = self._next_request(rng, own)
            rid = f"c{i}-{n}"
            start = time.perf_counter()
            try:
                response = rec.traced(rid, conn.call, op, params, rid)
            except (OSError, ValueError) as exc:
                rec.fail(f"{rid} {op}: {type(exc).__name__}: {exc}", True)
                return
            latency = time.perf_counter() - start
            n += 1
            if not response.get("ok"):
                rec.fail(f"{rid} {op}: {response.get('error')}", True)
                continue
            result = response["result"]
            walls = 0.0
            if op == "chain":
                rec.record(latency, read=latency)
                item = _hash(result["chains"])
                if params["circuit"] in self.read_only:
                    pairs = sum(pairs_in_chain_dict(c) for c in result["chains"].values())
                    key = (params["circuit"], params["output"])
                    with rec._lock:
                        self.seen_chain.setdefault(key, set()).add(pairs)
            elif op == "edit":
                rec.record(latency, write=latency)
                item = _hash([result["version"], result["touched"], result["nodes"]])
            else:
                rec.record(latency)
                walls = sum(c["wall"] for c in result["cones"])
                item = _hash([[c["output"], c["pairs"]] for c in result["cones"]])
                with rec._lock:
                    self.seen_sweep.setdefault(params["circuit"], set()).add(
                        result["total_pairs"]
                    )
            self.requests.append((rid, op, latency, walls))
            if len(self.kept[i]) < DIGEST_OPS:
                self.kept[i].append(item)

    def check(self, rec: Recorder) -> None:
        """Read-only circuits: every answer equals the in-process sweep."""
        set_seed_offset(self.seed)
        try:
            suite = table1_suite()
            executor = ParallelExecutor(ExecutorConfig(jobs=1))
            reference = {}
            for name in self.READ_ONLY:
                circuit = suite[name].circuit(self.scale)
                results = executor.sweep_circuit(circuit)
                reference[circuit_fingerprint(circuit)] = {
                    r.output: r.num_pairs for r in results
                }
        finally:
            set_seed_offset(0)
        for (key, output), seen in self.seen_chain.items():
            if seen != {reference[key][output]}:
                rec.fail(f"chain {key[:8]}/{output}: pairs {sorted(seen)}, "
                         f"in-process {reference[key][output]}")
        for key, seen in self.seen_sweep.items():
            expected = sum(reference[key].values())
            if seen != {expected}:
                rec.fail(f"sweep {key[:8]}: pairs {sorted(seen)}, in-process {expected}")

    def digest(self) -> List[str]:
        return [item for kept in self.kept for item in kept]

    def config(self) -> Dict[str, object]:
        stats = self._stats()
        config = effective_config()
        config.update(
            {
                "daemon.backend": stats["backend"],
                "daemon.engine": stats["engine"],
                "daemon.jobs": stats["jobs"],
            }
        )
        return config

    def layer_extras(self, tracer) -> Dict[str, float]:
        totals = tracer.totals()
        handle = tracer.durations_by_op("daemon.handle.")
        after = self._stats()

        def per_request(op: str) -> float:
            t = totals.get(f"daemon.handle.{op}")
            return t.self / t.calls if t is not None and t.calls else 0.0

        def counter(stats: dict, name: str) -> int:
            return stats["metrics"]["counters"].get(name, 0)

        def mean(values) -> float:
            values = list(values)
            return sum(values) / len(values) if values else 0.0

        sweeps = [(rid, walls) for rid, op, _, walls in self.requests if op == "sweep"]
        return {
            "daemon.chain_handle_s": per_request("chain"),
            "daemon.edit_handle_s": per_request("edit"),
            "daemon.sweep_handle_s": per_request("sweep"),
            "daemon.transport_s": mean(
                latency - handle[rid]
                for rid, _, latency, _ in self.requests
                if rid in handle
            ),
            "daemon.admission_shed": counter(after, "daemon.shed")
            - counter(self.stats_before, "daemon.shed"),
            "daemon.sweep_worker_s": mean(walls for _, walls in sweeps),
            "daemon.sweep_dispatch_s": mean(
                handle[rid] - walls / self.JOBS for rid, walls in sweeps if rid in handle
            ),
            "daemon.engines_opened": counter(after, "daemon.engines_opened")
            - counter(self.stats_before, "daemon.engines_opened"),
        }

    def close(self) -> None:
        for conn in getattr(self, "conns", []):
            conn.close()
        if getattr(self, "server", None) is not None:
            self._await(self._stop_server())
        if getattr(self, "thread", None) is not None:
            self.loop.call_soon_threadsafe(self.loop.stop)
            self.thread.join(60)
            self.loop.close()
        self.service.close()
        # Shared memory started multiprocessing's resource tracker, a child
        # of this process: stop it and wait for it, like the pool workers.
        stop = getattr(resource_tracker._resource_tracker, "_stop", None)
        if stop is not None:
            stop()


WORKLOADS = {cls.name: cls for cls in (Table1Sweep, DaemonMix)}
