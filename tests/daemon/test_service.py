"""DaemonService end-to-end: all six operations through ``handle``."""

import os
import threading

import pytest

from repro.circuits.generators import random_circuit
from repro.core.algorithm import ChainComputer
from repro.daemon.protocol import PROTOCOL_VERSION, Request, parse_request
from repro.daemon.service import DaemonService, ServiceConfig
from repro.daemon.shm import shared_memory_available
from repro.graph.circuit import Circuit
from repro.graph.indexed import IndexedGraph
from repro.graph.node import NodeType
from repro.incremental import IncrementalEngine

needs_shm = pytest.mark.skipif(
    not shared_memory_available(), reason="no shared memory on this platform"
)


def _definition(circuit):
    """The inline-netlist protocol form of ``circuit``."""
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


def _request(op, params=None, request_id="r1", tenant="default"):
    return parse_request(
        {
            "v": PROTOCOL_VERSION,
            "op": op,
            "id": request_id,
            "tenant": tenant,
            "params": params or {},
        }
    )


def _load(service, circuit, tenant="default"):
    resp = service.handle(
        _request("load", {"definition": _definition(circuit)}, tenant=tenant)
    )
    assert resp["ok"], resp
    return resp["result"]["circuit"]


@pytest.fixture
def circuit():
    return random_circuit(4, 30, num_outputs=3, seed=17, name="svc")


@pytest.fixture
def service():
    with DaemonService(ServiceConfig(jobs=1)) as svc:
        yield svc


class TestLoadAndChain:
    def test_load_reports_shape(self, service, circuit):
        resp = service.handle(
            _request("load", {"definition": _definition(circuit)})
        )
        assert resp["ok"]
        result = resp["result"]
        assert result["nodes"] == len(circuit)
        assert result["outputs"] == circuit.outputs
        assert result["version"] == 1

    def test_load_is_idempotent(self, service, circuit):
        key1 = _load(service, circuit)
        key2 = _load(service, circuit)
        assert key1 == key2
        stats = service.handle(_request("stats"))["result"]
        assert len(stats["circuits"]) == 1

    def test_chain_matches_reference_computer(self, service, circuit):
        key = _load(service, circuit)
        for out in circuit.outputs:
            resp = service.handle(
                _request("chain", {"circuit": key, "output": out})
            )
            assert resp["ok"], resp
            chains = resp["result"]["chains"]
            graph = IndexedGraph.from_circuit(circuit, out)
            ref = ChainComputer(graph, backend=service.config.backend)
            for u in graph.sources():
                name = graph.name_of(u)
                if name in chains:
                    assert chains[name] == ref.chain(u).to_dict()

    def test_chain_explicit_targets(self, service, circuit):
        key = _load(service, circuit)
        out = circuit.outputs[0]
        graph = IndexedGraph.from_circuit(circuit, out)
        target = graph.name_of(graph.sources()[0])
        resp = service.handle(
            _request(
                "chain",
                {"circuit": key, "output": out, "targets": [target]},
            )
        )
        assert resp["ok"]
        assert list(resp["result"]["chains"]) == [target]

    def test_unknown_circuit_is_404(self, service):
        resp = service.handle(_request("chain", {"circuit": "nope"}))
        assert not resp["ok"]
        assert resp["error"]["code"] == 404
        assert resp["error"]["reason"] == "unknown_circuit"

    def test_unknown_output_is_404(self, service, circuit):
        key = _load(service, circuit)
        resp = service.handle(
            _request("chain", {"circuit": key, "output": "nope"})
        )
        assert not resp["ok"]
        assert resp["error"]["reason"] == "unknown_output"

    def test_internal_errors_do_not_kill_service(self, service, circuit):
        key = _load(service, circuit)
        resp = service.handle(
            _request("chain", {"circuit": key, "targets": "oops"})
        )
        assert not resp["ok"]
        # The service keeps answering after a failed request.
        assert service.handle(_request("stats"))["ok"]

    def test_config_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown backend"):
            ServiceConfig(backend="bogus")

    def test_default_backend_is_linear(self, service):
        assert service.handle(_request("stats"))["result"]["backend"] == "linear"


class TestSweepAndEdit:
    def test_inline_sweep_counts_pairs(self, service, circuit):
        key = _load(service, circuit)
        resp = service.handle(_request("sweep", {"circuit": key}))
        assert resp["ok"], resp
        result = resp["result"]
        assert result["dispatch"] == "inline"
        assert len(result["cones"]) == len(circuit.outputs)
        assert result["total_pairs"] == sum(
            c["pairs"] for c in result["cones"]
        )

    @needs_shm
    def test_mp_shm_sweep_matches_inline(self, circuit):
        with DaemonService(ServiceConfig(jobs=1)) as inline_svc:
            key = _load(inline_svc, circuit)
            inline = inline_svc.handle(_request("sweep", {"circuit": key}))
        with DaemonService(ServiceConfig(jobs=2, chunk_size=1)) as mp_svc:
            key = _load(mp_svc, circuit)
            mp = mp_svc.handle(_request("sweep", {"circuit": key}))
        assert inline["ok"] and mp["ok"]
        assert mp["result"]["dispatch"] == "shm"
        assert [
            (c["output"], c["chains"], c["pairs"])
            for c in mp["result"]["cones"]
        ] == [
            (c["output"], c["chains"], c["pairs"])
            for c in inline["result"]["cones"]
        ]

    def test_mp_pickle_sweep_matches_inline(self, circuit):
        with DaemonService(ServiceConfig(jobs=1)) as inline_svc:
            key = _load(inline_svc, circuit)
            inline = inline_svc.handle(_request("sweep", {"circuit": key}))
        config = ServiceConfig(jobs=2, chunk_size=1, use_shared_memory=False)
        with DaemonService(config) as mp_svc:
            key = _load(mp_svc, circuit)
            mp = mp_svc.handle(_request("sweep", {"circuit": key}))
        assert mp["result"]["dispatch"] == "pickle"
        assert [c["pairs"] for c in mp["result"]["cones"]] == [
            c["pairs"] for c in inline["result"]["cones"]
        ]

    def test_edit_bumps_version_and_updates_chains(self, service, circuit):
        key = _load(service, circuit)
        out = circuit.outputs[0]
        before = service.handle(
            _request("chain", {"circuit": key, "output": out})
        )["result"]
        node = circuit.node(out)
        if len(node.fanins) < 2:
            pytest.skip("output gate has a single fanin")
        resp = service.handle(
            _request(
                "edit",
                {
                    "circuit": key,
                    "output": out,
                    "edits": [
                        {
                            "op": "rewire",
                            "name": out,
                            "fanins": list(reversed(node.fanins)),
                        }
                    ],
                },
            )
        )
        assert resp["ok"], resp
        assert resp["result"]["version"] == 2
        after = service.handle(
            _request("chain", {"circuit": key, "output": out})
        )["result"]
        assert after["version"] == 2
        # The edited netlist is what later queries see: a fresh
        # reference over the updated circuit agrees with the engine.
        with service._lock:
            updated = service._circuits[key]
        graph = IndexedGraph.from_circuit(updated, out)
        ref = ChainComputer(graph, backend=service.config.backend)
        for u in graph.sources():
            name = graph.name_of(u)
            if name in after["chains"]:
                assert after["chains"][name] == ref.chain(u).to_dict()
        assert before["version"] == 1

    @needs_shm
    def test_edit_retires_shared_segment(self, circuit):
        with DaemonService(ServiceConfig(jobs=2)) as svc:
            key = _load(svc, circuit)
            assert svc._pool.ref(key) is not None
            out = circuit.outputs[0]
            svc.handle(_request("chain", {"circuit": key, "output": out}))
            resp = svc.handle(
                _request(
                    "edit",
                    {
                        "circuit": key,
                        "output": out,
                        "edits": [
                            {
                                "op": "add-gate",
                                "name": "svc_extra",
                                "fanins": [circuit.inputs[0]],
                                "type": "buf",
                            }
                        ],
                    },
                )
            )
            assert resp["ok"], resp
            # The engine's edit listener retired the segment...
            assert svc._pool.ref(key) is None
            # ...and the next sweep republishes the *edited* netlist.
            sweep = svc.handle(_request("sweep", {"circuit": key}))
            assert sweep["ok"]
            ref = svc._pool.ref(key)
            assert ref is not None and ref.version == 2

    def test_invalid_edit_script_mutates_nothing(self, service, circuit):
        key = _load(service, circuit)
        resp = service.handle(
            _request(
                "edit",
                {
                    "circuit": key,
                    "edits": [
                        {"op": "remove-gate", "name": "does_not_exist"}
                    ],
                },
            )
        )
        assert not resp["ok"]
        stats = service.handle(_request("stats"))["result"]
        assert stats["circuits"][key]["version"] == 1

    def test_edit_drops_only_the_engines_it_can_change(self, service):
        # Cone A = {a, b, g1, g2, oa}; cone B = {c, d, h1, h2, ob};
        # cone C = {a, b, c, d, g1, h1, oc}.  Rewiring g1 through A
        # changes A and C, never B.
        circuit = Circuit("keep")
        for name in "abcd":
            circuit.add_input(name)
        for name, kind, fanins in (
            ("g1", NodeType.AND, ("a", "b")),
            ("g2", NodeType.OR, ("a", "b")),
            ("h1", NodeType.AND, ("c", "d")),
            ("h2", NodeType.OR, ("c", "d")),
            ("oa", NodeType.AND, ("g1", "g2")),
            ("ob", NodeType.AND, ("h1", "h2")),
            ("oc", NodeType.AND, ("g1", "h1")),
        ):
            circuit.add_gate(name, kind, fanins)
        circuit.set_outputs(["oa", "ob", "oc"])
        key = _load(service, circuit)

        def chain(output):
            resp = service.handle(
                _request("chain", {"circuit": key, "output": output})
            )
            assert resp["ok"], resp
            return resp["result"]["chains"]

        def opened():
            counters = service.metrics.snapshot()["counters"]
            return counters.get("daemon.engines_opened", 0)

        for output in ("oa", "ob", "oc"):
            chain(output)
        assert opened() == 3
        resp = service.handle(
            _request(
                "edit",
                {
                    "circuit": key,
                    "output": "oa",
                    "edits": [
                        {
                            "op": "add-gate",
                            "name": "buf",
                            "fanins": ["a"],
                            "type": "buf",
                        },
                        {"op": "rewire", "name": "g1", "fanins": ["buf", "b"]},
                    ],
                },
            )
        )
        assert resp["ok"], resp
        with service._lock:
            assert set(service._engines) == {(key, "oa"), (key, "ob")}
            updated = service._circuits[key]

        def fresh(output):
            engine = IncrementalEngine.from_circuit(updated, output)
            graph = engine.graph
            return {
                graph.name_of(u): engine.chain(u).to_dict()
                for u in graph.sources()
            }

        # B serves from its open engine, as a fresh engine would.
        assert chain("ob") == fresh("ob")
        assert opened() == 3
        # C was dropped; its next query reopens it on the edited netlist.
        assert chain("oc") == fresh("oc")
        assert opened() == 4


class TestDynamicEngine:
    """The daemon's dynamic engines: same answers, every edit certified."""

    def test_config_rejects_unknown_engine(self):
        # One engine, no selector; a config that still names one fails.
        with pytest.raises(TypeError):
            ServiceConfig(engine="patch")

    def test_edits_serve_identical_chains(self, circuit):
        with DaemonService(ServiceConfig()) as svc:
            key = _load(svc, circuit)
            out = circuit.outputs[0]
            svc.handle(_request("chain", {"circuit": key, "output": out}))
            edits = [
                [
                    {
                        "op": "add-gate",
                        "name": "dyn_a",
                        "fanins": [circuit.inputs[0], circuit.inputs[1]],
                        "type": "and",
                    }
                ],
                [
                    {
                        "op": "rewire",
                        "name": out,
                        "fanins": ["dyn_a", circuit.inputs[2]],
                    }
                ],
                [{"op": "remove-gate", "name": "dyn_a"}],
            ]
            # the third batch would orphan the rewired output's fanin;
            # restore it first in the same batch
            edits[2].insert(
                0,
                {
                    "op": "rewire",
                    "name": out,
                    "fanins": [circuit.inputs[0], circuit.inputs[2]],
                },
            )
            for batch in edits:
                resp = svc.handle(
                    _request(
                        "edit",
                        {"circuit": key, "output": out, "edits": batch},
                    )
                )
                assert resp["ok"], resp
                svc.handle(_request("chain", {"circuit": key, "output": out}))
                # The engine edits its graph in place while a reference
                # re-indexes the updated netlist, so vertex indices
                # diverge — compare chains as name pair sets.
                with svc._lock:
                    updated = svc._circuits[key]
                    engine = svc._engines[(key, out)]
                graph = IndexedGraph.from_circuit(updated, out)
                ref = ChainComputer(graph, backend=svc.config.backend)
                tree = engine.tree
                for u in graph.sources():
                    name = graph.name_of(u)
                    eu = engine.graph.index_of(name)
                    if not tree.is_reachable(eu):
                        continue
                    got = {
                        frozenset(engine.graph.name_of(x) for x in pair)
                        for pair in engine.chain(eu).pair_set()
                    }
                    want = {
                        frozenset(graph.name_of(x) for x in pair)
                        for pair in ref.chain(u).pair_set()
                    }
                    assert got == want
            stats = svc.handle(_request("stats"))["result"]
            assert stats["engine"] == "dynamic"
            assert stats["engine_stats"]["certificate_checks"] == len(edits)
            counters = stats["metrics"]["counters"]
            assert counters.get("dynamic.certificate_checks") == len(edits)
            assert "dynamic.certificate_failures" not in counters

    def test_certificate_failure_retires_engine(self, circuit):
        with DaemonService(ServiceConfig()) as svc:
            key = _load(svc, circuit)
            out = circuit.outputs[0]
            svc.handle(_request("chain", {"circuit": key, "output": out}))
            with svc._lock:
                engine = svc._engines[(key, out)]
            # Corrupt the maintained tree: re-hang a vertex whose true
            # idom is not the output directly under the output.
            idom = engine._maintainer.idom
            graph = engine.graph
            victim = next(
                v
                for v in graph.sources()
                if idom[v] not in (-1, graph.root)
            )
            idom[victim] = graph.root
            # An edit far from the victim: a dangling buffer on another
            # input only sweeps that input's region, so the corruption
            # survives until the certificate runs.
            spare = next(
                i for i in circuit.inputs if i != graph.name_of(victim)
            )
            resp = svc.handle(
                _request(
                    "edit",
                    {
                        "circuit": key,
                        "output": out,
                        "edits": [
                            {
                                "op": "add-gate",
                                "name": "dangling",
                                "fanins": [spare],
                                "type": "buf",
                            }
                        ],
                    },
                )
            )
            assert not resp["ok"]
            assert resp["error"]["code"] == 500
            assert resp["error"]["reason"] == "certificate_failed"
            counters = svc.metrics.snapshot()["counters"]
            assert counters["daemon.certificate_failures"] == 1
            with svc._lock:
                assert (key, out) not in svc._engines
            # The next query opens a fresh engine on the edited netlist
            # and serves the from-scratch chains.
            query = {"circuit": key, "output": out}
            resp = svc.handle(_request("chain", query))
            assert resp["ok"], resp
            counters = svc.metrics.snapshot()["counters"]
            assert counters["daemon.engines_opened"] == 2
            with svc._lock:
                updated = svc._circuits[key]
            assert "dangling" in updated
            ref_graph = IndexedGraph.from_circuit(updated, out)
            ref = ChainComputer(ref_graph)
            want = {
                ref_graph.name_of(u): ref.chain(u).to_dict()
                for u in ref_graph.sources()
                if ref.tree.is_reachable(u)
            }
            assert resp["result"]["chains"] == want

    @needs_shm
    def test_dynamic_edit_retires_shared_segment(self, circuit):
        with DaemonService(ServiceConfig(jobs=2)) as svc:
            key = _load(svc, circuit)
            assert svc._pool.ref(key) is not None
            out = circuit.outputs[0]
            svc.handle(_request("chain", {"circuit": key, "output": out}))
            resp = svc.handle(
                _request(
                    "edit",
                    {
                        "circuit": key,
                        "output": out,
                        "edits": [
                            {
                                "op": "add-gate",
                                "name": "dyn_extra",
                                "fanins": [circuit.inputs[0]],
                                "type": "buf",
                            }
                        ],
                    },
                )
            )
            assert resp["ok"], resp
            # Edit requests on an engine retire its shm segment.
            assert svc._pool.ref(key) is None


class TestAdmissionIntegration:
    def test_sheds_when_in_flight_full(self, service, circuit):
        key = _load(service, circuit)
        # Occupy the only other slot out-of-band, then every gated
        # request sheds with the in-flight reason.
        for _ in range(service.config.max_in_flight):
            assert service.admission.admit()[0]
        resp = service.handle(_request("chain", {"circuit": key}))
        assert not resp["ok"]
        assert resp["error"]["code"] == 429
        assert resp["error"]["reason"] == "in_flight_limit"
        # Ungated ops still work under saturation.
        assert service.handle(_request("stats"))["ok"]
        for _ in range(service.config.max_in_flight):
            service.admission.release()
        assert service.handle(
            _request("chain", {"circuit": key, "output": circuit.outputs[0]})
        )["ok"]

    def test_rate_limit_sheds_chatty_tenant_only(self, circuit):
        config = ServiceConfig(tenant_rate=1.0, tenant_burst=2.0)
        with DaemonService(config) as svc:
            key = _load(svc, circuit, tenant="chatty")  # burns 1 token
            out = circuit.outputs[0]
            chain = {"circuit": key, "output": out}
            assert svc.handle(
                _request("chain", chain, tenant="chatty")
            )["ok"]
            shed = svc.handle(_request("chain", chain, tenant="chatty"))
            assert not shed["ok"]
            assert shed["error"]["reason"] == "tenant_rate_limit"
            # A quiet tenant is untouched by the chatty one's shedding.
            assert svc.handle(
                _request("chain", chain, tenant="quiet")
            )["ok"]


class TestCrossTenantIsolation:
    def test_concurrent_tenants_zero_mixups(self):
        """N tenants hammer distinct circuits; every response must carry
        the requesting tenant's circuit key and that circuit's chains."""
        tenants = {
            f"tenant{i}": random_circuit(
                4, 25, num_outputs=2, seed=100 + i, name=f"iso{i}"
            )
            for i in range(4)
        }
        config = ServiceConfig(
            jobs=1, max_in_flight=64, tenant_rate=10_000.0, tenant_burst=10_000.0
        )
        with DaemonService(config) as svc:
            keys = {
                tenant: _load(svc, circ, tenant=tenant)
                for tenant, circ in tenants.items()
            }
            expected = {}
            for tenant, circ in tenants.items():
                out = circ.outputs[0]
                resp = svc.handle(
                    _request(
                        "chain",
                        {"circuit": keys[tenant], "output": out},
                        tenant=tenant,
                    )
                )
                assert resp["ok"]
                expected[tenant] = resp["result"]

            mixups = []
            barrier = threading.Barrier(len(tenants))

            def hammer(tenant):
                circ = tenants[tenant]
                barrier.wait()
                for i in range(20):
                    resp = svc.handle(
                        _request(
                            "chain",
                            {
                                "circuit": keys[tenant],
                                "output": circ.outputs[0],
                            },
                            request_id=f"{tenant}-{i}",
                            tenant=tenant,
                        )
                    )
                    if not resp["ok"]:
                        mixups.append((tenant, resp))
                    elif resp["result"] != expected[tenant]:
                        mixups.append((tenant, resp))
                    elif resp["id"] != f"{tenant}-{i}":
                        mixups.append((tenant, resp))

            threads = [
                threading.Thread(target=hammer, args=(t,)) for t in tenants
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert mixups == []


class TestLifecycle:
    def test_shutdown_sets_event(self, service):
        assert not service.shutdown_requested.is_set()
        resp = service.handle(_request("shutdown"))
        assert resp["ok"] and resp["result"]["stopping"]
        assert service.shutdown_requested.is_set()

    def test_stats_reports_latency_quantiles(self, service, circuit):
        key = _load(service, circuit)
        service.handle(
            _request("chain", {"circuit": key, "output": circuit.outputs[0]})
        )
        stats = service.handle(_request("stats"))["result"]
        assert "daemon.chain_seconds" in stats["latency"]
        entry = stats["latency"]["daemon.chain_seconds"]
        assert entry["count"] >= 1
        assert entry["p50"] <= entry["p99"]

    @needs_shm
    def test_close_leaves_no_segments_behind(self, circuit):
        svc = DaemonService(ServiceConfig(jobs=2))
        key = _load(svc, circuit)
        svc.handle(_request("sweep", {"circuit": key}))
        published = svc.metrics.snapshot()["counters"].get("shm.publishes", 0)
        svc.close()
        if os.path.isdir("/dev/shm"):
            assert published > 0
            # Only this service's segments: the pool names them
            # rpro_<key>_<version>_<pid>_<n>, and other daemons on the
            # host may hold segments of their own.
            pid = str(os.getpid())
            leftovers = [
                f
                for f in os.listdir("/dev/shm")
                if f.startswith("rpro_") and f.split("_")[-2] == pid
            ]
            assert leftovers == []

    def test_handle_is_plain_request_object(self, service):
        # Requests constructed directly (not via parse_request) work too.
        resp = service.handle(Request(op="stats"))
        assert resp["ok"]
