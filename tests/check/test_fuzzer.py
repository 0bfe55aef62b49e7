"""Tests for the seeded differential fuzzer (repro.check.fuzzer)."""

from repro.check import check_incremental
from repro.check.fuzzer import (
    _applicable_edits,
    generate_case,
    run_fuzz,
)
from repro.graph import NodeType
from repro.incremental.edits import AddGate, RemoveGate, Rewire
from repro.parsers import bench
from repro.service.metrics import MetricsRegistry


def _has_xor(circuit) -> bool:
    return any(
        node.type in (NodeType.XOR, NodeType.XNOR) for node in circuit.nodes()
    )


class TestGenerateCase:
    def test_deterministic_across_calls(self):
        for index in range(12):
            a = generate_case(42, index)
            b = generate_case(42, index)
            assert a.kind == b.kind
            assert bench.dumps(a.circuit) == bench.dumps(b.circuit)
            assert a.edits == b.edits

    def test_streams_differ_by_seed(self):
        dumps_a = [bench.dumps(generate_case(0, i).circuit) for i in range(8)]
        dumps_b = [bench.dumps(generate_case(1, i).circuit) for i in range(8)]
        assert dumps_a != dumps_b

    def test_kind_coverage(self):
        kinds = {generate_case(0, i).kind.split("+")[0] for i in range(120)}
        assert "random" in kinds
        assert "single_output" in kinds
        assert any(k.startswith("incremental[") for k in kinds)
        # At least one degenerate shape and one structured family.
        assert kinds & {
            "single_gate", "pi_only", "buffer_chain", "multi_fanout_root",
        }
        assert kinds & {
            "ripple_carry", "parity_tree", "mux_tree", "prefix_or",
            "series_parallel",
        }

    def test_circuits_are_valid(self):
        for index in range(30):
            case = generate_case(3, index)
            case.circuit.validate()
            assert case.circuit.outputs

    def test_incremental_cases_carry_edits(self):
        cases = [generate_case(0, i) for i in range(120)]
        incremental = [
            c for c in cases if c.kind.startswith("incremental[")
        ]
        assert incremental
        assert all(c.edits for c in incremental)
        assert all(
            not c.edits
            for c in cases
            if not c.kind.startswith("incremental[")
        )
        # Streams draw every edit schedule, and each replays clean
        # against from-scratch chains and the low-high certificate.
        schedules = {c.kind.split("[")[1].rstrip("]") for c in incremental}
        assert schedules == {"mixed", "deletion_heavy", "interleaved"}
        for case in incremental[:8]:
            assert check_incremental(case.circuit, case.edits) == []


class TestRunFuzz:
    def test_clean_run(self):
        result = run_fuzz(seed=0, cases=30)
        assert result.ok
        assert result.cases == 30
        assert result.targets > 0
        assert result.comparisons > 0
        assert "OK" in result.summary()

    def test_metrics_threaded(self):
        metrics = MetricsRegistry()
        run_fuzz(seed=0, cases=10, metrics=metrics)
        assert metrics.snapshot()["counters"]["fuzz.cases"] == 10

    def test_injected_fault_shrinks_and_dumps(self, tmp_path):
        result = run_fuzz(
            seed=7, cases=25, out_dir=str(tmp_path), inject_fault=_has_xor
        )
        assert not result.ok
        for failure in result.failures:
            assert any(m.kind == "injected" for m in failure.mismatches)
            # The acceptance bar: a small, replayable .bench repro.
            assert failure.shrunk_gates <= 15
            assert _has_xor(failure.shrunk)
            assert failure.repro_path is not None
            reloaded = bench.load(failure.repro_path)
            assert _has_xor(reloaded)

    def test_progress_callback_sees_every_case(self):
        seen = []
        run_fuzz(seed=0, cases=5, progress=lambda i, case: seen.append(i))
        assert seen == [0, 1, 2, 3, 4]


class TestApplicableEdits:
    def test_full_script_applies(self):
        case = next(
            generate_case(0, i)
            for i in range(200)
            if generate_case(0, i).kind.startswith("incremental[")
        )
        assert _applicable_edits(case.circuit, case.edits) == list(case.edits)

    def test_prefix_stops_at_dead_reference(self):
        from repro.circuits.figures import figure2_circuit

        circuit = figure2_circuit()
        edits = (
            AddGate("x1", ("m",), "buf"),
            Rewire("x1", ("ghost",)),  # unknown fanin — stop here
            RemoveGate("x1"),
        )
        assert _applicable_edits(circuit, edits) == [edits[0]]

    def test_remove_then_reference_stops(self):
        from repro.circuits.figures import figure2_circuit

        circuit = figure2_circuit()
        edits = (
            RemoveGate("n"),
            Rewire("f", ("m", "n")),  # n is gone
        )
        assert _applicable_edits(circuit, edits) == [edits[0]]
