"""Tests for the command-line interface."""

import pytest

from repro.cli import load_netlist, main
from repro.circuits.figures import figure2_circuit
from repro.parsers import bench, blif


@pytest.fixture
def bench_file(tmp_path):
    path = tmp_path / "fig2.bench"
    bench.dump(figure2_circuit(), path)
    return str(path)


@pytest.fixture
def blif_file(tmp_path):
    path = tmp_path / "fig2.blif"
    blif.dump(figure2_circuit(), path)
    return str(path)


class TestLoad:
    def test_load_bench(self, bench_file):
        assert len(load_netlist(bench_file)) == 14

    def test_load_blif(self, blif_file):
        assert len(load_netlist(blif_file)) == 14

    def test_unknown_extension(self, tmp_path):
        path = tmp_path / "x.edif"
        path.write_text("")
        with pytest.raises(SystemExit):
            load_netlist(str(path))


class TestCommands:
    def test_chains_all_inputs(self, bench_file, capsys):
        assert main(["chains", bench_file]) == 0
        out = capsys.readouterr().out
        assert "u: 12 pairs" in out

    def test_chains_single_target(self, bench_file, capsys):
        assert main(["chains", bench_file, "--target", "u"]) == 0
        assert "12 pairs" in capsys.readouterr().out

    def test_stats(self, blif_file, capsys):
        assert main(["stats", blif_file]) == 0
        out = capsys.readouterr().out
        assert "gates" in out

    def test_counts(self, bench_file, capsys):
        assert main(["counts", bench_file]) == 0
        out = capsys.readouterr().out
        assert ": 12" in out
        assert ": 2" in out

    def test_multi_output_requires_flag(self, tmp_path, capsys):
        from repro.circuits.generators import random_circuit

        circuit = random_circuit(3, 10, num_outputs=2, seed=0)
        path = tmp_path / "two.bench"
        bench.dump(circuit, path)
        assert main(["chains", str(path)]) == 2
        assert main(["chains", str(path), "--output", circuit.outputs[0]]) == 0


class TestEditSession:
    @pytest.fixture
    def script_file(self, tmp_path):
        from repro.incremental import (
            AddGate,
            RemoveGate,
            ReplaceSubgraph,
            Rewire,
            dump_script,
        )

        path = tmp_path / "edits.json"
        dump_script(
            [
                AddGate("nb", ("d",), "buf"),
                ReplaceSubgraph(
                    add=(AddGate("nb2", ("g",), "buf"),),
                    rewire=(Rewire("t", ("nb", "nb2")),),
                ),
                RemoveGate("m"),
            ],
            str(path),
        )
        return str(path)

    def test_replay_reports_stats(self, bench_file, script_file, capsys):
        assert main(["edit-session", bench_file, script_file]) == 0
        out = capsys.readouterr().out
        assert "initial:" in out
        assert "edit   3 [RemoveGate]" in out
        assert "hit_rate" in out
        assert "evictions" in out

    def test_compare_mode(self, bench_file, script_file, capsys):
        assert main(["edit-session", bench_file, script_file, "--compare"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out

    def test_dynamic_engine(self, bench_file, script_file, capsys):
        assert main(["edit-session", bench_file, script_file]) == 0
        out = capsys.readouterr().out
        assert "engine" in out
        assert "dynamic_batches" in out

    def test_unknown_engine_exits_2(self, bench_file, script_file, capsys):
        # Scripts that still pass an engine flag must get the exit-2
        # usage error, not a run on a silently different engine.
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "edit-session",
                    bench_file,
                    script_file,
                    "--engine",
                    "bogus",
                ]
            )
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --engine" in capsys.readouterr().err

    def test_multi_output_requires_flag(self, tmp_path, script_file, capsys):
        from repro.circuits.generators import random_circuit

        circuit = random_circuit(3, 10, num_outputs=2, seed=0)
        path = tmp_path / "two.bench"
        bench.dump(circuit, path)
        assert main(["edit-session", str(path), script_file]) == 2


class TestEditSessionBadScripts:
    """Malformed/empty scripts exit cleanly instead of raising."""

    def test_malformed_json_exits_2(self, bench_file, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["edit-session", bench_file, str(path)]) == 2
        err = capsys.readouterr().err
        assert "invalid edit script" in err

    def test_empty_file_exits_2(self, bench_file, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text("")
        assert main(["edit-session", bench_file, str(path)]) == 2
        assert "invalid edit script" in capsys.readouterr().err

    def test_no_edits_exits_2(self, bench_file, tmp_path, capsys):
        path = tmp_path / "noedits.json"
        path.write_text('{"edits": []}')
        assert main(["edit-session", bench_file, str(path)]) == 2
        assert "contains no edits" in capsys.readouterr().err

    def test_missing_file_exits_2(self, bench_file, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert main(["edit-session", bench_file, missing]) == 2
        assert "cannot read edit script" in capsys.readouterr().err

    def test_bad_edit_record_exits_2(self, bench_file, tmp_path, capsys):
        path = tmp_path / "badop.json"
        path.write_text('{"edits": [{"op": "frobnicate"}]}')
        assert main(["edit-session", bench_file, str(path)]) == 2
        assert "invalid edit script" in capsys.readouterr().err


class TestSweep:
    def test_sweep_prints_report_and_metrics(self, tmp_path, capsys):
        metrics_path = tmp_path / "metrics.json"
        assert (
            main(
                [
                    "sweep",
                    "--jobs",
                    "2",
                    "--names",
                    "alu2",
                    "--scale",
                    "0.5",
                    "--metrics",
                    str(metrics_path),
                    "--no-progress",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "alu2" in out
        assert "total:" in out
        import json

        snapshot = json.loads(metrics_path.read_text())
        assert snapshot["counters"]["executor.jobs_completed"] > 0
        assert "executor.job_seconds" in snapshot["histograms"]

    def test_sweep_artifact_store_warm_path(self, tmp_path, capsys):
        args = [
            "sweep",
            "--names",
            "alu2",
            "--scale",
            "0.5",
            "--artifacts",
            str(tmp_path / "arts"),
            "--no-progress",
        ]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        out = capsys.readouterr().out
        # warm run: every cone served from the store
        row = next(l for l in out.splitlines() if l.startswith("alu2"))
        assert row.split()[1] == row.split()[-1]  # cones == art.hits

    def test_sweep_unknown_name_exits_2(self, capsys):
        assert main(["sweep", "--names", "nonesuch"]) == 2
        assert "unknown benchmark" in capsys.readouterr().err

    def test_sweep_jobs_leaves_no_workers_or_segments(self, tmp_path, capsys):
        import json
        import multiprocessing
        import os

        def own_segments():
            if not os.path.isdir("/dev/shm"):
                return set()
            pid = str(os.getpid())
            return {
                f
                for f in os.listdir("/dev/shm")
                if f.startswith("rpro_") and f.split("_")[-2] == pid
            }

        children = set(multiprocessing.active_children())
        segments = own_segments()
        args = ["sweep", "--jobs", "2", "--quick", "--scale", "0.2"]
        metrics = tmp_path / "metrics.json"
        assert main(args + ["--no-progress", "--metrics", str(metrics)]) == 0
        assert "total:" in capsys.readouterr().out
        assert set(multiprocessing.active_children()) == children
        assert own_segments() == segments
        counters = json.loads(metrics.read_text())["counters"]
        assert counters["executor.jobs_parallel"] > 0


class TestServeBatch:
    @pytest.fixture
    def requests_file(self, bench_file, tmp_path):
        import json

        path = tmp_path / "requests.json"
        path.write_text(
            json.dumps(
                {
                    "requests": [
                        {"id": "r1", "netlist": bench_file, "output": "f"},
                        {
                            "id": "r2",
                            "netlist": bench_file,
                            "targets": ["u"],
                        },
                        {"id": "r3", "netlist": bench_file},  # duplicate
                    ]
                }
            )
        )
        return str(path)

    def test_serve_batch_responses(self, requests_file, tmp_path, capsys):
        import json

        out_path = tmp_path / "responses.json"
        assert (
            main(["serve-batch", requests_file, "--out", str(out_path)]) == 0
        )
        payload = json.loads(out_path.read_text())
        responses = {r["id"]: r for r in payload["responses"]}
        assert set(responses) == {"r1", "r2", "r3"}
        assert sorted(responses["r1"]["chains"]) == ["u"]
        assert sorted(responses["r2"]["chains"]) == ["u"]
        # the whole batch collapsed to one cone computation
        assert payload["queue"]["submitted"] == 3
        assert payload["queue"]["deduplicated"] >= 1
        assert payload["metrics"]["counters"]["core.chains_computed"] == 1

    def test_serve_batch_stdout(self, requests_file, capsys):
        assert main(["serve-batch", requests_file]) == 0
        out = capsys.readouterr().out
        import json

        assert "responses" in json.loads(out)

    def test_malformed_request_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("[not json")
        assert main(["serve-batch", str(path)]) == 2
        assert "invalid request file" in capsys.readouterr().err

    def test_empty_request_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text('{"requests": []}')
        assert main(["serve-batch", str(path)]) == 2
        assert "no requests" in capsys.readouterr().err

    def test_unknown_output_exits_2(self, bench_file, tmp_path, capsys):
        import json

        path = tmp_path / "reqs.json"
        path.write_text(
            json.dumps(
                {"requests": [{"netlist": bench_file, "output": "zz"}]}
            )
        )
        assert main(["serve-batch", str(path)]) == 2
        assert "unknown output" in capsys.readouterr().err

    def test_unknown_target_exits_2(self, bench_file, tmp_path, capsys):
        import json

        path = tmp_path / "reqs.json"
        path.write_text(
            json.dumps(
                {"requests": [{"netlist": bench_file, "targets": ["zz"]}]}
            )
        )
        assert main(["serve-batch", str(path)]) == 2
        assert "unknown target" in capsys.readouterr().err


def test_load_verilog(tmp_path):
    from repro.parsers import verilog

    path = tmp_path / "fig2.v"
    verilog.dump(figure2_circuit(), path)
    # MUX-free figure circuit round-trips through the CLI loader.
    assert len(load_netlist(str(path))) == 14


def test_cli_chains_on_verilog(tmp_path, capsys):
    from repro.parsers import verilog

    path = tmp_path / "fig2.v"
    verilog.dump(figure2_circuit(), path)
    assert main(["chains", str(path), "--target", "u"]) == 0
    assert "12 pairs" in capsys.readouterr().out


class TestCheckCommand:
    def test_check_ok(self, bench_file, capsys):
        assert main(["check", bench_file]) == 0
        out = capsys.readouterr().out
        assert "OK" in out
        assert "brute-confirmed" in out

    def test_check_single_output(self, bench_file, capsys):
        assert main(["check", bench_file, "--output", "f"]) == 0
        assert "1 cone(s)" in capsys.readouterr().out

    def test_check_unknown_output_exits_2(self, bench_file, capsys):
        assert main(["check", bench_file, "--output", "zz"]) == 2
        assert "unknown output" in capsys.readouterr().err

    def test_check_missing_file_exits_2(self, capsys):
        assert main(["check", "/no/such/file.bench"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1  # one-line diagnostic, no traceback

    def test_check_malformed_netlist_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.bench"
        path.write_text("INPUT(a)\nOUTPUT(b)\nb = AND(a, ghost)\n")
        assert main(["check", str(path)]) == 2
        err = capsys.readouterr().err
        assert "ghost" in err
        assert err.startswith("error:")

    def test_check_writes_metrics(self, bench_file, tmp_path, capsys):
        import json

        metrics_file = tmp_path / "m.json"
        assert main(["check", bench_file, "--metrics", str(metrics_file)]) == 0
        snap = json.loads(metrics_file.read_text())
        assert snap["counters"]["check.cones"] == 1


class TestFuzzCommand:
    def test_fuzz_ok(self, capsys):
        assert main(["fuzz", "--seed", "0", "--cases", "8"]) == 0
        out = capsys.readouterr().out
        assert "seed=0" in out
        assert "OK" in out

    def test_fuzz_injected_fault_exits_1(self, tmp_path, capsys):
        code = main(
            [
                "fuzz", "--seed", "7", "--cases", "20",
                "--inject-fault", "xor", "--out", str(tmp_path),
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "FAILURE" in out
        repros = list(tmp_path.glob("*.bench"))
        assert repros
        for repro in repros:
            assert bench.load(repro).gate_count() <= 15


class TestJobsTimeoutValidation:
    """--jobs <= 0 and negative --timeout exit 2 in every command."""

    @pytest.mark.parametrize("jobs", ["0", "-1", "-4", "two"])
    @pytest.mark.parametrize(
        "command",
        [
            ["sweep", "--quick"],
            ["serve-batch", "req.json"],
            ["table1", "--quick"],
        ],
    )
    def test_bad_jobs_exits_2(self, command, jobs, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--jobs", jobs])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--jobs" in err

    @pytest.mark.parametrize(
        "command",
        [["sweep", "--quick"], ["serve-batch", "req.json"]],
    )
    def test_negative_timeout_exits_2(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--timeout", "-0.5"])
        assert exc.value.code == 2
        assert "--timeout" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--jobs", "--max-in-flight"])
    def test_daemon_bad_jobs_exits_2(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["daemon", "--stdio", flag, "0"])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--tenant-rate", "--tenant-burst"])
    @pytest.mark.parametrize("value", ["0", "-1", "nope"])
    def test_daemon_bad_rates_exit_2(self, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["daemon", "--stdio", flag, value])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    def test_daemon_without_transport_exits_2(self, capsys):
        assert main(["daemon"]) == 2
        assert "transport" in capsys.readouterr().err

    def test_table1_module_rejects_bad_jobs(self, capsys):
        from repro.experiments import table1

        with pytest.raises(SystemExit) as exc:
            table1.main(["--quick", "--jobs", "0"])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_zero_timeout_is_allowed_syntax(self):
        # 0 is a legal (if harsh) budget — only negatives are rejected;
        # jobs=1 keeps everything in-process so nothing can time out.
        assert (
            main(
                [
                    "sweep", "--names", "cmb", "--scale", "0.3",
                    "--timeout", "0", "--no-progress",
                ]
            )
            == 0
        )


class TestBatchErrorContract:
    def test_sweep_unknown_benchmark_exits_2(self, capsys):
        assert main(["sweep", "--names", "nonesuch"]) == 2
        assert "unknown benchmark" in capsys.readouterr().err

    def test_serve_batch_malformed_netlist_exits_2(self, tmp_path, capsys):
        import json

        bad = tmp_path / "bad.bench"
        bad.write_text("INPUT(a)\nOUTPUT(b)\nb = AND(a, ghost)\n")
        requests = tmp_path / "req.json"
        requests.write_text(json.dumps([{"netlist": str(bad)}]))
        assert main(["serve-batch", str(requests)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "ghost" in err

    def test_serve_batch_missing_requests_exits_2(self, capsys):
        assert main(["serve-batch", "/no/such/req.json"]) == 2
        err = capsys.readouterr().err
        assert "cannot read" in err
        assert err.count("\n") == 1  # one-line diagnostic, no traceback


class TestKernelsFlag:
    def test_kernels_arg_validates(self):
        from argparse import ArgumentTypeError

        from repro.cli import kernels_arg

        assert kernels_arg("python") == "python"
        assert kernels_arg("numpy") == "numpy"
        with pytest.raises(ArgumentTypeError, match="unknown kernels"):
            kernels_arg("turbo")

    def test_unknown_kernels_exits_2(self, bench_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["chains", bench_file, "--kernels", "turbo"])
        assert exc.value.code == 2
        assert "unknown kernels" in capsys.readouterr().err

    def test_chains_with_numpy_kernels(self, bench_file, capsys):
        pytest.importorskip("numpy")
        assert main(["chains", bench_file, "--kernels", "numpy"]) == 0
        assert "u: 12 pairs" in capsys.readouterr().out

    def test_counts_and_check_accept_kernels(self, bench_file, capsys):
        assert main(["counts", bench_file, "--kernels", "python"]) == 0
        capsys.readouterr()
        assert main(["check", bench_file, "--kernels", "python"]) == 0


@pytest.fixture
def sequential_file(tmp_path):
    from repro.circuits.generators import lfsr
    from repro.parsers.bench import dump_sequential

    path = tmp_path / "lfsr5.bench"
    dump_sequential(lfsr(5), path)
    return str(path)


class TestSequentialFlag:
    """--sequential {core,unroll:N} on chains/check/sweep."""

    def test_chains_core_view(self, sequential_file, capsys):
        assert main(
            ["chains", sequential_file, "--sequential", "core",
             "--output", "stream"]
        ) == 0
        out = capsys.readouterr().out
        assert "sin: 0 pairs" in out

    def test_chains_unroll_view(self, sequential_file, capsys):
        assert main(
            ["chains", sequential_file, "--sequential", "unroll:3",
             "--output", "stream@2"]
        ) == 0
        out = capsys.readouterr().out
        assert "sin@2: 0 pairs" in out
        assert "ppi_" in out  # frame-0 pseudo-inputs reach the cone

    def test_check_runs_sequential_differential(
        self, sequential_file, capsys
    ):
        assert main(
            ["check", sequential_file, "--sequential", "core"]
        ) == 0
        out = capsys.readouterr().out
        assert "core-vs-unroll:2" in out
        assert "OK" in out

    def test_check_unroll_uses_requested_frames(
        self, sequential_file, capsys
    ):
        assert main(
            ["check", sequential_file, "--sequential", "unroll:3"]
        ) == 0
        assert "core-vs-unroll:3" in capsys.readouterr().out

    def test_sequential_requires_bench(self, blif_file):
        with pytest.raises(SystemExit):
            main(["chains", blif_file, "--sequential", "core"])

    @pytest.mark.parametrize("value", ["bogus", "unroll:0", "unroll:x", "unroll:-2"])
    def test_bad_sequential_exits_2(self, sequential_file, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["chains", sequential_file, "--sequential", value])
        assert exc.value.code == 2
        assert "--sequential" in capsys.readouterr().err

    def test_sweep_sequential_suite(self, tmp_path, capsys):
        import json

        metrics_path = tmp_path / "metrics.json"
        assert main(
            ["sweep", "--sequential", "core",
             "--scale", "0.25", "--no-progress",
             "--metrics", str(metrics_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "s_shift" in out and "s_lfsr" in out and "s_alu" in out
        snapshot = json.loads(metrics_path.read_text())
        assert snapshot["counters"]["core.chains_computed"] > 0

    def test_sweep_sequential_unroll_view(self, capsys):
        assert main(
            ["sweep", "--sequential", "unroll:2", "--scale", "0.25",
             "--no-progress"]
        ) == 0
        assert "s_alu:u2" in capsys.readouterr().out

    def test_sweep_sequential_unknown_name_exits_2(self, capsys):
        assert main(
            ["sweep", "--sequential", "core", "--names", "nope"]
        ) == 2
        assert "unknown sequential benchmark" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["bogus", "tri"])
    def test_bad_prefilter_exits_2(self, value, capsys):
        # Scripts that still pass a pre-filter flag get the exit-2
        # usage error.
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--prefilter", value])
        assert exc.value.code == 2
        assert "unrecognized arguments: --prefilter" in capsys.readouterr().err


class TestTable1BackendForwarding:
    """``repro table1`` hands ``--backend`` to the experiment as given."""

    @pytest.mark.parametrize(
        "flags, backend",
        [
            ([], "linear"),
            (["--backend", "shared"], "shared"),
            (["--backend", "legacy"], "legacy"),
            (["--backend", "linear"], "linear"),
        ],
    )
    def test_backend_reaches_table1_main(self, flags, backend, monkeypatch):
        from repro.experiments import table1

        seen = []
        monkeypatch.setattr(table1, "main", lambda argv: seen.append(argv) or 0)
        assert main(["table1", "--quick", *flags]) == 0
        argv = seen[0]
        assert argv[argv.index("--backend") + 1] == backend
