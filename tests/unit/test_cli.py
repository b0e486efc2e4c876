"""Unit tests for the command-line interface."""

import pytest

from repro.cli import main


class TestProtocols:
    def test_lists_all_protocols(self, capsys):
        assert main(["protocols"]) == 0
        out = capsys.readouterr().out
        for name in ("vector-causal", "aw-sequential", "delayed-causal"):
            assert name in out

    def test_shows_causal_updating_column(self, capsys):
        main(["protocols"])
        out = capsys.readouterr().out
        assert "causal updating" in out


class TestRun:
    def test_default_run_is_causal(self, capsys):
        assert main(["run"]) == 0
        out = capsys.readouterr().out
        assert "causal: OK" in out

    def test_multiple_checks(self, capsys):
        code = main(["run", "--protocols", "aw-sequential", "--check", "causal,pram"])
        out = capsys.readouterr().out
        assert code == 0
        assert "causal: OK" in out
        assert "pram: OK" in out

    def test_unknown_protocol_fails_fast(self):
        with pytest.raises(Exception):
            main(["run", "--protocols", "no-such-protocol"])

    def test_unknown_model_returns_2(self, capsys):
        assert main(["run", "--check", "bogus"]) == 2

    def test_trace_written(self, tmp_path, capsys):
        trace = tmp_path / "out.json"
        assert main(["run", "--trace", str(trace)]) == 0
        assert trace.exists()

    def test_diagram_printed(self, capsys):
        main(["run", "--diagram", "--processes", "2", "--ops", "3"])
        out = capsys.readouterr().out
        assert "space-time diagram" in out

    def test_chain_and_per_edge_flags(self, capsys):
        code = main(
            [
                "run",
                "--protocols",
                "vector-causal,vector-causal,vector-causal",
                "--topology",
                "chain",
                "--per-edge",
            ]
        )
        assert code == 0


class TestCheck:
    def make_trace(self, tmp_path):
        trace = tmp_path / "trace.json"
        main(["run", "--trace", str(trace)])
        return trace

    def test_check_saved_trace(self, tmp_path, capsys):
        trace = self.make_trace(tmp_path)
        capsys.readouterr()
        assert main(["check", str(trace)]) == 0
        assert "causal: OK" in capsys.readouterr().out

    def test_check_sessions(self, tmp_path, capsys):
        trace = self.make_trace(tmp_path)
        capsys.readouterr()
        assert main(["check", str(trace), "--model", "sessions"]) == 0
        out = capsys.readouterr().out
        assert "read-your-writes: OK" in out
        assert "writes-follow-reads: OK" in out

    def test_check_including_interconnect_ops(self, tmp_path, capsys):
        trace = self.make_trace(tmp_path)
        capsys.readouterr()
        assert main(["check", str(trace), "--include-interconnect"]) == 0

    def test_violating_trace_exits_1(self, tmp_path, capsys):
        from repro.trace import dump_history
        from repro.workloads.scenarios import fifo_causality_violation, run_until_quiescent

        result = fifo_causality_violation()
        run_until_quiescent(result.sim, result.systems)
        trace = tmp_path / "bad.json"
        dump_history(result.recorder.history(), trace)
        assert main(["check", str(trace)]) == 1
        assert "VIOLATED" in capsys.readouterr().out


class TestProve:
    def test_proves_all_processes(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        main(["run", "--processes", "2", "--ops", "4", "--trace", str(trace)])
        capsys.readouterr()
        assert main(["prove", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "causal-order preservation verified" in out
        assert out.count("gamma^T") == 4  # 2 systems x 2 processes

    def test_proves_single_process(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        main(["run", "--processes", "2", "--ops", "4", "--trace", str(trace)])
        capsys.readouterr()
        assert main(["prove", str(trace), "--proc", "S0/p0"]) == 0
        assert capsys.readouterr().out.count("gamma^T") == 1

    def test_fails_on_non_causal_trace(self, tmp_path, capsys):
        from repro.trace import dump_history
        from repro.workloads.scenarios import fifo_causality_violation, run_until_quiescent

        scenario = fifo_causality_violation()
        run_until_quiescent(scenario.sim, scenario.systems)
        trace = tmp_path / "bad.json"
        dump_history(scenario.recorder.history(), trace)
        assert main(["prove", str(trace), "--proc", "C"]) == 1
        assert "FAILED" in capsys.readouterr().out


class TestLattice:
    def test_small_census(self, capsys):
        assert main(["lattice", "--max-ops", "3"]) == 0
        out = capsys.readouterr().out
        assert "all universal laws hold" in out
        assert "causal" in out


class TestDemo:
    def test_demo_runs(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "Theorem 1" in out
        assert "Lemma 1" in out


class TestTraceCommand:
    def test_record_and_summarize(self, tmp_path, capsys):
        out = tmp_path / "run.jsonl"
        code = main(
            ["trace", "--out", str(out), "--summarize", "--processes", "2", "--ops", "3"]
        )
        printed = capsys.readouterr().out
        assert code == 0
        assert out.exists()
        assert "recorded" in printed
        assert "by kind" in printed
        assert "msg.send" in printed

    def test_convert_to_chrome(self, tmp_path, capsys):
        import json

        out = tmp_path / "run.jsonl"
        chrome = tmp_path / "run.chrome.json"
        assert main(["trace", "--out", str(out), "--to-chrome", str(chrome)]) == 0
        blob = json.loads(chrome.read_text(encoding="utf-8"))
        assert blob["traceEvents"]

    def test_load_existing_events(self, tmp_path, capsys):
        out = tmp_path / "run.jsonl"
        main(["trace", "--out", str(out)])
        capsys.readouterr()
        assert main(["trace", str(out), "--summarize"]) == 0
        printed = capsys.readouterr().out
        assert "loaded" in printed and "events over virtual time" in printed

    def test_nothing_to_do_is_an_error(self, capsys):
        assert main(["trace"]) == 2


class TestStatsCommand:
    def test_counts_match_model(self, capsys):
        assert main(["stats", "--processes", "2", "--ops", "4"]) == 0
        out = capsys.readouterr().out
        assert "metrics registry" in out
        assert "MISMATCH" not in out
        assert "messages per write" in out

    def test_all_write_workload(self, capsys):
        assert main(["stats", "--write-ratio", "1.0", "--ops", "3"]) == 0
        out = capsys.readouterr().out
        assert "MISMATCH" not in out

    def test_three_system_chain(self, capsys):
        code = main(
            [
                "stats",
                "--protocols",
                "vector-causal,vector-causal,vector-causal",
                "--topology",
                "chain",
                "--ops",
                "3",
            ]
        )
        assert code == 0
        assert "MISMATCH" not in capsys.readouterr().out


class TestBenchCommand:
    def test_perf_suite_quick(self, tmp_path, capsys):
        # The real perf suite in quick mode, redirected away from the
        # committed repo-root report.
        report = tmp_path / "perf.json"
        code = main(["bench", "--quick", "--output", str(report)])
        out = capsys.readouterr().out
        assert code == 0
        assert report.exists()
        assert "perf suite (quick" in out


class TestVerbosityFlags:
    def test_verbose_flag_accepted(self, capsys):
        assert main(["-v", "protocols"]) == 0

    def test_quiet_flag_accepted(self, capsys):
        assert main(["-q", "protocols"]) == 0
