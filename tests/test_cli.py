"""CLI surface: argument handling, exit codes, and subcommand wiring."""

import asyncio
import json
import socket
import threading

import pytest
import yaml

from gateflow.cli import main
from gateflow.ingest import IngestServer
from gateflow.metrics import Counters
from gateflow.pipeline import RowFifo
from gateflow.records import Schema


def free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def write_gateway_config(path, segment_port, listen="127.0.0.1:0"):
    path.write_text(
        yaml.safe_dump(
            {
                "listen_addr": listen,
                "schema": "seq:int",
                "segments": [{"id": "s0", "host": "127.0.0.1", "port": segment_port}],
            }
        )
    )
    return str(path)


class BackgroundIngest:
    """A bare ingest listener on its own thread, for exercising the
    synchronous loadgen from test code."""

    def __enter__(self):
        self.loop = asyncio.new_event_loop()
        ready = threading.Event()
        holder = {}

        def run():
            asyncio.set_event_loop(self.loop)

            async def boot():
                srv = IngestServer(
                    RowFifo(), Schema.parse_spec("seq:int"), Counters()
                )
                await srv.start()
                holder["srv"] = srv
                ready.set()

            self.loop.run_until_complete(boot())
            self.loop.run_forever()

        self.thread = threading.Thread(target=run, daemon=True)
        self.thread.start()
        ready.wait(5)
        self.srv = holder["srv"]
        self.port = self.srv.bound_port
        return self

    def __exit__(self, *exc):
        async def shutdown():
            await self.srv.stop()
            return asyncio.all_tasks() - {asyncio.current_task()}

        left = asyncio.run_coroutine_threadsafe(shutdown(), self.loop).result(5)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(5)
        self.loop.close()
        assert not left, "stop left a connection handler running"


class TestArgHandling:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "serve" in capsys.readouterr().out

    def test_no_command_is_usage_error(self):
        assert main([]) == 1

    def test_unknown_command_is_usage_error(self):
        assert main(["defrag"]) == 1

    def test_missing_scenario_file(self):
        assert main(["simulate", "--config", "/nonexistent/sim.yaml"]) == 1

    def test_bad_scenario_root(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("- a\n- b\n")
        assert main(["simulate", "--config", str(bad)]) == 1

    def test_bad_loadgen_target(self):
        assert main(["loadgen", "--target", "nowhere", "--rows", "5"]) == 1


class TestConfigTypos:
    @pytest.mark.parametrize(
        "command, data",
        [
            ("serve", {"interval_msec": 5, "segments": [{"id": "s0"}]}),
            ("segmentd", {"segments": [{"id": "s0", "prot": 9001}]}),
            ("simulate", {"t_d_ms": 100, "typo_key": 1}),
        ],
    )
    def test_unknown_key_is_usage_error(self, tmp_path, capsys, command, data):
        path = tmp_path / "typo.yaml"
        path.write_text(yaml.safe_dump(data))
        assert main([command, "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: unknown ") and "keys" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command, data, key",
        [
            ("segmentd", {"interval_ms": "fast", "segments": [{"id": "s0"}]}, "interval_ms"),
            ("segmentd", {"segments": 5}, "segments"),
            ("segmentd", {"segments": [{"id": "s0", "port": "x"}]}, "port"),
            ("serve", {"queue_capacity": [1], "segments": [{"id": "s0"}]}, "queue_capacity"),
            ("simulate", {"t_d_ms": "abc"}, "t_d_ms"),
            ("simulate", {"arrival": [[0, "fast"]]}, "rows_per_sec"),
            ("simulate", {"tick_ms": None}, "tick_ms"),
        ],
    )
    def test_wrong_type_is_usage_error(self, tmp_path, capsys, command, data, key):
        path = tmp_path / "typed.yaml"
        path.write_text(yaml.safe_dump(data))
        assert main([command, "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("listen", ["127.0.0.1:99999", "127.0.0.1:http"])
    def test_bad_listen_port_is_usage_error(self, tmp_path, capsys, listen):
        path = tmp_path / "listen.yaml"
        path.write_text(yaml.safe_dump({"listen_addr": listen, "segments": [{"id": "s0"}]}))
        assert main(["serve", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "listen_addr" in err
        assert err.count("error:") == 1 and err.count("\n") == 1
        assert "Traceback" not in err


class TestUnreadableInput:
    # each command's input-file flag, loadgen's with the target it needs
    FLAGS = {
        "simulate": ["--config"],
        "serve": ["--config"],
        "segmentd": ["--config"],
        "bench": ["--scenario"],
        "gantt": ["--trace"],
        "loadgen": ["--target", "127.0.0.1:1", "--file"],
    }

    @staticmethod
    def assert_one_error_line(capsys):
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        return err

    @pytest.mark.parametrize("command", ["simulate", "serve", "segmentd", "bench", "gantt"])
    def test_file_that_does_not_parse(self, tmp_path, monkeypatch, capsys, command):
        monkeypatch.delenv("GATEFLOW_CONFIG", raising=False)
        bad = tmp_path / "bad.yaml"
        bad.write_text("a: [1, 2\n")  # neither YAML nor JSON
        assert main([command, *self.FLAGS[command], str(bad)]) == 1
        err = self.assert_one_error_line(capsys)
        assert "bad.yaml" in err and "<unicode string>" not in err

    @pytest.mark.parametrize("command", sorted(FLAGS))
    def test_directory_in_place_of_a_file(self, tmp_path, monkeypatch, capsys, command):
        monkeypatch.delenv("GATEFLOW_CONFIG", raising=False)
        assert main([command, *self.FLAGS[command], str(tmp_path)]) == 1
        assert "directory" in self.assert_one_error_line(capsys)

    def test_connection_error_stays_a_dependency_error(self, tmp_path, monkeypatch, capsys):
        # an OSError too, but one that names an unreachable peer
        def refuse(_config):
            raise ConnectionRefusedError("segment s0 refused")

        monkeypatch.setattr("gateflow.cli.run_sim", refuse)
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text(yaml.safe_dump({"t_d_ms": 100}))
        assert main(["simulate", "--config", str(scenario)]) == 3
        assert self.assert_one_error_line(capsys) == "error: segment s0 refused\n"


class TestSimulateAndGantt:
    SCENARIO = {
        "t_d_ms": 100,
        "t_s_ms": 50,
        "commit_fixed_ms": 150,
        "arrival": [[0, 1000]],
        "duration_ms": 2000,
        "tick_ms": 1,
    }

    def test_round_trip_through_files(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text(yaml.safe_dump(self.SCENARIO))
        trace_path = tmp_path / "trace.json"

        assert main(["simulate", "--config", str(scenario),
                     "--out", str(trace_path)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["final_slots"] == 3
        assert summary["arrived_rows"] > 0
        assert summary["committed_rows"] > 0
        assert summary["digest"]

        raw = json.loads(trace_path.read_text())
        assert raw["arrived_rows"] == summary["arrived_rows"]

        assert main(["gantt", "--trace", str(trace_path)]) == 0
        chart = capsys.readouterr().out
        assert "slot" in chart
        assert "S" in chart

        assert main(["gantt", "--trace", str(trace_path),
                     "--bucket-ms", "200"]) == 0

    def test_zero_gantt_bucket_is_usage_error(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text(yaml.safe_dump(dict(self.SCENARIO, duration_ms=500)))
        trace_path = tmp_path / "trace.json"
        assert main(["simulate", "--config", str(scenario), "--out", str(trace_path)]) == 0
        capsys.readouterr()
        assert main(["gantt", "--trace", str(trace_path), "--bucket-ms", "0"]) == 1
        assert capsys.readouterr().err == "error: bucket_ms must be >= 1\n"

    @pytest.mark.parametrize("raw", ["[]", "null", '{"config": 5}'])
    def test_json_that_is_no_trace_is_usage_error(self, tmp_path, capsys, raw):
        trace_path = tmp_path / "trace.json"
        trace_path.write_text(raw)
        assert main(["gantt", "--trace", str(trace_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "config" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("slot, value", [(0, "a"), (2, "x")])
    def test_trace_with_wrong_value_types_is_usage_error(self, tmp_path, capsys, slot, value):
        # an event time or slot id that is no int is named, not a traceback
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text(yaml.safe_dump(dict(self.SCENARIO, duration_ms=500)))
        trace_path = tmp_path / "trace.json"
        assert main(["simulate", "--config", str(scenario), "--out", str(trace_path)]) == 0
        capsys.readouterr()
        data = json.loads(trace_path.read_text())
        data["events"][0][slot] = value
        trace_path.write_text(json.dumps(data))
        assert main(["gantt", "--trace", str(trace_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: malformed trace: ") and repr(value) in err
        assert "Traceback" not in err

    def test_simulate_without_out_file(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text(yaml.safe_dump(dict(self.SCENARIO, duration_ms=500)))
        assert main(["simulate", "--config", str(scenario)]) == 0
        assert "digest" in json.loads(capsys.readouterr().out)


class TestServe:
    def test_unreachable_segment_is_dependency_error(self, tmp_path, capsys):
        cfg = write_gateway_config(tmp_path / "gw.yaml", free_port())
        code = main(["serve", "--config", cfg,
                     "--segment-retries", "1", "--segment-retry-delay", "0.01"])
        assert code == 3
        assert "unreachable" in capsys.readouterr().err

    def test_bind_conflict_is_bind_error(self, tmp_path, capsys):
        # one live socket plays both the reachable segment and the
        # already-taken listen address
        squatter = socket.socket()
        squatter.bind(("127.0.0.1", 0))
        squatter.listen(8)
        port = squatter.getsockname()[1]
        try:
            cfg = write_gateway_config(
                tmp_path / "gw.yaml", port, listen=f"127.0.0.1:{port}"
            )
            code = main(["serve", "--config", cfg, "--segment-retries", "1"])
            assert code == 2
            assert "cannot bind" in capsys.readouterr().err
        finally:
            squatter.close()

    def test_config_env_fallback(self, tmp_path, monkeypatch, capsys):
        cfg = write_gateway_config(tmp_path / "gw.yaml", free_port())
        monkeypatch.setenv("GATEFLOW_CONFIG", cfg)
        code = main(["serve", "--segment-retries", "1",
                     "--segment-retry-delay", "0.01"])
        assert code == 3  # it read the env config and probed its segment
        assert "s0" in capsys.readouterr().err

    def test_no_config_anywhere(self, monkeypatch, capsys):
        monkeypatch.delenv("GATEFLOW_CONFIG", raising=False)
        assert main(["serve"]) == 1
        assert "GATEFLOW_CONFIG" in capsys.readouterr().err

    def test_invalid_config_rejected(self, tmp_path, monkeypatch):
        bad = tmp_path / "bad.yaml"
        bad.write_text(
            yaml.safe_dump(
                {
                    "segments": [
                        {"id": "a", "port": 9001},
                        {"id": "b", "port": 9001},
                    ]
                }
            )
        )
        monkeypatch.delenv("GATEFLOW_CONFIG", raising=False)
        assert main(["segmentd", "--config", str(bad)]) == 1
        empty = tmp_path / "empty.yaml"
        empty.write_text(yaml.safe_dump({"segments": []}))
        assert main(["serve", "--config", str(empty)]) == 1


class TestLoadgen:
    def test_nothing_listening_is_dependency_error(self, capsys):
        code = main(["loadgen", "--target", f"127.0.0.1:{free_port()}",
                     "--rows", "10"])
        assert code == 3
        report = json.loads(capsys.readouterr().out)
        assert report["accepted"] == 0
        assert report["transport_errors"] > 0

    @pytest.mark.parametrize("flag, name", [("--devices", "devices"), ("--batch", "batch_lines")])
    def test_zero_devices_or_batch_is_usage_error(self, capsys, flag, name):
        code = main(["loadgen", "--target", f"127.0.0.1:{free_port()}",
                     "--rows", "10", flag, "0"])
        assert code == 1
        assert capsys.readouterr().err == f"error: {name} must be >= 1\n"

    def test_posts_synthetic_rows(self, capsys):
        with BackgroundIngest() as bg:
            code = main(["loadgen", "--target", f"127.0.0.1:{bg.port}",
                         "--rows", "50", "--batch", "20"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["posted"] == 50
        assert report["accepted"] == 50
        assert report["unresolved"] == 0

    def test_replays_a_file(self, tmp_path, capsys):
        rows = tmp_path / "rows.csv"
        rows.write_text("".join(f"dev{i},{i},{i}\n" for i in range(25)))
        with BackgroundIngest() as bg:
            code = main(["loadgen", "--target", f"127.0.0.1:{bg.port}",
                         "--file", str(rows)])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["accepted"] == 25


class TestBench:
    @pytest.mark.parametrize("data", [{"nodes": 5}, {"rows_per_node": "x"}])
    def test_wrong_typed_scenario_is_usage_error(self, tmp_path, capsys, data):
        scenario = tmp_path / "bench.yaml"
        scenario.write_text(yaml.safe_dump(data))
        assert main(["bench", "--scenario", str(scenario)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: scenario ") and "Traceback" not in err

    def test_single_node_scenario(self, tmp_path, capsys):
        scenario = tmp_path / "bench.yaml"
        scenario.write_text(
            yaml.safe_dump({"nodes": [1], "rows_per_node": 300})
        )
        out = tmp_path / "report.json"
        code = main(["bench", "--scenario", str(scenario), "--out", str(out)])
        assert code == 0
        shown = json.loads(capsys.readouterr().out)
        assert shown["incomplete"] is False
        assert "1" in shown["V"]
        report = json.loads(out.read_text())
        assert report["runs"][0]["nodes"] == 1
        assert report["runs"][0]["N"] == 300
        assert report["runs"][0]["config_hash"]
