"""Config parsing, validation, serialization round trips, and hashing."""

from pathlib import Path

import pytest

from gateflow.config import GatewayConfig, SegmentConfig, load_config, parse_config

SAMPLE_YAML = """
listen_addr: "0.0.0.0:8080"
schema: "value:float,quality:int"
interval_ms: 100
dispatch_cycle_ms: 10000
max_slots: 8
queue_capacity: 50000
listeners: 2
segments:
  - id: seg-a
    host: 127.0.0.1
    port: 9001
    begin_latency_ms: 5
    commit_fixed_ms: 20
    commit_per_row_us: 3
  - id: seg-b
    host: 127.0.0.1
    port: 9002
"""


def seg(i: int, **kw) -> SegmentConfig:
    return SegmentConfig(id=f"s{i}", port=9000 + i, **kw)


class TestParsing:
    def test_sample_parses(self):
        cfg = parse_config(SAMPLE_YAML)
        assert cfg.listen_addr == "0.0.0.0:8080"
        assert cfg.interval_ms == 100
        assert cfg.max_slots == 8
        assert cfg.queue_capacity == 50000
        assert cfg.listeners == 2
        assert len(cfg.segments) == 2
        assert cfg.segments[0].id == "seg-a"
        assert cfg.segments[0].begin_latency_ms == 5
        assert cfg.segments[1].commit_fixed_ms == 0  # defaulted

    def test_round_trip_fixed_point(self):
        cfg = parse_config(SAMPLE_YAML)
        again = parse_config(cfg.to_yaml())
        assert again == cfg
        assert parse_config(again.to_yaml()) == again

    def test_hash_stable_across_round_trip(self):
        cfg = parse_config(SAMPLE_YAML)
        assert parse_config(cfg.to_yaml()).config_hash() == cfg.config_hash()
        assert len(cfg.config_hash()) == 12
        int(cfg.config_hash(), 16)  # hex digest prefix

    def test_hash_sensitive_to_content(self):
        cfg = parse_config(SAMPLE_YAML)
        other = GatewayConfig(
            segments=cfg.segments,
            listen_addr=cfg.listen_addr,
            schema=cfg.schema,
            interval_ms=cfg.interval_ms + 1,
            dispatch_cycle_ms=cfg.dispatch_cycle_ms,
            max_slots=cfg.max_slots,
            queue_capacity=cfg.queue_capacity,
            listeners=cfg.listeners,
        )
        assert other.config_hash() != cfg.config_hash()

    def test_demo_config_hash_pinned(self):
        # benchmark reports carry this hash, so the serialization of an
        # unchanged config may not drift
        demo = Path(__file__).resolve().parents[1] / "configs" / "demo.yaml"
        assert load_config(str(demo)).config_hash() == "393fc2c1fb80"

    def test_null_queue_capacity_round_trips(self):
        cfg = GatewayConfig(segments=(seg(1),), listeners=1)
        assert cfg.queue_capacity is None
        again = parse_config(cfg.to_yaml())
        assert again.queue_capacity is None
        assert again == cfg

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "gw.yaml"
        path.write_text(SAMPLE_YAML)
        assert load_config(str(path)) == parse_config(SAMPLE_YAML)

    def test_non_mapping_root_rejected(self):
        with pytest.raises(ValueError):
            parse_config("- just\n- a\n- list\n")

    def test_listen_host_port(self):
        cfg = GatewayConfig(segments=(seg(1),), listen_addr="10.0.0.5:9090")
        assert cfg.listen_host_port() == ("10.0.0.5", 9090)


class TestValidation:
    def test_zero_segments(self):
        with pytest.raises(ValueError, match="at least one segment"):
            GatewayConfig(segments=())

    def test_bad_interval(self):
        with pytest.raises(ValueError, match="interval_ms"):
            GatewayConfig(segments=(seg(1),), interval_ms=0)

    def test_dispatch_cycle_shorter_than_interval(self):
        with pytest.raises(ValueError, match="dispatch_cycle_ms"):
            GatewayConfig(segments=(seg(1),), interval_ms=100, dispatch_cycle_ms=50)

    def test_duplicate_segment_id(self):
        dup = (SegmentConfig(id="x", port=9001), SegmentConfig(id="x", port=9002))
        with pytest.raises(ValueError, match="duplicate segment id"):
            GatewayConfig(segments=dup)

    def test_duplicate_segment_address(self):
        dup = (SegmentConfig(id="a", port=9001), SegmentConfig(id="b", port=9001))
        with pytest.raises(ValueError, match="duplicate segment address"):
            GatewayConfig(segments=dup)

    def test_port_zero_never_duplicate(self):
        # two ephemeral-port segments on one host are fine; the OS picks
        cfg = GatewayConfig(
            segments=(SegmentConfig(id="a", port=0), SegmentConfig(id="b", port=0)),
        )
        assert len(cfg.segments) == 2

    def test_bad_schema_fails_fast(self):
        with pytest.raises(ValueError):
            GatewayConfig(segments=(seg(1),), schema="value:complex128")
        with pytest.raises(ValueError):
            GatewayConfig(segments=(seg(1),), schema="")

    def test_listeners_positive(self):
        with pytest.raises(ValueError, match="listeners"):
            GatewayConfig(segments=(seg(1),), listeners=0)

    def test_max_slots_positive(self):
        with pytest.raises(ValueError, match="max_slots"):
            GatewayConfig(segments=(seg(1),), max_slots=0)

    def test_listen_addr_needs_port(self):
        with pytest.raises(ValueError, match="listen_addr"):
            GatewayConfig(segments=(seg(1),), listen_addr="localhost")

    @pytest.mark.parametrize("port", ["99999", "65536", "http", "", "-1", "80 ", "\u0668"])
    def test_listen_addr_port_is_a_number_in_range(self, port):
        with pytest.raises(ValueError, match="listen_addr"):
            GatewayConfig(segments=(seg(1),), listen_addr=f"127.0.0.1:{port}")

    def test_listen_addr_port_bounds_are_valid(self):
        for port in (0, 65535):
            cfg = GatewayConfig(segments=(seg(1),), listen_addr=f"127.0.0.1:{port}")
            assert cfg.listen_host_port() == ("127.0.0.1", port)

    def test_negative_queue_capacity(self):
        with pytest.raises(ValueError, match="queue_capacity"):
            GatewayConfig(segments=(seg(1),), queue_capacity=-1)

    def test_segment_port_range(self):
        with pytest.raises(ValueError, match="port out of range"):
            SegmentConfig(id="a", port=70000)
        with pytest.raises(ValueError, match="port out of range"):
            SegmentConfig(id="a", port=-1)

    def test_segment_negative_latency(self):
        with pytest.raises(ValueError, match="non-negative"):
            SegmentConfig(id="a", begin_latency_ms=-1)
        with pytest.raises(ValueError, match="non-negative"):
            SegmentConfig(id="a", commit_per_row_us=-5)

    def test_empty_segment_id(self):
        with pytest.raises(ValueError, match="non-empty"):
            SegmentConfig(id="")

    def test_unknown_keys_named(self):
        with pytest.raises(ValueError, match=r"unknown config keys: \['interval_msec'\]"):
            parse_config(SAMPLE_YAML + "interval_msec: 5\n")
        with pytest.raises(ValueError, match=r"unknown segment keys: \['prot'\]"):
            GatewayConfig.from_dict({"segments": [{"id": "a", "prot": 9001}]})

    def test_schema_obj_matches_spec(self):
        cfg = parse_config(SAMPLE_YAML)
        schema = cfg.schema_obj()
        assert schema.columns == [("value", "float"), ("quality", "int")]
        assert schema.field_count == 4  # device_id, ts, then the two above
