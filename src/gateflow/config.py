"""Gateway configuration: one YAML file describing the listener, the
schema, scheduler timing, and the segment cluster.

Parsing and serialization are inverses, so parse(serialize(parse(x)))
== parse(x) and the config hash embedded in benchmark reports pins the
exact effective configuration.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, fields
from typing import Any, TextIO

import yaml

from .records import Schema

DEFAULT_LISTEN = "127.0.0.1:8080"


def known_keys(cls: type, data: dict[str, Any], what: str) -> dict[str, Any]:
    """A copy of ``data``; a key that no field of ``cls`` takes is a ValueError."""
    unknown = set(data) - {f.name for f in fields(cls)}
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")
    return dict(data)


def require(kind: type, owner: str, **values: Any) -> None:
    """Raise a ValueError that names the first value not of ``kind``
    (a bool is no int here), so that a mistyped key is reported before
    anything compares it. ``owner`` prefixes the key in the message."""
    for key, value in values.items():
        if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
            raise ValueError(f"{owner}{key} must be {kind.__name__}, got {value!r}")


@dataclass(frozen=True)
class SegmentConfig:
    """Address and simulated latency profile of one segment."""

    id: str
    host: str = "127.0.0.1"
    port: int = 9001
    begin_latency_ms: int = 0
    commit_fixed_ms: int = 0
    commit_per_row_us: int = 0

    def __post_init__(self) -> None:
        require(str, "segment ", id=self.id)
        if not self.id:
            raise ValueError("segment id must be non-empty")
        require(str, f"segment {self.id}: ", host=self.host)
        require(int, f"segment {self.id}: ", port=self.port,
                begin_latency_ms=self.begin_latency_ms, commit_fixed_ms=self.commit_fixed_ms,
                commit_per_row_us=self.commit_per_row_us)
        if not (0 <= self.port < 65536):  # 0 asks the OS for a port
            raise ValueError(f"segment {self.id}: port out of range")
        if min(self.begin_latency_ms, self.commit_fixed_ms, self.commit_per_row_us) < 0:
            raise ValueError(f"segment {self.id}: latencies must be non-negative")


@dataclass(frozen=True)
class GatewayConfig:
    segments: tuple[SegmentConfig, ...]
    listen_addr: str = DEFAULT_LISTEN
    schema: str = "value:float"
    interval_ms: int = 100
    dispatch_cycle_ms: int = 10_000
    max_slots: int = 64
    queue_capacity: int | None = None
    # accepted and validated, but a no-op: the gateway has one ingest
    # worker on its one event loop, where more would add no parallelism
    listeners: int = 1

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValueError("at least one segment is required")
        require(str, "", listen_addr=self.listen_addr, schema=self.schema)
        require(int, "", interval_ms=self.interval_ms, dispatch_cycle_ms=self.dispatch_cycle_ms,
                max_slots=self.max_slots, listeners=self.listeners)
        if self.queue_capacity is not None:
            require(int, "", queue_capacity=self.queue_capacity)
        if self.interval_ms <= 0:
            raise ValueError("interval_ms must be positive")
        if self.dispatch_cycle_ms < self.interval_ms:
            raise ValueError("dispatch_cycle_ms must be >= interval_ms")
        if self.max_slots < 1:
            raise ValueError("max_slots must be >= 1")
        if self.queue_capacity is not None and self.queue_capacity < 0:
            raise ValueError("queue_capacity must be non-negative")
        if self.listeners < 1:
            raise ValueError("listeners must be >= 1")
        _, colon, port = self.listen_addr.rpartition(":")
        if not colon:
            raise ValueError("listen_addr must be host:port")
        if not (port.isascii() and port.isdigit() and int(port) < 65536):
            raise ValueError(f"listen_addr port must be a number in 0-65535, got {port!r}")
        seen_addr: set[tuple[str, int]] = set()
        seen_id: set[str] = set()
        for seg in self.segments:
            if seg.id in seen_id:
                raise ValueError(f"duplicate segment id {seg.id!r}")
            addr = (seg.host, seg.port)
            if seg.port != 0 and addr in seen_addr:
                raise ValueError(f"duplicate segment address {seg.host}:{seg.port}")
            seen_id.add(seg.id)
            seen_addr.add(addr)
        Schema.parse_spec(self.schema)  # fail fast on a bad column list

    def schema_obj(self) -> Schema:
        return Schema.parse_spec(self.schema)

    def listen_host_port(self) -> tuple[str, int]:
        host, _, port = self.listen_addr.rpartition(":")
        return host, int(port)

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "GatewayConfig":
        known = known_keys(cls, data, "config")
        segments = known.pop("segments", ())
        if not isinstance(segments, (list, tuple)) or not all(
            isinstance(seg, dict) for seg in segments
        ):
            raise ValueError(f"segments must be a list of mappings, got {segments!r}")
        segments = tuple(
            SegmentConfig(**known_keys(SegmentConfig, seg, "segment"))
            for seg in segments
        )
        return cls(segments=segments, **known)

    def to_yaml(self) -> str:
        return yaml.safe_dump(self.to_dict(), sort_keys=True)

    def config_hash(self) -> str:
        raw = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(raw.encode()).hexdigest()[:12]


def parse_config(source: str | TextIO) -> GatewayConfig:
    """The config in YAML text or an open file; a file's parse errors
    carry its name."""
    data = yaml.safe_load(source)
    if not isinstance(data, dict):
        raise ValueError("config root must be a mapping")
    return GatewayConfig.from_dict(data)


def load_config(path: str) -> GatewayConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh)
