"""Record model and CSV line parsing for the ingest path.

A wire line is ``<device-id>,<timestamp-us>,<v1>,...,<vN>`` where the
value columns are declared by a schema. Parsing never raises on bad
input; it returns a structured rejection instead so the listener can
count and log it.

An accepted line is forwarded to its segment byte for byte, so
validation is strict about spelling, not only about value:

    timestamp  ASCII digits: ``[0-9]+``
    int        ``[+-]?[0-9]+`` (leading zeros allowed)
    float      a finite decimal literal: optional sign, digits with an
               optional fraction or a bare fraction (``.5``), optional
               exponent (``1e3``)
    str        anything without a comma

Whitespace, ``_`` digit separators, non-ASCII digits, ``nan``, ``inf``
and literals that overflow a double are rejected, although Python's
``int()`` and ``float()`` would take them.

A schema also compiles one pattern for runs of whole lines, so a body
can be validated a run at a time: every line it matches is one that
``parse_record`` accepts, and lines it does not match are left to
``parse_record``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from math import isfinite
from typing import Callable, NamedTuple

# wire keywords of the segment protocol; a device id may not collide
# with them because data rows travel on the same connection
_RESERVED_PREFIXES = ("BEGIN", "EOF")

_RAW_TRUNCATE_BYTES = 1024


class Record(NamedTuple):
    """One accepted row: its device id for routing, the producer's line
    verbatim, and ``seq``, the listener's dense accept number, for
    audit; a row re-queued after a failed send carries -1."""

    device_id: str
    line: str
    seq: int

    def to_line(self) -> str:
        return self.line


class RejectReason(str, Enum):
    ARITY = "Arity"
    TYPE = "Type"
    EMPTY_DEVICE = "EmptyDevice"
    BAD_TIMESTAMP = "BadTimestamp"


@dataclass(frozen=True)
class IngestError:
    """A rejected line, with enough context to debug the producer."""

    line_number: int
    raw_line: str  # truncated to 1 KiB
    reason: RejectReason
    at: int  # clock timestamp, microseconds

    @staticmethod
    def truncate(line: str) -> str:
        raw = line.encode("utf-8", errors="replace")
        if len(raw) <= _RAW_TRUNCATE_BYTES:
            return line
        return raw[:_RAW_TRUNCATE_BYTES].decode("utf-8", errors="ignore")


_INT_MATCH = re.compile(r"[+-]?[0-9]+").fullmatch
_FLOAT_MATCH = re.compile(
    r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
).fullmatch


def _float_ok(raw: str) -> bool:
    return _FLOAT_MATCH(raw) is not None and isfinite(float(raw))


# spelling check per column kind; ``str`` takes any field
_CHECKS: dict[str, Callable[[str], object] | None] = {
    "int": _INT_MATCH,
    "float": _float_ok,
    "str": None,
}

# every character ``str.splitlines`` ends a line at; no field of a run
# holds one, so each "\n"-ended line of a run is one line of the body
_LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
# per column kind, a spelling that passes its check: a strict subset,
# so a float with an exponent, or with more integer digits than a
# finite double can hold, is left to the check
_RUN_FIELDS = {
    "int": r"[+-]?[0-9]+",
    "float": r"[+-]?(?:[0-9]{1,308}(?:\.[0-9]*)?|\.[0-9]+)",
    "str": f"[^,{_LINE_BREAKS}]*",
}
_RUN_DEVICE = f"(?!BEGIN|EOF)[^, {_LINE_BREAKS}]+"
# the break that ends a line, where ``str.splitlines`` would end it
LINE_BREAK = re.compile(f"\r\n|[{_LINE_BREAKS}]")


class Schema:
    """Ordered value columns following the two fixed leading columns."""

    def __init__(self, columns: list[tuple[str, str]]) -> None:
        if not columns:
            raise ValueError("schema needs at least one value column")
        for name, kind in columns:
            if kind not in _CHECKS:
                raise ValueError(f"unknown column type {kind!r} for {name!r}")
            if not name:
                raise ValueError("empty column name")
        self.columns = list(columns)
        # (field index, check) for every column whose spelling matters
        self.checks = [
            (i, _CHECKS[kind]) for i, (_, kind) in enumerate(columns, start=2)
            if _CHECKS[kind] is not None
        ]
        self.field_count = 2 + len(columns)
        line = ",".join([_RUN_DEVICE, "[0-9]+"] + [_RUN_FIELDS[k] for _, k in columns])
        self._run = re.compile(f"(?:{line}\n)+")

    def run_end(self, text: str, pos: int) -> int:
        """End of the longest run of "\\n"-ended lines of ``text`` from
        ``pos`` that this schema's pattern matches, or ``pos`` when the
        line at ``pos`` does not match. Every line of the run is one
        line of ``text.splitlines()`` that ``parse_record`` accepts."""
        match = self._run.match(text, pos)
        return match.end() if match else pos

    @classmethod
    def parse_spec(cls, spec: str) -> "Schema":
        """Build a schema from ``name:type,name:type`` notation."""
        columns = []
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            name, sep, kind = part.partition(":")
            if not sep:
                raise ValueError(f"column spec {part!r} is not name:type")
            columns.append((name.strip(), kind.strip()))
        return cls(columns)

    def to_spec(self) -> str:
        return ",".join(f"{n}:{k}" for n, k in self.columns)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Schema) and self.columns == other.columns

    def __repr__(self) -> str:
        return f"Schema({self.to_spec()!r})"


def device_id_ok(device: str) -> bool:
    """A usable device id is non-empty, has no spaces, and does not
    collide with segment wire keywords."""
    if not device or " " in device:
        return False
    return not device.startswith(_RESERVED_PREFIXES)


def parse_record(
    line: str,
    schema: Schema,
    *,
    seq: int = 0,
    line_number: int = 1,
    now_us: int = 0,
) -> Record | IngestError:
    """Validate one CSV line against ``schema``.

    Returns a Record carrying the line unchanged on success, otherwise
    an IngestError with the first applicable rejection reason. Checks
    run in the order: device id, column count, timestamp, value types.
    """
    fields = line.split(",")
    device = fields[0]
    if not device_id_ok(device):
        reason = RejectReason.EMPTY_DEVICE
    elif len(fields) != schema.field_count:
        reason = RejectReason.ARITY
    elif not (fields[1].isdigit() and fields[1].isascii()):
        reason = RejectReason.BAD_TIMESTAMP
    else:
        for i, check in schema.checks:
            if not check(fields[i]):
                reason = RejectReason.TYPE
                break
        else:
            return Record(device, line, seq)
    return IngestError(line_number, IngestError.truncate(line), reason, now_us)
