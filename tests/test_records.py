"""Line parsing: accepted rows keep their line verbatim, bad rows get
the first applicable rejection reason and never an exception."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gateflow.records import (
    IngestError,
    Record,
    RejectReason,
    Schema,
    device_id_ok,
    parse_record,
)

SCHEMA = Schema([("temp", "float"), ("count", "int")])


class TestHappyPath:
    def test_basic_line(self):
        rec = parse_record("dev1,1700000000000000,3.5,7", SCHEMA, seq=42)
        assert isinstance(rec, Record)
        assert rec.device_id == "dev1"
        assert rec.line == "dev1,1700000000000000,3.5,7"
        assert rec.seq == 42

    def test_int_column_accepts_only_ints(self):
        rec = parse_record("dev1,5,1.25,09", SCHEMA)
        assert isinstance(rec, Record)
        assert rec.line == "dev1,5,1.25,09"

    def test_to_line_round_trip(self):
        rec = parse_record("dev1,1700000000000000,3.5,7", SCHEMA)
        again = parse_record(rec.to_line(), SCHEMA)
        assert again.device_id == rec.device_id
        assert again.line == rec.line


class TestStrictSpelling:
    """Accepted lines are forwarded byte for byte, so a value must be
    spelled as a plain ASCII literal, not just be something ``int()``
    or ``float()`` would take."""

    @pytest.mark.parametrize("ts", ["0", "1700000000000000", "007"])
    def test_timestamp_accepted(self, ts):
        assert isinstance(parse_record(f"d,{ts},1.5,7", SCHEMA), Record)

    @pytest.mark.parametrize(
        "ts", ["", "+5", "-0", " 5", "5 ", "1_000", "1e3", "5.0", "\u0665"]
    )
    def test_timestamp_rejected(self, ts):
        err = parse_record(f"d,{ts},1.5,7", SCHEMA)
        assert err.reason is RejectReason.BAD_TIMESTAMP

    @pytest.mark.parametrize("value", ["7", "-7", "+7", "007", "0"])
    def test_int_accepted(self, value):
        assert isinstance(parse_record(f"d,1,1.5,{value}", SCHEMA), Record)

    @pytest.mark.parametrize(
        "value", ["", "1_000", " 7", "7 ", "+", "1e3", "1.0", "0x10", "\u0663"]
    )
    def test_int_rejected(self, value):
        assert parse_record(f"d,1,1.5,{value}", SCHEMA).reason is RejectReason.TYPE

    @pytest.mark.parametrize(
        "value", ["3.50", "-2", "+.5", "5.", "1e3", "-2.5E-3", "1e-999", "-0.0"]
    )
    def test_float_accepted(self, value):
        assert isinstance(parse_record(f"d,1,{value},7", SCHEMA), Record)

    @pytest.mark.parametrize(
        "value",
        ["", "nan", "NaN", "inf", "-Infinity", "1e999", "1_000.5", " 3.5", "3.5 ",
         ".", "e3", "1e", "0x1p3", "\u0663.5"],
    )
    def test_float_rejected(self, value):
        assert parse_record(f"d,1,{value},7", SCHEMA).reason is RejectReason.TYPE

    def test_str_column_takes_any_field(self):
        schema = Schema.parse_spec("tag:str")
        for value in ["", " x ", "nan", "1_000"]:
            rec = parse_record(f"d,1,{value}", schema)
            assert rec.line == f"d,1,{value}"

    def test_accepted_line_is_kept_verbatim(self):
        line = "d1,0005,+.50E+1,+007"
        rec = parse_record(line, SCHEMA)
        assert rec.line == rec.to_line() == line


class TestRejections:
    def test_arity_missing_column(self):
        err = parse_record("dev1,1700000000000000,3.5", SCHEMA, line_number=7)
        assert isinstance(err, IngestError)
        assert err.reason is RejectReason.ARITY
        assert err.line_number == 7

    def test_arity_extra_column(self):
        err = parse_record("dev1,1,3.5,7,extra", SCHEMA)
        assert err.reason is RejectReason.ARITY

    def test_empty_device(self):
        err = parse_record(",1700000000000000,3.5,7", SCHEMA)
        assert err.reason is RejectReason.EMPTY_DEVICE

    def test_reserved_prefix_device(self):
        # the segment wire protocol owns these tokens
        assert parse_record("BEGIN,1,3.5,7", SCHEMA).reason is RejectReason.EMPTY_DEVICE
        assert parse_record("EOFdev,1,3.5,7", SCHEMA).reason is RejectReason.EMPTY_DEVICE

    def test_bad_timestamp(self):
        assert parse_record("dev1,-5,3.5,7", SCHEMA).reason is RejectReason.BAD_TIMESTAMP
        assert parse_record("dev1,xyz,3.5,7", SCHEMA).reason is RejectReason.BAD_TIMESTAMP

    def test_bad_value_type(self):
        assert parse_record("dev1,1,oops,7", SCHEMA).reason is RejectReason.TYPE
        assert parse_record("dev1,1,3.5,7.5", SCHEMA).reason is RejectReason.TYPE

    def test_device_check_precedes_arity(self):
        err = parse_record(",1,3.5", SCHEMA)
        assert err.reason is RejectReason.EMPTY_DEVICE

    def test_raw_line_truncated_to_1k(self):
        long = "x" * 5000
        err = parse_record(long, SCHEMA, line_number=1)
        assert len(err.raw_line.encode()) <= 1024

    def test_empty_line(self):
        assert parse_record("", SCHEMA).reason is RejectReason.EMPTY_DEVICE


class TestSchema:
    def test_spec_round_trip(self):
        s = Schema.parse_spec("temp:float, count:int, tag:str")
        assert s.to_spec() == "temp:float,count:int,tag:str"
        assert s.field_count == 5
        assert Schema.parse_spec(s.to_spec()) == s

    def test_rejects_unknown_type(self):
        with pytest.raises(ValueError):
            Schema([("bad", "decimal")])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Schema([])
        with pytest.raises(ValueError):
            Schema.parse_spec("nocolon")


class TestDeviceIds:
    @pytest.mark.parametrize("dev", ["d1", "sensor-7", "a.b.c", "X"])
    def test_good(self, dev):
        assert device_id_ok(dev)

    @pytest.mark.parametrize("dev", ["", "has space", "BEGIN", "BEGINx", "EOF", "EOF2"])
    def test_bad(self, dev):
        assert not device_id_ok(dev)


_device = st.from_regex(r"[a-zA-Z0-9_.\-]{1,20}", fullmatch=True).filter(
    lambda d: not d.startswith(("BEGIN", "EOF"))
)
_floats = st.floats(allow_nan=False, allow_infinity=False, width=32)


@settings(max_examples=200, deadline=None)
@given(
    device=_device,
    ts=st.integers(min_value=0, max_value=2**62),
    fval=_floats,
    ival=st.integers(-(2**31), 2**31),
)
def test_round_trip_property(device, ts, fval, ival):
    line = f"{device},{ts},{fval!r},{ival}"
    rec = parse_record(line, SCHEMA, seq=1)
    assert isinstance(rec, Record), line
    assert rec.device_id == device
    assert rec.line == line


@settings(max_examples=300, deadline=None)
@given(line=st.text(max_size=200))
def test_never_raises(line):
    out = parse_record(line.replace("\n", " "), SCHEMA)
    assert isinstance(out, (Record, IngestError))
