"""Timestamp helpers (UTC, second resolution), uncached: a writer that formats
one instant many times keeps its own memo, as ``eventlog.CsvEventSink`` does
for each poll and each ``extend``."""

from __future__ import annotations

from datetime import datetime, timezone

ISO_FORMAT = "%Y-%m-%dT%H:%M:%SZ"
BASIC_FORMAT = "%Y%m%dT%H%M%SZ"


def format_iso(ts: datetime) -> str:
    return ts.astimezone(timezone.utc).strftime(ISO_FORMAT)


def parse_iso(value: str) -> datetime:
    return datetime.strptime(value, ISO_FORMAT).replace(tzinfo=timezone.utc)


def format_basic(ts: datetime) -> str:
    return ts.astimezone(timezone.utc).strftime(BASIC_FORMAT)


def parse_basic(value: str) -> datetime:
    """Read ``YYYYMMDDTHHMMSSZ`` by slicing; any other form raises ``ValueError``."""
    digits = value[:8] + value[9:15]
    if not (
        len(value) == 16
        and value[8] == "T"
        and value[15] == "Z"
        and digits.isascii()
        and digits.isdigit()
    ):
        raise ValueError(f"not a YYYYMMDDTHHMMSSZ timestamp: {value!r}")
    return datetime(
        int(value[0:4]),
        int(value[4:6]),
        int(value[6:8]),
        int(value[9:11]),
        int(value[11:13]),
        int(value[13:15]),
        tzinfo=timezone.utc,
    )
