"""Timestamp helpers (UTC, second resolution)."""

from __future__ import annotations

from datetime import datetime, timezone
from functools import lru_cache

ISO_FORMAT = "%Y-%m-%dT%H:%M:%SZ"
BASIC_FORMAT = "%Y%m%dT%H%M%SZ"


def format_iso(ts: datetime) -> str:
    return _format_iso(ts, ts.fold)


# The oracle writer formats one time per event, and every event of a tick
# shares it, so a small cache answers most calls. The CSV sink keeps its own memo.
# The key holds ``fold`` because the two sides of a DST fold compare and hash
# equal although they are an hour apart.
@lru_cache(maxsize=64)
def _format_iso(ts: datetime, fold: int) -> str:
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
